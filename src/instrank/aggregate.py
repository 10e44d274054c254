"""Consensus rankings from per-year score tables.

Every year is normalized once (``YearTables.normalized``) and three
aggregation families read that view: a normalized score sum over the
years, positional (Borda-style) point counts with several combining
variants, and Fagin-style top-k by mean normalized score. A normalized
year is its integer numerators over the year's top numerator, so sums
and orderings are integer arithmetic. All of them rank higher values
first and break score ties by institution id ascending, so every output
is deterministic.
"""

from __future__ import annotations

import math
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from .scoring import (
    MalformedFileError,
    ScoreTable,
    drop_unknown,
    normalize,
    order_by_score,
)

METHOD_NORMALIZED_SUM = "normalized_sum"
METHOD_BORDA = "borda"
METHOD_FAGIN = "fagin"
METHODS = (METHOD_NORMALIZED_SUM, METHOD_BORDA, METHOD_FAGIN)

BORDA_VARIANTS = ("sum", "median", "geometric_mean", "p_norm")

DEFAULT_TOP_K = 20


class KTooLargeError(ValueError):
    """Requested more items than the universe holds."""


class InvalidPError(ValueError):
    """The p-norm exponent must be finite, > 0, and small enough for the point counts."""


class RankedItem(NamedTuple):
    rank: int
    institution_id: str
    score: float


class RankList(NamedTuple):
    """Items in rank order 1..n, scores non-increasing, ids unique."""

    label: str
    items: tuple[RankedItem, ...]

    def ids(self) -> list[str]:
        return [item.institution_id for item in self.items]


def check_borda(variant: str, p: float | None) -> None:
    """The one check of a borda variant and its p-norm exponent."""
    if variant not in BORDA_VARIANTS:
        raise ValueError(f"unknown borda variant {variant!r}")
    if variant == "p_norm" and (p is None or not p > 0):
        raise InvalidPError(f"p must be > 0, got {p!r}")


class AggregationSpec:
    """A parsed choice of aggregation method.

    ``borda_variant`` and ``p`` apply only to the borda method; ``fagin_k``
    only to fagin, defaulting to the usual top-20 cutoff.
    """

    __slots__ = ("method", "borda_variant", "p", "fagin_k", "text")

    def __init__(
        self,
        method: str,
        borda_variant: str = "sum",
        p: float | None = None,
        fagin_k: int | None = None,
        text: str = "",
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"unknown aggregation method {method!r}")
        if method == METHOD_BORDA:
            check_borda(borda_variant, p)
        if method == METHOD_FAGIN:
            if fagin_k is None:
                fagin_k = DEFAULT_TOP_K
            elif fagin_k < 1:
                raise ValueError(f"fagin_k must be >= 1, got {fagin_k}")
        self.method = method
        self.borda_variant = borda_variant
        self.p = p
        self.fagin_k = fagin_k
        # The spec as written, for messages; empty unless parsed. Not part of its identity.
        self.text = text

    def _key(self) -> tuple:
        return (self.method, self.borda_variant, self.p, self.fagin_k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregationSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"AggregationSpec(method={self.method!r}, borda_variant={self.borda_variant!r}, "
            f"p={self.p!r}, fagin_k={self.fagin_k!r})"
        )

    @property
    def label(self) -> str:
        if self.method == METHOD_BORDA:
            if self.borda_variant == "p_norm":
                return f"borda_p_norm_{self.p:g}"
            return f"borda_{self.borda_variant}"
        return self.method

    @classmethod
    def parse(cls, text: str) -> "AggregationSpec":
        """Parse specs like ``borda:median``, ``borda:p_norm:2`` or ``fagin:50``."""
        text = text.strip()
        parts = text.split(":")
        name = parts[0]
        if name == METHOD_NORMALIZED_SUM:
            if len(parts) > 1:
                raise ValueError(f"{name} takes no arguments: {text!r}")
            return cls(METHOD_NORMALIZED_SUM, text=text)
        if name == METHOD_BORDA:
            variant = parts[1] if len(parts) > 1 else "sum"
            if variant == "p_norm":
                if len(parts) != 3:
                    raise ValueError(f"p_norm needs an exponent: {text!r}")
                p = float(parts[2])
                if p == math.inf:
                    raise InvalidPError(f"p must be finite: {text!r}")
                return cls(METHOD_BORDA, "p_norm", p=p, text=text)
            if len(parts) > 2:
                raise ValueError(f"unexpected argument in {text!r}")
            return cls(METHOD_BORDA, variant, text=text)
        if name == METHOD_FAGIN:
            if len(parts) == 1:
                return cls(METHOD_FAGIN, text=text)
            if len(parts) == 2:
                return cls(METHOD_FAGIN, fagin_k=int(parts[1]), text=text)
            raise ValueError(f"unexpected argument in {text!r}")
        raise ValueError(f"unknown aggregation method {name!r}")


def to_ranking(table: ScoreTable, label: str | None = None) -> RankList:
    """Order a table into ranks 1..n, highest score first, ties by id ascending.

    The sort compares the table's integer numerators; each item's score is
    the float of its exact value. The UNKNOWN sentinel is dropped first.
    The label defaults to the table's own (its year, or ``aggregate``).
    """
    visible = drop_unknown(table)
    denominator = visible.denominator
    items = tuple(
        RankedItem(position, institution, numerator / denominator)
        for position, (institution, numerator) in enumerate(
            order_by_score(visible.numerators), start=1
        )
    )
    return RankList(table.label if label is None else label, items)


class YearTables:
    """One venue's per-year tables, normalized once for any number of specs.

    The UNKNOWN sentinel is dropped and every year scaled to a maximum of
    1 up front: a normalized year is the year's numerators over its top
    numerator, so building it copies nothing. ``normalized`` is the one
    view every method reads. The yearly rankings the positional methods
    start from are built from it on first use, and both are shared by
    every spec aggregated over the same years; ``through`` shares the
    views with a shorter span.
    """

    def __init__(self, tables: Sequence[ScoreTable]) -> None:
        if not tables:
            raise ValueError("no year tables to aggregate")
        self.normalized = [normalize(drop_unknown(table)) for table in tables]

    def through(self, year: int) -> "YearTables":
        """The years up to ``year``, sharing these normalized views."""
        head = object.__new__(YearTables)
        head.normalized = [table for table in self.normalized if table.year <= year]
        return head

    @cached_property
    def rankings(self) -> list[RankList]:
        return [to_ranking(table) for table in self.normalized]


def normalized_sum(year_tables: YearTables | Sequence[ScoreTable]) -> ScoreTable:
    """Sum each institution's normalized scores over the years.

    Years where an institution is absent contribute nothing, and an
    all-zero year adds 0 but keeps its institutions. The sum is exact, an
    integer over the lcm of the years' denominators (their tops), so
    rescaling any year's raw scores by a positive constant leaves the
    result bit-identical.
    """
    if not isinstance(year_tables, YearTables):
        year_tables = YearTables(year_tables)
    tables = year_tables.normalized
    common = math.lcm(*(table.denominator for table in tables))
    totals: dict[str, int] = {}
    for table in tables:
        factor = common // table.denominator
        for institution, numerator in table.numerators.items():
            totals[institution] = totals.get(institution, 0) + numerator * factor
    return ScoreTable.from_numerators(None, dict(sorted(totals.items())), common)


def borda_scores(rank_list: RankList) -> dict[str, int]:
    """Positional points for one list: n for rank 1 down to 1 for rank n."""
    n = len(rank_list.items)
    return {item.institution_id: n - item.rank + 1 for item in rank_list.items}


def borda_aggregate(
    rank_lists: Sequence[RankList],
    variant: str = "sum",
    p: float | None = None,
) -> ScoreTable:
    """Combine per-list positional points across lists.

    Institutions absent from a list take 0 points there. Variants:

    - ``sum``: total points (the classic count).
    - ``median``: median of the per-list points.
    - ``geometric_mean``: L-th root of the product; any absence zeroes it.
    - ``p_norm``: mean of the points raised to ``p``; at p=1 this is the
      sum scaled by 1/L, so it orders identically to ``sum``.

    Point values are small integers and float reductions go through
    ``math.fsum``, so results do not depend on list order. A ``p`` so large
    that a point count raised to it overflows a float raises
    ``InvalidPError``.
    """
    if not rank_lists:
        raise ValueError("no rank lists to aggregate")
    check_borda(variant, p)
    points = [borda_scores(rl) for rl in rank_lists]
    universe = sorted({institution for pts in points for institution in pts})
    count = len(rank_lists)
    if variant == "sum":
        combine = sum
    elif variant == "median":
        from statistics import median as combine
    elif variant == "geometric_mean":

        def combine(values):
            if 0 in values:
                return 0.0
            return math.exp(math.fsum(math.log(v) for v in values) / count)

    else:

        def combine(values):
            return math.fsum(float(v) ** p for v in values) / count

    try:
        return ScoreTable(
            None,
            {
                institution: combine([pts.get(institution, 0) for pts in points])
                for institution in universe
            },
        )
    except OverflowError:
        raise InvalidPError(
            f"p={p:g} is too large: point counts up to {len(universe)} "
            "raised to p overflow a float"
        ) from None


def fagin_topk(tables: Sequence[ScoreTable], k: int) -> RankList:
    """Top k institutions by mean score over the normalized year tables.

    An institution absent from a year counts 0 there. This is the result
    Fagin's threshold algorithm returns over the yearly lists padded to
    one universe, computed directly rather than by a sorted-access walk.

    Returns ranks 1..k by mean descending, id ascending.
    """
    if not tables:
        raise ValueError("no year tables given")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    universe = {institution for table in tables for institution in table.numerators}
    n = len(universe)
    if k > n:
        raise KTooLargeError(f"k={k} exceeds universe of {n}")
    # Each year's value is the float of its exact score; fsum makes the
    # mean independent of year order.
    values = [
        {
            institution: numerator / table.denominator
            for institution, numerator in table.numerators.items()
        }
        for table in tables
    ]
    means = {
        institution: math.fsum(year.get(institution, 0.0) for year in values) / len(tables)
        for institution in universe
    }
    ordered = sorted(means, key=lambda inst: (-means[inst], inst))[:k]
    items = tuple(
        RankedItem(position, institution, means[institution])
        for position, institution in enumerate(ordered, start=1)
    )
    return RankList("fagin", items)


def run_aggregation(
    spec: AggregationSpec, year_tables: YearTables | Sequence[ScoreTable]
) -> RankList:
    """Aggregate per-year raw tables into one final ranking.

    Every method reads the normalized years; the positional methods read
    them as yearly rankings. The UNKNOWN sentinel never takes part. Pass a
    ``YearTables`` to share the normalized years between several specs.
    """
    if not isinstance(year_tables, YearTables):
        year_tables = YearTables(year_tables)
    if spec.method == METHOD_NORMALIZED_SUM:
        return to_ranking(normalized_sum(year_tables), label=spec.label)
    if spec.method == METHOD_BORDA:
        final = borda_aggregate(year_tables.rankings, spec.borda_variant, spec.p)
        return to_ranking(final, label=spec.label)
    top = fagin_topk(year_tables.normalized, spec.fagin_k or DEFAULT_TOP_K)
    return RankList(spec.label, top.items)


def ranking_file_name(venue_id: str, label: str) -> str:
    return f"ranking_{venue_id}_{label}.csv"


def write_ranking_csv(rank_list: RankList, path: str) -> None:
    """Write ``rank,institution_id,score`` in rank order."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("rank,institution_id,score\n")
        for item in rank_list.items:
            out.write(f"{item.rank},{item.institution_id},{float(item.score)!r}\n")


def read_ranking_csv(path: str, label: str) -> RankList:
    """Read a file written by write_ranking_csv.

    A bad header or rank, a score that is not a finite number >= 0, a
    rank that is not the row's position (1, 2, ... down the file), an
    empty institution id, an institution listed twice, or a score above
    the one before it raises
    ``MalformedFileError`` naming the file and the row (the header is row 1).
    """
    items: list[RankedItem] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="\n") as src:
        header = src.readline()
        if header.strip() != "rank,institution_id,score":
            raise MalformedFileError(path, 1, f"not a ranking header: {header.strip()!r}")
        for line_number, line in enumerate(src, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            # Institution ids may contain commas; rank and score cannot.
            rank_text, _, rest = line.partition(",")
            institution, _, score_text = rest.rpartition(",")
            try:
                item = RankedItem(int(rank_text), institution, float(score_text))
            except ValueError as exc:
                raise MalformedFileError(path, line_number, str(exc)) from None
            if not 0 <= item.score < math.inf:
                raise MalformedFileError(
                    path, line_number, f"score {score_text!r} is not a finite number >= 0"
                )
            if item.rank != len(items) + 1:
                raise MalformedFileError(
                    path, line_number, f"rank {item.rank} where {len(items) + 1} is due"
                )
            if not institution:
                raise MalformedFileError(path, line_number, "empty institution id")
            if institution in seen:
                raise MalformedFileError(
                    path, line_number, f"institution {institution!r} is listed twice"
                )
            if items and item.score > items[-1].score:
                raise MalformedFileError(
                    path, line_number, f"score {score_text} is above the score before it"
                )
            seen.add(institution)
            items.append(item)
    return RankList(label, tuple(items))


def _json_number(value: float | int | None) -> str:
    """A number or ``None`` as ``json.dump`` writes it."""
    if value is None:
        return "null"
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return repr(value)


def write_ranking_json(rank_list: RankList, spec: AggregationSpec, path: str) -> None:
    """Write the ranking with the aggregation settings echoed alongside.

    The bytes are those of ``json.dump(payload, out, indent=2)`` plus a
    final newline, formatted directly: ``json.dump`` with ``indent`` runs
    the pure-Python encoder, several times slower on a long ranking.
    """
    string = encode_basestring_ascii
    method = (
        ("name", string(spec.method)),
        (
            "borda_variant",
            string(spec.borda_variant) if spec.method == METHOD_BORDA else "null",
        ),
        ("p", _json_number(spec.p)),
        ("fagin_k", _json_number(spec.fagin_k if spec.method == METHOD_FAGIN else None)),
        ("label", string(spec.label)),
    )
    items = ",\n".join(
        f'    {{\n      "rank": {item.rank!r},\n'
        f'      "institution_id": {string(item.institution_id)},\n'
        f'      "score": {_json_number(float(item.score))}\n    }}'
        for item in rank_list.items
    )
    fields = ",\n".join(f'    "{key}": {value}' for key, value in method)
    listed = f"[\n{items}\n  ]" if items else "[]"
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(f'{{\n  "method": {{\n{fields}\n  }},\n  "items": {listed}\n}}\n')
