"""Consensus rankings from per-year score tables.

A span's years are normalized once (``YearTables.normalized``) and three
aggregation families read that view: a normalized score sum over the
years, positional (Borda-style) point counts with several combining
variants, and Fagin-style top-k by mean normalized score. Each
institution's per-year Borda points are counted once per span from the
normalized years' id orders (``YearTables.points``), and every variant
combines that one table (``borda_combine``). A normalized year is its
integer numerators over the year's top numerator, so sums and orderings
are integer arithmetic; the normalized sum is ``scoring.over_lcm`` over
the years. A ranking (``RankList``) is built only for a list that is
written or graded; it is its items in order, and its ranks are numbered
when it is written. One builder (``_ranked``, over
``scoring.order_by_score``) makes every ranking: higher values first,
score ties by institution id ascending. A ranking file is read back through
``scoring.read_checked_rows``, the score file's reader, plus the checks
only a ranking needs.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Mapping, NamedTuple, Sequence

from .ingest import MalformedRowError, _new_tuple
from .scoring import (
    ScoreTable,
    drop_unknown,
    normalize,
    order_by_score,
    over_lcm,
    read_checked_rows,
    write_output,
)

METHOD_NORMALIZED_SUM = "normalized_sum"
METHOD_BORDA = "borda"
METHOD_FAGIN = "fagin"

BORDA_VARIANTS = ("sum", "median", "geometric_mean", "p_norm")

DEFAULT_TOP_K = 20


class KTooLargeError(ValueError):
    """Requested more items than the universe holds."""


class InvalidPError(ValueError):
    """The p-norm exponent must be finite, > 0, and small enough for the point counts."""


class RankedItem(NamedTuple):
    institution_id: str
    score: float


class RankList(NamedTuple):
    """Items best first, scores non-increasing, ids unique; rank is position + 1."""

    items: tuple[RankedItem, ...]

    def ids(self) -> list[str]:
        return [item.institution_id for item in self.items]


def check_borda(variant: str, p: float | None) -> None:
    """The one check of a borda variant and its p-norm exponent."""
    if variant not in BORDA_VARIANTS:
        raise ValueError(f"unknown borda variant {variant!r}")
    if variant == "p_norm" and (p is None or not p > 0):
        raise InvalidPError(f"p must be > 0, got {p!r}")


class AggregationSpec(NamedTuple):
    """A choice of aggregation method; ``parse`` builds and checks one.

    ``borda_variant`` and ``p`` apply only to the borda method; ``fagin_k``
    only to fagin, defaulting to the usual top-20 cutoff. The constructor
    checks nothing: a bad spec built directly is rejected when it runs.
    """

    method: str
    borda_variant: str = "sum"
    p: float | None = None
    fagin_k: int = DEFAULT_TOP_K

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
            return cls(METHOD_NORMALIZED_SUM)
        if name == METHOD_BORDA:
            variant = parts[1] if len(parts) > 1 else "sum"
            p = None
            if variant == "p_norm":
                if len(parts) != 3:
                    raise ValueError(f"p_norm needs an exponent: {text!r}")
                try:
                    p = float(parts[2])
                except ValueError:
                    raise ValueError(f"p must be a number: {text!r}") from None
                if p == math.inf:
                    raise InvalidPError(f"p must be finite: {text!r}")
            elif len(parts) > 2:
                raise ValueError(f"unexpected argument in {text!r}")
            check_borda(variant, p)
            return cls(METHOD_BORDA, variant, p)
        if name == METHOD_FAGIN:
            if len(parts) > 2:
                raise ValueError(f"unexpected argument in {text!r}")
            try:
                fagin_k = int(parts[1]) if len(parts) == 2 else DEFAULT_TOP_K
            except ValueError:
                raise ValueError(f"fagin_k must be an integer: {text!r}") from None
            if fagin_k < 1:
                raise ValueError(f"fagin_k must be >= 1, got {fagin_k}")
            return cls(METHOD_FAGIN, fagin_k=fagin_k)
        raise ValueError(f"unknown aggregation method {name!r}")


def _ranked(scores: Mapping[str, float], denominator: int = 1, k: int | None = None) -> RankList:
    """The one ranking builder: ``order_by_score`` cut at ``k``, scores over ``denominator``."""
    ordered = order_by_score(scores)[:k]
    return RankList(
        tuple([_new_tuple(RankedItem, (inst, value / denominator)) for inst, value in ordered])
    )


def to_ranking(table: ScoreTable) -> RankList:
    """The table without the UNKNOWN sentinel, ordered by its integer numerators.

    Each item's score is the float of its exact value.
    """
    visible = drop_unknown(table)
    return _ranked(visible.numerators, visible.denominator)


class YearTables:
    """One venue's per-year tables, in year order, normalized and counted once, up front.

    The UNKNOWN sentinel is dropped and every year scaled to a maximum of
    1: a normalized year is the year's numerators over its top numerator,
    so building it copies nothing. ``normalized`` is the one view every
    method reads. ``points`` holds each institution's Borda points in the
    normalized years' orders (``borda_points``), which every positional
    method combines. A span of years is its own ``YearTables``, built from
    that span's tables.
    """

    def __init__(self, tables: Sequence[ScoreTable]) -> None:
        if not tables:
            raise ValueError("no year tables to aggregate")
        self.normalized = [normalize(drop_unknown(table)) for table in tables]
        self.points = borda_points(
            [[inst for inst, _ in order_by_score(table.numerators)] for table in self.normalized]
        )


def normalized_sum(year_tables: YearTables) -> ScoreTable:
    """Sum each institution's normalized scores over the years.

    Years where an institution is absent contribute nothing, and an
    all-zero year adds 0 but keeps its institutions. The sum is exact, an
    integer over the lcm of the years' denominators (their tops), so
    rescaling any year's raw scores by a positive constant leaves the
    result bit-identical.
    """
    return over_lcm(
        None, [(table.denominator, table.numerators) for table in year_tables.normalized]
    )


def borda_points(orders: Sequence[Sequence[str]]) -> dict[str, list[int]]:
    """Each institution's positional points in every order, 0 where it is absent.

    An order is a list's institution ids, best first. In an order of n ids
    the first earns n points and the last 1.
    """
    count = len(orders)
    points: dict[str, list[int]] = {}
    for index, order in enumerate(orders):
        n = len(order)
        for position, institution in enumerate(order):
            vector = points.get(institution)
            if vector is None:
                vector = points[institution] = [0] * count
            vector[index] = n - position
    return points


def borda_combine(
    points: Mapping[str, Sequence[int]], variant: str = "sum", p: float | None = None
) -> RankList:
    """The one Borda step: rank by each institution's combined per-list points.

    ``points`` is what ``borda_points`` counts. Variants:

    - ``sum``: total points (the classic count).
    - ``median``: median of the per-list points.
    - ``geometric_mean``: L-th root of the product; any absence zeroes it.
    - ``p_norm``: mean of the points raised to ``p``; at p=1 this is the
      sum scaled by 1/L, so it orders identically to ``sum``.

    Each item's score is its combined points. Point values are small
    integers and float reductions go through ``math.fsum``, so results do
    not depend on list order. A ``p`` so large that a point count raised
    to it overflows a float raises ``InvalidPError``.
    """
    check_borda(variant, p)
    if variant == "sum":
        combine = sum
    elif variant == "median":

        def combine(values):  # statistics.median, without importing it
            ordered = sorted(values)
            middle = len(ordered) // 2
            if len(ordered) % 2:
                return ordered[middle]
            return (ordered[middle - 1] + ordered[middle]) / 2

    elif variant == "geometric_mean":

        def combine(values):
            if 0 in values:
                return 0.0
            return math.exp(math.fsum(math.log(v) for v in values) / len(values))

    else:

        def combine(values):
            total = math.fsum(float(v) ** p for v in values)
            if total == math.inf:  # p = inf raises nothing on its own
                raise OverflowError
            return total / len(values)

    try:
        combined = {institution: combine(values) for institution, values in points.items()}
    except OverflowError:
        largest = max(count for values in points.values() for count in values)
        raise InvalidPError(
            f"p={p:g} is too large: point counts up to {largest} "
            "raised to p overflow a float"
        ) from None
    return _ranked(combined)


def fagin_topk(tables: Sequence[ScoreTable], k: int) -> RankList:
    """Top k institutions by mean score over the normalized year tables.

    An institution absent from a year counts 0 there. This is the result
    Fagin's threshold algorithm returns over the yearly lists padded to
    one universe, computed directly rather than by a sorted-access walk.

    Returns k items by mean descending, id ascending.
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
    means = {
        institution: math.fsum(
            table.numerators.get(institution, 0) / table.denominator for table in tables
        )
        / len(tables)
        for institution in universe
    }
    return _ranked(means, k=k)


def run_aggregation(spec: AggregationSpec, year_tables: YearTables) -> RankList:
    """Aggregate one venue's years into one final ranking.

    Every method reads the normalized years; the positional methods read
    their Borda points. The UNKNOWN sentinel never takes part.
    """
    if spec.method == METHOD_NORMALIZED_SUM:
        return to_ranking(normalized_sum(year_tables))
    if spec.method == METHOD_BORDA:
        return borda_combine(year_tables.points, spec.borda_variant, spec.p)
    if spec.method == METHOD_FAGIN:
        return fagin_topk(year_tables.normalized, spec.fagin_k)
    raise ValueError(f"unknown aggregation method {spec.method!r}")


def rank_venue(
    venue_id: str, years: YearTables, specs: Sequence[AggregationSpec]
) -> dict[str, RankList]:
    """Each spec's ranking of one venue's years, by label in spec order.

    A spec that does not fit the data raises its ``KTooLargeError`` or
    ``InvalidPError`` again, named by venue and method.
    """
    rankings = {}
    for spec in specs:
        try:
            rankings[spec.label] = run_aggregation(spec, years)
        except (KTooLargeError, InvalidPError) as exc:
            raise type(exc)(f"venue {venue_id!r}, method {spec.label}: {exc}") from exc
    return rankings


def ranking_file_name(venue_id: str, label: str) -> str:
    return f"ranking_{venue_id}_{label}.csv"


def write_ranking_csv(rank_list: RankList, path: str) -> None:
    """Write ``rank,institution_id,score`` in order, ranks 1, 2, ... down the file."""
    rows = "".join(
        f"{rank},{institution},{float(score)!r}\n"
        for rank, (institution, score) in enumerate(rank_list.items, start=1)
    )
    with write_output(path) as out:
        out.write("rank,institution_id,score\n" + rows)


def read_ranking_csv(path: str) -> RankList:
    """Read a file written by write_ranking_csv.

    The rows are checked by ``scoring.read_checked_rows``. On top of that,
    a rank that is not an integer or not the row's position (1, 2, ...
    down the file), or a score above the one before it, raises
    ``MalformedRowError`` naming the file and the row.
    """
    items: list[RankedItem] = []
    for line_number, rank_text, institution, score_text, score in read_checked_rows(
        path, "rank,institution_id,score", "ranking"
    ):
        try:
            rank = int(rank_text)
        except ValueError as exc:
            raise MalformedRowError(path, line_number, str(exc)) from None
        if rank != len(items) + 1:
            raise MalformedRowError(
                path, line_number, f"rank {rank} where {len(items) + 1} is due"
            )
        if items and score > items[-1].score:
            raise MalformedRowError(
                path, line_number, f"score {score_text} is above the score before it"
            )
        items.append(RankedItem(institution, score))
    return RankList(tuple(items))


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
        f'    {{\n      "rank": {rank},\n'
        f'      "institution_id": {string(institution)},\n'
        f'      "score": {_json_number(float(score))}\n    }}'
        for rank, (institution, score) in enumerate(rank_list.items, start=1)
    )
    fields = ",\n".join(f'    "{key}": {value}' for key, value in method)
    listed = f"[\n{items}\n  ]" if items else "[]"
    with write_output(path) as out:
        out.write(f'{{\n  "method": {{\n{fields}\n  }},\n  "items": {listed}\n}}\n')
