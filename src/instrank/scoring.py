"""Per-year institution credit tables.

Each paper carries one unit of credit, split equally over its distinct
authors, then over each author's distinct institutions on that paper.
Credit is exact: a table holds integer numerators over one common
denominator, so accumulation is associative and any order of the paper
stream gives a bit-identical table. ``ScoreTable`` is the one
table type: it carries a year's credit through the score file, its
read-back and aggregation, and with no year it holds an aggregated
result. ``score_venue_years`` is the one credit path and holds the
attribution rule; a single paper's split (``paper_shares``) is that path
run on one paper. Credit is counted per denominator, as plain integers,
and put over the lcm of the denominators seen only when the table is
built. No ``Fraction`` is built anywhere on this path.
Tables are keyed in sorted institution order for reproducible iteration.
"""

from __future__ import annotations

import logging
import math
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .ingest import (
    UNKNOWN_INSTITUTION,
    AttributedPaper,
    PaperRecord,
    RowReader,
    index_affiliations,
)

log = logging.getLogger(__name__)

# perfbench/prepare.py still builds ``ScoreTable(year, entries, RAW)``;
# the third argument is accepted and ignored.
RAW = "raw"


class MalformedFileError(ValueError):
    """A score or ranking file row that cannot be read back."""

    def __init__(self, path: str, line_number: int, reason: str):
        super().__init__(f"{path}: row {line_number}: {reason}")
        self.path = path
        self.line_number = line_number
        self.reason = reason


class ScoreTable:
    """Institution scores ``numerators[i] / denominator`` for one year.

    With ``year`` ``None`` the table is an aggregated result over several
    years, and its ranking's default label is ``aggregate``.
    ``ScoreTable(year, entries)`` takes exact values (``Fraction``, ``int``
    or ``float``) and puts them over their least common denominator; the
    third argument is ignored (see ``RAW``). ``from_numerators`` adopts
    integers already over one positive denominator. Two tables are equal
    when they hold the same year, institutions and values, whatever their
    denominators. Raw tables may carry the UNKNOWN sentinel;
    ranking-grade outputs must not. Tables are not modified once built.
    """

    __slots__ = ("year", "numerators", "denominator")

    def __init__(self, year: int | None, entries: Mapping[str, float], tag: object = None) -> None:
        ratios = {institution: value.as_integer_ratio() for institution, value in entries.items()}
        denominator = math.lcm(*(d for _, d in ratios.values()))
        self.year = year
        self.numerators = {
            institution: n * (denominator // d) for institution, (n, d) in ratios.items()
        }
        self.denominator = denominator

    @classmethod
    def from_numerators(
        cls, year: int | None, numerators: dict[str, int], denominator: int
    ) -> "ScoreTable":
        table = cls.__new__(cls)
        table.year = year
        table.numerators = numerators
        table.denominator = denominator
        return table

    @property
    def label(self) -> str:
        """The default label of this table's ranking."""
        return "aggregate" if self.year is None else str(self.year)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        mine, theirs = self.numerators, other.numerators
        if self.year != other.year or mine.keys() != theirs.keys():
            return False
        # a/b == c/d exactly when a*d == c*b.
        own_denominator, their_denominator = self.denominator, other.denominator
        return all(
            numerator * their_denominator == theirs[institution] * own_denominator
            for institution, numerator in mine.items()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(year={self.year!r}, "
            f"numerators={self.numerators!r}, denominator={self.denominator!r})"
        )


def _over_lcm(year: int, amounts: dict[int, dict[str, int]]) -> ScoreTable:
    """One venue-year's table from ``amounts[denominator][institution]``.

    Each amount is credit in units of ``1/denominator``; every one is put
    over ``math.lcm`` of the denominators (1 when there are none), so the
    table is the same whatever order the papers were counted in.
    """
    denominator = math.lcm(*amounts)
    numerators: dict[str, int] = {}
    for part, counts in amounts.items():
        factor = denominator // part
        for institution, amount in counts.items():
            numerators[institution] = numerators.get(institution, 0) + amount * factor
    return ScoreTable.from_numerators(year, dict(sorted(numerators.items())), denominator)


def score_venue_years(
    papers: Iterable[PaperRecord],
    read_rows: RowReader,
    on_missing: Callable[[PaperRecord], None] | None = None,
) -> dict[tuple[str, int], ScoreTable]:
    """Raw tables keyed by (venue, year) for every venue-year that has credit.

    ``papers`` is the filtered paper stream, and ``read_rows`` streams the
    affiliation rows of the paper ids it is given. The join
    (``index_affiliations``) gives each paper one list
    ``[key, author, institution, ...]`` headed by its venue-year key.
    Credit then walks the lists in paper-stream order and applies the
    attribution rule: each of a paper's distinct authors holds an equal
    part, split equally over that author's distinct institutions on the
    paper, so each of them earns ``1/(authors * institutions)``. Duplicate
    (author, institution) pairs count once, and the UNKNOWN sentinel is
    credited like any other institution, so a paper's credit sums to
    exactly 1. Credit is counted per venue-year and denominator as plain
    integers, and each venue-year is put over the lcm of its denominators
    once, at the end. Filtered papers without rows go to ``on_missing``
    and earn no credit, so a venue-year whose papers all lack rows has no
    table. The lists are dropped together once every paper is credited.
    """
    counted: dict[tuple[str, int], dict[int, dict[str, int]]] = {}
    for paper_id, ids in index_affiliations(papers, read_rows).items():
        key = ids[0]
        if len(ids) == 1:
            if on_missing is not None:
                on_missing(PaperRecord(paper_id, key[1], key[0]))
            continue
        amounts = counted.get(key)
        if amounts is None:
            amounts = counted[key] = {}
        by_author: dict[str, dict[str, None]] = {}
        pairs = iter(ids)
        next(pairs)
        for author, institution in zip(pairs, pairs):
            institutions = by_author.get(author)
            if institutions is None:
                by_author[author] = {institution: None}
            else:
                institutions[institution] = None
        author_count = len(by_author)
        for institutions in by_author.values():
            denominator = author_count * len(institutions)
            counts = amounts.get(denominator)
            if counts is None:
                counts = amounts[denominator] = {}
            for institution in institutions:
                counts[institution] = counts.get(institution, 0) + 1
    return {key: _over_lcm(key[1], amounts) for key, amounts in counted.items()}


def paper_shares(paper: AttributedPaper) -> ScoreTable:
    """One paper's unit of credit split per the attribution rule, as a table.

    This is ``score_venue_years`` on the one paper; a paper with no rows
    gets an empty table.
    """
    record = paper.paper
    tables = score_venue_years([record], lambda _paper_ids: paper.affiliations)
    return tables.get((record.venue_id, record.year)) or ScoreTable.from_numerators(
        record.year, {}, 1
    )


def normalize(table: ScoreTable) -> ScoreTable:
    """Scale entries so the maximum is exactly 1.

    The scaled table is the same numerators over the top one. An empty
    table normalizes to an empty table. A table with no score above zero
    has no meaningful scale; it is passed through unchanged with a warning.
    """
    numerators = table.numerators
    top = max(numerators.values(), default=None)
    if top is None:
        return ScoreTable.from_numerators(table.year, {}, 1)
    if top <= 0:
        log.warning("table %s: no score above zero, normalization is a no-op", table.label)
        return table
    return ScoreTable.from_numerators(table.year, numerators, top)


def drop_unknown(table: ScoreTable) -> ScoreTable:
    """Remove the UNKNOWN sentinel before any ranking-grade use."""
    if UNKNOWN_INSTITUTION not in table.numerators:
        return table
    kept = {
        institution: numerator
        for institution, numerator in table.numerators.items()
        if institution != UNKNOWN_INSTITUTION
    }
    return type(table).from_numerators(table.year, kept, table.denominator)


def order_by_score(entries: Mapping[str, int | float]) -> list[tuple[str, int | float]]:
    """Entries ordered by score, highest first, ties by id ascending.

    Sorting by id and then stably by score alone gives the same order as a
    ``(score, id)`` key without building key tuples. Tables pass their
    integer numerators, so the sort compares plain integers.
    """
    ordered = sorted(entries.items())
    ordered.sort(key=itemgetter(1), reverse=True)
    return ordered


def score_file_name(venue_id: str, year: int) -> str:
    return f"scores_{venue_id}_{year}.csv"


def write_score_csv(table: ScoreTable, path: str) -> None:
    """Write ``institution_id,score`` sorted by score descending, id ascending.

    The UNKNOWN sentinel never reaches disk. Scores are written as
    shortest round-tripping floats, so a rerun is byte-identical. Integer
    true division is correctly rounded, so ``numerator / denominator`` is
    the float of the exact score.
    """
    visible = drop_unknown(table)
    denominator = visible.denominator
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("institution_id,score\n")
        out.writelines(
            f"{institution},{numerator / denominator!r}\n"
            for institution, numerator in order_by_score(visible.numerators)
        )


def read_score_csv(path: str, year: int) -> ScoreTable:
    """Read a table written by write_score_csv back into exact form.

    Every score on disk is a float, so a dyadic rational: the table puts
    each over the largest power-of-two denominator in the file. A bad
    header, an empty institution id, a score that is not a finite number
    >= 0, or an institution listed twice raises ``MalformedFileError``
    naming the file and the row (the header is row 1).
    """
    ratios: dict[str, tuple[int, int]] = {}
    with open(path, "r", encoding="utf-8", newline="\n") as src:
        header = src.readline()
        if header.strip() != "institution_id,score":
            raise MalformedFileError(path, 1, f"not a score table header: {header.strip()!r}")
        for line_number, line in enumerate(src, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            institution, _, text = line.rpartition(",")
            try:
                ratio = float(text).as_integer_ratio()
            except (ValueError, OverflowError):
                raise MalformedFileError(
                    path, line_number, f"score {text!r} is not a finite number"
                ) from None
            if ratio[0] < 0:
                raise MalformedFileError(path, line_number, f"score {text!r} is negative")
            if not institution:
                raise MalformedFileError(path, line_number, "empty institution id")
            if institution in ratios:
                raise MalformedFileError(
                    path, line_number, f"institution {institution!r} is listed twice"
                )
            ratios[institution] = ratio
    denominator = max((d for _, d in ratios.values()), default=1)
    numerators = {
        institution: n * (denominator // d) for institution, (n, d) in sorted(ratios.items())
    }
    return ScoreTable.from_numerators(year, numerators, denominator)
