"""Per-year institution credit tables.

Each paper carries one unit of credit, split equally over its distinct
authors, then over each author's distinct institutions on that paper.
Shares are exact rationals, so accumulation is associative and any
partitioning of the paper stream merges to a bit-identical table; final
tables are keyed in sorted institution order for reproducible iteration.
Sums are kept as integer numerators over one common denominator and
turned into one ``Fraction`` per institution when the table is built.
"""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .ingest import (
    UNKNOWN_INSTITUTION,
    AffiliationRow,
    AttributedPaper,
    PaperRecord,
    bucket_affiliations,
)

log = logging.getLogger(__name__)

# perfbench/prepare.py still builds ``ScoreTable(year, entries, RAW)``;
# the third argument is accepted and ignored.
RAW = "raw"


class YearMismatchError(ValueError):
    """Partial tables for different years cannot be merged."""


class InstitutionShare(NamedTuple):
    institution_id: str
    amount: Fraction


@dataclass(frozen=True)
class ShareList:
    """One paper's credit split, sorted by institution id, summing to 1."""

    paper_id: str
    shares: tuple[InstitutionShare, ...]


@dataclass(frozen=True)
class ScoreTable:
    """Institution credit for one year.

    Raw tables may carry the UNKNOWN sentinel; ranking-grade outputs must
    not.
    """

    year: int
    entries: dict[str, Fraction]
    tag: InitVar[object] = None  # ignored, see RAW


def credit_parts(pairs: Iterable[tuple[str, str]]) -> Iterator[tuple[str, int]]:
    """Yield ``(institution, denominator)`` for one paper's author-institution pairs.

    This is the attribution rule: the pair earns ``1/denominator`` of the
    paper, where ``denominator`` is the number of distinct authors times
    that author's distinct institutions on the paper. Duplicate (author,
    institution) pairs count once, and the UNKNOWN sentinel is credited
    like any other institution, so a paper's parts sum to exactly 1.
    """
    by_author: dict[str, dict[str, None]] = {}
    for author, institution in pairs:
        by_author.setdefault(author, {})[institution] = None
    author_count = len(by_author)
    for institutions in by_author.values():
        denominator = author_count * len(institutions)
        for institution in institutions:
            yield institution, denominator


def paper_shares(paper: AttributedPaper) -> ShareList:
    """Split one paper's unit of credit per the attribution rule."""
    credit: dict[str, Fraction] = {}
    pairs = ((row.author_id, row.institution_id) for row in paper.affiliations)
    for institution, denominator in credit_parts(pairs):
        credit[institution] = credit.get(institution, 0) + Fraction(1, denominator)
    shares = tuple(
        InstitutionShare(institution, amount)
        for institution, amount in sorted(credit.items())
    )
    return ShareList(paper.paper.paper_id, shares)


class CreditAccumulator:
    """Exact running credit per institution for one year's table.

    Every sum is an integer numerator over one common denominator. The
    common denominator grows to the ``math.lcm`` with a new denominator
    only when the new one does not divide it, so almost every addition is
    a plain integer addition.
    """

    __slots__ = ("year", "denominator", "numerators")

    def __init__(self, year: int) -> None:
        self.year = year
        self.denominator = 1
        self.numerators: dict[str, int] = {}

    def add(self, institution: str, numerator: int, denominator: int) -> None:
        """Add ``numerator/denominator`` to one institution's credit."""
        common = self.denominator
        if common % denominator:
            grown = math.lcm(common, denominator)
            factor = grown // common
            for other in self.numerators:
                self.numerators[other] *= factor
            self.denominator = common = grown
        scaled = numerator * (common // denominator)
        self.numerators[institution] = self.numerators.get(institution, 0) + scaled

    def add_paper(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Credit one paper from its ``(author, institution)`` pairs."""
        for institution, denominator in credit_parts(pairs):
            self.add(institution, 1, denominator)

    def table(self) -> ScoreTable:
        common = self.denominator
        entries = {
            institution: Fraction(numerator, common)
            for institution, numerator in sorted(self.numerators.items())
        }
        return ScoreTable(self.year, entries)


def score_venue_years(
    papers: Iterable[PaperRecord],
    rows: Iterable[AffiliationRow],
    on_missing: Callable[[PaperRecord], None] | None = None,
) -> dict[tuple[str, int], ScoreTable]:
    """Raw tables keyed by (venue, year) for every venue-year that has papers.

    ``papers`` is the filtered paper stream and ``rows`` the affiliation
    stream. The join (``bucket_affiliations``) indexes the papers and
    buckets the rows; each paper is then credited into its venue-year's
    accumulator straight from its flat id list, which is freed as it goes.
    Filtered papers without rows go to ``on_missing`` and earn no credit.
    """
    accumulators: dict[tuple[str, int], CreditAccumulator] = {}
    for paper, flat in bucket_affiliations(papers, rows, on_missing):
        key = (paper.venue_id, paper.year)
        accumulator = accumulators.get(key)
        if accumulator is None:
            accumulator = accumulators[key] = CreditAccumulator(paper.year)
        ids = iter(flat)
        accumulator.add_paper(zip(ids, ids))
    return {key: accumulator.table() for key, accumulator in accumulators.items()}


def accumulate_scores(share_lists: Iterable[ShareList], year: int) -> ScoreTable:
    """Sum share lists into one raw table for the given year."""
    accumulator = CreditAccumulator(year)
    for share_list in share_lists:
        for institution, amount in share_list.shares:
            accumulator.add(institution, amount.numerator, amount.denominator)
    return accumulator.table()


def merge_partials(tables: Sequence[ScoreTable]) -> ScoreTable:
    """Pointwise-sum partial tables from any partitioning of the stream."""
    if not tables:
        raise ValueError("nothing to merge")
    accumulator = CreditAccumulator(tables[0].year)
    for table in tables:
        if table.year != accumulator.year:
            raise YearMismatchError(
                f"cannot merge year {table.year} into {accumulator.year}"
            )
        for institution, amount in table.entries.items():
            accumulator.add(institution, amount.numerator, amount.denominator)
    return accumulator.table()


def normalize(table: ScoreTable) -> ScoreTable:
    """Scale entries so the maximum is exactly 1.

    An empty table normalizes to an empty table. An all-zero table has no
    meaningful scale; it is passed through unchanged with a warning.
    """
    if not table.entries:
        return ScoreTable(table.year, {})
    top = max(table.entries.values())
    if top == 0:
        log.warning("year %d: all scores are zero, normalization is a no-op", table.year)
        return ScoreTable(table.year, dict(table.entries))
    scaled = {institution: amount / top for institution, amount in table.entries.items()}
    return ScoreTable(table.year, dict(sorted(scaled.items())))


def drop_unknown(table: ScoreTable) -> ScoreTable:
    """Remove the UNKNOWN sentinel before any ranking-grade use."""
    if UNKNOWN_INSTITUTION not in table.entries:
        return table
    kept = {
        institution: amount
        for institution, amount in table.entries.items()
        if institution != UNKNOWN_INSTITUTION
    }
    return ScoreTable(table.year, kept)


def order_by_score(
    entries: Mapping[str, Fraction | float],
) -> list[tuple[str, Fraction | float]]:
    """Entries ordered by score, highest first, ties by id ascending.

    Sorting by id and then stably by score alone gives the same order as a
    ``(score, id)`` key without building key tuples. When every score is a
    ``Fraction``, each is keyed by its exact numerator over the common
    denominator, so the sort compares plain integers.
    """
    ordered = sorted(entries.items())
    scores = entries.values()
    if all(isinstance(score, Fraction) for score in scores):
        common = math.lcm(*(score.denominator for score in scores))
        ordered.sort(
            key=lambda item: item[1].numerator * (common // item[1].denominator),
            reverse=True,
        )
    else:
        ordered.sort(key=itemgetter(1), reverse=True)
    return ordered


def score_file_name(venue_id: str, year: int) -> str:
    return f"scores_{venue_id}_{year}.csv"


def write_score_csv(table: ScoreTable, path: str) -> None:
    """Write ``institution_id,score`` sorted by score descending, id ascending.

    The UNKNOWN sentinel never reaches disk. Scores are written as
    shortest round-tripping floats, so a rerun is byte-identical.
    """
    visible = drop_unknown(table)
    ordered = order_by_score(visible.entries)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("institution_id,score\n")
        for institution, amount in ordered:
            out.write(f"{institution},{float(amount)!r}\n")


def read_score_csv(path: str, year: int) -> ScoreTable:
    """Read a table written by write_score_csv back into exact form."""
    entries: dict[str, Fraction] = {}
    with open(path, "r", encoding="utf-8", newline="\n") as src:
        header = src.readline()
        if header.strip() != "institution_id,score":
            raise ValueError(f"{path}: not a score table")
        for line in src:
            line = line.rstrip("\n")
            if not line:
                continue
            institution, _, score = line.rpartition(",")
            entries[institution] = Fraction(float(score))
    return ScoreTable(year, dict(sorted(entries.items())))
