"""Per-year institution credit tables.

Each paper carries one unit of credit, split equally over its distinct
authors, then over each author's distinct institutions on that paper.
Credit is exact: a table holds integer numerators over one common
denominator, so accumulation is associative and any partitioning of the
paper stream merges to a bit-identical table. ``ScoreTable`` is the one
table type: it carries a year's credit through the score file, its
read-back and aggregation, and with no year it holds an aggregated
result. ``CreditAccumulator.add_paper`` is the one credit path; a single
paper's split (``paper_shares``) is a one-paper table built by it. A
``Fraction`` per entry is built only when ``ScoreTable.entries`` is read.
Tables are keyed in sorted institution order for reproducible iteration.
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .ingest import (
    UNKNOWN_INSTITUTION,
    AttributedPaper,
    PaperRecord,
    RowReader,
    bucket_affiliations,
)

log = logging.getLogger(__name__)

# perfbench/prepare.py still builds ``ScoreTable(year, entries, RAW)``;
# the third argument is accepted and ignored.
RAW = "raw"


class YearMismatchError(ValueError):
    """Partial tables for different years cannot be merged."""


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
    integers already over one positive denominator. ``entries`` is the
    ``Fraction`` view, built on first use. Raw tables may carry the
    UNKNOWN sentinel; ranking-grade outputs must not. Tables are not
    modified once built.
    """

    __slots__ = ("year", "numerators", "denominator", "_entries")

    def __init__(
        self, year: int | None, entries: Mapping[str, Fraction | float], tag: object = None
    ) -> None:
        ratios = {institution: value.as_integer_ratio() for institution, value in entries.items()}
        denominator = math.lcm(*(d for _, d in ratios.values()))
        self.year = year
        self.numerators = {
            institution: n * (denominator // d) for institution, (n, d) in ratios.items()
        }
        self.denominator = denominator
        self._entries: dict[str, Fraction] | None = None

    @classmethod
    def from_numerators(
        cls, year: int | None, numerators: dict[str, int], denominator: int
    ) -> "ScoreTable":
        table = cls.__new__(cls)
        table.year = year
        table.numerators = numerators
        table.denominator = denominator
        table._entries = None
        return table

    @property
    def entries(self) -> dict[str, Fraction]:
        if self._entries is None:
            denominator = self.denominator
            self._entries = {
                institution: Fraction(numerator, denominator)
                for institution, numerator in self.numerators.items()
            }
        return self._entries

    @property
    def label(self) -> str:
        """The default label of this table's ranking."""
        return "aggregate" if self.year is None else str(self.year)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return self.year == other.year and self.entries == other.entries

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(year={self.year!r}, "
            f"numerators={self.numerators!r}, denominator={self.denominator!r})"
        )


def credit_parts(flat: Sequence[str]) -> list[tuple[int, dict[str, None]]]:
    """Group one paper's flat ``[author, institution, ...]`` ids by author.

    This is the attribution rule. Each group is ``(denominator,
    institutions)``: every institution in it earns ``1/denominator`` of the
    paper, where ``denominator`` is the number of distinct authors times
    that author's distinct institutions on the paper. Duplicate (author,
    institution) pairs count once, and the UNKNOWN sentinel is credited
    like any other institution, so a paper's parts sum to exactly 1.
    """
    by_author: dict[str, dict[str, None]] = {}
    ids = iter(flat)
    for author, institution in zip(ids, ids):
        by_author.setdefault(author, {})[institution] = None
    author_count = len(by_author)
    return [
        (author_count * len(institutions), institutions)
        for institutions in by_author.values()
    ]


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

    def _scale(self, denominator: int) -> int:
        """Make the common denominator a multiple of ``denominator``; return the quotient."""
        common = self.denominator
        if common % denominator:
            grown = math.lcm(common, denominator)
            factor = grown // common
            numerators = self.numerators
            for other in numerators:
                numerators[other] *= factor
            self.denominator = common = grown
        return common // denominator

    def add(self, institution: str, numerator: int, denominator: int) -> None:
        """Add ``numerator/denominator`` to one institution's credit."""
        scaled = numerator * self._scale(denominator)
        self.numerators[institution] = self.numerators.get(institution, 0) + scaled

    def add_paper(self, flat: Sequence[str]) -> None:
        """Credit one paper from its flat ``[author, institution, ...]`` ids."""
        numerators = self.numerators
        for denominator, institutions in credit_parts(flat):
            share = self._scale(denominator)
            for institution in institutions:
                numerators[institution] = numerators.get(institution, 0) + share

    def table(self) -> ScoreTable:
        numerators = dict(sorted(self.numerators.items()))
        return ScoreTable.from_numerators(self.year, numerators, self.denominator)


def paper_shares(paper: AttributedPaper) -> ScoreTable:
    """One paper's unit of credit split per the attribution rule, as a table."""
    accumulator = CreditAccumulator(paper.paper.year)
    accumulator.add_paper(
        [name for row in paper.affiliations for name in (row.author_id, row.institution_id)]
    )
    return accumulator.table()


def score_venue_years(
    papers: Iterable[PaperRecord],
    read_rows: RowReader,
    on_missing: Callable[[PaperRecord], None] | None = None,
) -> dict[tuple[str, int], ScoreTable]:
    """Raw tables keyed by (venue, year) for every venue-year that has papers.

    ``papers`` is the filtered paper stream, and ``read_rows`` streams the
    affiliation rows of the paper ids it is given. The join
    (``bucket_affiliations``) indexes the papers and buckets their rows;
    each paper is then credited into its venue-year's accumulator straight
    from its flat id list, which is freed as it goes. Filtered papers
    without rows go to ``on_missing`` and earn no credit.
    """
    accumulators: dict[tuple[str, int], CreditAccumulator] = {}
    for paper, flat in bucket_affiliations(papers, read_rows, on_missing):
        key = (paper.venue_id, paper.year)
        accumulator = accumulators.get(key)
        if accumulator is None:
            accumulator = accumulators[key] = CreditAccumulator(paper.year)
        accumulator.add_paper(flat)
    return {key: accumulator.table() for key, accumulator in accumulators.items()}


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
        for institution, numerator in table.numerators.items():
            accumulator.add(institution, numerator, table.denominator)
    return accumulator.table()


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
    header, or a score that is not a finite number >= 0, raises
    ``MalformedFileError`` naming the file and the row (the header is row 1).
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
            ratios[institution] = ratio
    denominator = max((d for _, d in ratios.values()), default=1)
    numerators = {
        institution: n * (denominator // d) for institution, (n, d) in sorted(ratios.items())
    }
    return ScoreTable.from_numerators(year, numerators, denominator)
