"""Shared builders for the test suite."""

from __future__ import annotations

from fractions import Fraction

from instrank.aggregate import RankedItem, RankList
from instrank.ingest import AffiliationRow, AttributedPaper, PaperRecord, RowReader
from instrank.scoring import ScoreTable


def make_paper(paper_id: str = "P1", year: int = 2014, venue_id: str = "V0") -> PaperRecord:
    return PaperRecord(paper_id, year, venue_id)


def make_attributed(
    rows: list[tuple[str, str]],
    paper_id: str = "P1",
    year: int = 2014,
    venue_id: str = "V0",
) -> AttributedPaper:
    """Build one paper from (author_id, institution_id) pairs."""
    paper = PaperRecord(paper_id, year, venue_id)
    affiliations = tuple(
        AffiliationRow(paper_id, author, institution) for author, institution in rows
    )
    return AttributedPaper(paper, affiliations)


def as_streams(
    papers: list[AttributedPaper],
) -> tuple[list[PaperRecord], RowReader]:
    """The paper stream and the row reader that ``score_venue_years`` takes."""
    return [p.paper for p in papers], rows_of([row for p in papers for row in p.affiliations])


def rows_of(rows: list[AffiliationRow]) -> RowReader:
    """A ``RowReader`` over rows in memory: those of the requested paper ids, in order."""
    return lambda paper_ids: [row for row in rows if row[0] in paper_ids]


def make_table(year: int, entries: dict) -> ScoreTable:
    exact = {
        institution: value if isinstance(value, Fraction) else Fraction(value)
        for institution, value in entries.items()
    }
    return ScoreTable(year, dict(sorted(exact.items())))


def exact(table: ScoreTable) -> dict[str, Fraction]:
    """A table's scores as ``Fraction``s, for reference computations."""
    return {
        institution: Fraction(numerator, table.denominator)
        for institution, numerator in table.numerators.items()
    }


def make_rank_list(pairs: list[tuple[str, object]]) -> RankList:
    """Build a RankList from (institution_id, score) pairs already in order."""
    return RankList(tuple(RankedItem(institution, score) for institution, score in pairs))
