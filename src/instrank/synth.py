"""Synthetic publication corpora with planted institution strengths.

Also home to the brute-force oracles (naive_score, naive_topk) that the
test suite checks the streaming and top-k paths against. The oracles are
deliberately plain nested loops and share no code with the paths they
verify.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .aggregate import RankedItem, RankList
from .ingest import (
    UNKNOWN_INSTITUTION,
    AffiliationRow,
    AttributedPaper,
    PaperRecord,
    YearRange,
)
from .scoring import ScoreTable

# Institutions this weak never lose all weight to drift.
MIN_WEIGHT = 0.1

WRITE_BATCH_ROWS = 8192


class InvalidParamsError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusParams:
    num_institutions: int
    num_authors: int
    num_venues: int
    years: YearRange
    papers_per_venue_year: int
    authors_per_paper: tuple[int, int] = (1, 4)
    affils_per_author: tuple[int, int] = (1, 2)
    strength_drift: float = 0.0
    unknown_rate: float = 0.0
    filler_width: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_institutions, self.num_authors, self.num_venues) < 1:
            raise InvalidParamsError("counts must be >= 1")
        if self.papers_per_venue_year < 1:
            raise InvalidParamsError("papers_per_venue_year must be >= 1")
        for name, (low, high) in (
            ("authors_per_paper", self.authors_per_paper),
            ("affils_per_author", self.affils_per_author),
        ):
            if low < 1 or high < low:
                raise InvalidParamsError(f"{name} range ({low}, {high}) is empty")
        if self.authors_per_paper[1] > self.num_authors:
            raise InvalidParamsError("authors_per_paper exceeds the author pool")
        if not 0.0 <= self.unknown_rate < 1.0:
            raise InvalidParamsError("unknown_rate must be in [0, 1)")
        if self.filler_width < 0:
            raise InvalidParamsError("filler_width must be >= 0")


@dataclass(frozen=True)
class PlantedTruth:
    """Expected per-year scores from the sampling weights, and the exact
    realized scores recomputed from the generated rows (None when the
    corpus was streamed straight to disk)."""

    expected: dict[int, dict[str, float]]
    realized: dict[int, ScoreTable] | None


@dataclass(frozen=True)
class GeneratedCorpus:
    papers_path: str
    affiliations_path: str
    truth: PlantedTruth


def institution_ids(params: CorpusParams) -> list[str]:
    width = len(str(params.num_institutions - 1))
    return [f"I{i:0{width}d}" for i in range(params.num_institutions)]


def planted_weights(params: CorpusParams, year: int) -> list[float]:
    """Sampling weight per institution for one year.

    Base strength falls linearly with the institution index; drift moves
    even indices down and odd indices up as years pass, so a nonzero
    drift reorders strengths over time.
    """
    offset = params.strength_drift * (year - params.years.low)
    weights = []
    for i in range(params.num_institutions):
        sign = 1.0 if i % 2 else -1.0
        weights.append(max(params.num_institutions - i + sign * offset, MIN_WEIGHT))
    return weights


def expected_truth(params: CorpusParams) -> dict[int, dict[str, float]]:
    """Closed-form expected credit per institution and year.

    Exact when authors carry at most two affiliation rows; with more rows
    the dedup step pulls scores slightly toward uniform but never reorders
    them.
    """
    ids = institution_ids(params)
    papers_per_year = params.num_venues * params.papers_per_venue_year
    result: dict[int, dict[str, float]] = {}
    for year in params.years:
        weights = planted_weights(params, year)
        total = math.fsum(weights)
        kept = 1.0 - params.unknown_rate
        per_inst = {
            ids[i]: papers_per_year * kept * weights[i] / total
            for i in range(params.num_institutions)
        }
        if params.unknown_rate > 0:
            per_inst[UNKNOWN_INSTITUTION] = papers_per_year * params.unknown_rate
        result[year] = per_inst
    return result


def iter_corpus(params: CorpusParams) -> Iterator[AttributedPaper]:
    """Yield the corpus paper by paper, deterministically for a given seed."""
    rng = random.Random(params.rng_seed)
    ids = institution_ids(params)
    author_lo, author_hi = params.authors_per_paper
    affil_lo, affil_hi = params.affils_per_author
    serial = 0
    for year in params.years:
        cum_weights = list(accumulate(planted_weights(params, year)))
        for venue_index in range(params.num_venues):
            venue_id = f"V{venue_index}"
            for _ in range(params.papers_per_venue_year):
                paper_id = f"P{serial}"
                serial += 1
                paper = PaperRecord(paper_id, year, venue_id)
                rows = []
                for author_index in rng.sample(
                    range(params.num_authors), rng.randint(author_lo, author_hi)
                ):
                    author_id = f"A{author_index}"
                    row_count = rng.randint(affil_lo, affil_hi)
                    for institution in rng.choices(
                        ids, cum_weights=cum_weights, k=row_count
                    ):
                        if params.unknown_rate and rng.random() < params.unknown_rate:
                            institution = UNKNOWN_INSTITUTION
                        rows.append(AffiliationRow(paper_id, author_id, institution))
                yield AttributedPaper(paper, tuple(rows))


def _write_corpus_files(
    corpus: Iterable[AttributedPaper],
    papers_path: str,
    affiliations_path: str,
    filler_width: int,
) -> None:
    # Rows go out at the default dump ordinals: papers at columns 0/3/8,
    # affiliations at 0/1/2. UNKNOWN becomes an empty field on disk.
    filler = "\t" + "x" * filler_width if filler_width else ""
    paper_lines: list[str] = []
    affil_lines: list[str] = []
    with open(papers_path, "w", encoding="utf-8", newline="\n") as papers_out, open(
        affiliations_path, "w", encoding="utf-8", newline="\n"
    ) as affils_out:
        for paper, rows in corpus:
            paper_lines.append(
                f"{paper.paper_id}\t\t\t{paper.year}\t\t\t\t\t{paper.venue_id}\n"
            )
            for row in rows:
                institution = (
                    "" if row.institution_id == UNKNOWN_INSTITUTION else row.institution_id
                )
                affil_lines.append(
                    f"{row.paper_id}\t{row.author_id}\t{institution}{filler}\n"
                )
            if len(affil_lines) >= WRITE_BATCH_ROWS:
                affils_out.write("".join(affil_lines))
                affil_lines.clear()
            if len(paper_lines) >= WRITE_BATCH_ROWS:
                papers_out.write("".join(paper_lines))
                paper_lines.clear()
        papers_out.write("".join(paper_lines))
        affils_out.write("".join(affil_lines))


def generate_corpus(
    params: CorpusParams, out_dir: str, compute_realized: bool = True
) -> GeneratedCorpus:
    """Write papers and affiliation dumps for the parameters.

    With compute_realized the corpus is held in memory and the naive
    oracle recomputes the exact realized truth; without it the rows
    stream straight to disk, which keeps memory flat for huge corpora.
    """
    papers_path = f"{out_dir}/papers.txt"
    affiliations_path = f"{out_dir}/affiliations.txt"
    if compute_realized:
        corpus = list(iter_corpus(params))
        _write_corpus_files(corpus, papers_path, affiliations_path, params.filler_width)
        realized = naive_score(corpus)
    else:
        _write_corpus_files(
            iter_corpus(params), papers_path, affiliations_path, params.filler_width
        )
        realized = None
    truth = PlantedTruth(expected_truth(params), realized)
    return GeneratedCorpus(papers_path, affiliations_path, truth)


def naive_score(corpus: Iterable[AttributedPaper]) -> dict[int, ScoreTable]:
    """Reference scorer: apply the attribution rule paper by paper.

    Everything stays in memory and nothing is shared with the streaming
    implementation, so agreement between the two is meaningful.
    """
    by_year: dict[int, dict[str, Fraction]] = {}
    for paper, rows in corpus:
        bucket = by_year.setdefault(paper.year, {})
        authors: dict[str, list[str]] = {}
        for row in rows:
            institutions = authors.setdefault(row.author_id, [])
            if row.institution_id not in institutions:
                institutions.append(row.institution_id)
        for institutions in authors.values():
            piece = Fraction(1, len(authors) * len(institutions))
            for institution in institutions:
                bucket[institution] = bucket.get(institution, Fraction(0)) + piece
    return {
        year: ScoreTable(year, dict(sorted(bucket.items())))
        for year, bucket in sorted(by_year.items())
    }


def naive_topk(tables: Sequence[ScoreTable], k: int) -> RankList:
    """Reference top-k: normalize, zero-pad, score everyone, full sort."""
    universe: set[str] = set()
    for table in tables:
        universe.update(
            inst for inst in table.numerators if inst != UNKNOWN_INSTITUTION
        )
    normalized: list[dict[str, Fraction]] = []
    for table in tables:
        entries = {
            inst: Fraction(numerator, table.denominator)
            for inst, numerator in table.numerators.items()
            if inst != UNKNOWN_INSTITUTION
        }
        top = max(entries.values(), default=Fraction(0))
        if top > 0:
            entries = {inst: value / top for inst, value in entries.items()}
        normalized.append(entries)
    means = {
        inst: math.fsum(
            float(entries.get(inst, Fraction(0))) for entries in normalized
        )
        / len(tables)
        for inst in universe
    }
    ordered = sorted(means, key=lambda inst: (-means[inst], inst))[:k]
    items = tuple(
        RankedItem(position, inst, means[inst])
        for position, inst in enumerate(ordered, start=1)
    )
    return RankList("naive_topk", items)
