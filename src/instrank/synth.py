"""Synthetic publication corpora with planted institution strengths.

Also home to the brute-force oracles (naive_score, naive_topk) that the
test suite checks the streaming and top-k paths against. The oracles are
deliberately plain loops over exact ``Fraction``s and share no code with
the paths they verify: naive_score groups each paper's rows itself and
sums one ``Fraction`` per (institution, denominator) of its pieces,
where ``scoring`` splits credit into integer numerators.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

from .aggregate import RankedItem, RankList
from .ingest import (
    UNKNOWN_INSTITUTION,
    AffiliationRow,
    AttributedPaper,
    PaperRecord,
    YearRange,
    _new_tuple,
)
from .scoring import ScoreTable, write_output

# Institutions this weak never lose all weight to drift.
MIN_WEIGHT = 0.1


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
        # Sampling draws from each year's weights, so their total must be finite.
        for year in self.years:
            total = sum(planted_weights(self, year))
            if not math.isfinite(total):
                raise InvalidParamsError(
                    f"drift {self.strength_drift!r} gives {year} "
                    f"a total planted weight of {total!r}"
                )


@dataclass(frozen=True)
class GeneratedCorpus:
    """The dump paths, and the exact realized scores per year recomputed from
    the generated rows (None when ``compute_realized`` is false, as with
    ``synth --no-truth``)."""

    papers_path: str
    affiliations_path: str
    realized: dict[int, ScoreTable] | None


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


def iter_corpus(params: CorpusParams) -> Iterator[AttributedPaper]:
    """Yield the corpus paper by paper, deterministically for a given seed.

    The draws are the ones ``rng.choices(ids, cum_weights=...)`` and
    ``rng.randint`` make, in the same order (all of an author's
    institutions, then their UNKNOWN draws), made inline with ``bisect``
    and ``rng.randrange``: a seed gives the corpus it always gave.
    """
    rng = random.Random(params.rng_seed)
    draw, randrange, sample = rng.random, rng.randrange, rng.sample
    ids = institution_ids(params)
    last = len(ids) - 1
    authors = range(params.num_authors)
    author_lo, author_hi = params.authors_per_paper
    affil_lo, affil_hi = params.affils_per_author
    author_stop, affil_stop = author_hi + 1, affil_hi + 1
    unknown_rate = params.unknown_rate
    serial = 0
    for year in params.years:
        cum_weights = list(accumulate(planted_weights(params, year)))
        total = cum_weights[-1] + 0.0
        for venue_index in range(params.num_venues):
            venue_id = f"V{venue_index}"
            for _ in range(params.papers_per_venue_year):
                paper_id = f"P{serial}"
                serial += 1
                rows = []
                for author_index in sample(authors, randrange(author_lo, author_stop)):
                    author_id = f"A{author_index}"
                    institutions = [
                        ids[bisect(cum_weights, draw() * total, 0, last)]
                        for _ in range(randrange(affil_lo, affil_stop))
                    ]
                    for institution in institutions:
                        if unknown_rate and draw() < unknown_rate:
                            institution = UNKNOWN_INSTITUTION
                        rows.append(
                            _new_tuple(AffiliationRow, (paper_id, author_id, institution))
                        )
                paper = _new_tuple(PaperRecord, (paper_id, year, venue_id))
                yield _new_tuple(AttributedPaper, (paper, tuple(rows)))


def _written(
    corpus: Iterable[AttributedPaper],
    write_paper: Callable[[str], object],
    write_row: Callable[[str], object],
    filler_width: int,
) -> Iterator[AttributedPaper]:
    """Write each paper's dump rows through ``write_paper`` and ``write_row``, then yield it."""
    # Rows go out at the default dump ordinals: papers at columns 0/3/8,
    # affiliations at 0/1/2. UNKNOWN becomes an empty field on disk.
    filler = "\t" + "x" * filler_width if filler_width else ""
    for attributed in corpus:
        paper, rows = attributed
        write_paper(f"{paper.paper_id}\t\t\t{paper.year}\t\t\t\t\t{paper.venue_id}\n")
        for row in rows:
            institution = "" if row.institution_id == UNKNOWN_INSTITUTION else row.institution_id
            write_row(f"{row.paper_id}\t{row.author_id}\t{institution}{filler}\n")
        yield attributed


def generate_corpus(
    params: CorpusParams, out_dir: str, compute_realized: bool = True
) -> GeneratedCorpus:
    """Write papers and affiliation dumps for the parameters.

    The rows stream straight to disk, so memory stays flat. With
    compute_realized the naive oracle scores each paper as it is written,
    so the exact realized truth comes from the same single pass over the
    seeded corpus. Both dumps are opened through ``scoring.write_output``,
    so each is written whole or not at all: a corpus or oracle that fails
    leaves the dumps as they were and no temporary behind.
    """
    papers_path = f"{out_dir}/papers.txt"
    affiliations_path = f"{out_dir}/affiliations.txt"
    realized = None
    with write_output(papers_path) as papers_out, write_output(affiliations_path) as affils_out:
        # The file objects buffer the writes.
        written = _written(
            iter_corpus(params), papers_out.write, affils_out.write, params.filler_width
        )
        if compute_realized:
            realized = naive_score(written)
        else:
            for _ in written:
                pass
    return GeneratedCorpus(papers_path, affiliations_path, realized)


def naive_score(corpus: Iterable[AttributedPaper]) -> dict[int, ScoreTable]:
    """Reference scorer: apply the attribution rule paper by paper.

    Each author holds ``1 / authors`` of the paper, split evenly over
    their distinct institutions, so every piece is ``1/d`` with ``d =
    authors * institutions``. The pieces are counted per institution and
    ``d``, and each year's scores are the exact sums of one
    ``Fraction(count, d)`` per (institution, ``d``). Everything stays in
    memory and nothing is shared with the streaming implementation, so
    agreement between the two is meaningful.
    """
    counts_by_year: dict[int, dict[tuple[str, int], int]] = {}
    for paper, rows in corpus:
        counts = counts_by_year.setdefault(paper.year, {})
        authors: dict[str, list[str]] = {}
        for _, author_id, institution_id in rows:
            institutions = authors.setdefault(author_id, [])
            if institution_id not in institutions:
                institutions.append(institution_id)
        for institutions in authors.values():
            denominator = len(authors) * len(institutions)
            for institution in institutions:
                key = (institution, denominator)
                counts[key] = counts.get(key, 0) + 1
    tables = {}
    for year, counts in sorted(counts_by_year.items()):
        bucket: dict[str, Fraction] = {}
        for (institution, denominator), count in counts.items():
            piece = Fraction(count, denominator)
            total = bucket.get(institution)
            bucket[institution] = piece if total is None else total + piece
        tables[year] = ScoreTable(year, dict(sorted(bucket.items())))
    return tables


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
    return RankList(tuple(RankedItem(inst, means[inst]) for inst in ordered))
