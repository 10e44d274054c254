"""Corpus generator, planted truth, and the brute-force oracles."""

from __future__ import annotations

import math
import re
from itertools import groupby

import pytest

from instrank.ingest import (
    UNKNOWN_INSTITUTION,
    TableSchema,
    YearRange,
    iter_affiliations,
    iter_papers,
)
from instrank.scoring import score_venue_years
from instrank.synth import (
    CorpusParams,
    InvalidParamsError,
    generate_corpus,
    institution_ids,
    iter_corpus,
    naive_score,
    naive_topk,
    planted_weights,
)


def small_params(**overrides) -> CorpusParams:
    base = dict(
        num_institutions=6,
        num_authors=40,
        num_venues=2,
        years=YearRange(2011, 2012),
        papers_per_venue_year=30,
        rng_seed=3,
    )
    base.update(overrides)
    return CorpusParams(**base)


# --- parameters ---------------------------------------------------------


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        small_params(num_institutions=0)
    with pytest.raises(InvalidParamsError):
        small_params(papers_per_venue_year=0)
    with pytest.raises(InvalidParamsError):
        small_params(authors_per_paper=(3, 2))
    with pytest.raises(InvalidParamsError):
        small_params(authors_per_paper=(0, 2))
    with pytest.raises(InvalidParamsError):
        small_params(num_authors=2, authors_per_paper=(1, 4))
    with pytest.raises(InvalidParamsError):
        small_params(unknown_rate=1.0)
    with pytest.raises(InvalidParamsError):
        small_params(filler_width=-1)


@pytest.mark.parametrize("drift", [math.nan, math.inf, -math.inf, 1e308])
def test_a_drift_whose_weights_do_not_total_a_finite_number_is_rejected(drift):
    # Sampling would fail later with "Total of weights must be finite".
    with pytest.raises(InvalidParamsError, match=re.escape(f"drift {drift!r} gives ")):
        small_params(strength_drift=drift)


def test_a_large_finite_drift_still_generates():
    params = small_params(strength_drift=1e300)
    assert sum(1 for _ in iter_corpus(params)) == 2 * 2 * 30


def test_institution_ids_are_zero_padded_and_sortable():
    ids = institution_ids(small_params(num_institutions=12))
    assert ids[0] == "I00" and ids[11] == "I11"
    assert ids == sorted(ids)


def test_planted_weights_fall_with_index_and_respect_the_floor():
    params = small_params(num_institutions=4)
    assert planted_weights(params, 2011) == [4.0, 3.0, 2.0, 1.0]
    drifted = small_params(num_institutions=4, strength_drift=10.0)
    weights = planted_weights(drifted, 2012)
    # Even indices drift down (clamped), odd indices drift up.
    assert weights == [0.1, 13.0, 0.1, 11.0]


# --- corpus stream ------------------------------------------------------


def test_iter_corpus_structure_and_determinism():
    params = small_params()
    first = list(iter_corpus(params))
    assert first == list(iter_corpus(params))
    expected_papers = (
        len(list(params.years)) * params.num_venues * params.papers_per_venue_year
    )
    assert len(first) == expected_papers
    assert [p.paper.paper_id for p in first] == [f"P{i}" for i in range(expected_papers)]
    ids = set(institution_ids(params))
    author_lo, author_hi = params.authors_per_paper
    affil_lo, affil_hi = params.affils_per_author
    for paper, rows in first:
        assert paper.year in params.years
        assert paper.venue_id in {"V0", "V1"}
        by_author: dict[str, int] = {}
        for row in rows:
            assert row.paper_id == paper.paper_id
            assert row.institution_id in ids
            by_author[row.author_id] = by_author.get(row.author_id, 0) + 1
        assert author_lo <= len(by_author) <= author_hi
        assert all(affil_lo <= n <= affil_hi for n in by_author.values())


def test_iter_corpus_different_seeds_differ():
    rows_a = [r for p in iter_corpus(small_params(rng_seed=1)) for r in p.affiliations]
    rows_b = [r for p in iter_corpus(small_params(rng_seed=2)) for r in p.affiliations]
    assert rows_a != rows_b


def test_unknown_rate_blanks_roughly_that_share_of_rows():
    params = small_params(
        unknown_rate=0.3, papers_per_venue_year=300, num_authors=1000
    )
    rows = [r for p in iter_corpus(params) for r in p.affiliations]
    blanked = sum(1 for r in rows if r.institution_id == UNKNOWN_INSTITUTION)
    assert 0.25 < blanked / len(rows) < 0.35


# --- files on disk ------------------------------------------------------


def test_generate_corpus_same_seed_same_bytes(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    first = generate_corpus(small_params(), str(tmp_path / "a"))
    second = generate_corpus(small_params(), str(tmp_path / "b"))
    papers_a = open(first.papers_path, "rb").read()
    papers_b = open(second.papers_path, "rb").read()
    assert papers_a == papers_b
    affils_a = open(first.affiliations_path, "rb").read()
    affils_b = open(second.affiliations_path, "rb").read()
    assert affils_a == affils_b


def test_generate_corpus_writes_each_papers_rows_as_one_run(tmp_path):
    # score credits a paper as its run of rows ends; rows in any other order
    # would make it read the affiliations twice.
    corpus = generate_corpus(small_params(unknown_rate=0.2), str(tmp_path), compute_realized=False)
    with open(corpus.affiliations_path, encoding="utf-8") as src:
        runs = [paper_id for paper_id, _ in groupby(line.split("\t", 1)[0] for line in src)]
    assert len(runs) > 1
    assert len(runs) == len(set(runs))


def test_generated_files_parse_under_the_default_schemas(tmp_path):
    params = small_params(unknown_rate=0.2, filler_width=5)
    corpus = generate_corpus(params, str(tmp_path))
    papers = list(iter_papers(corpus.papers_path, TableSchema.papers_default(), strict=True))
    rows = list(
        iter_affiliations(
            corpus.affiliations_path, TableSchema.affiliations_default(), strict=True
        )
    )
    in_memory = list(iter_corpus(params))
    assert papers == [p.paper for p in in_memory]
    assert rows == [r for p in in_memory for r in p.affiliations]


def test_streaming_pipeline_reproduces_the_realized_truth(tmp_path):
    """Cross-module check: files -> streaming join -> scoring == oracle."""
    params = small_params(unknown_rate=0.1)
    corpus = generate_corpus(params, str(tmp_path))
    assert corpus.realized is not None
    kept = iter_papers(
        corpus.papers_path,
        TableSchema.papers_default(),
        strict=True,
        venues={"V0", "V1"},
        years=params.years,
    )

    def read_rows(paper_ids):
        return iter_affiliations(
            corpus.affiliations_path,
            TableSchema.affiliations_default(),
            strict=True,
            paper_ids=paper_ids,
        )

    # The realized truth pools every venue of the year.
    pooled = (paper._replace(venue_id="V0+V1") for paper in kept)
    tables = score_venue_years(pooled, read_rows)
    for year in params.years:
        table = tables[("V0+V1", year)]
        assert table == corpus.realized[year]
        assert list(table.numerators) == list(corpus.realized[year].numerators)


def test_generate_corpus_can_skip_the_realized_truth(tmp_path):
    corpus = generate_corpus(small_params(), str(tmp_path), compute_realized=False)
    assert corpus.realized is None


# --- oracles ------------------------------------------------------------


def test_naive_score_matches_hand_worked_paper():
    corpus = list(iter_corpus(small_params()))
    tables = naive_score(corpus)
    # Credit is conserved: each paper contributes exactly 1 to its year.
    for year, table in tables.items():
        papers_in_year = sum(1 for p in corpus if p.paper.year == year)
        assert sum(table.numerators.values()) == papers_in_year * table.denominator


def test_naive_topk_normalizes_pads_and_cuts():
    from conftest import make_table

    tables = [
        make_table(2011, {"A": 2, "B": 1}),
        make_table(2012, {"B": 3, "C": 3}),
    ]
    ranking = naive_topk(tables, 2)
    ids = [item.institution_id for item in ranking.items]
    # Means: A (1 + 0)/2, B (0.5 + 1)/2, C (0 + 1)/2.
    assert ids == ["B", "A"]
    assert ranking.items[0].score == pytest.approx(0.75)


def test_naive_topk_drops_unknown():
    from conftest import make_table

    tables = [make_table(2011, {"A": 1, UNKNOWN_INSTITUTION: 9})]
    ids = [item.institution_id for item in naive_topk(tables, 5).items]
    assert ids == ["A"]


def test_planted_order_is_recovered_across_seeds():
    top1 = 0
    top3 = 0
    trials = 100
    for seed in range(trials):
        params = CorpusParams(
            num_institutions=8,
            num_authors=500,
            num_venues=1,
            years=YearRange(2011, 2013),
            papers_per_venue_year=200,
            affils_per_author=(1, 2),
            rng_seed=seed,
        )
        tables = list(naive_score(iter_corpus(params)).values())
        ranking = naive_topk(tables, 3)
        ids = [item.institution_id for item in ranking.items]
        top1 += ids[0] == "I0"
        top3 += set(ids) == {"I0", "I1", "I2"}
    assert top1 >= 95
    assert top3 >= 90
