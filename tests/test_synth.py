"""Corpus generator, planted truth, and the brute-force oracles."""

from __future__ import annotations

import hashlib
import math
import os
import re
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instrank.ingest import (
    UNKNOWN_INSTITUTION,
    TableSchema,
    YearRange,
    iter_affiliations,
    iter_papers,
)
from instrank.scoring import ScoreTable, score_venue_years, write_score_csv
from instrank import synth
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


# sha256 of each file ``synth`` writes, per parameter set: the dumps, and
# every realized truth table as ``write_score_csv`` writes it. A change to
# any draw, its order, or the oracle's arithmetic changes one of them.
PINNED_PARAMS = {
    "plain": dict(
        num_institutions=25,
        num_authors=300,
        num_venues=3,
        years=YearRange(2011, 2013),
        papers_per_venue_year=40,
        rng_seed=11,
    ),
    # Twelve authors is few enough that ``Random.sample`` shuffles a pool
    # list rather than rejecting repeats from a set; the drift clamps
    # weights at MIN_WEIGHT by the last year.
    "pool": dict(
        num_institutions=9,
        num_authors=12,
        num_venues=2,
        years=YearRange(2011, 2014),
        papers_per_venue_year=25,
        authors_per_paper=(2, 5),
        affils_per_author=(1, 3),
        strength_drift=2.0,
        unknown_rate=0.1,
        filler_width=7,
        rng_seed=5,
    ),
}
PINNED_SHA256 = {
    "plain": {
        "papers.txt": "864e542bdd24822c0a0fc0637fc27fcc1f82cf5d36c43b4932ec7c9d9e8bc381",
        "affiliations.txt": "a92613a8499340c2a1f7edf423d061399615882be5bd8b8f826537d18f2d2f91",
        "truth_2011.csv": "03d406c9f7de23a8b33c498770d85fa51697039f1db5c35146853429581667f1",
        "truth_2012.csv": "3331e5580b6037cedb2f8de093b2974146ed4391057af77f720204a9452c0f15",
        "truth_2013.csv": "6abf6e98456bc369c21889998ef8f4f847194789133e431df931f8a9f13dad79",
    },
    "pool": {
        "papers.txt": "ef30b6e8e8652b69695bb1e77a8724d2b26d737f25bbcf080f18d48fa301fd10",
        "affiliations.txt": "d53a5c811308a0be6777b2925cb3261fe7842645e116a213f7d4d50bb2abf17d",
        "truth_2011.csv": "159a43193fd105326113cce4615f4f2b50821082be412c5b2c6540ff2d95009e",
        "truth_2012.csv": "b44d39628225bcd9af6b4d998f1199392485354f6f2ed33fac8097c8137ead52",
        "truth_2013.csv": "0f3e49a86cebf317f5a4001586b8fcafaeee88cb54debaedff122c28409bc70e",
        "truth_2014.csv": "6195cdbbc41cc8dab075ac076067ab5026d8cad2bd3e9c772c10055265d54b4e",
    },
}


@pytest.mark.parametrize("compute_realized", [True, False])
@pytest.mark.parametrize("name", sorted(PINNED_PARAMS))
def test_generated_bytes_are_pinned(tmp_path, name, compute_realized):
    # Scoring the truth as the dumps are written never changes a dump byte.
    params = CorpusParams(**PINNED_PARAMS[name])
    corpus = generate_corpus(params, str(tmp_path), compute_realized=compute_realized)
    for year, table in (corpus.realized or {}).items():
        write_score_csv(table, str(tmp_path / f"truth_{year}.csv"))
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    expected = PINNED_SHA256[name]
    if not compute_realized:
        expected = {dump: expected[dump] for dump in ("affiliations.txt", "papers.txt")}
    assert digests == expected


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


def failing_corpus(params, papers_before_failure):
    """The corpus of ``params``, cut by an error after some papers."""

    def stream(_params):
        for serial, paper in enumerate(iter_corpus(params)):
            if serial == papers_before_failure:
                raise RuntimeError("stream failed")
            yield paper

    return stream


@pytest.mark.parametrize("compute_realized", [True, False])
def test_a_stream_that_fails_leaves_no_dump_and_no_temporary(
    tmp_path, monkeypatch, compute_realized
):
    monkeypatch.setattr(synth, "iter_corpus", failing_corpus(small_params(), 7))
    with pytest.raises(RuntimeError, match="stream failed"):
        generate_corpus(small_params(), str(tmp_path), compute_realized=compute_realized)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("compute_realized", [True, False])
def test_a_stream_that_fails_leaves_the_earlier_dumps_as_they_were(
    tmp_path, monkeypatch, compute_realized
):
    generate_corpus(small_params(), str(tmp_path), compute_realized=False)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert sorted(before) == ["affiliations.txt", "papers.txt"]
    other = small_params(rng_seed=4)
    monkeypatch.setattr(synth, "iter_corpus", failing_corpus(other, 50))
    with pytest.raises(RuntimeError, match="stream failed"):
        generate_corpus(other, str(tmp_path), compute_realized=compute_realized)
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert after == before


def test_an_oracle_that_fails_mid_stream_leaves_no_temporary(tmp_path, monkeypatch):
    def failing_oracle(corpus):
        for serial, _ in enumerate(corpus):
            if serial == 3:
                raise RuntimeError("oracle failed")

    monkeypatch.setattr(synth, "naive_score", failing_oracle)
    with pytest.raises(RuntimeError, match="oracle failed") as failure:
        generate_corpus(small_params(), str(tmp_path))
    # The traceback holds the frames that held the stream: the temporaries
    # are gone before it is dropped, not when the stream is collected.
    assert os.listdir(tmp_path) == []
    assert failure.traceback


# --- oracles ------------------------------------------------------------


def test_naive_score_matches_hand_worked_paper():
    corpus = list(iter_corpus(small_params()))
    tables = naive_score(corpus)
    # Credit is conserved: each paper contributes exactly 1 to its year.
    for year, table in tables.items():
        papers_in_year = sum(1 for p in corpus if p.paper.year == year)
        assert sum(table.numerators.values()) == papers_in_year * table.denominator


def per_row_naive_score(corpus):
    """The oracle as it was: one ``Fraction`` added per (institution, piece)."""
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


# Few authors and institutions, so authors and (author, institution) pairs
# repeat within a paper; one-row and row-less papers are drawn too.
ORACLE_PAPERS = st.lists(
    st.tuples(
        st.integers(2011, 2013),
        st.lists(
            st.tuples(
                st.sampled_from(["A0", "A1", "A2", "A3"]),
                st.sampled_from(["I0", "I1", "I2", "I3", "I4", UNKNOWN_INSTITUTION]),
            ),
            max_size=9,
        ),
    ),
    max_size=12,
)


@given(ORACLE_PAPERS)
@example([(2011, [("A0", "I0")])])
@example([(2012, [("A0", "I0"), ("A0", "I0"), ("A1", UNKNOWN_INSTITUTION), ("A0", "I1")])])
@example([(2011, []), (2013, [("A2", "I3")])])
@settings(max_examples=300, deadline=None)
def test_naive_score_equals_the_per_row_fraction_sum(drawn):
    from conftest import make_attributed

    corpus = [
        make_attributed(rows, paper_id=f"P{serial}", year=year)
        for serial, (year, rows) in enumerate(drawn)
    ]
    expected = per_row_naive_score(corpus)
    got = naive_score(corpus)
    assert list(got) == list(expected)
    for year, table in got.items():
        assert table.year == year
        assert list(table.numerators.items()) == list(expected[year].numerators.items())
        assert table.denominator == expected[year].denominator


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
