"""Attribution rule, credit counting, table equality, and normalization."""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_streams, make_attributed, make_rank_list, make_table, rows_of
from instrank import scoring
from instrank.aggregate import read_ranking_csv, write_ranking_csv
from instrank.cli import EXIT_IO, EXIT_OK, main
from instrank.ingest import (
    UNKNOWN_INSTITUTION,
    AffiliationRow,
    DuplicatePaperIdError,
    PaperRecord,
    YearRange,
    gather_rows,
    join_affiliations,
)
from instrank.scoring import (
    ScoreTable,
    drop_unknown,
    normalize,
    order_by_score,
    paper_shares,
    read_score_csv,
    score_file_name,
    score_venue_years,
    stored_table,
    write_output,
    write_score_csv,
)
from instrank.synth import CorpusParams, generate_corpus, naive_score


def test_single_author_single_institution_gets_everything():
    shares = paper_shares(make_attributed([("a1", "A")], year=2013))
    assert shares == make_table(2013, {"A": 1})
    assert shares.year == 2013


def test_two_authors_one_with_two_institutions():
    # a1 splits its half over A and B; a2's half lands on A.
    shares = paper_shares(make_attributed([("a1", "A"), ("a1", "B"), ("a2", "A")]))
    assert shares == make_table(2014, {"A": Fraction(3, 4), "B": Fraction(1, 4)})


def test_duplicate_rows_are_deduplicated():
    once = paper_shares(make_attributed([("a1", "A"), ("a2", "B")]))
    doubled = paper_shares(
        make_attributed([("a1", "A"), ("a1", "A"), ("a2", "B"), ("a2", "B")])
    )
    assert once == doubled


def test_empty_institution_credits_unknown_sentinel():
    shares = paper_shares(
        make_attributed([("a1", UNKNOWN_INSTITUTION), ("a2", "A")])
    )
    assert shares == make_table(2014, {UNKNOWN_INSTITUTION: Fraction(1, 2), "A": Fraction(1, 2)})
    assert sum(shares.numerators.values()) == shares.denominator


def test_share_order_is_sorted_by_institution():
    shares = paper_shares(make_attributed([("a1", "Z"), ("a2", "A"), ("a3", "M")]))
    assert list(shares.numerators) == ["A", "M", "Z"]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.sampled_from(["A", "B", "C", "D", UNKNOWN_INSTITUTION]),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_shares_always_sum_to_one(pairs):
    rows = [(f"a{author}", institution) for author, institution in pairs]
    shares = paper_shares(make_attributed(rows))
    assert sum(shares.numerators.values()) == shares.denominator


def test_score_venue_years_sums_the_credit_of_its_papers():
    papers = [
        make_attributed([("a1", "A")], paper_id="P1"),
        make_attributed([("a1", "A"), ("a2", "B")], paper_id="P2"),
    ]
    table = score_venue_years(*as_streams(papers))[("V0", 2014)]
    assert table == make_table(2014, {"A": Fraction(3, 2), "B": Fraction(1, 2)})
    assert table.year == 2014


def test_accumulate_empty_stream_gives_empty_table():
    assert score_venue_years([], rows_of([])) == {}


def test_a_paper_without_rows_splits_into_an_empty_table():
    # A paper with no rows earns no credit: its split is an empty table.
    table = paper_shares(make_attributed([]))
    assert (table.year, table.numerators, table.denominator) == (2014, {}, 1)


def test_tables_equal_whatever_their_denominators():
    table = make_table(2014, {"A": 2, "B": 1})
    assert table.denominator == 1
    assert table == ScoreTable.from_numerators(2014, {"B": 3, "A": 6}, 3)
    assert table == ScoreTable(2014, {"A": 2.0, "B": Fraction(2, 2)})


def test_tables_of_other_years_institutions_or_values_differ():
    table = make_table(2014, {"A": 1})
    assert table != make_table(2015, {"A": 1})
    assert table != make_table(2014, {"B": 1})
    assert table != make_table(2014, {"A": 1, "B": 0})
    assert table != ScoreTable.from_numerators(2014, {"A": 2}, 3)
    assert table != {"A": 1}


def test_any_permutation_of_the_paper_stream_scores_alike():
    rng = random.Random(7)
    papers = [
        make_attributed(
            [
                (f"a{rng.randint(0, 9)}", rng.choice(["A", "B", "C", "D", "E"]))
                for _ in range(rng.randint(1, 6))
            ],
            paper_id=f"P{i}",
        )
        for i in range(200)
    ]
    sequential = score_venue_years(*as_streams(papers))[("V0", 2014)]
    assert sequential == naive_score(papers)[2014]
    for trial in range(20):
        shuffled = papers[:]
        rng.shuffle(shuffled)
        permuted = score_venue_years(*as_streams(shuffled))[("V0", 2014)]
        assert list(permuted.numerators.items()) == list(sequential.numerators.items())
        assert permuted.denominator == sequential.denominator


def test_the_attribution_rule_counts_each_author_institution_pair_once():
    # a1 holds half, split over A and B (the repeated a1-A row counts once);
    # a2's half goes to A.
    table = paper_shares(
        make_attributed([("a1", "A"), ("a1", "B"), ("a1", "A"), ("a2", "A")])
    )
    assert table == make_table(2014, {"A": Fraction(3, 4), "B": Fraction(1, 4)})
    assert (table.numerators, table.denominator) == ({"A": 3, "B": 1}, 4)


def test_accumulator_table_is_over_the_lcm_of_its_denominators():
    # Three authors with one institution each: parts of 1/3.
    first = make_attributed([("a1", "A"), ("a2", "B"), ("a3", "C")], paper_id="P1")
    assert score_venue_years(*as_streams([first]))[("V0", 2014)].denominator == 3
    # Two authors, one with two institutions: parts of 1/2 and 1/4.
    second = make_attributed([("a1", "A"), ("a2", "B"), ("a2", "D")], paper_id="P2")
    table = score_venue_years(*as_streams([first, second]))[("V0", 2014)]
    assert table.denominator == 12
    assert table.numerators == {"A": 10, "B": 7, "C": 4, "D": 3}
    assert list(table.numerators) == ["A", "B", "C", "D"]
    assert table == make_table(
        2014,
        {"A": Fraction(5, 6), "B": Fraction(7, 12), "C": Fraction(1, 3), "D": Fraction(1, 4)},
    )
    assert table.year == 2014


PAPER_ROWS = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sampled_from(["A", "B", "C", UNKNOWN_INSTITUTION]),
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=20,
)


def credit(papers: list[list[tuple[int, str]]]) -> ScoreTable:
    attributed = [
        make_attributed([(f"a{a}", i) for a, i in rows], paper_id=f"P{serial}")
        for serial, rows in papers
    ]
    return score_venue_years(*as_streams(attributed))[("V0", 2014)]


@given(PAPER_ROWS, st.data())
@settings(max_examples=200, deadline=None)
def test_any_order_of_the_papers_builds_one_table(papers, data):
    # Every denominator the papers bring, and their exact sum per institution.
    seen = set()
    expected: dict[str, Fraction] = {}
    for rows in papers:
        by_author: dict[int, set[str]] = {}
        for author, institution in rows:
            by_author.setdefault(author, set()).add(institution)
        for institutions in by_author.values():
            denominator = len(by_author) * len(institutions)
            seen.add(denominator)
            for institution in institutions:
                expected[institution] = expected.get(institution, 0) + Fraction(1, denominator)

    numbered = list(enumerate(papers))
    table = credit(numbered)
    assert table.denominator == math.lcm(*seen)
    assert table == make_table(2014, expected)
    assert list(table.numerators) == sorted(expected)

    order = data.draw(st.permutations(range(len(papers))))
    permuted = credit([numbered[i] for i in order])
    assert list(permuted.numerators.items()) == list(table.numerators.items())
    assert permuted.denominator == table.denominator


def test_rowless_papers_go_to_on_missing_in_paper_stream_order():
    papers = [
        PaperRecord("P1", 2011, "V0"),
        PaperRecord("P2", 2012, "V0"),  # no paper of V0 2012 has rows
        PaperRecord("P3", 2011, "V0"),
        PaperRecord("P4", 2011, "V1"),
        PaperRecord("P5", 2012, "V0"),
    ]
    rows = [AffiliationRow("P4", "a1", "B"), AffiliationRow("P1", "a2", "A")]
    missing: list[PaperRecord] = []
    tables = score_venue_years(iter(papers), rows_of(rows), missing.append)
    assert missing == [papers[1], papers[2], papers[4]]
    assert all(type(record) is PaperRecord for record in missing)
    assert list(tables) == [("V0", 2011), ("V1", 2011)]


def test_grouped_rows_are_read_once_and_a_stray_row_reads_them_again(monkeypatch):
    papers = [
        PaperRecord("P1", 2011, "V0"),
        PaperRecord("P2", 2011, "V1"),
        PaperRecord("P3", 2012, "V0"),  # no rows
        PaperRecord("P4", 2011, "V0"),
        PaperRecord("P5", 2011, "V1"),  # no rows
    ]
    grouped = [
        AffiliationRow("P2", "a1", "B"),  # V1 2011 is credited before V0 2011
        AffiliationRow("P2", "a2", "A"),
        AffiliationRow("P9", "a1", "A"),  # not a filtered paper
        AffiliationRow("P4", "a3", "A"),
        AffiliationRow("P4", "a3", "C"),
        AffiliationRow("P1", "a1", "A"),
        AffiliationRow("P1", "a2", "B"),
    ]
    # P2's first row moved to the end: grouped but for one stray last row.
    stray = grouped[1:] + grouped[:1]
    gathers = []

    def gather_spy(where, read_rows):
        gathers.append(len(where))
        return gather_rows(where, read_rows)

    monkeypatch.setattr(scoring, "gather_rows", gather_spy)

    def run(rows):
        passes: list[str] = []

        def read_rows(paper_ids):
            passes.append("open")
            try:
                yield from (row for row in rows if row.paper_id in paper_ids)
            finally:
                passes.append("closed")

        missing: list[PaperRecord] = []
        tables = score_venue_years(iter(papers), read_rows, missing.append)
        return passes, tables, missing

    passes, tables, missing = run(grouped)
    assert passes == ["open", "closed"] and gathers == []
    assert list(tables) == [("V0", 2011), ("V1", 2011)]
    assert missing == [papers[2], papers[4]]

    passes, again, missing_again = run(stray)
    assert passes == ["open", "closed", "open", "closed"] and gathers == [5]
    assert list(again) == list(tables)
    for key, table in again.items():
        assert list(table.numerators.items()) == list(tables[key].numerators.items())
        assert table.denominator == tables[key].denominator
    assert missing_again == missing


@pytest.mark.parametrize(
    "second", [PaperRecord("P1", 2011, "V1"), PaperRecord("P1", 2012, "V0")], ids=["venue", "year"]
)
def test_a_paper_id_in_two_venue_years_is_rejected(second):
    papers = [PaperRecord("P1", 2011, "V0"), PaperRecord("P2", 2011, "V0"), second]
    rows = rows_of([AffiliationRow("P1", "a1", "A")])
    with pytest.raises(DuplicatePaperIdError, match="'P1' appears twice"):
        score_venue_years(iter(papers), rows)


def paper_strategy(max_authors: int, max_institutions: int):
    """Papers drawn from a small institution pool, UNKNOWN included."""
    author = st.lists(
        st.sampled_from(["A", "B", "C", "D", "E", "F", UNKNOWN_INSTITUTION]),
        min_size=1,
        max_size=max_institutions,
    )
    return st.lists(author, min_size=1, max_size=max_authors)


@given(
    st.lists(
        st.one_of(paper_strategy(3, 2), paper_strategy(7, 3)),
        min_size=1,
        max_size=25,
    ),
    st.permutations(range(26)),
    st.lists(st.permutations(["A", "B", "C"]), min_size=5, max_size=7),
)
@settings(max_examples=150, deadline=None)
def test_accumulator_equals_the_fraction_sum_of_paper_shares(
    author_lists, order, wide_paper
):
    # One paper with 5-7 authors of 3 institutions each brings denominators
    # the others may not have.
    author_lists = [*author_lists[:12], wide_paper, *author_lists[12:]]
    papers = [
        make_attributed(
            [
                (f"a{index}", institution)
                for index, institutions in enumerate(authors)
                for institution in institutions
            ],
            paper_id=f"P{serial}",
        )
        for serial, authors in enumerate(author_lists)
    ]
    # naive_score sums each paper's Fraction pieces: the exact reference.
    expected = naive_score(papers)[2014]

    streamed = score_venue_years(*as_streams(papers))
    assert list(streamed) == [("V0", 2014)]
    table = streamed[("V0", 2014)]
    assert table == expected
    assert list(table.numerators) == list(expected.numerators)
    from_paper_tables: dict[str, Fraction] = {}
    for paper in papers:
        shares = paper_shares(paper)
        for institution, numerator in shares.numerators.items():
            from_paper_tables[institution] = from_paper_tables.get(institution, 0) + Fraction(
                numerator, shares.denominator
            )
    assert table == make_table(2014, from_paper_tables)

    shuffled = [papers[i] for i in order if i < len(papers)]
    permuted = score_venue_years(*as_streams(shuffled))[("V0", 2014)]
    assert list(permuted.numerators.items()) == list(table.numerators.items())
    assert permuted.denominator == table.denominator


def test_score_venue_years_keys_tables_by_venue_and_year():
    papers = [
        make_attributed([("a1", "A")], paper_id="P1", year=2014, venue_id="V0"),
        make_attributed([("a1", "B")], paper_id="P2", year=2015, venue_id="V0"),
        make_attributed([("a1", "A"), ("a2", "B")], paper_id="P3", year=2014, venue_id="V1"),
    ]
    tables = score_venue_years(*as_streams(papers))
    assert set(tables) == {("V0", 2014), ("V0", 2015), ("V1", 2014)}
    assert tables[("V0", 2015)].year == 2015
    assert tables[("V0", 2014)] == make_table(2014, {"A": 1})
    assert tables[("V1", 2014)] == make_table(2014, {"A": Fraction(1, 2), "B": Fraction(1, 2)})


@given(
    st.lists(
        st.tuples(
            st.booleans(),  # selected by the filter
            st.sampled_from(["V0", "V1"]),
            st.integers(min_value=2011, max_value=2012),
            # Small pools make duplicate (author, institution) rows common.
            st.lists(
                st.tuples(
                    st.sampled_from(["a1", "a2", "a3"]),
                    st.sampled_from(["A", "B", "C", UNKNOWN_INSTITUTION]),
                ),
                max_size=6,
            ),
        ),
        max_size=20,
    ),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_score_venue_years_equals_the_oracle_over_the_join(drawn, shuffled, rng):
    papers = [
        PaperRecord(f"P{serial}", year, venue) for serial, (_, venue, year, _) in enumerate(drawn)
    ]
    selected = [paper for paper, (chosen, *_) in zip(papers, drawn) if chosen]
    rows = [
        AffiliationRow(paper.paper_id, author, institution)
        for paper, (*_, pairs) in zip(papers, drawn)
        for author, institution in pairs
    ]
    if shuffled:
        rng.shuffle(rows)  # rows of one paper interleave with the others'

    missing_scored: list[PaperRecord] = []
    tables = score_venue_years(iter(selected), rows_of(rows), missing_scored.append)
    missing_joined: list[PaperRecord] = []
    joined = list(join_affiliations(iter(selected), rows_of(rows), missing_joined.append))

    # The join keeps paper-stream order, and each paper's rows in file order.
    with_rows = {row.paper_id for row in rows}
    attributed = [paper for paper in selected if paper.paper_id in with_rows]
    assert [a.paper for a in joined] == attributed
    for a in joined:
        assert a.affiliations == tuple(r for r in rows if r.paper_id == a.paper.paper_id)
    assert missing_scored == missing_joined
    assert missing_joined == [paper for paper in selected if paper not in attributed]

    expected = {
        (venue, year): table
        for venue in ("V0", "V1")
        for year, table in naive_score(a for a in joined if a.paper.venue_id == venue).items()
    }
    assert tables.keys() == expected.keys()
    for key, table in tables.items():
        assert table.year == expected[key].year
        assert table == expected[key]
        assert list(table.numerators) == list(expected[key].numerators)


def test_order_by_score_breaks_ties_by_id_ascending():
    entries = {"C": Fraction(1, 3), "A": Fraction(1, 2), "B": Fraction(1, 3), "D": 0.5}
    assert [i for i, _ in order_by_score(entries)] == ["A", "D", "B", "C"]


SCORE_IDS = st.text(alphabet="ABCDEFG", min_size=1, max_size=3)


@given(
    st.one_of(
        # Few numerators over mixed denominators: many exact ties.
        st.dictionaries(
            SCORE_IDS,
            st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3, 4, 6, 7, 12, 35])),
            max_size=40,
        ),
        st.dictionaries(
            SCORE_IDS, st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0, 2.5, 1e-300]), max_size=40
        ),
    ),
)
@settings(max_examples=200, deadline=None)
def test_order_by_score_matches_the_score_then_id_key(entries):
    # Highest score first, ties by id ascending.
    expected = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
    assert order_by_score(entries) == expected


def test_normalize_scales_max_to_one():
    table = normalize(make_table(2014, {"A": 4, "B": 1}))
    assert table == make_table(2014, {"A": 1, "B": Fraction(1, 4)})


def test_normalize_is_idempotent():
    table = normalize(make_table(2014, {"A": 7, "B": 3, "C": 1}))
    again = normalize(table)
    assert again == table


def test_normalize_all_zero_passes_through_with_warning(caplog):
    with caplog.at_level("WARNING"):
        table = normalize(make_table(2014, {"A": 0, "B": 0}))
    assert table == make_table(2014, {"A": 0, "B": 0})
    assert any("zero" in message for message in caplog.messages)


def test_normalize_warning_names_the_year(caplog):
    # An aggregated table has no year; its warning once failed to format.
    with caplog.at_level("WARNING"):
        table = normalize(ScoreTable(None, {"a": 0}))
        normalize(ScoreTable(2014, {"a": 0}))
    assert table.numerators == {"a": 0}
    assert caplog.messages == [
        "year None: no score above zero, normalization is a no-op",
        "year 2014: no score above zero, normalization is a no-op",
    ]


def test_normalize_empty_table():
    assert normalize(make_table(2014, {})) == make_table(2014, {})


def test_normalize_is_scale_invariant_bitwise():
    rng = random.Random(13)
    for _ in range(50):
        entries = {
            f"I{i}": Fraction(rng.randint(1, 500), rng.randint(1, 30))
            for i in range(rng.randint(1, 20))
        }
        base = normalize(make_table(2014, entries))
        for constant in (1e-6, 3, 1e6):
            factor = Fraction(constant)
            scaled = make_table(
                2014, {inst: value * factor for inst, value in entries.items()}
            )
            renormalized = normalize(scaled)
            assert renormalized == base
            assert [n / renormalized.denominator for n in renormalized.numerators.values()] == [
                n / base.denominator for n in base.numerators.values()
            ]


def test_drop_unknown_removes_only_the_sentinel():
    table = make_table(2014, {"A": 1, UNKNOWN_INSTITUTION: 5})
    visible = drop_unknown(table)
    assert UNKNOWN_INSTITUTION not in visible.numerators
    assert visible == make_table(2014, {"A": 1})


def test_score_csv_is_sorted_and_roundtrips(tmp_path):
    table = make_table(
        2014, {"B": 2, "A": 2, "C": 5, UNKNOWN_INSTITUTION: 9}
    )
    path = tmp_path / score_file_name("V0", 2014)
    write_score_csv(table, str(path))
    text = path.read_text(encoding="utf-8")
    # Score descending, then id ascending; the sentinel never reaches disk.
    assert text == "institution_id,score\nC,5.0\nA,2.0\nB,2.0\n"
    back = read_score_csv(str(path), 2014)
    assert back == make_table(2014, {"A": 2, "B": 2, "C": 5})


def test_score_csv_rerun_is_byte_identical(tmp_path):
    table = make_table(2014, {"A": Fraction(1, 3), "B": Fraction(2, 7)})
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_score_csv(table, str(first))
    write_score_csv(table, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_a_failed_rewrite_leaves_the_score_file_intact(tmp_path, monkeypatch):
    path = tmp_path / score_file_name("V0", 2014)
    write_score_csv(make_table(2014, {"A": 2, "B": 1}), str(path))
    before = path.read_bytes()

    def fail(source, target):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_score_csv(make_table(2014, {"C": 7}), str(path))
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == [path.name]


def test_a_block_that_raises_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"before\n")
    with pytest.raises(RuntimeError, match="block failed"):
        with write_output(str(path)) as out:
            out.write("half a file\n")
            out.flush()
            raise RuntimeError("block failed")
    assert path.read_bytes() == b"before\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_the_writer_writes_utf8_with_lf_line_ends(tmp_path):
    path = tmp_path / "out.txt"
    with write_output(str(path)) as out:
        out.write("Zürich\n")
        out.write("北京\nlast\n")
    assert path.read_bytes() == "Zürich\n北京\nlast\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["out.txt"]


def fail_rename_onto(monkeypatch, name):
    """Make ``os.replace`` fail when it renames onto a file called ``name``."""
    replace = os.replace

    def failing(source, target):
        if os.path.basename(target) == name:
            raise OSError(f"rename onto {name} failed")
        replace(source, target)

    monkeypatch.setattr(os, "replace", failing)


def corpus_params(seed):
    return CorpusParams(
        num_institutions=6,
        num_authors=12,
        num_venues=1,
        years=YearRange(2011, 2013),
        papers_per_venue_year=12,
        rng_seed=seed,
    )


DUMPS = ("papers.txt", "affiliations.txt")


@pytest.mark.parametrize(
    "name",
    [
        *DUMPS,
        "scores_V0_2013.csv",
        "ranking_V0_borda_sum.csv",
        "ranking_V0_borda_sum.json",
        "report.txt",
        "report.csv",
        "prediction_V0.csv",
    ],
)
def test_a_failed_rename_keeps_the_old_file_and_leaves_no_temporary(
    tmp_path, monkeypatch, capsys, name
):
    # Every file synth and pipeline write goes through write_output.
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    config = tmp_path / "run.ini"
    config.write_text(
        f"[inputs]\npapers = {corpus}/papers.txt\naffiliations = {corpus}/affiliations.txt\n"
        "[selection]\nvenues = V0\ntrain_years = 2011-2012\ntruth_year = 2013\n"
        f"[aggregation]\nmethods = borda:sum\nk = 3\n[output]\ndir = {out}\n",
        encoding="utf-8",
    )
    generate_corpus(corpus_params(1), str(corpus), compute_realized=False)
    assert main(["pipeline", "--config", str(config)]) == EXIT_OK
    target = (corpus if name in DUMPS else out) / name
    before = target.read_bytes()
    fail_rename_onto(monkeypatch, name)
    if name in DUMPS:
        with pytest.raises(OSError, match="rename onto"):
            generate_corpus(corpus_params(2), str(corpus), compute_realized=False)
    else:
        generate_corpus(corpus_params(2), str(corpus), compute_realized=False)
        assert main(["pipeline", "--config", str(config)]) == EXIT_IO
        assert f"rename onto {name} failed" in capsys.readouterr().err
    assert target.read_bytes() == before
    assert [f for _, _, files in os.walk(tmp_path) for f in files if f.endswith(".tmp")] == []


@pytest.mark.parametrize("blank", [False, True], ids=["no-blank", "blank"])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_score_and_ranking_files_read_alike_with_lf_or_crlf_line_ends(
    tmp_path, line_end, blank
):
    table = make_table(2014, {"A": 2, "B": Fraction(1, 3), "Dept, Univ": 1})
    ranking = make_rank_list([("A", 2.0), ("Dept, Univ", 1.0), ("B", 0.5)])
    scores, ranks = tmp_path / "scores.csv", tmp_path / "ranking.csv"
    write_score_csv(table, str(scores))
    write_ranking_csv(ranking, str(ranks))
    for path in (scores, ranks):
        text = path.read_text(encoding="utf-8") + ("\n" if blank else "")
        path.write_bytes(text.replace("\n", line_end).encode("utf-8"))
    back = read_score_csv(str(scores), 2014)
    assert back == stored_table(table)
    assert list(back.numerators) == list(stored_table(table).numerators)
    assert read_ranking_csv(str(ranks)) == ranking


def test_score_csv_tolerates_commas_in_institution_ids(tmp_path):
    table = make_table(2014, {"Dept, Univ": 3, "B": 1})
    path = tmp_path / "commas.csv"
    write_score_csv(table, str(path))
    back = read_score_csv(str(path), 2014)
    assert back == make_table(2014, {"Dept, Univ": 3, "B": 1})


def test_read_score_csv_rejects_other_files(tmp_path):
    path = tmp_path / "nope.csv"
    path.write_text("something,else\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_score_csv(str(path), 2014)


@given(
    st.dictionaries(
        st.sampled_from(["A", "B", "C", "Dept, Univ", UNKNOWN_INSTITUTION]),
        st.fractions(min_value=0, max_value=10**6, max_denominator=10**9)
        | st.builds(lambda n, e: Fraction(n, 2**e), st.integers(0, 2**80), st.integers(0, 90)),
    )
)
@settings(max_examples=300, deadline=None)
def test_a_score_file_reads_back_as_the_floats_written(tmp_path_factory, entries):
    path = str(tmp_path_factory.mktemp("scores") / "scores.csv")
    write_score_csv(ScoreTable(2014, entries), path)
    back = read_score_csv(path, 2014)
    expected = {
        inst: Fraction(float(value))
        for inst, value in sorted(entries.items())
        if inst != UNKNOWN_INSTITUTION
    }
    assert back == make_table(2014, expected)
    assert list(back.numerators) == list(expected)


# A third of a unit and a value 2**-80 above it round to one float.
NEAR_THIRD = Fraction(1, 3) + Fraction(1, 2**80)


@given(
    st.dictionaries(
        st.sampled_from(["A", "B", "Dept, Univ", "a,b,", "I\rJ", "K\r", UNKNOWN_INSTITUTION]),
        st.fractions(min_value=0, max_value=10**6, max_denominator=10**9)
        | st.builds(lambda n, e: Fraction(n, 2**e), st.integers(0, 2**80), st.integers(0, 90))
        | st.sampled_from([Fraction(1, 3), NEAR_THIRD]),
    )
)
@example({})
@example({UNKNOWN_INSTITUTION: Fraction(1, 2)})
@example({"B": Fraction(1, 3), "A": NEAR_THIRD, "I\rJ": Fraction(2), UNKNOWN_INSTITUTION: 1})
@settings(max_examples=300, deadline=None)
def test_the_stored_table_is_what_its_score_file_reads_back_as(tmp_path_factory, entries):
    # pipeline aggregates stored_table(table) instead of reading the file back.
    table = ScoreTable(2014, entries)
    path = str(tmp_path_factory.mktemp("scores") / "scores.csv")
    write_score_csv(table, path)
    stored, back = stored_table(table), read_score_csv(path, 2014)
    assert stored.year == back.year == 2014
    assert list(stored.numerators.items()) == list(back.numerators.items())
    assert stored.denominator == back.denominator


def test_two_scores_that_round_to_one_float_keep_their_exact_order_on_disk(tmp_path):
    assert float(NEAR_THIRD) == float(Fraction(1, 3))
    table = ScoreTable(2014, {"A": Fraction(1, 3), "B": NEAR_THIRD})
    path = tmp_path / "scores.csv"
    write_score_csv(table, str(path))
    third = repr(1 / 3)
    assert path.read_text(encoding="utf-8") == f"institution_id,score\nB,{third}\nA,{third}\n"
    assert stored_table(table) == read_score_csv(str(path), 2014) == ScoreTable(
        2014, {"A": 1 / 3, "B": 1 / 3}
    )
