"""Rankings, Borda variants, Fagin top-k, and the method dispatcher."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact, make_rank_list, make_table
from instrank.aggregate import (
    AggregationSpec,
    InvalidPError,
    KTooLargeError,
    RankList,
    YearTables,
    borda_combine,
    borda_points,
    fagin_topk,
    normalized_sum,
    rank_venue,
    read_ranking_csv,
    run_aggregation,
    to_ranking,
    write_ranking_csv,
    write_ranking_json,
)
from instrank.ingest import UNKNOWN_INSTITUTION, MalformedRowError
from instrank.scoring import normalize, read_score_csv
from instrank.synth import naive_topk


def ranked_ids(rank_list: RankList) -> list[str]:
    return [item.institution_id for item in rank_list.items]


# --- to_ranking ---------------------------------------------------------


def test_to_ranking_orders_by_score_then_id():
    ranking = to_ranking(make_table(2014, {"A": 3, "C": 2, "B": 1}))
    assert ranking.items == (("A", 3.0), ("C", 2.0), ("B", 1.0))


def test_to_ranking_breaks_ties_by_id_ascending():
    ranking = to_ranking(make_table(2014, {"B": 5, "A": 5, "C": 5}))
    assert ranked_ids(ranking) == ["A", "B", "C"]


def test_to_ranking_drops_unknown_sentinel():
    ranking = to_ranking(make_table(2014, {"A": 1, UNKNOWN_INSTITUTION: 99}))
    assert ranked_ids(ranking) == ["A"]


def test_to_ranking_matches_plain_sort_on_random_tables():
    rng = random.Random(5)
    for _ in range(100):
        entries = {
            f"I{i}": Fraction(rng.randint(0, 8), rng.randint(1, 4))
            for i in range(rng.randint(1, 30))
        }
        ranking = to_ranking(make_table(2014, entries))
        expected = sorted(entries, key=lambda inst: (-entries[inst], inst))
        assert ranked_ids(ranking) == expected


# --- AggregationSpec ----------------------------------------------------


def test_spec_parse_forms():
    assert AggregationSpec.parse("normalized_sum").method == "normalized_sum"
    assert AggregationSpec.parse("borda").borda_variant == "sum"
    assert AggregationSpec.parse("borda:median").borda_variant == "median"
    spec = AggregationSpec.parse("borda:p_norm:2")
    assert spec.borda_variant == "p_norm" and spec.p == 2.0
    assert AggregationSpec.parse("fagin:7").fagin_k == 7
    assert AggregationSpec.parse("fagin:5") == AggregationSpec("fagin", fagin_k=5)


def test_spec_fagin_k_defaults_to_twenty():
    assert AggregationSpec.parse("fagin").fagin_k == 20
    assert AggregationSpec("fagin").fagin_k == 20


def test_spec_rejects_unknown_method_and_variant():
    with pytest.raises(ValueError):
        AggregationSpec.parse("kemeny")
    with pytest.raises(ValueError):
        AggregationSpec.parse("borda:harmonic_mean")
    # The constructor checks nothing; a bad spec built directly fails when it runs.
    years = YearTables([make_table(2014, {"A": 2, "B": 1})])
    with pytest.raises(ValueError, match="unknown borda variant 'harmonic_mean'"):
        run_aggregation(AggregationSpec("borda", "harmonic_mean"), years)
    with pytest.raises(ValueError, match="unknown aggregation method 'kemeny'"):
        run_aggregation(AggregationSpec("kemeny"), years)


def test_spec_rejects_non_positive_p():
    with pytest.raises(InvalidPError):
        AggregationSpec.parse("borda:p_norm:0")
    with pytest.raises(InvalidPError):
        AggregationSpec.parse("borda:p_norm:-2")
    with pytest.raises(InvalidPError):
        AggregationSpec.parse("borda:p_norm:-1")
    with pytest.raises(InvalidPError):
        borda_combine(borda_points([["A", "B"]]), "p_norm", 0.0)


def test_spec_parse_rejects_a_non_finite_p():
    with pytest.raises(InvalidPError, match="finite"):
        AggregationSpec.parse("borda:p_norm:inf")
    with pytest.raises(InvalidPError):
        AggregationSpec.parse("borda:p_norm:nan")


def test_borda_p_norm_overflow_raises_invalid_p():
    points = borda_points([["A", "B"]])
    with pytest.raises(InvalidPError, match="p=10000 is too large"):
        borda_combine(points, "p_norm", p=10_000)
    with pytest.raises(InvalidPError, match="p=inf is too large"):
        borda_combine(points, "p_norm", p=math.inf)
    assert borda_combine(points, "p_norm", p=1000).items[0] == ("A", 2.0**1000)


def test_spec_labels():
    assert AggregationSpec.parse("borda:p_norm:2").label == "borda_p_norm_2"
    assert AggregationSpec.parse("borda:geometric_mean").label == "borda_geometric_mean"
    assert AggregationSpec.parse("fagin:9").label == "fagin"


# --- normalized_sum -----------------------------------------------------


def test_normalized_sum_two_years_hand_computed():
    # Year one: A 2/2, B 1/2. Year two: A 1/4, B 4/4.
    final = normalized_sum(
        YearTables([make_table(2011, {"A": 2, "B": 1}), make_table(2012, {"A": 1, "B": 4})])
    )
    assert final == make_table(None, {"A": Fraction(5, 4), "B": Fraction(3, 2)})
    assert ranked_ids(to_ranking(final)) == ["B", "A"]


def test_normalized_sum_absent_year_contributes_nothing():
    final = normalized_sum(
        YearTables([make_table(2011, {"A": 2}), make_table(2012, {"A": 1, "B": 2})])
    )
    assert final == make_table(None, {"A": Fraction(3, 2), "B": 1})


def test_normalized_sum_skips_all_zero_years_but_keeps_their_institutions():
    zero = make_table(2011, {"A": 0, "C": 0})
    final = normalized_sum(YearTables([zero, make_table(2012, {"A": 1})]))
    assert final == make_table(None, {"A": 1, "C": 0})
    # A year that is all zero adds 0, also when it is the only one.
    assert normalized_sum(YearTables([zero])) == make_table(None, {"A": 0, "C": 0})


def test_normalized_sum_rejects_no_years_like_run_aggregation():
    with pytest.raises(ValueError) as direct:
        normalized_sum(YearTables([]))
    with pytest.raises(ValueError) as dispatched:
        run_aggregation(AggregationSpec("normalized_sum"), YearTables([]))
    assert type(direct.value) is type(dispatched.value)
    assert str(direct.value) == str(dispatched.value) == "no year tables to aggregate"


def test_normalized_sum_single_year_equals_that_years_normalization():
    table = make_table(2014, {"A": 5, "B": 2, "C": 4})
    final = normalized_sum(YearTables([table]))
    assert exact(final) == exact(normalize(table))


# --- borda --------------------------------------------------------------


def test_borda_points_for_three_items():
    # Three entries: 3 points for the first preference, 2, then 1.
    points = borda_points([make_rank_list([("A", 9), ("B", 5), ("C", 2)]).ids()])
    assert points == {"A": [3], "B": [2], "C": [1]}


def test_borda_sum_identical_lists_keep_the_order():
    final = borda_combine(borda_points([["A", "B", "C"]] * 3), "sum")
    assert final.items == (("A", 9), ("B", 6), ("C", 3))


def test_borda_sum_opposite_lists_tie_and_fall_back_to_id_order():
    final = borda_combine(borda_points([["A", "B", "C"], ["C", "B", "A"]]), "sum")
    assert final.items == (("A", 4), ("B", 4), ("C", 4))


def test_borda_absent_institutions_take_zero_points():
    final = borda_combine(borda_points([["A", "B"], ["B"]]), "sum")
    # A: 2 + 0; B: 1 + ... second list has one entry so B takes 1 point there.
    assert final.items == (("A", 2), ("B", 2))


def test_borda_median_and_geometric_mean_and_p_norm_hand_cases():
    points = borda_points([["A", "B"], ["A", "B"]])
    assert borda_combine(points, "median").items == (("A", 2), ("B", 1))
    geo = dict(borda_combine(points, "geometric_mean").items)
    assert geo["A"] == pytest.approx(2.0)
    assert geo["B"] == pytest.approx(1.0)
    assert borda_combine(points, "p_norm", p=2).items == (("A", 4.0), ("B", 1.0))


def test_borda_median_splits_even_counts():
    points = borda_points([["A", "B"], ["B", "A"]])
    assert borda_combine(points, "median").items == (("A", 1.5), ("B", 1.5))


def test_borda_geometric_mean_zeroes_on_any_absence():
    final = dict(borda_combine(borda_points([["A", "B"], ["A"]]), "geometric_mean").items)
    assert final["B"] == 0
    assert final["A"] > 0


def test_borda_p_norm_at_one_orders_like_sum():
    rng = random.Random(11)
    for _ in range(100):
        orders = []
        universe = [f"I{i}" for i in range(rng.randint(2, 25))]
        for l in range(rng.randint(1, 6)):
            members = [inst for inst in universe if rng.random() < 0.8]
            rng.shuffle(members)
            orders.append(members)
        if not any(orders):
            continue
        points = borda_points(orders)
        by_sum = borda_combine(points, "sum")
        by_p1 = borda_combine(points, "p_norm", p=1)
        assert ranked_ids(by_sum) == ranked_ids(by_p1)


def test_borda_rejects_empty_input_and_bad_variant():
    # A venue's Borda run starts from its YearTables, which need a year.
    with pytest.raises(ValueError, match="no year tables to aggregate"):
        YearTables([])
    points = borda_points([["A"]])
    with pytest.raises(ValueError):
        borda_combine(points, "midrange")
    with pytest.raises(InvalidPError):
        borda_combine(points, "p_norm", p=None)


# --- fagin --------------------------------------------------------------


def test_fagin_tie_on_average_goes_to_smaller_id():
    tables = [
        make_table(2011, {"A": 1, "B": Fraction(1, 2), "C": Fraction(1, 10)}),
        make_table(2012, {"B": 1, "A": Fraction(1, 2), "C": Fraction(1, 10)}),
    ]
    top = fagin_topk(tables, 1)
    assert ranked_ids(top) == ["A"]


def test_fagin_full_k_gives_the_complete_ranking():
    tables = [
        make_table(2011, {"A": 1, "B": Fraction(3, 5), "C": Fraction(1, 5)}),
        make_table(2012, {"A": 1, "C": Fraction(9, 10), "B": Fraction(3, 10)}),
    ]
    top = fagin_topk(tables, 3)
    assert ranked_ids(top) == ["A", "C", "B"]


def test_fagin_rejects_k_beyond_universe():
    tables = [make_table(2011, {"A": 1, "B": Fraction(1, 2)})]
    with pytest.raises(KTooLargeError, match=r"^k=3 exceeds universe of 2$"):
        fagin_topk(tables, 3)


def test_fagin_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        fagin_topk([make_table(2011, {"A": 1})], 0)


def test_fagin_absent_year_counts_zero_toward_the_mean():
    tables = [
        make_table(2011, {"A": 1, "B": Fraction(1, 2)}),
        make_table(2012, {"A": 1}),
    ]
    top = fagin_topk(tables, 2)
    assert [(item.institution_id, item.score) for item in top.items] == [
        ("A", 1.0),
        ("B", 0.25),
    ]


def test_fagin_matches_naive_on_random_tables():
    rng = random.Random(23)
    for _ in range(100):
        universe = [f"I{i:03d}" for i in range(rng.randint(1, 40))]
        tables = []
        for year in range(2011, 2011 + rng.randint(1, 5)):
            entries = {
                inst: Fraction(rng.randint(0, 12), rng.randint(1, 4))
                for inst in universe
                if rng.random() < 0.85
            }
            tables.append(make_table(year, entries))
        k = rng.randint(1, max(1, len(universe)))
        all_ids = {inst for table in tables for inst in table.numerators}
        if k > len(all_ids):
            k = max(1, len(all_ids))
        if not all_ids:
            continue
        spec = AggregationSpec("fagin", fagin_k=k)
        mine = run_aggregation(spec, YearTables(tables))
        reference = naive_topk(tables, k)
        assert set(ranked_ids(mine)) == set(ranked_ids(reference))
        assert ranked_ids(mine) == ranked_ids(reference)


# --- run_aggregation ----------------------------------------------------


def test_run_aggregation_single_year_normalized_sum_keeps_year_order():
    table = make_table(2014, {"A": 5, "B": 2, "C": 4})
    ranking = run_aggregation(AggregationSpec("normalized_sum"), YearTables([table]))
    assert ranked_ids(ranking) == ranked_ids(to_ranking(table))


def test_run_aggregation_rejects_empty_input():
    with pytest.raises(ValueError):
        run_aggregation(AggregationSpec("normalized_sum"), YearTables([]))


def test_run_aggregation_excludes_unknown_everywhere():
    tables = [
        make_table(2011, {"A": 1, UNKNOWN_INSTITUTION: 50}),
        make_table(2012, {"B": 2, UNKNOWN_INSTITUTION: 80}),
    ]
    for method in ("normalized_sum", "borda", "fagin"):
        spec = AggregationSpec(method, fagin_k=2 if method == "fagin" else None)
        ranking = run_aggregation(spec, YearTables(tables))
        assert UNKNOWN_INSTITUTION not in ranked_ids(ranking)


def test_year_tables_build_the_yearly_rankings_once_for_every_spec(monkeypatch):
    from instrank import aggregate

    rng = random.Random(12)
    tables = [
        make_table(
            year,
            {f"I{j:02d}": Fraction(rng.randint(1, 30), rng.randint(1, 6)) for j in range(15)}
            | {UNKNOWN_INSTITUTION: 3},
        )
        for year in (2011, 2012, 2013)
    ]
    specs = [
        AggregationSpec.parse(text)
        for text in (
            "normalized_sum",
            "borda:sum",
            "borda:median",
            "borda:geometric_mean",
            "borda:p_norm:2",
            "fagin:5",
        )
    ]
    separate = [run_aggregation(spec, YearTables(tables)) for spec in specs]
    calls = []
    counted = aggregate.normalize

    def counting_normalize(table):
        calls.append(table.year)
        return counted(table)

    monkeypatch.setattr(aggregate, "normalize", counting_normalize)
    years = YearTables(tables)
    shared = [run_aggregation(spec, years) for spec in specs]
    assert calls == [2011, 2012, 2013]
    assert shared == separate


def test_rank_venue_ranks_every_spec_by_label_in_spec_order():
    years = YearTables([make_table(2011, {"A": 3, "B": 1}), make_table(2012, {"A": 1, "B": 2})])
    specs = [AggregationSpec.parse(text) for text in ("fagin:1", "borda:median", "normalized_sum")]
    rankings = rank_venue("V0", years, specs)
    assert list(rankings) == ["fagin", "borda_median", "normalized_sum"]
    assert rankings == {spec.label: run_aggregation(spec, years) for spec in specs}


@pytest.mark.parametrize(
    "text, error, reason",
    [
        ("fagin:3", KTooLargeError, "k=3 exceeds universe of 2"),
        ("borda:p_norm:10000", InvalidPError, "p=10000 is too large"),
    ],
)
def test_rank_venue_names_the_venue_and_method_of_a_spec_that_does_not_fit(text, error, reason):
    years = YearTables([make_table(2011, {"A": 3, "B": 1})])
    specs = [AggregationSpec.parse("normalized_sum"), AggregationSpec.parse(text)]
    with pytest.raises(error) as info:
        rank_venue("V7", years, specs)
    label = specs[1].label
    assert str(info.value).startswith(f"venue 'V7', method {label}: {reason}")


def years_with_comings_and_goings(seed: int) -> list:
    # Institutions miss whole years; "late" appears only in the last year.
    rng = random.Random(seed)
    tables = []
    for year in (2011, 2012, 2013, 2014):
        entries = {
            f"I{j:02d}": Fraction(rng.randint(1, 40), rng.randint(1, 5))
            for j in range(12)
            if rng.random() < 0.7
        }
        if year == 2014:
            entries["late"] = Fraction(100)
        entries[UNKNOWN_INSTITUTION] = Fraction(rng.randint(1, 60))
        tables.append(make_table(year, entries))
    return tables


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_borda_variant_combines_the_one_point_table(seed):
    tables = years_with_comings_and_goings(seed)
    years = YearTables(tables)
    specs = [
        AggregationSpec.parse(text)
        for text in (
            "borda:sum",
            "borda:median",
            "borda:geometric_mean",
            "borda:p_norm:2",
            "borda:p_norm:0.5",
        )
    ]
    for last, view in ((2014, years), (2013, years.through(2013)), (2011, years.through(2011))):
        count = last - 2010
        # Borda reads only each year's order, which scaling leaves alone.
        lists = [to_ranking(table) for table in tables[:count]]
        assert view.points == borda_points([ranking.ids() for ranking in lists])
        assert view.points == YearTables(tables[:count]).points
        for spec in specs:
            got = run_aggregation(spec, view)
            want = borda_combine(
                borda_points([ranking.ids() for ranking in lists]), spec.borda_variant, spec.p
            )
            assert [(inst, repr(float(score))) for inst, score in got.items] == [
                (inst, repr(float(score))) for inst, score in want.items
            ], spec.label
    assert "late" in years.points
    assert "late" not in years.through(2013).points


def test_borda_median_is_the_statistics_median_of_the_points():
    import statistics

    rng = random.Random(8)
    for _ in range(200):
        years = rng.randint(1, 6)
        points = {f"I{j}": [rng.randint(0, 9) for _ in range(years)] for j in range(5)}
        got = dict(borda_combine(points, "median").items)
        assert got == {inst: statistics.median(values) for inst, values in points.items()}


def test_a_p_norm_that_overflows_the_shared_points_is_named_by_venue_and_method():
    # 3**1000 overflows a float and 2**1000 does not; "D" joins only in 2012.
    years = YearTables(
        [
            make_table(2011, {"A": 3, "B": 2, "C": 1}),
            make_table(2012, {"A": 3, "B": 2, "C": 1, "D": 4}),
        ]
    )
    spec = AggregationSpec("borda", "p_norm", 1000.0)
    for view, largest in ((years.through(2011), 3), (years, 4)):
        with pytest.raises(InvalidPError) as info:
            rank_venue("V3", view, [AggregationSpec.parse("borda:sum"), spec])
        assert str(info.value) == (
            f"venue 'V3', method borda_p_norm_1000: p=1000 is too large: "
            f"point counts up to {largest} raised to p overflow a float"
        )
    # Disjoint years: four institutions, but no list is longer than two.
    disjoint = YearTables(
        [make_table(2011, {"A": 2, "B": 1}), make_table(2012, {"C": 2, "D": 1})]
    )
    with pytest.raises(InvalidPError) as info:
        rank_venue("V3", disjoint, [AggregationSpec.parse("borda:p_norm:1100")])
    assert str(info.value) == (
        "venue 'V3', method borda_p_norm_1100: p=1100 is too large: "
        "point counts up to 2 raised to p overflow a float"
    )
    two = YearTables([make_table(2011, {"A": 2, "B": 1})])
    assert rank_venue("V3", two, [spec])[spec.label].items[0] == ("A", 2.0**1000)


def test_unanimity_identical_years_keep_their_order():
    rng = random.Random(31)
    for _ in range(50):
        entries = {
            f"I{i:02d}": Fraction(rng.randint(1, 50), rng.randint(1, 6))
            for i in range(rng.randint(2, 20))
        }
        tables = [make_table(year, entries) for year in (2011, 2012, 2013)]
        base = ranked_ids(to_ranking(tables[0]))
        for method, variant in (
            ("normalized_sum", None),
            ("borda", "sum"),
            ("borda", "median"),
            ("borda", "geometric_mean"),
            ("borda", "p_norm"),
        ):
            spec = AggregationSpec(
                method,
                variant or "sum",
                p=2.0 if variant == "p_norm" else None,
            )
            assert ranked_ids(run_aggregation(spec, YearTables(tables))) == base
        fagin = AggregationSpec("fagin", fagin_k=len(entries))
        assert ranked_ids(run_aggregation(fagin, YearTables(tables))) == base


def test_year_order_never_matters():
    rng = random.Random(37)
    for _ in range(30):
        universe = [f"I{i:02d}" for i in range(rng.randint(2, 15))]
        tables = []
        for year in range(2011, 2011 + rng.randint(2, 5)):
            entries = {
                inst: Fraction(rng.randint(0, 9), rng.randint(1, 3))
                for inst in universe
                if rng.random() < 0.8
            }
            tables.append(make_table(year, entries))
        shuffled = tables[:]
        rng.shuffle(shuffled)
        for text in ("normalized_sum", "borda:sum", "borda:median", "borda:geometric_mean", "borda:p_norm:2.5", "fagin:3"):
            spec = AggregationSpec.parse(text)
            if spec.method == "fagin":
                ids = {inst for table in tables for inst in table.numerators}
                if len(ids) < spec.fagin_k:
                    continue
            a = run_aggregation(spec, YearTables(tables))
            b = run_aggregation(spec, YearTables(shuffled))
            assert a.items == b.items


# --- files --------------------------------------------------------------


def test_ranking_csv_roundtrip_and_determinism(tmp_path):
    ranking = to_ranking(make_table(2014, {"A": 2, "B": 1}))
    path = tmp_path / "ranking.csv"
    write_ranking_csv(ranking, str(path))
    assert path.read_text(encoding="utf-8") == (
        "rank,institution_id,score\n1,A,2.0\n2,B,1.0\n"
    )
    back = read_ranking_csv(str(path))
    assert ranked_ids(back) == ["A", "B"]
    twice = tmp_path / "ranking2.csv"
    write_ranking_csv(ranking, str(twice))
    assert twice.read_bytes() == path.read_bytes()


def test_ranking_csv_tolerates_commas_in_institution_ids(tmp_path):
    ranking = to_ranking(make_table(2014, {"Dept, Univ": 2, "B": 1}))
    path = tmp_path / "ranking.csv"
    write_ranking_csv(ranking, str(path))
    back = read_ranking_csv(str(path))
    assert ranked_ids(back) == ["Dept, Univ", "B"]
    assert [item.score for item in back.items] == [2.0, 1.0]


@pytest.mark.parametrize(
    "rows, bad_row, bad_score",
    [
        (["1,A,nan", "2,B,inf", "3,C,-5.0"], 2, "nan"),
        (["1,A,inf", "2,B,1.0"], 2, "inf"),
        (["1,A,2.0", "2,B,-5.0"], 3, "-5.0"),
        (["1,A,-0.5"], 2, "-0.5"),
    ],
    ids=["nan-first", "infinite", "negative-last", "negative-only"],
)
def test_read_ranking_csv_rejects_non_finite_and_negative_scores(
    tmp_path, rows, bad_row, bad_score
):
    path = tmp_path / "ranking.csv"
    path.write_text(
        "rank,institution_id,score\n" + "".join(row + "\n" for row in rows), encoding="utf-8"
    )
    with pytest.raises(MalformedRowError) as info:
        read_ranking_csv(str(path))
    assert info.value.line_number == bad_row
    assert info.value.reason == f"score {bad_score!r} is not a finite number >= 0"


@pytest.mark.parametrize("bad_score", ["nan", "inf", "-1.0", "abc"])
def test_a_bad_score_reads_the_same_in_a_score_file_and_a_ranking_file(tmp_path, bad_score):
    scores = tmp_path / "scores.csv"
    scores.write_text(f"institution_id,score\nA,2.0\nB,{bad_score}\n", encoding="utf-8")
    ranking = tmp_path / "ranking.csv"
    ranking.write_text(
        f"rank,institution_id,score\n1,A,2.0\n2,B,{bad_score}\n", encoding="utf-8"
    )
    with pytest.raises(MalformedRowError) as from_scores:
        read_score_csv(str(scores), 2014)
    with pytest.raises(MalformedRowError) as from_ranking:
        read_ranking_csv(str(ranking))
    for info, path in ((from_scores, scores), (from_ranking, ranking)):
        assert (info.value.path, info.value.line_number) == (str(path), 3)
        assert info.value.reason == f"score {bad_score!r} is not a finite number >= 0"


@pytest.mark.parametrize("row", [1, 3])
def test_bytes_that_are_not_utf8_read_the_same_in_a_score_file_and_a_ranking_file(tmp_path, row):
    # A later bad score is not reached: the first bad row is the one named.
    scores = [b"institution_id,score", b"A,2.0", b"B,1.0", b"C,nan"]
    ranking = [b"rank,institution_id,score", b"1,A,2.0", b"2,B,1.0", b"3,C,nan"]
    for lines in (scores, ranking):
        lines[row - 1] = lines[row - 1].replace(b",", b"\xff\xfe,", 1)
    (tmp_path / "scores.csv").write_bytes(b"\n".join(scores) + b"\n")
    (tmp_path / "ranking.csv").write_bytes(b"\n".join(ranking) + b"\n")
    readers = (
        (lambda path: read_score_csv(path, 2014), "scores.csv"),
        (read_ranking_csv, "ranking.csv"),
    )
    for read, name in readers:
        path = str(tmp_path / name)
        with pytest.raises(MalformedRowError) as info:
            read(path)
        assert (info.value.path, info.value.line_number) == (path, row)
        assert info.value.reason.startswith("not UTF-8: ")


def test_ranking_json_echoes_the_spec(tmp_path):
    import json

    spec = AggregationSpec.parse("fagin:5")
    tables = [make_table(2011, {f"I{i}": i + 1 for i in range(6)})]
    ranking = run_aggregation(spec, YearTables(tables))
    path = tmp_path / "ranking.json"
    write_ranking_json(ranking, spec, str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["method"]["name"] == "fagin"
    assert payload["method"]["fagin_k"] == 5
    assert len(payload["items"]) == 5
    assert payload["items"][0]["rank"] == 1


def reference_ranking_json(rank_list: RankList, spec: AggregationSpec) -> bytes:
    """The bytes ``json.dump(payload, out, indent=2)`` writes, plus the final newline."""
    import json

    payload = {
        "method": {
            "name": spec.method,
            "borda_variant": spec.borda_variant if spec.method == "borda" else None,
            "p": spec.p,
            "fagin_k": spec.fagin_k if spec.method == "fagin" else None,
            "label": spec.label,
        },
        "items": [
            {"rank": rank, "institution_id": item.institution_id, "score": float(item.score)}
            for rank, item in enumerate(rank_list.items, start=1)
        ],
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


@st.composite
def aggregation_specs(draw) -> AggregationSpec:
    method = draw(st.sampled_from(["normalized_sum", "borda", "fagin"]))
    variant = draw(st.sampled_from(["sum", "median", "geometric_mean", "p_norm"]))
    if method == "borda" and variant == "p_norm":
        p = draw(st.floats(min_value=0.0, exclude_min=True))
    else:
        p = draw(st.none() | st.floats())
    fagin_k = draw(st.none() | st.integers(min_value=1, max_value=500))
    return AggregationSpec(method, variant, p=p, fagin_k=fagin_k)


# Ids with the characters JSON escapes or that a naive writer might trip on.
tricky_ids = st.text(alphabet='"\\,\x00\x1f\x7f\n\t é€😀aZ', max_size=8) | st.text(max_size=8)


@given(
    aggregation_specs(),
    st.lists(st.tuples(tricky_ids, st.floats() | st.fractions(-(10**6), 10**6)), max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_ranking_json_writes_the_bytes_of_json_dump(tmp_path_factory, spec, pairs):
    ranking = make_rank_list(pairs)
    path = tmp_path_factory.mktemp("json") / "ranking.json"
    write_ranking_json(ranking, spec, str(path))
    assert path.read_bytes() == reference_ranking_json(ranking, spec)


def test_an_empty_ranking_json_writes_an_empty_items_list(tmp_path):
    spec = AggregationSpec.parse("borda:p_norm:2.5")
    path = tmp_path / "ranking.json"
    write_ranking_json(RankList(()), spec, str(path))
    assert path.read_bytes() == reference_ranking_json(RankList(()), spec)
    assert b'"items": []\n}\n' in path.read_bytes()


# --- the integer tables against the Fraction reference --------------------


def reference_normalize(entries: dict) -> dict:
    """Per-year normalization as exact ``Fraction`` arithmetic, UNKNOWN dropped."""
    visible = {inst: value for inst, value in entries.items() if inst != UNKNOWN_INSTITUTION}
    top = max(visible.values(), default=Fraction(0))
    if top == 0:
        return visible
    return {inst: value / top for inst, value in visible.items()}


def reference_order(entries: dict) -> list:
    return sorted(entries.items(), key=lambda item: (-item[1], item[0]))


def reference_ranking(years: list[dict], spec: AggregationSpec) -> list:
    normalized = [reference_normalize(entries) for entries in years]
    if spec.method == "normalized_sum":
        totals: dict = {}
        for entries in normalized:
            for inst, value in entries.items():
                totals[inst] = totals.get(inst, 0) + value
        return reference_order(totals)
    if spec.method == "borda":
        orders = [[inst for inst, _ in reference_order(entries)] for entries in normalized]
        return list(borda_combine(borda_points(orders), spec.borda_variant, spec.p).items)
    universe = {inst for entries in normalized for inst in entries}
    means = {
        inst: math.fsum(float(entries.get(inst, 0)) for entries in normalized) / len(normalized)
        for inst in universe
    }
    return reference_order(means)[: spec.fagin_k]


# Small numerators make exact ties; huge ones make sums that need rounding.
dyadic_scores = st.builds(
    lambda numerator, exponent: Fraction(numerator, 2**exponent),
    st.integers(0, 6) | st.integers(0, 2**70),
    st.integers(0, 60),
)
year_entries = st.dictionaries(
    st.sampled_from(["A", "B", "C", "D", "E", UNKNOWN_INSTITUTION]), dyadic_scores, max_size=6
) | st.dictionaries(st.sampled_from(["A", "B", "C"]), st.just(Fraction(0)), min_size=1)


@given(st.lists(year_entries, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_integer_aggregation_matches_the_fraction_reference(years):
    tables = [make_table(2011 + i, entries) for i, entries in enumerate(years)]
    specs = [
        AggregationSpec.parse(text)
        for text in (
            "normalized_sum",
            "borda:sum",
            "borda:median",
            "borda:geometric_mean",
            "borda:p_norm:2",
            "fagin:3",
        )
    ]
    universe = {inst for entries in years for inst in entries if inst != UNKNOWN_INSTITUTION}
    for spec in specs:
        if spec.method == "fagin" and len(universe) < spec.fagin_k:
            continue
        ranking = run_aggregation(spec, YearTables(tables))
        assert [(item.institution_id, repr(float(item.score))) for item in ranking.items] == [
            (inst, repr(float(value))) for inst, value in reference_ranking(years, spec)
        ], spec.label
