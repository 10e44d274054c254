"""NDCG math and the evaluation protocol: ``rank_venue``, then ``evaluate_rankings``."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact, make_rank_list, make_table
from instrank.aggregate import (
    AggregationSpec,
    RankList,
    YearTables,
    rank_venue,
    run_aggregation,
    to_ranking,
)
from instrank.evaluate import (
    EvalReport,
    EvalRow,
    ZeroIdealError,
    _graded,
    evaluate_rankings,
    ndcg_at_k,
    render_report_csv,
    render_report_text,
)
from instrank.ingest import UNKNOWN_INSTITUTION
from instrank.scoring import ScoreTable, read_score_csv, write_score_csv

THREE_LEVELS = to_ranking(make_table(2015, {"A": 3, "B": 2, "C": 1}))
# 1 / log2(3), the discount at the second position.
SECOND = 0.6309297535714575
# DCG@3 of THREE_LEVELS in its own order: 3/log2(2) + 2/log2(3) + 1/log2(4).
THREE_LEVELS_IDEAL = 3.0 + 2.0 * SECOND + 0.5


# --- dcg ---------------------------------------------------------------


def test_dcg_discounts_by_log_of_position():
    # 1/log2(2) + 2/log2(3) + 3/log2(4), over the ideal DCG.
    value = ndcg_at_k(["C", "B", "A"], THREE_LEVELS, 3)
    assert value == pytest.approx((1.0 + 2.0 * SECOND + 1.5) / THREE_LEVELS_IDEAL)


def test_dcg_second_position_discount_is_frozen():
    truth = to_ranking(make_table(2015, {"B": 1}))
    # The ideal DCG is 1, so the NDCG is the discount itself.
    assert ndcg_at_k(["A", "B"], truth, 2) == pytest.approx(SECOND, abs=1e-15)


def test_dcg_ignores_items_missing_from_truth():
    assert ndcg_at_k(["Z", "Y"], THREE_LEVELS, 2) == 0.0


def test_dcg_stops_at_k():
    # Past position 1, C before B would cost something.
    assert ndcg_at_k(["A", "C", "B"], THREE_LEVELS, 1) == 1.0


def test_dcg_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        ndcg_at_k(["A"], THREE_LEVELS, 0)


def test_ideal_dcg_orders_by_relevance():
    relevance, ideal = _graded(THREE_LEVELS, 3)
    assert relevance == {"A": 3.0, "B": 2.0, "C": 1.0}
    assert ideal == pytest.approx(THREE_LEVELS_IDEAL)
    assert ndcg_at_k(["A", "B", "C"], THREE_LEVELS, 3) == 1.0
    assert ndcg_at_k(["C", "B", "A"], THREE_LEVELS, 3) < 1.0


def test_truth_keeps_its_ideal_order_ties_by_id():
    truth = to_ranking(make_table(2015, {"C": 1, "B": Fraction(5, 2), "A": 1, "D": 2.5}))
    assert truth.ids() == ["B", "D", "A", "C"]
    assert truth == to_ranking(make_table(2015, {"A": 1, "B": Fraction(5, 2), "C": 1, "D": 2.5}))


# --- ndcg --------------------------------------------------------------


def test_ndcg_of_the_ideal_order_is_exactly_one():
    assert ndcg_at_k(["A", "B", "C"], THREE_LEVELS, 3) == 1.0


def test_ndcg_of_the_reversed_order_is_frozen():
    value = ndcg_at_k(["C", "B", "A"], THREE_LEVELS, 3)
    assert value == pytest.approx(0.7899980042460358, abs=1e-12)


def test_ndcg_reversed_is_the_unique_minimum_over_all_orders():
    values = {
        order: ndcg_at_k(list(order), THREE_LEVELS, 3)
        for order in permutations("ABC")
    }
    worst = min(values, key=values.get)
    assert worst == ("C", "B", "A")
    assert sum(1 for v in values.values() if v == values[worst]) == 1


def test_ndcg_stays_in_unit_interval():
    rng = random.Random(7)
    for _ in range(300):
        ids = [f"I{i}" for i in range(rng.randint(1, 12))]
        truth = to_ranking(make_table(2015, {i: rng.randint(0, 9) for i in ids}))
        if not any(score for _, score in truth.items):
            continue
        order = ids[:]
        rng.shuffle(order)
        k = rng.randint(1, len(ids))
        value = ndcg_at_k(order, truth, k)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_ndcg_improves_when_adjacent_misordered_pair_is_swapped():
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        ids = [f"I{i}" for i in range(rng.randint(3, 10))]
        relevance = {i: rng.random() for i in ids}
        truth = to_ranking(make_table(2015, relevance))
        order = ids[:]
        rng.shuffle(order)
        pos = rng.randrange(len(order) - 1)
        first, second = order[pos], order[pos + 1]
        if relevance[first] >= relevance[second]:
            continue
        before = ndcg_at_k(order, truth, len(order))
        order[pos], order[pos + 1] = second, first
        after = ndcg_at_k(order, truth, len(order))
        assert after > before
        checked += 1


def test_ndcg_raises_on_all_zero_truth():
    truth = to_ranking(make_table(2015, {"A": 0, "B": 0}))
    with pytest.raises(ZeroIdealError):
        ndcg_at_k(["A", "B"], truth, 2)


def test_ndcg_with_empty_truth_is_undefined_too():
    with pytest.raises(ZeroIdealError):
        ndcg_at_k(["A"], RankList(()), 1)


# --- ground truth ------------------------------------------------------


def test_truth_rejects_negative_relevance():
    # The ideal DCG is positive, so only the negativity check can raise.
    truth = make_rank_list([("B", 2.0), ("A", -1.0)])
    with pytest.raises(ValueError, match="negative relevance"):
        ndcg_at_k(["A", "B"], truth, 2)


def test_truth_from_score_table_drops_unknown():
    table = make_table(2015, {"A": 2, UNKNOWN_INSTITUTION: 9})
    assert to_ranking(table) == make_rank_list([("A", 2.0)])


def reference_ndcg(ranking: list[str], entries: dict, k: int) -> float:
    """NDCG with the ideal order taken from the exact ``Fraction`` scores."""
    visible = {inst: Fraction(value) for inst, value in entries.items()}
    visible.pop(UNKNOWN_INSTITUTION, None)
    ideal = [inst for inst, _ in sorted(visible.items(), key=lambda kv: (-kv[1], kv[0]))]

    def dcg(order: list[str]) -> float:
        gains = [float(visible.get(inst, 0)) for inst in order[:k]]
        return math.fsum(g / math.log2(i + 1) for i, g in enumerate(gains, start=1) if g)

    ideal_dcg = dcg(ideal)
    if ideal_dcg == 0:
        raise ZeroIdealError("all-zero reference")
    return dcg(ranking) / ideal_dcg


TRUTH_IDS = ["A", "B", "C", "D", "E", "F", UNKNOWN_INSTITUTION]
# Huge numerators over 2**64 give distinct exact scores that round to one float.
truth_scores = (
    st.fractions(min_value=0, max_value=50, max_denominator=12)
    | st.builds(lambda n, e: Fraction(n, 2**e), st.integers(0, 2**70), st.integers(0, 70))
    | st.builds(lambda m, d: Fraction(m * 2**64 + d, 2**64), st.integers(0, 4), st.integers(0, 900))
)


@given(
    st.dictionaries(st.sampled_from(TRUTH_IDS), truth_scores, max_size=len(TRUTH_IDS)),
    st.permutations(TRUTH_IDS + ["G"]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)
@example(
    # C > B > A exactly, but all three round to 1.0: the ideal order then
    # follows the ids, and NDCG is unchanged.
    {
        "A": Fraction(2**64 + 1, 2**64),
        "B": Fraction(2**64 + 2, 2**64),
        "C": Fraction(2**64 + 3, 2**64),
        "D": Fraction(1, 2),
    },
    ["C", "D", "B", "A", "E", "F", UNKNOWN_INSTITUTION, "G"],
    4,
    2,
    False,
)
@example(
    # B > A exactly, but both round to 1.0: the truth ranks B before A,
    # against their ids, and the ideal gains are those of either order.
    {"A": Fraction(1), "B": Fraction(2**64 + 1, 2**64), "C": Fraction(3, 4)},
    ["C", "A", "B", "D", "E", "F", UNKNOWN_INSTITUTION, "G"],
    3,
    2,
    False,
)
@settings(max_examples=300, deadline=None)
def test_ndcg_against_table_truth_equals_the_fraction_reference(
    tmp_path_factory, entries, order, length, k, read_back
):
    table = ScoreTable(2015, dict(sorted(entries.items())))
    if read_back:
        # The CLI's truth: the score file as it reads back.
        path = str(tmp_path_factory.mktemp("truth") / "scores.csv")
        write_score_csv(table, path)
        table = read_score_csv(path, 2015)
    truth = to_ranking(table)
    ranking = order[:length]
    try:
        expected = reference_ndcg(ranking, exact(table), k)
    except ZeroIdealError:
        with pytest.raises(ZeroIdealError):
            ndcg_at_k(ranking, truth, k)
        return
    assert ndcg_at_k(ranking, truth, k) == expected


# --- protocol ----------------------------------------------------------


def two_venue_inputs():
    tables_by_venue = {
        "V0": [
            make_table(2011, {"A": 4, "B": 1}),
            make_table(2012, {"A": 3, "B": 2}),
        ],
        "V1": [
            make_table(2011, {"A": 1, "B": 5}),
            make_table(2012, {"A": 2, "B": 4}),
        ],
    }
    truth_by_venue = {
        "V0": to_ranking(make_table(2013, {"A": 5, "B": 1})),
        "V1": to_ranking(make_table(2013, {"A": 1, "B": 5})),
    }
    return tables_by_venue, truth_by_venue


def run_protocol(tables_by_venue, truth_by_venue, specs, k):
    """What ``pipeline`` runs on its read-back tables: rank every venue, then grade."""
    rankings = {
        venue: rank_venue(venue, YearTables(tables), specs)
        for venue, tables in tables_by_venue.items()
    }
    return evaluate_rankings(rankings, truth_by_venue, k)


def test_protocol_scores_every_venue_and_spec():
    tables, truth = two_venue_inputs()
    specs = [AggregationSpec.parse("normalized_sum"), AggregationSpec.parse("borda")]
    report = run_protocol(tables, truth, specs, k=2)
    assert [row.venue_id for row in report.rows] == ["V0", "V1"]
    assert report.method_labels == ["normalized_sum", "borda_sum"]
    for row in report.rows:
        # Both methods recover the planted order here, so both hit 1.0.
        assert row.values["normalized_sum"] == 1.0
        assert row.winner == "normalized_sum"


def test_protocol_tie_goes_to_the_first_spec():
    tables, truth = two_venue_inputs()
    specs = [AggregationSpec.parse("borda"), AggregationSpec.parse("normalized_sum")]
    report = run_protocol(tables, truth, specs, k=2)
    assert all(row.winner == "borda_sum" for row in report.rows)


def test_protocol_requires_truth_for_every_venue():
    tables, truth = two_venue_inputs()
    del truth["V1"]
    with pytest.raises(KeyError, match="V1"):
        run_protocol(tables, truth, [AggregationSpec.parse("borda")], k=2)


def test_protocol_names_the_venue_of_an_all_zero_truth():
    tables, truth = two_venue_inputs()
    truth["V1"] = to_ranking(make_table(2013, {"A": 0, "B": 0}))
    with pytest.raises(ZeroIdealError) as info:
        run_protocol(tables, truth, [AggregationSpec.parse("borda")], k=2)
    assert str(info.value) == "venue 'V1': no positive relevance, NDCG undefined"


def test_protocol_names_every_venue_of_an_all_zero_truth():
    # Every venue's truth is checked before the error is raised; a venue
    # with positive relevance between two failing ones is not named.
    tables, truth = two_venue_inputs()
    tables = {"V0": tables["V0"], "V1": tables["V1"], "V2": tables["V0"]}
    truth["V0"] = RankList(())
    truth["V2"] = to_ranking(make_table(2013, {"A": 0, "B": 0}))
    with pytest.raises(ZeroIdealError) as info:
        run_protocol(tables, truth, [AggregationSpec.parse("borda")], k=2)
    assert str(info.value) == (
        "venue 'V0': no positive relevance, NDCG undefined; "
        "venue 'V2': no positive relevance, NDCG undefined"
    )


def test_protocol_values_are_ndcg_at_k_bit_for_bit():
    # evaluate_rankings builds each truth's relevance map and ideal DCG once.
    rng = random.Random(29)
    for _ in range(60):
        ids = [f"I{j:02d}" for j in range(rng.randint(1, 25))]
        truth = to_ranking(
            make_table(
                2015,
                {inst: Fraction(rng.randint(0, 9), rng.randint(1, 4)) for inst in ids}
                | {"top": 10},
            )
        )
        rankings = {}
        for label in ("m0", "m1", "m2"):
            order = ids + ["top", "absent"]
            rng.shuffle(order)
            rankings[label] = make_rank_list([(inst, 1.0) for inst in order])
        k = rng.randint(1, 30)
        report = evaluate_rankings({"V0": rankings}, {"V0": truth}, k)
        assert {label: repr(value) for label, value in report.rows[0].values.items()} == {
            label: repr(ndcg_at_k(ranking.ids(), truth, k)) for label, ranking in rankings.items()
        }


def test_protocol_raises_what_ndcg_at_k_raises():
    ranking = make_rank_list([("A", 1.0), ("B", 1.0)])
    negative = make_rank_list([("B", 2.0), ("A", -1.0)])
    with pytest.raises(ValueError, match="^negative relevance in the truth$"):
        evaluate_rankings({"V0": {"m": ranking}}, {"V0": negative}, 2)
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        evaluate_rankings({"V0": {"m": ranking}}, {"V0": THREE_LEVELS}, 0)
    zero = to_ranking(make_table(2015, {"A": 0, "B": 0}))
    for truth in (zero, RankList(())):
        with pytest.raises(ZeroIdealError) as info:
            evaluate_rankings({"V0": {"m": ranking}}, {"V0": truth}, 2)
        assert str(info.value) == "venue 'V0': no positive relevance, NDCG undefined"


def test_protocol_winner_matches_direct_recomputation():
    rng = random.Random(41)
    specs = [
        AggregationSpec.parse("normalized_sum"),
        AggregationSpec.parse("borda:sum"),
        AggregationSpec.parse("borda:median"),
    ]
    for _ in range(20):
        universe = [f"I{i}" for i in range(rng.randint(3, 10))]
        tables = [
            make_table(
                year,
                {
                    inst: Fraction(rng.randint(0, 9), rng.randint(1, 3))
                    for inst in universe
                    if rng.random() < 0.9
                },
            )
            for year in (2011, 2012, 2013)
        ]
        truth = to_ranking(make_table(2014, {inst: rng.random() for inst in universe}))
        report = run_protocol({"V": tables}, {"V": truth}, specs, k=3)
        row = report.rows[0]
        assert row.values == {
            spec.label: ndcg_at_k(run_aggregation(spec, YearTables(tables)).ids(), truth, 3)
            for spec in specs
        }
        best = max(row.values.values())
        assert row.values[row.winner] == best
        first_at_best = next(
            spec.label for spec in specs if row.values[spec.label] == best
        )
        assert row.winner == first_at_best


# --- rendering ---------------------------------------------------------


def sample_report() -> EvalReport:
    return EvalReport(
        20,
        [
            EvalRow("X", {"normalized_sum": 0.8234, "borda_sum": 0.74}, "normalized_sum"),
            EvalRow("Y", {"normalized_sum": 0.7, "borda_sum": 0.9001}, "borda_sum"),
        ],
    )


def test_text_report_layout():
    text = render_report_text(sample_report())
    assert text == (
        "NDCG@20 values for X, Y\n"
        "Conf. Name  normalized_sum  borda_sum\n"
        "X           *0.823          0.740\n"
        "Y           0.700           *0.900\n"
    )


def test_csv_report_keeps_full_precision():
    text = render_report_csv(sample_report())
    lines = text.splitlines()
    assert lines[0] == "venue,method,ndcg@20"
    assert lines[1] == "X,normalized_sum,0.8234"
    assert "Y,borda_sum,0.9001" in lines
    assert len(lines) == 5
