"""NDCG math and the multi-venue evaluation protocol."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact, make_table
from instrank.aggregate import AggregationSpec
from instrank.evaluate import (
    EvalReport,
    EvalRow,
    GroundTruth,
    MissingTruthError,
    ZeroIdealError,
    dcg_at_k,
    evaluate_protocol,
    ideal_dcg_at_k,
    ndcg_at_k,
    render_report_csv,
    render_report_text,
)
from instrank.ingest import UNKNOWN_INSTITUTION
from instrank.scoring import ScoreTable, read_score_csv, write_score_csv

THREE_LEVELS = GroundTruth(2015, {"A": 3.0, "B": 2.0, "C": 1.0})


# --- dcg ---------------------------------------------------------------


def test_dcg_discounts_by_log_of_position():
    # 3/log2(2) + 2/log2(3) + 1/log2(4)
    value = dcg_at_k(["A", "B", "C"], THREE_LEVELS, 3)
    assert value == pytest.approx(3.0 + 2.0 * 0.6309297535714575 + 0.5)


def test_dcg_second_position_discount_is_frozen():
    truth = GroundTruth(2015, {"B": 1.0})
    assert dcg_at_k(["A", "B"], truth, 2) == pytest.approx(
        0.6309297535714575, abs=1e-15
    )


def test_dcg_ignores_items_missing_from_truth():
    assert dcg_at_k(["Z", "Y"], THREE_LEVELS, 2) == 0.0


def test_dcg_stops_at_k():
    assert dcg_at_k(["A", "B", "C"], THREE_LEVELS, 1) == 3.0


def test_dcg_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        dcg_at_k(["A"], THREE_LEVELS, 0)


def test_ideal_dcg_orders_by_relevance():
    assert ideal_dcg_at_k(THREE_LEVELS, 3) == dcg_at_k(["A", "B", "C"], THREE_LEVELS, 3)


def test_truth_keeps_its_ideal_order_ties_by_id():
    truth = GroundTruth(2015, {"C": 1, "B": Fraction(5, 2), "A": 1, "D": 2.5})
    assert truth.ideal == ("B", "D", "A", "C")
    assert truth == GroundTruth(2015, {"A": 1, "B": Fraction(5, 2), "C": 1, "D": 2.5})


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
        truth = GroundTruth(2015, {i: rng.randint(0, 9) for i in ids})
        if not any(truth.relevance.values()):
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
        truth = GroundTruth(2015, {i: rng.random() for i in ids})
        order = ids[:]
        rng.shuffle(order)
        pos = rng.randrange(len(order) - 1)
        first, second = order[pos], order[pos + 1]
        if truth.relevance[first] >= truth.relevance[second]:
            continue
        before = ndcg_at_k(order, truth, len(order))
        order[pos], order[pos + 1] = second, first
        after = ndcg_at_k(order, truth, len(order))
        assert after > before
        checked += 1


def test_ndcg_raises_on_all_zero_truth():
    truth = GroundTruth(2015, {"A": 0.0, "B": 0.0})
    with pytest.raises(ZeroIdealError):
        ndcg_at_k(["A", "B"], truth, 2)


def test_ndcg_with_empty_truth_is_undefined_too():
    with pytest.raises(ZeroIdealError):
        ndcg_at_k(["A"], GroundTruth(2015, {}), 1)


# --- ground truth ------------------------------------------------------


def test_truth_rejects_negative_relevance():
    with pytest.raises(ValueError):
        GroundTruth(2015, {"A": -1.0})


def test_truth_from_score_table_drops_unknown():
    table = make_table(2015, {"A": 2, UNKNOWN_INSTITUTION: 9})
    truth = GroundTruth.from_score_table(table)
    assert truth.relevance == {"A": Fraction(2)}
    assert truth.year == 2015


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
    truth = GroundTruth.from_score_table(table)
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
        "V0": GroundTruth(2013, {"A": 5.0, "B": 1.0}),
        "V1": GroundTruth(2013, {"A": 1.0, "B": 5.0}),
    }
    return tables_by_venue, truth_by_venue


def test_protocol_scores_every_venue_and_spec():
    tables, truth = two_venue_inputs()
    specs = [AggregationSpec.parse("normalized_sum"), AggregationSpec.parse("borda")]
    report = evaluate_protocol(tables, truth, specs, k=2)
    assert [row.venue_id for row in report.rows] == ["V0", "V1"]
    assert report.method_labels == ["normalized_sum", "borda_sum"]
    for row in report.rows:
        # Both methods recover the planted order here, so both hit 1.0.
        assert row.values["normalized_sum"] == 1.0
        assert row.winner == "normalized_sum"


def test_protocol_tie_goes_to_the_first_spec():
    tables, truth = two_venue_inputs()
    specs = [AggregationSpec.parse("borda"), AggregationSpec.parse("normalized_sum")]
    report = evaluate_protocol(tables, truth, specs, k=2)
    assert all(row.winner == "borda_sum" for row in report.rows)


def test_protocol_requires_truth_for_every_venue():
    tables, truth = two_venue_inputs()
    del truth["V1"]
    with pytest.raises(MissingTruthError):
        evaluate_protocol(tables, truth, [AggregationSpec.parse("borda")], k=2)


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
        truth = GroundTruth(2014, {inst: rng.random() for inst in universe})
        report = evaluate_protocol({"V": tables}, {"V": truth}, specs, k=3)
        row = report.rows[0]
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


def test_text_report_takes_an_explicit_title():
    text = render_report_text(sample_report(), title="Custom heading")
    assert text.startswith("Custom heading\n")


def test_csv_report_keeps_full_precision():
    text = render_report_csv(sample_report())
    lines = text.splitlines()
    assert lines[0] == "venue,method,ndcg@20"
    assert lines[1] == "X,normalized_sum,0.8234"
    assert "Y,borda_sum,0.9001" in lines
    assert len(lines) == 5
