"""Tests of the benchmark itself, on a corpus small enough to run in seconds.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import time

import pytest

import checks
import run
import traced

TINY = {
    "synth": {"institutions": 30, "venues": 2, "years": "2011-2015", "papers_per_venue_year": 60},
    "config": {
        "venues": ["V0", "V1"],
        "train_years": "2011-2014",
        "truth_year": 2015,
        "methods": "normalized_sum, borda:sum, borda:median, borda:geometric_mean, borda:p_norm:2, fagin:5",
        "k": 5,
        "fagin_k": 5,
    },
    "setup_commands": [],
    "commands": [{"args": ["pipeline"], "writes": ["scores_", "ranking_", "report.", "prediction_"]}],
}


def make_workdir(tmp_path) -> run.Workdir:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(run.SRC), env.get("PYTHONPATH")]))
    return run.Workdir(tmp_path, time.perf_counter(), env)


@pytest.fixture()
def tiny_run(tmp_path):
    work = make_workdir(tmp_path)
    setup = run.set_up(TINY, 5, 1, work)
    untraced, traced_reps, first = run.measure(TINY, work, 0.0, None, trace=True)
    return work, setup, untraced, traced_reps, first


def test_tiny_workload_passes_every_check(tiny_run):
    work, setup, untraced, traced_reps, first = tiny_run
    assert len(untraced) >= run.MIN_REPS and len(traced_reps) >= run.MIN_REPS
    assert all(rep.failed == 0 and not rep.failures for rep in untraced + traced_reps)
    assert len(setup["setup_s"]) == 1
    assert sum(name.startswith("scores_") for name in first) == 2 * 5
    assert {"report.txt", "report.csv", "ranking_V0_fagin.csv"} <= set(first)


def test_corrupted_score_and_ranking_are_reported(tiny_run):
    work, _, _, _, first = tiny_run
    score = work.out / "scores_V0_2012.csv"
    lines = score.read_text(encoding="utf-8").splitlines(keepends=True)
    institution, _, value = lines[1].rpartition(",")
    lines[1] = f"{institution},{float(value) * 2!r}\n"
    score.write_text("".join(lines), encoding="utf-8")
    ranking = work.out / "ranking_V1_fagin.csv"
    lines = ranking.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    ranking.write_text("".join(lines), encoding="utf-8")

    produced = checks.file_hashes(str(work.out))
    oracle_only = checks.check_outputs(str(work.out), str(work.oracle), produced, None)
    assert oracle_only == {
        "scores_V0_2012.csv": "differs from the naive_score oracle",
        "ranking_V1_fagin.csv": "ids differ from naive_topk",
    }
    against_first = checks.check_outputs(
        str(work.out), str(work.oracle), produced, first, "the first repetition"
    )
    assert set(against_first) == {"scores_V0_2012.csv", "ranking_V1_fagin.csv"}


def test_changed_or_missing_outputs_fail_the_command_that_writes_them(tiny_run):
    work, _, _, _, first = tiny_run
    reaggregate = json.loads(run.WORKLOADS.read_text(encoding="utf-8"))["workloads"]["reaggregate"]
    assert run.writer_of(reaggregate, "ranking_V0_fagin.csv") == 0
    assert run.writer_of(reaggregate, "report.txt") == 1

    (work.out / "ranking_V0_borda_median.csv").write_text("rank,institution_id,score\n")
    os.remove(work.out / "prediction_V1.csv")
    produced = checks.file_hashes(str(work.out))
    failures = checks.check_outputs(
        str(work.out), str(work.oracle), produced, first, "the first repetition"
    )
    assert failures == {
        "ranking_V0_borda_median.csv": "differs from the first repetition",
        "prediction_V1.csv": "missing",
    }


def test_trace_reports_every_layer_metric_and_adds_up(tiny_run):
    _, setup, untraced, traced_reps, _ = tiny_run
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {entry["name"] for entry in declared["per_layer"]}
    derived = set(run.layer_metrics(traced_reps[0].trace)) | {
        "cli.trace_overhead_s",
        "synth.generate_s",
        "synth.oracle_s",
    }
    assert derived == names
    for rep in traced_reps:
        times = rep.trace["times"]
        metrics = run.layer_metrics(rep.trace)
        assert metrics["ingest.keep_ratio"] == 1.0
        assert metrics["ingest.paper_rows"] == 2 * 5 * 60
        assert metrics["scoring.files_written"] == 2 * 5
        # Self times partition the top-level command's span.
        top = times["cmd_pipeline"]["total_s"]
        assert sum(entry["self_s"] for entry in times.values()) == pytest.approx(top, rel=1e-6)
        stages = sum(
            metrics[f"cli.{stage}_s"] for stage in ("score", "aggregate", "evaluate", "predict")
        )
        assert stages == pytest.approx(top, rel=1e-6)
        # What the stages leave of the wall time is interpreter start-up and exit.
        assert 0 < rep.wall_s - stages < 1.0


def test_traced_command_writes_spans_and_restores_names(tmp_path):
    from instrank import aggregate, cli

    before = {name: getattr(cli, name) for name in traced.CLI_CALLS + traced.CLI_GENERATORS}
    tracer = traced.Tracer()
    originals = traced.install(tracer, cli, aggregate)
    assert cli.run_aggregation is not before["run_aggregation"]
    traced.restore(originals)
    assert {name: getattr(cli, name) for name in before} == before

    work = make_workdir(tmp_path)
    run.set_up(TINY, 3, 1, work)
    trace_path = tmp_path / "trace.json"
    code = run.spawn(run.instrank_argv(["pipeline"], trace_path), work).exit_code
    assert code == 0
    spans = json.loads(trace_path.read_text(encoding="utf-8"))["spans"]
    by_index = dict(enumerate(spans))
    assert spans[0]["name"] == "cmd_pipeline" and spans[0]["parent"] is None
    for span in spans[1:]:
        parent = by_index[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    assert not any(span["name"] in ("paper_shares", "iter_papers") for span in spans)


def test_benchmark_json_workloads_are_defined_here():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads(run.WORKLOADS.read_text(encoding="utf-8"))
    for workload in declared["workloads"]:
        assert spec["workloads"][workload["name"]]["why"] == workload["why"]
    pinned = json.loads(run.PINNED.read_text(encoding="utf-8"))
    assert set(pinned) == set(spec["workloads"])
