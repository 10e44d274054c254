"""instrank benchmark: one workload, set up from a seed, measured for a while.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-select --seed 1 --seconds 30 --trace 0

Set-up generates the workload's corpus and its oracle outputs in a child
process (``prepare.py``), runs the workload's set-up commands, and is
repeated ``setup_repeats`` times. The measured part then runs the
workload's ``instrank`` command sequence again and again, one child
process at a time (closed loop, one client), until ``--seconds`` have
passed, and checks every repetition's outputs (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced
repetitions alternate (``traced.py``) and the object holds the per-layer
metrics instead. Lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = BENCH_DIR / "workloads.json"
PINNED = BENCH_DIR / "pinned.json"

MIN_REPS = 3
# Every child is killed once the run has lasted this long, so a hung
# command still ends the run inside its 180 s.
RUN_LIMIT_S = 170.0

# Labels of every aggregation method any workload runs.
LABELS = (
    "normalized_sum",
    "borda_sum",
    "borda_median",
    "borda_geometric_mean",
    "borda_p_norm_2",
    "fagin",
)


class SetupError(RuntimeError):
    pass


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    invocations: int
    failed: int
    failures: dict[str, str]
    trace: dict | None = None


@dataclass
class Workdir:
    root: Path
    run_start: float
    env: dict

    @property
    def out(self) -> Path:
        return self.root / "out"

    @property
    def oracle(self) -> Path:
        return self.root / "oracle"


def spawn(argv: list[str], work: Workdir) -> Invocation:
    """Run one child to completion through ``timed.py``, which measures it."""
    limit = max(RUN_LIMIT_S - (time.perf_counter() - work.run_start), 1.0)
    with open(work.root / "stderr.log", "ab") as log:
        # A session of its own, so that on any error the timer and the
        # command it runs are stopped together.
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "timed.py"), str(limit), *argv],
            cwd=work.root,
            env=work.env,
            stdout=subprocess.PIPE,
            stderr=log,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=limit + 10)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"timed.py exited {proc.returncode}")
    measured = json.loads(stdout)
    return Invocation(
        measured["wall_s"],
        measured["cpu_s"],
        measured["peak_rss_kb"] / 1024,
        measured["exit_code"],
    )


def instrank_argv(args: list[str], trace_path: Path | None) -> list[str]:
    tail = [*args, "--config", "run.ini"]
    if trace_path is None:
        return [sys.executable, "-m", "instrank.cli", *tail]
    return [sys.executable, str(BENCH_DIR / "traced.py"), str(trace_path), *tail]


def write_config(config: dict, path: Path) -> None:
    lines = [
        "[inputs]",
        "papers = corpus/papers.txt",
        "affiliations = corpus/affiliations.txt",
        "[selection]",
        f"venues = {', '.join(config['venues'])}",
        f"train_years = {config['train_years']}",
        f"truth_year = {config['truth_year']}",
        "[aggregation]",
        f"k = {config['k']}",
    ]
    if config.get("methods"):
        lines.append(f"methods = {config['methods']}")
    lines += ["[output]", "dir = out"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def set_up(workload: dict, seed: int, repeats: int, work: Workdir) -> dict:
    """Build corpus, oracle and set-up outputs ``repeats`` times; returns each time."""
    write_config(workload["config"], work.root / "run.ini")
    totals, generate, oracle = [], [], []
    for _ in range(repeats):
        for stale in (work.root / "corpus", work.oracle, work.out):
            shutil.rmtree(stale, ignore_errors=True)
        start = time.perf_counter()
        result = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "prepare.py"),
                str(work.root),
                str(seed),
                json.dumps(workload),
            ],
            env=work.env,
            capture_output=True,
            text=True,
            timeout=max(RUN_LIMIT_S - (time.perf_counter() - work.run_start), 1.0),
        )
        if result.returncode != 0:
            raise SetupError(f"prepare.py exited {result.returncode}: {result.stderr.strip()}")
        times = json.loads(result.stdout.strip().splitlines()[-1])
        for args in workload["setup_commands"]:
            code = spawn(instrank_argv(args, None), work).exit_code
            if code != 0:
                raise SetupError(f"set-up command {args} exited {code}")
        totals.append(time.perf_counter() - start)
        generate.append(times["generate_s"])
        oracle.append(times["oracle_s"])
    return {"setup_s": totals, "synth.generate_s": generate, "synth.oracle_s": oracle}


def merge_traces(traces: list[dict]) -> dict:
    """Sum the traces of the commands of one repetition."""
    times: dict[str, dict] = {}
    counts: dict[str, int] = {}
    peak = 0
    for trace in traces:
        for name, entry in trace["times"].items():
            into = times.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for name, amount in trace["counts"].items():
            counts[name] = counts.get(name, 0) + amount
        peak = max(peak, trace["score_peak_rss_kb"])
    return {"times": times, "counts": counts, "score_peak_rss_kb": peak}


def run_rep(
    workload: dict,
    work: Workdir,
    inputs: set[str],
    reference: dict[str, str] | None,
    reference_name: str,
    traced: bool = False,
) -> tuple[Rep, dict[str, str]]:
    """Run the command sequence once on fresh outputs and check them."""
    for name in os.listdir(work.out) if work.out.exists() else ():
        if name not in inputs:
            os.remove(work.out / name)
    runs, traces = [], []
    for index, command in enumerate(workload["commands"]):
        trace_path = None
        if traced:
            trace_path = work.root / f"trace_{index}.json"
            trace_path.unlink(missing_ok=True)
        runs.append(spawn(instrank_argv(command["args"], trace_path), work))
        if trace_path is not None and trace_path.exists():
            traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
    produced = checks.file_hashes(str(work.out)) if work.out.exists() else {}
    failures = checks.check_outputs(
        str(work.out), str(work.oracle), produced, reference, reference_name
    )
    bad = {index for index, run in enumerate(runs) if run.exit_code != 0}
    for name in failures:
        bad.add(writer_of(workload, name))
    rep = Rep(
        wall_s=sum(run.wall_s for run in runs),
        cpu_s=sum(run.cpu_s for run in runs),
        peak_rss_mb=max(run.peak_rss_mb for run in runs),
        invocations=len(runs),
        failed=len(bad),
        failures=failures,
        trace=merge_traces(traces) if traced else None,
    )
    return rep, produced


def writer_of(workload: dict, file_name: str) -> int:
    """Index of the command that writes a file; set-up outputs count against the first."""
    for index, command in enumerate(workload["commands"]):
        if file_name.startswith(tuple(command["writes"])):
            return index
    return 0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see README.md)."""
    times, counts = trace["times"], trace["counts"]

    def total(name: str) -> float:
        return times.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return times.get(name, {}).get("calls", 0)

    paper_rows = counts.get("iter_papers", 0)
    affiliation_rows = counts.get("iter_affiliations", 0)
    kept = counts.get("filter_papers", 0)
    stages = total("cmd_score") + total("cmd_aggregate") + total("cmd_evaluate")
    metrics = {
        "ingest.papers_read_s": own("iter_papers"),
        "ingest.affiliations_read_s": own("iter_affiliations"),
        "ingest.filter_s": own("filter_papers"),
        "ingest.join_s": own("join_affiliations"),
        "ingest.paper_rows": paper_rows,
        "ingest.affiliation_rows": affiliation_rows,
        "ingest.papers_kept": kept,
        "ingest.keep_ratio": kept / paper_rows if paper_rows else 0.0,
        "ingest.join_match_ratio": (
            counts.get("join_affiliations.rows", 0) / affiliation_rows
            if affiliation_rows
            else 0.0
        ),
        "ingest.unattributed_papers": kept - counts.get("join_affiliations", 0),
        "scoring.shares_s": total("paper_shares"),
        "scoring.shares_calls": calls("paper_shares"),
        "scoring.accumulate_s": own("cmd_score"),
        "scoring.write_s": total("write_score_csv"),
        "scoring.files_written": calls("write_score_csv"),
        "scoring.read_s": total("read_score_csv"),
        "scoring.files_read": calls("read_score_csv"),
    }
    for label in LABELS:
        metrics[f"aggregate.{label}_s"] = total(f"run_aggregation:{label}")
    metrics.update(
        {
            "aggregate.normalize_s": total("normalize"),
            "aggregate.normalize_calls": calls("normalize"),
            "aggregate.to_ranking_s": total("to_ranking"),
            "aggregate.to_ranking_calls": calls("to_ranking"),
            "aggregate.fagin_walk_s": total("fagin_topk"),
            "aggregate.write_s": total("write_ranking_csv") + total("write_ranking_json"),
            "evaluate.ndcg_s": total("ndcg_at_k"),
            "evaluate.ndcg_calls": calls("ndcg_at_k"),
            "evaluate.rankings_read_s": total("read_ranking_csv"),
            "evaluate.report_s": own("_build_report"),
            "cli.score_s": total("cmd_score"),
            "cli.aggregate_s": total("cmd_aggregate"),
            "cli.evaluate_s": total("cmd_evaluate"),
            "cli.predict_s": total("cmd_pipeline") - stages if calls("cmd_pipeline") else 0.0,
            "cli.score_peak_rss_mb": trace["score_peak_rss_kb"] / 1024,
        }
    )
    return metrics


def measure(
    workload: dict,
    work: Workdir,
    seconds: float,
    pinned: dict[str, str] | None,
    trace: bool,
) -> tuple[list[Rep], list[Rep], dict[str, str]]:
    """Repeat the workload until ``seconds`` pass; traced and untraced alternate with ``trace``."""
    inputs = set(os.listdir(work.out)) if work.out.exists() else set()
    untraced: list[Rep] = []
    traced: list[Rep] = []
    first: dict[str, str] | None = None
    deadline = time.perf_counter() + seconds
    last = 0.0
    while True:
        enough = len(untraced) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
        start = time.perf_counter()
        # Start no repetition that would likely end after the deadline.
        if (enough and start + last > deadline) or start - work.run_start >= RUN_LIMIT_S:
            break
        as_traced = trace and len(traced) < len(untraced)
        if pinned is not None:
            reference, reference_name = pinned, "the pinned hashes"
        else:
            reference, reference_name = first, "the first repetition"
        rep, produced = run_rep(workload, work, inputs, reference, reference_name, as_traced)
        (traced if as_traced else untraced).append(rep)
        if first is None:
            first = produced
        last = time.perf_counter() - start
    return untraced, traced, first


def describe(values: list[float]) -> str:
    return (
        f"{len(values)} samples; median {statistics.median(values):.4f}, "
        f"min {min(values):.4f}, max {max(values):.4f}"
    )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin",
        action="store_true",
        help="record the output hashes of the default seed in pinned.json",
    )
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # command is stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "instrank" / "cli.py").is_file():
        print(f"error: no instrank sources under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        args.seed = spec["default_seed"]
    workload = spec["workloads"][args.workload]
    pins = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    pinned = None
    if args.seed == spec["default_seed"] and not args.pin:
        pinned = pins.get(args.workload)
        if pinned is None:
            print(f"error: no pinned hashes for {args.workload}; run with --pin", file=sys.stderr)
            return 2

    run_start = time.perf_counter()
    root = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    root.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = Workdir(root, run_start, env)
    try:
        setup = set_up(workload, args.seed, spec["setup_repeats"], work)
        untraced, traced, first = measure(workload, work, args.seconds, pinned, bool(args.trace))
        if args.trace:
            kept = BENCH_DIR / ".work" / f"last-trace-{args.workload}"
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir()
            for path in root.glob("trace_*.json"):
                shutil.copy(path, kept / path.name)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    reps = untraced + traced
    attempted = sum(rep.invocations for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for rep in reps:
        for name, reason in sorted(rep.failures.items()):
            print(f"check failed: {name}: {reason}", file=sys.stderr)
    if args.pin:
        if failed:
            print("error: not pinning the outputs of a run with failures", file=sys.stderr)
            return 1
        pins[args.workload] = first
        PINNED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    walls = [rep.wall_s for rep in untraced]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} invocations)")
    if args.trace:
        per_rep = [layer_metrics(rep.trace) for rep in traced]
        values = {name: [metrics[name] for metrics in per_rep] for name in per_rep[0]}
        overhead = min(rep.wall_s for rep in traced) - min(walls)
        values["cli.trace_overhead_s"] = [overhead]
        values["synth.generate_s"] = setup["synth.generate_s"]
        values["synth.oracle_s"] = setup["synth.oracle_s"]
        statistic = dict.fromkeys(values, statistics.median)
    else:
        values = {
            "wall_s": walls,
            "cpu_s": [rep.cpu_s for rep in untraced],
            "peak_rss_mb": [rep.peak_rss_mb for rep in untraced],
            "setup_s": setup["setup_s"],
        }
        # Co-tenants on a shared host slow whole stretches of a run; the
        # fastest repetition is the program's own cost (see README.md).
        statistic = {
            "wall_s": min,
            "cpu_s": min,
            "peak_rss_mb": statistics.median,
            "setup_s": statistics.median,
        }
    declared = load_benchmark()["per_layer" if args.trace else "end_to_end"]
    result = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = statistic[name](values[name])
        result[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit} ({statistic[name].__name__} of {describe(values[name])})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
