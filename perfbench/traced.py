"""Run one ``instrank`` command with its layer boundaries traced from outside.

Usage: ``python3 perfbench/traced.py TRACE_JSON COMMAND [ARGS...]`` with
``src`` on ``PYTHONPATH``. The arguments after TRACE_JSON are those of the
``instrank`` command line.

The module-level names that ``instrank.cli`` calls, and the three that
``run_aggregation`` calls inside ``instrank.aggregate``, are replaced by
timing wrappers for the life of the command and restored afterwards.
Nothing under ``src`` changes. Coarse calls become spans (name, start,
end, parent span); calls made once per paper or per row (``paper_shares``
and the ingest generators' ``next``) are kept only as a count and summed
time, so tracing stays cheap. Every wrapped name also gets its total and
self time (total minus the time of wrapped calls made inside it). All of
it is held in memory and written as JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# Wrapped in instrank.cli. Generators are traced per ``next``.
CLI_GENERATORS = ("iter_papers", "iter_affiliations", "filter_papers", "join_affiliations")
CLI_HOT = ("paper_shares",)
CLI_CALLS = (
    "cmd_score",
    "cmd_aggregate",
    "cmd_evaluate",
    "cmd_pipeline",
    "_build_report",
    "write_score_csv",
    "read_score_csv",
    "run_aggregation",
    "write_ranking_csv",
    "write_ranking_json",
    "read_ranking_csv",
    "ndcg_at_k",
)
# Wrapped in instrank.aggregate, where run_aggregation looks them up.
AGGREGATE_CALLS = ("normalize", "to_ranking", "fagin_topk")

_END = object()


class Tracer:
    """Spans, per-name times and item counts for one traced process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        # name -> [calls, total_s, self_s]
        self.times: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.score_peak_rss_kb = 0
        # Open frames: [name, start, child_s, span index, parent span index].
        self._stack: list[list] = []

    def enter(self, name: str, span: bool) -> None:
        parent = self._stack[-1][3] if self._stack else None
        index = parent
        if span:
            index = len(self.spans)
            self.spans.append({"name": name, "start": 0.0, "end": 0.0, "parent": parent})
        self._stack.append([name, time.perf_counter(), 0.0, index, parent])

    def leave(self) -> None:
        end = time.perf_counter()
        name, start, child, index, parent = self._stack.pop()
        elapsed = end - start
        entry = self.times.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        if index is not None and index != parent:
            self.spans[index]["start"] = start - self.origin
            self.spans[index]["end"] = end - self.origin

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap_call(self, name: str, fn, span: bool = True):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return traced

    def wrap_aggregation(self, fn):
        # One time per method label, so each aggregation method is its own row.
        @functools.wraps(fn)
        def traced(spec, *args, **kwargs):
            self.enter(f"run_aggregation:{spec.label}", True)
            try:
                return fn(spec, *args, **kwargs)
            finally:
                self.leave()

        return traced

    def wrap_score(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter("cmd_score", True)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
                self.score_peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.enter(name, False)
                try:
                    item = next(inner, _END)
                finally:
                    self.leave()
                if item is _END:
                    return
                self.count(name)
                if name == "join_affiliations":
                    self.count("join_affiliations.rows", len(item.affiliations))
                yield item

        return traced

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "times": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.times.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "score_peak_rss_kb": self.score_peak_rss_kb,
        }


def install(tracer: Tracer, cli, aggregate) -> list[tuple[object, str, object]]:
    """Replace the traced names; returns what ``restore`` puts back."""
    originals = []

    def replace(module, name: str, wrapper) -> None:
        originals.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    for name in CLI_GENERATORS:
        replace(cli, name, tracer.wrap_generator(name, getattr(cli, name)))
    for name in CLI_HOT:
        replace(cli, name, tracer.wrap_call(name, getattr(cli, name), span=False))
    for name in CLI_CALLS:
        fn = getattr(cli, name)
        if name == "run_aggregation":
            wrapper = tracer.wrap_aggregation(fn)
        elif name == "cmd_score":
            wrapper = tracer.wrap_score(fn)
        else:
            wrapper = tracer.wrap_call(name, fn)
        replace(cli, name, wrapper)
    for name in AGGREGATE_CALLS:
        replace(aggregate, name, tracer.wrap_call(name, getattr(aggregate, name)))
    return originals


def restore(originals: list[tuple[object, str, object]]) -> None:
    for module, name, original in reversed(originals):
        setattr(module, name, original)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE_JSON COMMAND [ARGS...]", file=sys.stderr)
        return 2
    trace_path, command = argv[0], argv[1:]
    from instrank import aggregate, cli

    tracer = Tracer()
    originals = install(tracer, cli, aggregate)
    try:
        return cli.main(command)
    finally:
        restore(originals)
        with open(trace_path, "w", encoding="utf-8") as out:
            json.dump(tracer.to_json(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
