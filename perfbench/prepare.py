"""Set up one workload: generate its corpus and the oracle outputs.

Usage: ``python3 perfbench/prepare.py WORK_DIR SEED WORKLOAD_JSON`` with
``src`` on ``PYTHONPATH``. It runs in its own process so that the memory
it uses never counts towards the peak RSS of the measured commands.

Writes ``WORK_DIR/corpus/{papers,affiliations}.txt`` with
``instrank.synth``, then streams the same corpus a second time and keeps
only the selected venue-years to build the oracle: one
``oracle/scores_<venue>_<year>.csv`` per scored venue-year from the
brute-force ``naive_score``, and ``oracle/fagin_<venue>.txt`` with the
ids of ``naive_topk`` over the training-year oracle tables as they read
back from disk, which is what the aggregate stage sees. Prints a JSON
line with the generation and oracle times.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

from instrank.ingest import YearRange
from instrank.scoring import RAW, ScoreTable, score_file_name, write_score_csv
from instrank.synth import (
    CorpusParams,
    generate_corpus,
    iter_corpus,
    naive_score,
    naive_topk,
)

# Defaults of ``instrank synth`` for the knobs the workloads leave alone.
SYNTH_DEFAULTS = {
    "authors": 2000,
    "authors_per_paper": [1, 4],
    "affils_per_author": [1, 2],
    "drift": 0.0,
    "unknown_rate": 0.0,
    "filler_width": 0,
}


def corpus_params(synth: dict, seed: int) -> CorpusParams:
    knobs = {**SYNTH_DEFAULTS, **synth}
    return CorpusParams(
        num_institutions=knobs["institutions"],
        num_authors=knobs["authors"],
        num_venues=knobs["venues"],
        years=YearRange.parse(knobs["years"]),
        papers_per_venue_year=knobs["papers_per_venue_year"],
        authors_per_paper=tuple(knobs["authors_per_paper"]),
        affils_per_author=tuple(knobs["affils_per_author"]),
        strength_drift=knobs["drift"],
        unknown_rate=knobs["unknown_rate"],
        filler_width=knobs["filler_width"],
        rng_seed=seed,
    )


def read_oracle_table(path: str, year: int) -> ScoreTable:
    """Parse ``institution_id,score`` lines without the program's reader."""
    with open(path, encoding="utf-8") as src:
        lines = src.read().splitlines()[1:]
    entries = {}
    for line in lines:
        institution, _, score = line.rpartition(",")
        entries[institution] = Fraction(float(score))
    return ScoreTable(year, dict(sorted(entries.items())), RAW)


def build_oracle(params: CorpusParams, config: dict, oracle_dir: str) -> None:
    venues = config["venues"]
    train = YearRange.parse(config["train_years"])
    scored = YearRange(train.low, config["truth_year"])
    selected = {venue: [] for venue in venues}
    for paper in iter_corpus(params):
        record = paper.paper
        if record.venue_id in selected and record.year in scored:
            selected[record.venue_id].append(paper)
    os.makedirs(oracle_dir, exist_ok=True)
    for venue, papers in selected.items():
        tables = naive_score(papers)
        for year in scored:
            table = tables.get(year, ScoreTable(year, {}, RAW))
            write_score_csv(table, os.path.join(oracle_dir, score_file_name(venue, year)))
        training = [
            read_oracle_table(os.path.join(oracle_dir, score_file_name(venue, year)), year)
            for year in train
        ]
        top = naive_topk(training, config["fagin_k"])
        with open(
            os.path.join(oracle_dir, f"fagin_{venue}.txt"), "w", encoding="utf-8"
        ) as out:
            out.write("".join(f"{inst}\n" for inst in top.ids()))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: prepare.py WORK_DIR SEED WORKLOAD_JSON", file=sys.stderr)
        return 2
    work_dir, seed, workload = argv[0], int(argv[1]), json.loads(argv[2])
    params = corpus_params(workload["synth"], seed)
    corpus_dir = os.path.join(work_dir, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    start = time.perf_counter()
    generate_corpus(params, corpus_dir, compute_realized=False)
    generated = time.perf_counter()
    build_oracle(params, workload["config"], os.path.join(work_dir, "oracle"))
    done = time.perf_counter()
    print(json.dumps({"generate_s": generated - start, "oracle_s": done - generated}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
