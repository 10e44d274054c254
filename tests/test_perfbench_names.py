"""The benchmark scripts under perfbench/ reach into the package by name.

``perfbench/traced.py`` wraps fixed module-level names of ``instrank.cli``
and ``instrank.aggregate``, and ``perfbench/prepare.py`` builds score
tables with the package's own types. These tests load both scripts by
path, so renaming or dropping a name they use fails here rather than in a
benchmark run, and they run the oracle set-up on a tiny workload.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from conftest import as_streams
from instrank import aggregate, cli
from instrank.aggregate import YearTables, fagin_topk, to_ranking
from instrank.scoring import (
    ScoreTable,
    read_score_csv,
    score_file_name,
    score_venue_years,
    write_score_csv,
)
from instrank.synth import iter_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_script("traced")
    cli_names = traced.CLI_GENERATORS + traced.CLI_HOT + traced.CLI_CALLS
    assert [name for name in cli_names if not callable(getattr(cli, name, None))] == []
    assert [
        name for name in traced.AGGREGATE_CALLS if not callable(getattr(aggregate, name, None))
    ] == []


def test_the_oracle_reader_builds_score_tables(tmp_path):
    prepare = load_script("prepare")
    path = tmp_path / "scores.csv"
    path.write_text("institution_id,score\nB,0.5\nA,1.0\n", encoding="utf-8")
    table = prepare.read_oracle_table(str(path), 2014)
    assert table == ScoreTable(2014, {"A": Fraction(1), "B": Fraction(1, 2)})


def test_the_oracle_reader_and_the_score_reader_aggregate_alike(tmp_path):
    # The oracle's Fagin ids are compared with the ids the CLI computes from
    # read_score_csv tables, so both readers must rank every year alike.
    prepare = load_script("prepare")
    rng = random.Random(11)
    oracle, program = [], []
    for year in (2011, 2012, 2013, 2014):
        entries = {
            f"I{i:02d}": Fraction(rng.randint(0, 30), rng.choice((1, 3, 7, 12)))
            for i in range(40)
            if rng.random() < 0.8
        }
        path = str(tmp_path / f"scores_{year}.csv")
        write_score_csv(ScoreTable(year, entries), path)
        oracle.append(prepare.read_oracle_table(path, year))
        program.append(read_score_csv(path, year))
    oracle_years, program_years = YearTables(oracle), YearTables(program)
    assert [to_ranking(table) for table in oracle_years.normalized] == [
        to_ranking(table) for table in program_years.normalized
    ]
    assert (
        fagin_topk(oracle_years.normalized, 20).ids()
        == fagin_topk(program_years.normalized, 20).ids()
    )


def test_the_oracle_set_up_agrees_with_the_program_on_a_tiny_workload(tmp_path):
    # The benchmark compares the CLI's score files with the oracle's byte for
    # byte, and its Fagin ranking with the oracle's ids.
    prepare = load_script("prepare")
    synth = {"institutions": 12, "venues": 3, "years": "2011-2014", "papers_per_venue_year": 40}
    params = prepare.corpus_params(synth, 5)
    config = {"venues": ["V0", "V2"], "train_years": "2011-2013", "truth_year": 2014, "fagin_k": 5}
    oracle_dir = tmp_path / "oracle"
    prepare.build_oracle(params, config, str(oracle_dir))

    papers = [paper for paper in iter_corpus(params) if paper.paper.venue_id in config["venues"]]
    tables = score_venue_years(*as_streams(papers))
    program = tmp_path / "program.csv"
    for venue in config["venues"]:
        training = []
        for year in (2011, 2012, 2013, 2014):
            path = str(oracle_dir / score_file_name(venue, year))
            write_score_csv(tables[(venue, year)], str(program))
            with open(path, "rb") as oracle_file:
                assert oracle_file.read() == program.read_bytes(), path
            back = read_score_csv(path, year)
            assert back.numerators and back.year == year
            if year <= 2013:
                training.append(back)
        with open(oracle_dir / f"fagin_{venue}.txt", encoding="utf-8") as src:
            oracle_ids = src.read().splitlines()
        assert oracle_ids == fagin_topk(YearTables(training).normalized, 5).ids()
