"""The benchmark scripts under perfbench/ reach into the package by name.

``perfbench/traced.py`` wraps fixed module-level names of ``instrank.cli``
and ``instrank.aggregate``, and ``perfbench/prepare.py`` builds score
tables with the package's own types. These tests load both scripts by
path, without running them, so renaming or dropping a name they use
fails here rather than in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from instrank import aggregate, cli
from instrank.aggregate import YearTables, fagin_topk
from instrank.scoring import ScoreTable, read_score_csv, write_score_csv

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
    assert oracle_years.rankings == program_years.rankings
    assert (
        fagin_topk(oracle_years.normalized, 20).ids()
        == fagin_topk(program_years.normalized, 20).ids()
    )
