"""Config loading, exit codes, and the command surface end to end."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import exact, make_table
from instrank.aggregate import YearTables, ranking_file_name, read_ranking_csv, run_aggregation
from instrank import aggregate, cli, scoring
from instrank.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_ZERO_TRUTH,
    ConfigError,
    load_config,
    main,
)
from instrank.ingest import UNKNOWN_INSTITUTION, YearRange
from instrank.scoring import read_score_csv, score_file_name
from instrank.synth import CorpusParams, generate_corpus, iter_corpus, naive_score


def write_config(
    path,
    papers,
    affiliations,
    out_dir,
    venues="V0",
    train="2011-2012",
    truth="2013",
    extra="",
):
    path.write_text(
        "[inputs]\n"
        f"papers = {papers}\n"
        f"affiliations = {affiliations}\n"
        "\n"
        "[selection]\n"
        f"venues = {venues}\n"
        f"train_years = {train}\n"
        f"truth_year = {truth}\n"
        "\n"
        "[output]\n"
        f"dir = {out_dir}\n"
        f"{extra}",
        encoding="utf-8",
    )
    return str(path)


def tiny_dumps(tmp_path):
    """Three years of a two-institution venue with a fixed 2:1 split."""
    papers = []
    affils = []
    serial = 0
    for year in (2011, 2012, 2013):
        for institution in ("IA", "IA", "IB"):
            serial += 1
            papers.append(f"P{serial}\t\t\t{year}\t\t\t\t\tV0")
            affils.append(f"P{serial}\tA{serial}\t{institution}")
    papers_path = tmp_path / "papers.txt"
    affils_path = tmp_path / "affils.txt"
    papers_path.write_text("".join(line + "\n" for line in papers), encoding="utf-8")
    affils_path.write_text("".join(line + "\n" for line in affils), encoding="utf-8")
    return str(papers_path), str(affils_path)


def tiny_config(tmp_path, **kwargs):
    papers, affils = tiny_dumps(tmp_path)
    out_dir = str(tmp_path / "out")
    extra = kwargs.pop(
        "extra",
        "\n[aggregation]\nmethods = normalized_sum, borda:sum, fagin:2\nk = 2\n",
    )
    return write_config(
        tmp_path / "run.ini", papers, affils, out_dir, extra=extra, **kwargs
    ), out_dir


# --- load_config --------------------------------------------------------


def test_load_config_defaults(tmp_path):
    cfg_path, out_dir = tiny_config(tmp_path, extra="")
    config = load_config(cfg_path)
    assert config.venues == ["V0"]
    assert config.train_years == YearRange(2011, 2012)
    assert config.truth_year == 2013
    assert config.k == 20 and config.strict is False
    assert [spec.label for spec in config.specs] == [
        "normalized_sum",
        "borda_sum",
        "fagin",
    ]
    assert config.output_dir == out_dir
    assert config.papers_schema.year == 3 and config.papers_schema.venue_id == 8


def test_load_config_reads_table_sections_and_run_section(tmp_path):
    extra = (
        "\n[papers_table]\n"
        "paper_id = 1\nyear = 0\nvenue_id = 2\ndelimiter = comma\nhas_header = yes\n"
        "\n[run]\nstrict = true\n"
        "\n[aggregation]\nmethods = borda:median\nk = 5\n"
    )
    cfg_path, _ = tiny_config(tmp_path, extra=extra)
    config = load_config(cfg_path)
    assert config.papers_schema.delimiter == ","
    assert config.papers_schema.has_header is True
    assert (config.papers_schema.paper_id, config.papers_schema.year) == (1, 0)
    assert config.strict is True
    assert config.k == 5
    assert [spec.label for spec in config.specs] == ["borda_median"]


def test_load_config_applies_overrides(tmp_path):
    cfg_path, _ = tiny_config(tmp_path)
    config = load_config(
        cfg_path,
        ["selection.venues=V7", "aggregation.k=3"],
    )
    assert config.venues == ["V7"]
    assert config.k == 3


def test_a_config_compares_by_value_and_cannot_be_assigned_to(tmp_path):
    cfg_path, _ = tiny_config(tmp_path)
    config = load_config(cfg_path)
    assert config == load_config(cfg_path)
    assert config != load_config(cfg_path, ["aggregation.k=3"])
    with pytest.raises(AttributeError):
        config.venues = ["V0", ".."]


def test_load_config_rejects_bad_overrides_and_missing_keys(tmp_path):
    cfg_path, _ = tiny_config(tmp_path)
    with pytest.raises(ConfigError):
        load_config(cfg_path, ["notakeyvalue"])
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))
    bare = tmp_path / "bare.ini"
    bare.write_text("[inputs]\npapers = x\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bare))


def test_validate_rejects_truth_year_inside_training(tmp_path):
    cfg_path, _ = tiny_config(tmp_path, truth="2012")
    with pytest.raises(ConfigError):
        load_config(cfg_path)


@pytest.mark.parametrize(
    "command, flag, key, value, other",
    [
        ("evaluate", ["--k", "3"], "aggregation.k", "3", "7"),
        ("score", ["--strict"], "run.strict", "true", "false"),
        ("pipeline", ["--output-dir", "elsewhere"], "output.dir", "elsewhere", "other"),
        (
            "aggregate",
            ["--method", "borda:median, fagin:2"],
            "aggregation.methods",
            "borda:median, fagin:2",
            "normalized_sum",
        ),
    ],
    ids=["k", "strict", "output-dir", "method"],
)
def test_a_shorthand_flag_sets_its_config_key_and_wins_over_set(
    tmp_path, monkeypatch, command, flag, key, value, other
):
    cfg_path, _ = tiny_config(tmp_path)
    seen = []

    def record(config):
        seen.append(config)
        return EXIT_OK

    monkeypatch.setattr(cli, f"cmd_{command}", record)
    for args in (
        flag,
        ["--set", f"{key}={value}"],
        ["--set", f"{key}={other}", *flag],
        [*flag, "--set", f"{key}={other}"],
    ):
        assert main([command, "--config", cfg_path, *args]) == EXIT_OK
    assert seen[1:] == [seen[0]] * 3
    assert seen[0] != load_config(cfg_path, [f"{key}={other}"])


def test_a_percent_sign_in_a_path_is_taken_literally(tmp_path, capsys):
    def written(out_dir):
        return {
            name: Path(out_dir, name).read_bytes()
            for name in os.listdir(out_dir)
        }

    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    expected = written(out_dir)
    report = capsys.readouterr().out
    odd_inputs = tmp_path / "in%2"
    odd_inputs.mkdir()
    odd_cfg_path, odd_out_dir = tiny_config(odd_inputs)
    runs = [
        ([odd_cfg_path], odd_out_dir),
        ([cfg_path, "--set", f"output.dir={tmp_path}/set%2"], f"{tmp_path}/set%2"),
        ([cfg_path, "--output-dir", f"{tmp_path}/flag%(x)s"], f"{tmp_path}/flag%(x)s"),
    ]
    for args, run_out_dir in runs:
        assert main(["pipeline", "--config", *args]) == EXIT_OK
        assert written(run_out_dir) == expected
        assert capsys.readouterr().out == report


# --- exit codes ---------------------------------------------------------


def test_exit_2_on_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[inputs]\n", encoding="utf-8")
    assert main(["score", "--config", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "content",
    [
        b"papers = x\n",
        b"[inputs]\npapers = x\n[inputs]\n",
        b"[inputs]\npapers = x\npapers = y\n",
        b"[inputs]\npapers = \xff\n",
    ],
    ids=["no-section-header", "section-twice", "key-twice", "not-utf-8"],
)
def test_exit_2_on_a_malformed_config_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(content)
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--config", str(bad), "--output-dir", str(out_dir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {bad}: ")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_jobs_flag_is_a_usage_error(tmp_path):
    cfg_path, _ = tiny_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["aggregate", "--config", cfg_path, "--jobs", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "extra, overrides, named",
    [
        ("\n[outptu]\ndir = x\n", [], "unknown section [outptu]"),
        ("\n[run]\njobs = 4\n", [], "unknown key 'jobs' in section [run]"),
        ("", ["run.jbos=2"], "unknown key 'jbos' in section [run]"),
        ("", ["aggregation.kk=3"], "unknown key 'kk' in section [aggregation]"),
        ("\n[DEFAULT]\njobs = 4\n", [], "unknown section [DEFAULT]"),
        ("", ["DEFAULT.jobs=4"], "unknown section [DEFAULT]"),
        ("", [".jobs=4"], "override must look like section.key=value: '.jobs=4'"),
    ],
)
def test_exit_2_on_an_unknown_config_section_or_key(
    tmp_path, capsys, extra, overrides, named
):
    cfg_path, out_dir = tiny_config(tmp_path, extra=extra)
    argv = ["pipeline", "--config", cfg_path]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_exit_2_on_truth_year_in_training_range(tmp_path):
    cfg_path, _ = tiny_config(tmp_path, truth="2011")
    assert main(["score", "--config", cfg_path]) == EXIT_CONFIG


def test_exit_2_on_unparseable_method(tmp_path):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    code = main(["aggregate", "--config", cfg_path, "--method", "kemeny"])
    assert code == EXIT_CONFIG


def test_exit_2_when_fagin_k_exceeds_the_universe(tmp_path):
    # Default fagin cutoff is 20; the tiny corpus only has two institutions.
    cfg_path, _ = tiny_config(
        tmp_path, extra="\n[aggregation]\nmethods = fagin\n"
    )
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    assert main(["aggregate", "--config", cfg_path]) == EXIT_CONFIG


def test_fagin_universe_error_names_the_venue_and_method(tmp_path, capsys):
    params = CorpusParams(
        num_institutions=10,
        num_authors=80,
        num_venues=1,
        years=YearRange(2011, 2013),
        papers_per_venue_year=60,
        rng_seed=5,
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
    cfg_path = write_config(
        tmp_path / "run.ini",
        corpus.papers_path,
        corpus.affiliations_path,
        str(tmp_path / "out"),
        extra="\n[aggregation]\nmethods = normalized_sum, fagin\n",
    )
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "venue 'V0', method fagin: k=20 exceeds universe of 10" in err


def test_exit_2_on_an_infinite_p_norm_exponent(tmp_path, capsys):
    cfg_path, out_dir = tiny_config(
        tmp_path, extra="\n[aggregation]\nmethods = borda:p_norm:inf\n"
    )
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    assert "p must be finite: 'borda:p_norm:inf'" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("command", ["aggregate", "pipeline"])
def test_exit_2_names_the_venue_when_p_norm_points_overflow(tmp_path, capsys, command):
    # Two institutions: 2 points raised to 10000 overflow a float.
    cfg_path, _ = tiny_config(
        tmp_path, extra="\n[aggregation]\nmethods = borda:p_norm:10000\n"
    )
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    assert main([command, "--config", cfg_path]) == EXIT_CONFIG
    assert (
        "venue 'V0', method borda_p_norm_10000: p=10000 is too large"
        in capsys.readouterr().err
    )


def test_exit_2_names_the_venue_when_the_prediction_overflows(tmp_path, capsys):
    # The training years hold two institutions, and 2 ** 1000 fits a float.
    # The truth year adds a third, so the prediction's 3 ** 1000 does not.
    credited = [(2011, "IA"), (2011, "IB"), (2012, "IA"), (2012, "IB")]
    credited += [(2013, "IA"), (2013, "IB"), (2013, "IC")]
    papers = tmp_path / "papers.txt"
    affils = tmp_path / "affils.txt"
    papers.write_text(
        "".join(f"P{n}\t\t\t{year}\t\t\t\t\tV0\n" for n, (year, _) in enumerate(credited)),
        encoding="utf-8",
    )
    affils.write_text(
        "".join(f"P{n}\tA{n}\t{inst}\n" for n, (_, inst) in enumerate(credited)),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    cfg_path = write_config(
        tmp_path / "run.ini",
        str(papers),
        str(affils),
        str(out_dir),
        extra="\n[aggregation]\nmethods = borda:p_norm:1000\nk = 2\n",
    )
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    assert (
        "venue 'V0', method borda_p_norm_1000: p=1000 is too large"
        in capsys.readouterr().err
    )
    assert (out_dir / "report.txt").exists()
    assert not (out_dir / "prediction_V0.csv").exists()


@pytest.mark.parametrize("command", ["aggregate", "pipeline"])
def test_a_venue_whose_spec_fails_leaves_no_ranking_of_its_own(tmp_path, capsys, command):
    # V0 credits three institutions every year and V1 two, so fagin:3 fits
    # V0 only. Every spec of a venue is ranked before any of them is written.
    credited = [
        (venue, year, inst)
        for year in (2011, 2012, 2013)
        for venue, insts in (("V0", ("IA", "IB", "IC")), ("V1", ("IA", "IB")))
        for inst in insts
    ]
    papers = tmp_path / "papers.txt"
    affils = tmp_path / "affils.txt"
    papers.write_text(
        "".join(
            f"P{n}\t\t\t{year}\t\t\t\t\t{venue}\n" for n, (venue, year, _) in enumerate(credited)
        ),
        encoding="utf-8",
    )
    affils.write_text(
        "".join(f"P{n}\tA{n}\t{inst}\n" for n, (_, _, inst) in enumerate(credited)),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    cfg_path = write_config(
        tmp_path / "run.ini",
        str(papers),
        str(affils),
        str(out_dir),
        venues="V0, V1",
        extra="\n[aggregation]\nmethods = normalized_sum, fagin:3\n",
    )
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    assert main([command, "--config", cfg_path]) == EXIT_CONFIG
    assert (
        "error: venue 'V1', method fagin: k=3 exceeds universe of 2"
        in capsys.readouterr().err
    )
    assert sorted(name for name in os.listdir(out_dir) if name.startswith("ranking_")) == [
        f"ranking_V0_{label}.{kind}"
        for label in ("fagin", "normalized_sum")
        for kind in ("csv", "json")
    ]
    assert not (out_dir / "report.txt").exists()


def credited_dumps(tmp_path, institutions_by_venue):
    """Each venue credits each of its institutions one paper a year, 2011-2013."""
    credited = [
        (venue, year, inst)
        for year in (2011, 2012, 2013)
        for venue, insts in institutions_by_venue.items()
        for inst in insts
    ]
    papers = tmp_path / "papers.txt"
    affils = tmp_path / "affils.txt"
    papers.write_text(
        "".join(
            f"P{n}\t\t\t{year}\t\t\t\t\t{venue}\n" for n, (venue, year, _) in enumerate(credited)
        ),
        encoding="utf-8",
    )
    affils.write_text(
        "".join(f"P{n}\tA{n}\t{inst}\n" for n, (_, _, inst) in enumerate(credited)),
        encoding="utf-8",
    )
    return str(papers), str(affils)


@pytest.mark.parametrize("command", ["aggregate", "pipeline"])
def test_every_venue_whose_spec_fails_is_named_in_one_error(tmp_path, capsys, command):
    # fagin:3 fits V0 and V2 only. Every venue is ranked, and one error names
    # V1 and V3; the files written are those of the venues before V1.
    three, two = ("IA", "IB", "IC"), ("IA", "IB")
    papers, affils = credited_dumps(tmp_path, {"V0": three, "V1": two, "V2": three, "V3": two})
    out_dir = tmp_path / "out"
    cfg_path = write_config(
        tmp_path / "run.ini",
        papers,
        affils,
        str(out_dir),
        venues="V0, V1, V2, V3",
        extra="\n[aggregation]\nmethods = normalized_sum, fagin:3\n",
    )
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    capsys.readouterr()
    assert main([command, "--config", cfg_path]) == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        "error: venue 'V1', method fagin: k=3 exceeds universe of 2; "
        "venue 'V3', method fagin: k=3 exceeds universe of 2\n"
    )
    assert sorted(name for name in os.listdir(out_dir) if name.startswith("ranking_")) == [
        f"ranking_V0_{label}.{kind}"
        for label in ("fagin", "normalized_sum")
        for kind in ("csv", "json")
    ]
    assert not (out_dir / "report.txt").exists()


def test_every_venue_with_an_all_zero_truth_is_named_in_one_error(tmp_path, capsys):
    papers, affils = credited_dumps(tmp_path, {"V0": ("IA", "IB"), "V1": ("IA", "IC")})
    out_dir = tmp_path / "out"
    cfg_path = write_config(
        tmp_path / "run.ini",
        papers,
        affils,
        str(out_dir),
        venues="V0, V1",
        train="2011-2012",
        truth="2014",
        extra="\n[aggregation]\nmethods = normalized_sum\nk = 2\n",
    )
    assert main(["pipeline", "--config", cfg_path]) == EXIT_ZERO_TRUTH
    assert capsys.readouterr().err.endswith(
        "\nerror: venue 'V0': no positive relevance, NDCG undefined; "
        "venue 'V1': no positive relevance, NDCG undefined\n"
    )
    assert sorted(name for name in os.listdir(out_dir) if not name.startswith("scores_")) == [
        f"ranking_{venue}_normalized_sum.{kind}"
        for venue in ("V0", "V1")
        for kind in ("csv", "json")
    ]


@pytest.mark.parametrize(
    "methods, first, second",
    [
        ("fagin:5, fagin:50", "fagin:5", "fagin:50"),
        ("borda:p_norm:2, normalized_sum, borda:p_norm:2.0", "borda:p_norm:2", "borda:p_norm:2.0"),
        ("fagin, fagin:20", "fagin", "fagin:20"),
    ],
)
def test_exit_2_on_duplicate_method_labels(tmp_path, capsys, methods, first, second):
    cfg_path, out_dir = tiny_config(
        tmp_path, extra=f"\n[aggregation]\nmethods = {methods}\n"
    )
    with pytest.raises(ConfigError, match=f"'{first}' and '{second}'"):
        load_config(cfg_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    assert f"'{first}' and '{second}'" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_distinct_labels_pass_validation(tmp_path):
    methods = "normalized_sum, borda:sum, borda:p_norm:2, borda:p_norm:3, fagin:5"
    cfg_path, _ = tiny_config(tmp_path, extra=f"\n[aggregation]\nmethods = {methods}\n")
    load_config(cfg_path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("borda:p_norm:0", "p must be > 0, got 0.0"),
        ("borda:harmonic", "unknown borda variant 'harmonic'"),
        ("fagin:0", "fagin_k must be >= 1, got 0"),
        ("kemeny", "unknown aggregation method 'kemeny'"),
        ("borda:p_norm:inf", "p must be finite: 'borda:p_norm:inf'"),
        ("borda:p_norm:nan", "p must be > 0, got nan"),
        ("fagin:5:1", "unexpected argument in 'fagin:5:1'"),
        ("normalized_sum:1", "normalized_sum takes no arguments: 'normalized_sum:1'"),
        ("borda:sum:2", "unexpected argument in 'borda:sum:2'"),
        ("borda:p_norm", "p_norm needs an exponent: 'borda:p_norm'"),
        ("fagin:abc", "fagin_k must be an integer: 'fagin:abc'"),
        ("borda:p_norm:x", "p must be a number: 'borda:p_norm:x'"),
    ],
)
def test_a_bad_method_spec_names_its_fault(tmp_path, capsys, text, message):
    cfg_path, out_dir = tiny_config(tmp_path)
    with pytest.raises(ConfigError) as raised:
        load_config(cfg_path, [f"aggregation.methods={text}"])
    assert str(raised.value) == f"config {cfg_path}: {message}"
    assert main(["aggregate", "--config", cfg_path, "--method", text]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[0] == f"error: config {cfg_path}: {message}"
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize(
    "drop, override, message",
    [
        (r"^\[selection\]\n(.+\n)*", None, "missing section [selection]"),
        (r"^truth_year = .*\n", None, "missing key 'truth_year' in section [selection]"),
        (r"^papers = .*\n", None, "missing key 'papers' in section [inputs]"),
        (
            None,
            "selection.train_years=2014-2011",
            "key 'train_years' in section [selection]: empty year range 2014-2011",
        ),
        (
            None,
            "selection.train_years=2011-",
            "key 'train_years' in section [selection]: invalid literal for int() with base 10: ''",
        ),
        (
            None,
            "aggregation.k=abc",
            "key 'k' in section [aggregation]: invalid literal for int() with base 10: 'abc'",
        ),
        (None, "run.strict=maybe", "key 'strict' in section [run]: Not a boolean: maybe"),
        (
            None,
            "papers_table.year=x",
            "key 'year' in section [papers_table]: invalid literal for int() with base 10: 'x'",
        ),
        (
            None,
            "affiliations_table.has_header=2",
            "key 'has_header' in section [affiliations_table]: Not a boolean: 2",
        ),
    ],
    ids=[
        "no-selection",
        "no-truth-year",
        "no-papers",
        "empty-years",
        "open-years",
        "k",
        "strict",
        "papers-year",
        "affiliations-header",
    ],
)
def test_a_config_fault_names_its_section_and_key(tmp_path, capsys, drop, override, message):
    cfg_path, out_dir = tiny_config(tmp_path)
    if drop:
        with open(cfg_path, encoding="utf-8") as handle:
            text, dropped = re.subn(drop, "", handle.read(), count=1, flags=re.MULTILINE)
        assert dropped == 1
        with open(cfg_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    overrides = [override] if override else []
    with pytest.raises(ConfigError) as raised:
        load_config(cfg_path, overrides)
    assert str(raised.value) == f"config {cfg_path}: {message}"
    argv = ["score", "--config", cfg_path] + [arg for o in overrides for arg in ("--set", o)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[0] == f"error: config {cfg_path}: {message}"
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize(
    "venue_id", ["../V0", "V0/x", "V0\\x", os.sep + "tmp", ".", "..", "V\0", ""]
)
def test_unsafe_venue_ids_are_rejected_up_front(tmp_path, venue_id):
    cfg_path, out_dir = tiny_config(tmp_path)
    override = [f"selection.venues=V0, {venue_id}"]
    if not venue_id:
        # The venue list's parse drops an empty item before any check.
        assert load_config(cfg_path, override).venues == ["V0"]
        return
    with pytest.raises(ConfigError, match="venue id"):
        load_config(cfg_path, override)


def test_exit_2_on_a_duplicate_venue_id(tmp_path, capsys):
    cfg_path, out_dir = tiny_config(tmp_path, venues="V0, V0")
    with pytest.raises(ConfigError, match="venue id 'V0' is listed twice"):
        load_config(cfg_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    assert "venue id 'V0' is listed twice" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_exit_2_on_a_venue_id_that_leaves_the_output_dir(tmp_path):
    cfg_path, out_dir = tiny_config(tmp_path)
    code = main(["score", "--config", cfg_path, "--set", "selection.venues=V0, ../V0"])
    assert code == EXIT_CONFIG
    assert not os.path.exists(out_dir)
    assert not any(name.startswith("scores_") for name in os.listdir(tmp_path))


@pytest.mark.parametrize("command", ["score", "aggregate", "evaluate", "pipeline"])
def test_exit_2_on_an_empty_output_dir(tmp_path, monkeypatch, capsys, command):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    # The working directory holds every file a stage reads, so only the check stops it.
    monkeypatch.chdir(out_dir)
    before = {name: Path(name).read_bytes() for name in os.listdir(".")}
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--set", "output.dir="]) == EXIT_CONFIG
    assert "error: output.dir is empty" in capsys.readouterr().err
    assert {name: Path(name).read_bytes() for name in os.listdir(".")} == before


def test_exit_3_on_missing_input_file(tmp_path):
    cfg_path, _ = tiny_config(tmp_path)
    code = main(
        ["score", "--config", cfg_path, "--set", "inputs.papers=/nonexistent/p.txt"]
    )
    assert code == EXIT_IO


def test_a_failed_report_write_exits_3_and_leaves_no_temporary_file(tmp_path, capsys):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    report = os.path.join(out_dir, "report.txt")
    os.remove(report)
    os.mkdir(report)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg_path]) == EXIT_IO
    assert "Is a directory" in capsys.readouterr().err
    assert os.path.isdir(report)
    assert not os.path.exists(report + ".tmp")


def test_exit_4_on_malformed_row_under_strict(tmp_path):
    cfg_path, _ = tiny_config(tmp_path)
    papers, _ = tiny_dumps(tmp_path)
    with open(papers, "a", encoding="utf-8") as out:
        out.write("short\trow\n")
    assert main(["score", "--config", cfg_path, "--strict"]) == EXIT_PARSE
    # Lenient mode skips the row instead.
    assert main(["score", "--config", cfg_path]) == EXIT_OK


@pytest.mark.parametrize(
    "dump, row, reason",
    [
        ("papers", "P10\t\t\t2012", "expected at least 9 columns, got 4"),
        ("affiliations", "P1\t\tIA", "empty author id"),
    ],
)
def test_a_strict_abort_names_the_dump_and_the_row(tmp_path, capsys, dump, row, reason):
    cfg_path, _ = tiny_config(tmp_path)
    path = tiny_dumps(tmp_path)[dump == "affiliations"]
    with open(path, "a", encoding="utf-8") as out:
        out.write(row + "\n")
    assert main(["score", "--config", cfg_path, "--strict"]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {path}: row 10: {reason}\n"


@pytest.mark.parametrize(
    "dump, row",
    [
        ("papers", "P10\t\t\tnever\t\t\t\t\tV9"),  # a venue the run does not select
        ("affiliations", "P99\t\tIA"),  # a paper the run does not select
    ],
)
def test_a_malformed_row_outside_the_selection_is_still_checked(tmp_path, capsys, dump, row):
    cfg_path, _ = tiny_config(tmp_path)
    path = tiny_dumps(tmp_path)[dump == "affiliations"]
    with open(path, "a", encoding="utf-8") as out:
        out.write(row + "\n")
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    assert f"{dump}: 10 rows, 1 skipped (first at row 10); " in capsys.readouterr().err
    assert main(["score", "--config", cfg_path, "--strict"]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: {path}: row 10: ")


def test_exit_4_on_a_paper_id_listed_twice(tmp_path, capsys):
    cfg_path, _ = tiny_config(tmp_path)
    papers, _ = tiny_dumps(tmp_path)
    with open(papers, "a", encoding="utf-8") as out:
        out.write("P1\t\t\t2012\t\t\t\t\tV0\n")  # P1 is already listed for 2011
    assert main(["score", "--config", cfg_path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"error: {papers}: paper id 'P1' appears twice in the filtered set\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, name, row, content",
    [
        ("aggregate", "scores_V0_2011.csv", 2, "IA,abc"),
        ("aggregate", "scores_V0_2011.csv", 2, "IA,inf"),
        ("aggregate", "scores_V0_2011.csv", 1, "institution,score"),
        ("evaluate", "ranking_V0_normalized_sum.csv", 2, "x,IA,1.0"),
        ("evaluate", "scores_V0_2013.csv", 2, "IA,-1.0"),
        ("aggregate", "scores_V0_2011.csv", 3, "IA,0.125"),
        ("evaluate", "ranking_V0_normalized_sum.csv", 2, "-7,IA,1.0"),
        ("evaluate", "ranking_V0_normalized_sum.csv", 3, "2,IA,0.5"),
        ("aggregate", "scores_V0_2012.csv", 2, ",0.5"),
        ("evaluate", "ranking_V0_normalized_sum.csv", 2, "1,,2.0"),
        ("evaluate", "ranking_V0_normalized_sum.csv", 3, "2,IB,1e9"),
        ("evaluate", "ranking_V0_normalized_sum.csv", 2, "1,IA,nan"),
        ("evaluate", "ranking_V0_normalized_sum.csv", 2, "1,IA,inf"),
        ("evaluate", "ranking_V0_normalized_sum.csv", 3, "2,IB,-5.0"),
    ],
    ids=[
        "score-not-a-number",
        "score-infinite",
        "score-header",
        "rank-not-an-int",
        "truth-negative",
        "score-institution-twice",
        "rank-not-the-row-position",
        "ranking-institution-twice",
        "score-empty-institution",
        "ranking-empty-institution",
        "ranking-score-rises",
        "ranking-score-nan",
        "ranking-score-infinite",
        "ranking-score-negative",
    ],
)
def test_exit_4_on_a_malformed_intermediate_file(tmp_path, capsys, command, name, row, content):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    path = os.path.join(out_dir, name)
    with open(path, encoding="utf-8") as src:
        lines = src.read().splitlines()
    lines[row - 1] = content
    with open(path, "w", encoding="utf-8") as out:
        out.write("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert main([command, "--config", cfg_path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: row {row}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, name",
    [
        ("aggregate", "scores_V0_2011.csv"),
        ("evaluate", "scores_V0_2013.csv"),
        ("evaluate", "ranking_V0_normalized_sum.csv"),
    ],
)
def test_exit_4_on_an_intermediate_file_that_is_not_utf8(tmp_path, capsys, command, name):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    path = os.path.join(out_dir, name)
    with open(path, "rb") as src:
        lines = src.read().split(b"\n")
    head, _, score = lines[1].rpartition(b",")
    lines[1] = head + b"\xff\xfe," + score
    with open(path, "wb") as out:
        out.write(b"\n".join(lines))
    capsys.readouterr()
    assert main([command, "--config", cfg_path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: row 2: not UTF-8: ")
    assert "Traceback" not in err


def test_exit_5_on_all_zero_truth_year(tmp_path, capsys):
    # Truth year 2014 has no papers, so its score table is empty.
    cfg_path, _ = tiny_config(
        tmp_path,
        train="2011-2012",
        truth="2014",
        extra="\n[aggregation]\nmethods = normalized_sum\nk = 2\n",
    )
    capsys.readouterr()
    assert main(["pipeline", "--config", cfg_path]) == EXIT_ZERO_TRUTH
    assert capsys.readouterr().err.endswith(
        "\nerror: venue 'V0': no positive relevance, NDCG undefined\n"
    )


# --- score --------------------------------------------------------------


def test_score_writes_a_file_for_every_venue_year(tmp_path, capsys):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    for year in (2011, 2012, 2013):
        path = os.path.join(out_dir, score_file_name("V0", year))
        table = read_score_csv(path, year)
        assert table == make_table(year, {"IA": 2, "IB": 1})
    err = capsys.readouterr().err
    assert "papers: 9 rows, 0 skipped" in err
    assert "filtered papers without affiliations: 0" in err


def test_score_summary_counts_the_papers_kept_by_the_filter(tmp_path, capsys):
    cfg_path, _ = tiny_config(tmp_path, train="2011", truth="2012")
    papers, _ = tiny_dumps(tmp_path)
    with open(papers, "a", encoding="utf-8") as out:
        out.write("P98\t\t\t2011\t\t\t\t\tV0\n")  # kept, but has no affiliations
        out.write("P99\t\t\t2011\t\t\t\t\tV9\n")  # another venue
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    err = capsys.readouterr().err
    assert "papers: 11 rows, 0 skipped; " in err
    assert "; papers kept by the venue/year filter: 7; " in err
    assert "; filtered papers without affiliations: 1" in err


def test_score_writes_an_empty_file_for_a_venue_year_without_rows(tmp_path, capsys):
    cfg_path, out_dir = tiny_config(tmp_path)
    _, affils = tiny_dumps(tmp_path)
    with open(affils, encoding="utf-8") as src:
        # P4-P6 are the 2012 papers.
        kept = [line for line in src if line.split("\t")[0] not in {"P4", "P5", "P6"}]
    with open(affils, "w", encoding="utf-8") as out:
        out.writelines(kept)
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    with open(os.path.join(out_dir, score_file_name("V0", 2012)), encoding="utf-8") as src:
        assert src.read() == "institution_id,score\n"
    assert "; filtered papers without affiliations: 3" in capsys.readouterr().err


def test_score_runs_the_shared_scoring_path_once(tmp_path, monkeypatch):
    assert cli.score_venue_years is scoring.score_venue_years
    calls = []

    def spy(papers, rows):
        calls.append(rows)
        return scoring.score_venue_years(papers, rows)

    monkeypatch.setattr(cli, "score_venue_years", spy)
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    assert len(calls) == 1
    table = read_score_csv(os.path.join(out_dir, score_file_name("V0", 2011)), 2011)
    assert table == make_table(2011, {"IA": 2, "IB": 1})


def test_score_summary_names_the_first_skipped_row(tmp_path, capsys):
    cfg_path, _ = tiny_config(tmp_path)
    _, affils = tiny_dumps(tmp_path)
    with open(affils, "a", encoding="utf-8") as out:
        out.write("P1\t\tIA\n")  # empty author id
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    err = capsys.readouterr().err
    assert "papers: 9 rows, 0 skipped; " in err
    assert "affiliations: 10 rows, 1 skipped (first at row 10); " in err


def test_score_keeps_a_lone_carriage_return_inside_an_institution_id(tmp_path, capsys):
    papers = tmp_path / "papers.txt"
    papers.write_text(
        "P1\t\t\t2011\t\t\t\t\tV0\nP2\t\t\t2011\t\t\t\t\tV0\n", encoding="utf-8"
    )
    affils = tmp_path / "affils.txt"
    affils.write_bytes(b"P1\tA1\tI1\rjunk\nP2\tA2\tI2\n")
    out_dir = tmp_path / "out"
    cfg_path = write_config(
        tmp_path / "run.ini",
        papers,
        affils,
        out_dir,
        train="2011",
        truth="2012",
        extra="\n[aggregation]\nmethods = normalized_sum\n",
    )
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    assert "affiliations: 2 rows, 0 skipped; " in capsys.readouterr().err
    path = out_dir / score_file_name("V0", 2011)
    assert path.read_bytes() == b"institution_id,score\nI1\rjunk,1.0\nI2,1.0\n"
    assert read_score_csv(str(path), 2011) == make_table(2011, {"I1\rjunk": 1, "I2": 1})
    assert main(["aggregate", "--config", cfg_path]) == EXIT_OK
    ranking = read_ranking_csv(str(out_dir / ranking_file_name("V0", "normalized_sum")))
    assert ranking.ids() == ["I1\rjunk", "I2"]


def test_an_empty_venue_set_exits_2_and_writes_nothing(tmp_path, capsys):
    for venues in ("", ","):
        cfg_path, out_dir = tiny_config(tmp_path, venues=venues)
        for command in ("score", "aggregate", "evaluate", "pipeline"):
            assert main([command, "--config", cfg_path]) == EXIT_CONFIG
            assert "no venues configured" in capsys.readouterr().err
        assert not os.path.exists(out_dir)


@pytest.mark.parametrize(
    "override", ["selection.truth_year=2300", "selection.train_years=1850-1900"]
)
def test_years_outside_the_readable_span_exit_2_and_write_nothing(tmp_path, capsys, override):
    cfg_path, out_dir = tiny_config(tmp_path)
    for command in ("score", "aggregate", "evaluate", "pipeline"):
        assert main([command, "--config", cfg_path, "--set", override]) == EXIT_CONFIG
        assert "must lie within 1900-2100" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_score_agrees_with_the_naive_oracle_per_venue(tmp_path):
    params = CorpusParams(
        num_institutions=10,
        num_authors=80,
        num_venues=2,
        years=YearRange(2011, 2013),
        papers_per_venue_year=40,
        unknown_rate=0.1,
        rng_seed=17,
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    corpus = generate_corpus(params, str(corpus_dir))
    out_dir = str(tmp_path / "out")
    cfg_path = write_config(
        tmp_path / "run.ini",
        corpus.papers_path,
        corpus.affiliations_path,
        out_dir,
        venues="V0, V1",
        train="2011-2012",
        truth="2013",
    )
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    for venue_id in ("V0", "V1"):
        only_venue = [
            p for p in iter_corpus(params) if p.paper.venue_id == venue_id
        ]
        reference = naive_score(only_venue)
        for year in (2011, 2012, 2013):
            path = os.path.join(out_dir, score_file_name(venue_id, year))
            table = read_score_csv(path, year)
            expected = {
                inst: Fraction(float(value))
                for inst, value in exact(reference[year]).items()
                if inst != UNKNOWN_INSTITUTION
            }
            assert table == make_table(year, expected)


def test_score_reads_shuffled_affiliations_as_it_reads_grouped_ones(tmp_path, capsys):
    params = CorpusParams(
        num_institutions=10,
        num_authors=80,
        num_venues=2,
        years=YearRange(2011, 2013),
        papers_per_venue_year=40,
        unknown_rate=0.1,
        rng_seed=17,
    )
    corpus = generate_corpus(params, str(tmp_path), compute_realized=False)
    rowless = {"P3", "P100", "P200"}  # every row of these papers is dropped from both dumps
    with open(corpus.affiliations_path, encoding="utf-8") as src:
        grouped = [line for line in src if line.split("\t", 1)[0] not in rowless]
    shuffled = grouped[:]
    random.Random(5).shuffle(shuffled)
    bad = "P1\t\tIA\n"  # empty author id, skipped at the same row of both dumps
    runs = {}
    for name, lines in (("grouped", grouped), ("shuffled", shuffled)):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(lines[:50] + [bad] + lines[50:]), encoding="utf-8")
        cfg_path = write_config(
            tmp_path / f"{name}.ini",
            corpus.papers_path,
            str(path),
            str(tmp_path / name),
            venues="V0, V1",
        )
        assert main(["score", "--config", cfg_path]) == EXIT_OK
        runs[name] = capsys.readouterr().err
    assert re.search(r"; affiliations: \d+ rows, 1 skipped \(first at row 51\); ", runs["grouped"])
    assert runs["shuffled"] == runs["grouped"]
    assert runs["grouped"].endswith("; filtered papers without affiliations: 3\n")
    names = sorted(os.listdir(tmp_path / "grouped"))
    assert names == sorted(os.listdir(tmp_path / "shuffled")) and len(names) == 6
    for name in names:
        assert (tmp_path / "shuffled" / name).read_bytes() == (
            tmp_path / "grouped" / name
        ).read_bytes()

    # Under --strict, a bad row after the first row that breaks a paper's
    # run is named as it is in one pass over the dump.
    seen = set()
    for index, line in enumerate(shuffled):
        paper_id = line.split("\t", 1)[0]
        if paper_id in seen and shuffled[index - 1].split("\t", 1)[0] != paper_id:
            break
        seen.add(paper_id)
    else:
        raise AssertionError("the shuffled rows are grouped by paper")
    path = tmp_path / "shuffled.txt"
    cut = index + 1
    path.write_text("".join(shuffled[:cut] + [bad] + shuffled[cut:]), encoding="utf-8")
    assert main(["score", "--config", str(tmp_path / "shuffled.ini"), "--strict"]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {path}: row {index + 2}: empty author id\n"


# --- aggregate ----------------------------------------------------------


def test_aggregate_single_year_matches_the_score_order(tmp_path):
    cfg_path, out_dir = tiny_config(
        tmp_path,
        train="2011",
        truth="2012",
        extra="\n[aggregation]\nmethods = normalized_sum\nk = 2\n",
    )
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    assert main(["aggregate", "--config", cfg_path]) == EXIT_OK
    ranking = read_ranking_csv(os.path.join(out_dir, ranking_file_name("V0", "normalized_sum")))
    assert ranking.ids() == ["IA", "IB"]
    assert [item.score for item in ranking.items] == [1.0, 0.5]


def test_aggregate_method_flag_runs_only_that_method(tmp_path):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    assert main(["aggregate", "--config", cfg_path, "--method", "fagin:2"]) == EXIT_OK
    produced = sorted(os.listdir(out_dir))
    rankings = [name for name in produced if name.startswith("ranking_")]
    assert rankings == ["ranking_V0_fagin.csv", "ranking_V0_fagin.json"]
    payload = json.loads(Path(out_dir, "ranking_V0_fagin.json").read_text(encoding="utf-8"))
    assert payload["method"]["name"] == "fagin"
    assert payload["method"]["fagin_k"] == 2


# --- evaluate and pipeline ----------------------------------------------


def test_pipeline_perfect_agreement_scores_one_everywhere(tmp_path, capsys):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    report_csv = Path(out_dir, "report.csv").read_text(encoding="utf-8")
    assert report_csv == (
        "venue,method,ndcg@2\n"
        "V0,normalized_sum,1.0\n"
        "V0,borda_sum,1.0\n"
        "V0,fagin,1.0\n"
    )
    report_txt = Path(out_dir, "report.txt").read_text(encoding="utf-8")
    assert report_txt == (
        "NDCG@2 values for V0\n"
        "Conf. Name  normalized_sum  borda_sum  fagin\n"
        "V0          *1.000          1.000      1.000\n"
    )
    assert capsys.readouterr().out == report_txt
    prediction = Path(out_dir, "prediction_V0.csv").read_text(encoding="utf-8")
    assert prediction == "rank,institution_id,score\n1,IA,3.0\n2,IB,1.5\n"


def test_pipeline_reruns_byte_identically(tmp_path):
    params = CorpusParams(
        num_institutions=12,
        num_authors=100,
        num_venues=2,
        years=YearRange(2011, 2014),
        papers_per_venue_year=30,
        unknown_rate=0.05,
        rng_seed=29,
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
    out_dir = str(tmp_path / "out")
    cfg_path = write_config(
        tmp_path / "run.ini",
        corpus.papers_path,
        corpus.affiliations_path,
        out_dir,
        venues="V0, V1",
        train="2011-2013",
        truth="2014",
        extra="\n[aggregation]\nmethods = normalized_sum, borda:sum, fagin:6\nk = 6\n",
    )

    def snapshot():
        return {
            name: Path(out_dir, name).read_bytes()
            for name in sorted(os.listdir(out_dir))
        }

    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    first = snapshot()
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    assert snapshot() == first
    assert any(name.startswith("prediction_") for name in first)


def test_pipeline_prediction_recomputes_from_the_winning_method(tmp_path):
    params = CorpusParams(
        num_institutions=9,
        num_authors=70,
        num_venues=1,
        years=YearRange(2011, 2013),
        papers_per_venue_year=50,
        rng_seed=13,
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
    # The second list's winner is a borda variant, which reads every scored
    # year's points.
    for name, methods in (
        ("mixed", "normalized_sum, borda:sum, fagin:4"),
        ("borda", "borda:sum, borda:p_norm:2"),
    ):
        out_dir = str(tmp_path / f"out_{name}")
        cfg_path = write_config(
            tmp_path / f"run_{name}.ini",
            corpus.papers_path,
            corpus.affiliations_path,
            out_dir,
            venues="V0",
            train="2011-2012",
            truth="2013",
            extra=f"\n[aggregation]\nmethods = {methods}\nk = 4\n",
        )
        assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
        config = load_config(cfg_path)
        report_lines = Path(out_dir, "report.csv").read_text(encoding="utf-8").splitlines()[1:]
        values = {}
        for line in report_lines:
            _, label, value = line.split(",")
            values[label] = float(value)
        winner_label = max(values, key=values.get)
        winning_spec = next(s for s in config.specs if s.label == winner_label)
        tables = [
            read_score_csv(os.path.join(out_dir, score_file_name("V0", year)), year)
            for year in (2011, 2012, 2013)
        ]
        expected = run_aggregation(winning_spec, YearTables(tables))
        written = read_ranking_csv(os.path.join(out_dir, "prediction_V0.csv"))
        assert written == expected


def test_pipeline_normalizes_each_venue_year_once_per_span(tmp_path, monkeypatch):
    params = CorpusParams(
        num_institutions=9,
        num_authors=70,
        num_venues=2,
        years=YearRange(2011, 2014),
        papers_per_venue_year=20,
        rng_seed=5,
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
    out_dir = str(tmp_path / "out")
    cfg_path = write_config(
        tmp_path / "run.ini",
        corpus.papers_path,
        corpus.affiliations_path,
        out_dir,
        venues="V0, V1",
        train="2011-2013",
        truth="2014",
        extra="\n[aggregation]\nmethods = normalized_sum, borda:sum, fagin:3\nk = 3\n",
    )
    real_normalize = aggregate.normalize
    built = []

    def counting_normalize(table):
        built.append(table.year)
        return real_normalize(table)

    monkeypatch.setattr(aggregate, "normalize", counting_normalize)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    # Per venue, the training span normalizes 2011-2013 and the prediction
    # span every scored year, 2011-2014.
    assert sorted(built) == sorted([2011, 2012, 2013] * 4 + [2014] * 2)
    assert os.path.exists(os.path.join(out_dir, "prediction_V1.csv"))


def test_pipeline_ranks_each_venue_year_once_per_span(tmp_path, monkeypatch):
    # Both methods are borda, so the winner's prediction counts every scored
    # year's points, over a span of its own.
    params = CorpusParams(
        num_institutions=9,
        num_authors=70,
        num_venues=2,
        years=YearRange(2011, 2014),
        papers_per_venue_year=20,
        rng_seed=5,
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
    cfg_path = write_config(
        tmp_path / "run.ini",
        corpus.papers_path,
        corpus.affiliations_path,
        str(tmp_path / "out"),
        venues="V0, V1",
        train="2011-2013",
        truth="2014",
        extra="\n[aggregation]\nmethods = borda:sum, borda:median\nk = 3\n",
    )
    real_normalize, real_order_by_score = aggregate.normalize, aggregate.order_by_score
    normalized, ordered = [], []

    def counting_normalize(table, *args, **kwargs):
        result = real_normalize(table, *args, **kwargs)
        normalized.append(result)
        return result

    def counting_order_by_score(entries, *args, **kwargs):
        ordered.append(entries)
        return real_order_by_score(entries, *args, **kwargs)

    monkeypatch.setattr(aggregate, "normalize", counting_normalize)
    monkeypatch.setattr(aggregate, "order_by_score", counting_order_by_score)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    # Two venues; a training year is normalized by both spans, the truth
    # year by the prediction span alone.
    assert sorted(table.year for table in normalized) == sorted(
        [2011, 2012, 2013] * 4 + [2014] * 2
    )
    # The corpus has no UNKNOWN rows, so every normalized year keeps its
    # stored table's numerators. Each stored table is ordered twice: a
    # training year for its points in both spans, the truth year for its
    # points in the prediction span and as the ranking NDCG grades against.
    stored = list({id(table.numerators): table.numerators for table in normalized}.values())
    assert len(stored) == 2 * 4
    times = [sum(entries is numerators for entries in ordered) for numerators in stored]
    assert times == [2] * len(stored)


def test_standalone_stages_write_what_the_pipeline_writes(tmp_path, monkeypatch, capsys):
    # The tier-1 form of the CI diff -r: score, aggregate and evaluate run as
    # separate commands, each reading back the files the one before it wrote.
    # The pipeline runs the same stage functions, looked up on the module,
    # and hands on in memory what the files hold.
    params = CorpusParams(
        num_institutions=30,
        num_authors=300,
        num_venues=3,
        years=YearRange(2011, 2015),
        papers_per_venue_year=60,
        unknown_rate=0.05,
        rng_seed=71,
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
    real_read = cli.read_score_csv
    real_read_ranking = cli.read_ranking_csv
    real_stages = {
        name: getattr(cli, name)
        for name in ("cmd_score", "cmd_aggregate", "cmd_evaluate", "_build_report")
    }
    venues = ("V0", "V1", "V2")
    # The second selection scores 2013 but trains without it.
    for train, truth, read_years in (
        ("2011-2014", 2015, [2011, 2012, 2013, 2014, 2015]),
        ("2011-2012", 2014, [2011, 2012, 2014]),
    ):
        scored = YearRange(2011, truth)
        reads = {"stages": [], "pipeline": []}
        ranking_reads = {"stages": [], "pipeline": []}
        calls = {"stages": [], "pipeline": []}
        # The arguments and result of each stage function, by name.
        handed = {"stages": {}, "pipeline": {}}
        printed = {}
        outputs = {}
        for out_name, commands in (
            ("stages", ["score", "aggregate", "evaluate"]),
            ("pipeline", ["pipeline"]),
        ):
            out_dir = str(tmp_path / f"{out_name}_{train}_{truth}")
            cfg_path = write_config(
                tmp_path / f"run_{out_name}_{train}_{truth}.ini",
                corpus.papers_path,
                corpus.affiliations_path,
                out_dir,
                venues=", ".join(venues),
                train=train,
                truth=str(truth),
                extra=(
                    "\n[aggregation]\nmethods = normalized_sum, borda:sum, borda:median, "
                    "borda:geometric_mean, borda:p_norm:2, fagin\nk = 10\n"
                ),
            )

            def counting_read(path, year, reads=reads[out_name]):
                reads.append(os.path.basename(path))
                return real_read(path, year)

            def counting_read_ranking(path, reads=ranking_reads[out_name]):
                reads.append(os.path.basename(path))
                return real_read_ranking(path)

            monkeypatch.setattr(cli, "read_score_csv", counting_read)
            monkeypatch.setattr(cli, "read_ranking_csv", counting_read_ranking)
            for name, real in real_stages.items():

                def counting_stage(
                    *args, name=name, real=real, called=calls[out_name], seen=handed[out_name]
                ):
                    called.append(name)
                    result = real(*args)
                    seen[name] = args, result
                    return result

                monkeypatch.setattr(cli, name, counting_stage)
            capsys.readouterr()
            for command in commands:
                assert main([command, "--config", cfg_path]) == EXIT_OK
            printed[out_name] = capsys.readouterr().out
            outputs[out_name] = {
                name: Path(out_dir, name).read_bytes()
                for name in sorted(os.listdir(out_dir))
            }
        predictions = {name for name in outputs["pipeline"] if name.startswith("prediction_")}
        assert len(predictions) == 3
        # Score files, a CSV and a JSON ranking per venue and method, and the report.
        assert len(outputs["stages"]) == 3 * len(list(scored)) + 3 * 6 * 2 + 2
        assert {
            name: data for name, data in outputs["pipeline"].items() if name not in predictions
        } == outputs["stages"]
        # The pipeline aggregates the tables its score files store without
        # reading them back; aggregate reads the training years and evaluate
        # the truth year.
        assert reads["pipeline"] == ranking_reads["pipeline"] == []
        assert sorted(reads["stages"]) == sorted(
            score_file_name(venue, year) for venue in venues for year in read_years
        )
        labels = [
            "normalized_sum",
            "borda_sum",
            "borda_median",
            "borda_geometric_mean",
            "borda_p_norm_2",
            "fagin",
        ]
        assert sorted(ranking_reads["stages"]) == sorted(
            ranking_file_name(venue, label) for venue in venues for label in labels
        )
        # What the pipeline handed on is what its files read back as: every
        # venue and scored year's table, keys in the same order, numerators
        # and denominator, and every venue's rankings by label.
        out_dir = tmp_path / f"pipeline_{train}_{truth}"
        tables = handed["pipeline"]["cmd_score"][1]
        assert sorted(tables) == sorted((venue, year) for venue in venues for year in scored)
        for (venue, year), table in tables.items():
            back = real_read(str(out_dir / score_file_name(venue, year)), year)
            assert table.year == back.year == year
            assert list(table.numerators.items()) == list(back.numerators.items())
            assert table.denominator == back.denominator
        rankings = handed["pipeline"]["cmd_aggregate"][0][2]
        assert handed["pipeline"]["cmd_evaluate"][0][2] is rankings
        assert list(rankings) == list(venues)
        for venue, by_label in rankings.items():
            assert list(by_label) == labels
            for label, ranking in by_label.items():
                assert ranking == real_read_ranking(str(out_dir / ranking_file_name(venue, label)))
        # Each stage function runs once either way, and the pipeline prints
        # what the evaluate stage prints.
        assert calls["pipeline"] == calls["stages"] == list(real_stages)
        assert printed["pipeline"] == printed["stages"]
        assert printed["stages"].startswith(f"NDCG@10 values for {', '.join(venues)}\n")


def test_standalone_aggregate_holds_one_venue_at_a_time(tmp_path, monkeypatch):
    # Each venue's YearTables and rankings are gone before the next venue's
    # YearTables is built; only a rankings dict the caller passes keeps them.
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    params = CorpusParams(
        num_institutions=20,
        num_authors=100,
        num_venues=3,
        years=YearRange(2011, 2014),
        papers_per_venue_year=20,
        rng_seed=5,
    )
    corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
    cfg_path = write_config(
        tmp_path / "run.ini",
        corpus.papers_path,
        corpus.affiliations_path,
        str(tmp_path / "out"),
        venues="V0, V1, V2",
        train="2011-2013",
        truth="2014",
        extra="\n[aggregation]\nmethods = normalized_sum, borda:median, fagin:5\n",
    )
    assert main(["score", "--config", cfg_path]) == EXIT_OK
    refs = []
    alive = []
    real_rank_venue = cli.rank_venue

    class TrackedYearTables(YearTables):
        def __init__(self, tables):
            alive.append(sum(ref() is not None for ref in refs))
            super().__init__(tables)
            refs.append(weakref.ref(self))

    class TrackedRankings(dict):
        pass

    def tracked_rank_venue(*args):
        rankings = TrackedRankings(real_rank_venue(*args))
        refs.append(weakref.ref(rankings))
        return rankings

    monkeypatch.setattr(cli, "YearTables", TrackedYearTables)
    monkeypatch.setattr(cli, "rank_venue", tracked_rank_venue)
    assert main(["aggregate", "--config", cfg_path]) == EXIT_OK
    assert alive == [0, 0, 0]
    # A caller's dict keeps each venue's rankings, and nothing else.
    refs.clear()
    alive.clear()
    kept = {}
    cli.cmd_aggregate(load_config(cfg_path), None, kept)
    assert alive == [0, 1, 2]
    assert list(kept) == ["V0", "V1", "V2"]
    assert all(type(rankings) is TrackedRankings for rankings in kept.values())


def test_evaluate_k_flag_overrides_config(tmp_path, capsys):
    cfg_path, out_dir = tiny_config(tmp_path)
    assert main(["pipeline", "--config", cfg_path]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg_path, "--k", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("NDCG@1 values for V0\n")


# --- synth command ------------------------------------------------------


def test_synth_command_emits_dumps_and_truth_tables(tmp_path, capsys):
    out_dir = str(tmp_path / "corpus")
    code = main(
        [
            "synth",
            "--out",
            out_dir,
            "--institutions",
            "5",
            "--authors",
            "30",
            "--venues",
            "1",
            "--years",
            "2011-2012",
            "--papers-per-venue-year",
            "10",
            "--seed",
            "2",
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith("papers.txt")
    assert printed[1].endswith("affiliations.txt")
    assert sorted(os.listdir(out_dir)) == [
        "affiliations.txt",
        "papers.txt",
        "truth_2011.csv",
        "truth_2012.csv",
    ]


def test_synth_command_rejects_bad_params(tmp_path):
    code = main(
        ["synth", "--out", str(tmp_path), "--institutions", "0"]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--authors-per-paper", "4-1", "authors_per_paper range (4, 1) is empty"),
        ("--affils-per-author", "3-2", "affils_per_author range (3, 2) is empty"),
        ("--years", "2015-2011", "empty year range 2015-2011"),
        ("--authors-per-paper", "1-x", "invalid literal for int() with base 10: 'x'"),
        ("--affils-per-author", "two", "invalid literal for int() with base 10: 'two'"),
        ("--years", "2011-", "invalid literal for int() with base 10: ''"),
    ],
)
def test_synth_range_flags_share_one_parse_and_reject_a_bad_range(
    tmp_path, capsys, flag, value, message
):
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--out", str(out_dir), flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
    assert not out_dir.exists()


def test_synth_range_flags_take_one_number_or_a_range(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from instrank import synth

    seen = []

    def generate(params, out_dir, compute_realized):
        seen.append(params)
        return SimpleNamespace(papers_path="p", affiliations_path="a", realized=None)

    monkeypatch.setattr(synth, "generate_corpus", generate)
    argv = ["synth", "--out", str(tmp_path), "--years", " 2012 "]
    assert main([*argv, "--authors-per-paper", "3", "--affils-per-author", " 1-2"]) == EXIT_OK
    assert seen[0].authors_per_paper == (3, 3)
    assert seen[0].affils_per_author == (1, 2)
    assert seen[0].years == YearRange(2012, 2012)


@pytest.mark.parametrize("drift", ["nan", "inf", "1e308"])
def test_synth_command_rejects_a_drift_that_overflows_the_weights(tmp_path, capsys, drift):
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--out", str(out_dir), "--drift", drift]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: drift {float(drift)!r} gives ")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_synth_no_truth_skips_the_oracle(tmp_path):
    out_dir = str(tmp_path / "corpus")
    code = main(
        [
            "synth",
            "--out",
            out_dir,
            "--institutions",
            "4",
            "--authors",
            "20",
            "--venues",
            "1",
            "--years",
            "2011",
            "--papers-per-venue-year",
            "5",
            "--no-truth",
        ]
    )
    assert code == EXIT_OK
    assert sorted(os.listdir(out_dir)) == ["affiliations.txt", "papers.txt"]


# --- start-up -----------------------------------------------------------


def test_the_cli_loads_no_module_the_pipeline_does_not_run():
    probe = (
        "import sys\n"
        "import instrank.cli\n"
        "unused = ('dataclasses', 'inspect', 'fractions', 'decimal', 'statistics', 'gzip',"
        " 'instrank.synth')\n"
        "print(','.join(name for name in unused if name in sys.modules))\n"
        "import instrank\n"
        "print(instrank.generate_corpus.__name__, instrank.CorpusParams.__name__)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["", "generate_corpus CorpusParams"]


def test_every_name_in_the_package_all_resolves():
    import instrank

    assert len(instrank.__all__) == len(set(instrank.__all__))
    missing = [name for name in instrank.__all__ if getattr(instrank, name, None) is None]
    assert missing == []
    # The generator and its oracles are listed and load on first access.
    assert set(instrank._SYNTH_NAMES) <= set(instrank.__all__)
    for name in ("merge_partials", "open_table"):
        assert name not in instrank.__all__
        with pytest.raises(AttributeError):
            getattr(instrank, name)
