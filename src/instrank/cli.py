"""Command-line front-end: synth, score, aggregate, evaluate, pipeline.

Exit codes are part of the contract: 0 success, 2 configuration error,
3 I/O error, 4 parse failure under --strict, a paper id listed twice
among the filtered papers, or a malformed score or ranking file (named
with its row), 5 all-zero ground truth.
All outputs are UTF-8 with LF line endings and rerunning any command on
unchanged inputs reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from typing import Callable, Sequence

from .aggregate import (
    InvalidPError,
    KTooLargeError,
    RankList,
    YearTables,
    rank_venue,
    ranking_file_name,
    read_ranking_csv,
    run_aggregation,  # noqa: F401 - perfbench/traced.py wraps it on this module
    to_ranking,
    write_ranking_csv,
    write_ranking_json,
)
from .config import ConfigError, PipelineConfig, load_config
from .evaluate import (
    EvalReport,
    ZeroIdealError,
    evaluate_rankings,
    ndcg_at_k,  # noqa: F401 - perfbench/traced.py wraps it on this module
    render_report_csv,
    render_report_text,
)
from .ingest import (
    DuplicatePaperIdError,
    MalformedRowError,
    ParseStats,
    YearRange,
    filter_papers,  # noqa: F401 - perfbench/traced.py wraps it on this module
    iter_affiliations,
    iter_papers,
    join_affiliations,  # noqa: F401 - perfbench/traced.py wraps it on this module
    parse_range,
)
from .scoring import (
    ScoreTable,
    paper_shares,  # noqa: F401 - perfbench/traced.py wraps it on this module
    read_score_csv,
    score_file_name,
    score_venue_years,
    write_output,
    write_score_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_ZERO_TRUTH = 5

# Flags that stand for one config key each, by argparse dest; they are
# applied after every --set, so a flag wins.
SHORTHANDS = {
    "k": "aggregation.k",
    "strict": "run.strict",
    "output_dir": "output.dir",
    "method": "aggregation.methods",
}

# Stage hand-offs, as the files store them; a stage without one reads the files.
TableSource = Callable[[str, int], ScoreTable]
Rankings = dict[str, dict[str, RankList]]


def _describe_rows(stats: ParseStats) -> str:
    text = f"{stats.rows} rows, {stats.skipped} skipped"
    if stats.skipped:
        text += f" (first at row {stats.first_skipped})"
    return text


def cmd_score(config: PipelineConfig) -> dict[tuple[str, int], ScoreTable]:
    """Stream both dumps into per-venue-year tables and write them.

    ``score_venue_years`` runs the first three phases: index the papers
    the reader keeps by venue and year, read only their affiliation rows,
    credit each paper into its venue-year. Both readers still check and
    count every row. The affiliations may be read twice (see
    ``RowReader``); each pass sets the counts of one ``ParseStats`` (the
    first pass is closed before the second starts), so the summary
    reports the last pass and no row is counted twice. The fourth phase
    writes one score file per venue and scored year and returns the
    tables they store (``write_score_csv``), by (venue, year).
    """
    os.makedirs(config.output_dir, exist_ok=True)
    span = config.scored_years()
    venue_set = set(config.venues)
    paper_stats = ParseStats()
    affil_stats = ParseStats()
    papers = iter_papers(
        config.papers_path, config.papers_schema, config.strict, paper_stats, venue_set, span
    )
    read_rows = functools.partial(
        iter_affiliations,
        config.affiliations_path,
        config.affiliations_schema,
        config.strict,
        affil_stats,
    )
    try:
        tables = score_venue_years(papers, read_rows)
    except DuplicatePaperIdError as exc:
        raise DuplicatePaperIdError(f"{config.papers_path}: {exc}") from exc
    # A credited paper's shares, UNKNOWN included, sum to exactly 1: a table totals its papers.
    credited = sum(sum(t.numerators.values()) // t.denominator for t in tables.values())
    for venue_id in config.venues:
        for year in span:
            table = tables.get((venue_id, year)) or ScoreTable.from_numerators(year, {}, 1)
            path = os.path.join(config.output_dir, score_file_name(venue_id, year))
            tables[venue_id, year] = write_score_csv(table, path)
    print(
        f"papers: {_describe_rows(paper_stats)}; "
        f"affiliations: {_describe_rows(affil_stats)}; "
        f"papers kept by the venue/year filter: {paper_stats.kept}; "
        f"filtered papers without affiliations: {paper_stats.kept - credited}",
        file=sys.stderr,
    )
    return tables


def _read_table(config: PipelineConfig, venue_id: str, year: int) -> ScoreTable:
    return read_score_csv(os.path.join(config.output_dir, score_file_name(venue_id, year)), year)


def cmd_aggregate(
    config: PipelineConfig, table: TableSource | None = None, rankings: Rankings | None = None
) -> None:
    """Rank each venue's training years by every spec and write the rankings.

    A venue's rankings are dropped once written, unless the caller passes
    ``rankings``: then they are kept there by venue and label. A spec that
    does not fit a venue leaves it and every later venue without ranking
    files, but every venue is ranked: one error names each that fails.
    """
    table = table or functools.partial(_read_table, config)
    failures = []
    for venue_id in config.venues:
        try:
            ranked = rank_venue(
                venue_id, YearTables([table(venue_id, y) for y in config.train_years]), config.specs
            )
        except (KTooLargeError, InvalidPError) as exc:
            failures.append(exc)
            continue
        if not failures:
            for spec in config.specs:
                base = os.path.join(config.output_dir, ranking_file_name(venue_id, spec.label))
                write_ranking_csv(ranked[spec.label], base)
                write_ranking_json(ranked[spec.label], spec, base[: -len(".csv")] + ".json")
            if rankings is not None:
                rankings[venue_id] = ranked
        # Else the next venue would be ranked with this one's rankings still alive.
        del ranked
    if failures:
        raise type(failures[0])("; ".join(map(str, failures))) from failures[0]


def _build_report(
    config: PipelineConfig, table: TableSource | None = None, rankings: Rankings | None = None
) -> EvalReport:
    table = table or functools.partial(_read_table, config)
    truth_by_venue, read = {}, {}
    for venue_id in config.venues:
        truth_by_venue[venue_id] = to_ranking(table(venue_id, config.truth_year))
        if rankings is None:
            read[venue_id] = {
                spec.label: read_ranking_csv(
                    os.path.join(config.output_dir, ranking_file_name(venue_id, spec.label))
                )
                for spec in config.specs
            }
    return evaluate_rankings(read if rankings is None else rankings, truth_by_venue, config.k)


def cmd_evaluate(
    config: PipelineConfig, table: TableSource | None = None, rankings: Rankings | None = None
) -> EvalReport:
    """Grade the rankings against the held-out year; write, print and return the report."""
    report = _build_report(config, table, rankings)
    text = render_report_text(report)
    for name, content in (("report.txt", text), ("report.csv", render_report_csv(report))):
        with write_output(os.path.join(config.output_dir, name)) as out:
            out.write(content)
    sys.stdout.write(text)
    return report


def cmd_pipeline(config: PipelineConfig) -> None:
    """Run score, aggregate and evaluate in turn on the stored tables, then predict.

    ``cmd_score`` returns the tables its files store and ``cmd_aggregate``
    fills in the rankings that evaluate grades, so no score or ranking file
    is read back. The predictions, written last, rank every scored year by
    each venue's winning method.
    """
    tables = cmd_score(config)

    def table(venue_id: str, year: int) -> ScoreTable:
        return tables[venue_id, year]

    rankings: Rankings = {}
    cmd_aggregate(config, table, rankings)
    report = cmd_evaluate(config, table, rankings)
    for venue_id, _, label in report.rows:
        winner = [spec for spec in config.specs if spec.label == label]
        years = YearTables([table(venue_id, year) for year in config.scored_years()])
        prediction = rank_venue(venue_id, years, winner)[label]
        write_ranking_csv(prediction, os.path.join(config.output_dir, f"prediction_{venue_id}.csv"))


def cmd_synth(args: argparse.Namespace) -> None:
    # Only this command generates corpora; the others never load the generator.
    from .synth import CorpusParams, generate_corpus

    try:
        params = CorpusParams(
            num_institutions=args.institutions,
            num_authors=args.authors,
            num_venues=args.venues,
            years=YearRange.parse(args.years),
            papers_per_venue_year=args.papers_per_venue_year,
            authors_per_paper=parse_range(args.authors_per_paper),
            affils_per_author=parse_range(args.affils_per_author),
            strength_drift=args.drift,
            unknown_rate=args.unknown_rate,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    generated = generate_corpus(params, args.out, compute_realized=not args.no_truth)
    emitted = [generated.papers_path, generated.affiliations_path]
    if generated.realized is not None:
        for year, table in generated.realized.items():
            path = os.path.join(args.out, f"truth_{year}.csv")
            write_score_csv(table, path)
            emitted.append(path)
    for path in emitted:
        print(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instrank",
        description="Rank institutions by publication credit and aggregate across years.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--institutions", type=int, default=50)
    synth.add_argument("--authors", type=int, default=2000)
    synth.add_argument("--venues", type=int, default=3)
    synth.add_argument("--years", default="2011-2015", help="e.g. 2011-2015")
    synth.add_argument("--papers-per-venue-year", type=int, default=100)
    synth.add_argument("--authors-per-paper", default="1-4", help="range, e.g. 1-4")
    synth.add_argument("--affils-per-author", default="1-2", help="range, e.g. 1-2")
    synth.add_argument("--drift", type=float, default=0.0)
    synth.add_argument("--unknown-rate", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--no-truth",
        action="store_true",
        help="skip computing the realized truth",
    )

    for name, help_text in (
        ("score", "stream the dumps into per-venue-year score tables"),
        ("aggregate", "aggregate score tables into final rankings"),
        ("evaluate", "compare rankings against the truth year"),
        ("pipeline", "run score, aggregate, evaluate, and predict"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="INI config file")
        sub.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override any config key",
        )
        # Shorthands for config keys; see SHORTHANDS.
        sub.add_argument("--k", type=int, help="evaluation cutoff")
        sub.add_argument(
            "--strict", action="store_const", const="true", help="abort on malformed rows"
        )
        sub.add_argument("--output-dir")
        if name == "aggregate":
            sub.add_argument("--method", help="run only these methods")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            cmd_synth(args)
        else:
            shorthands = [
                f"{key}={value}"
                for dest, key in SHORTHANDS.items()
                if (value := getattr(args, dest, None)) is not None
            ]
            config = load_config(args.config, [*args.set, *shorthands])
            # Looked up when called, so a wrapper set on the module is the one run.
            globals()[f"cmd_{args.command}"](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    except (InvalidPError, KTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MalformedRowError, DuplicatePaperIdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ZeroIdealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_TRUTH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
