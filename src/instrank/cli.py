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
import configparser
import logging
import os
import sys
from typing import Sequence

from .aggregate import (
    AggregationSpec,
    InvalidPError,
    KTooLargeError,
    RankList,
    YearTables,
    ranking_file_name,
    read_ranking_csv,
    run_aggregation,
    write_ranking_csv,
    write_ranking_json,
)
from .evaluate import (
    EvalReport,
    GroundTruth,
    ZeroIdealError,
    evaluate_rankings,
    ndcg_at_k,  # noqa: F401 - perfbench/traced.py wraps it on this module
    render_report_csv,
    render_report_text,
)
from .ingest import (
    MAX_YEAR,
    MIN_YEAR,
    DuplicatePaperIdError,
    MalformedRowError,
    ParseStats,
    TableSchema,
    YearRange,
    filter_papers,  # noqa: F401 - perfbench/traced.py wraps it on this module
    iter_affiliations,
    iter_papers,
    join_affiliations,  # noqa: F401 - perfbench/traced.py wraps it on this module
)
from .scoring import (
    MalformedFileError,
    ScoreTable,
    paper_shares,  # noqa: F401 - perfbench/traced.py wraps it on this module
    read_score_csv,
    score_file_name,
    score_venue_years,
    write_score_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_ZERO_TRUTH = 5

DEFAULT_METHODS = "normalized_sum, borda:sum, fagin"

# Venue ids become part of output file names.
UNSAFE_VENUE_CHARS = {"/", "\\", os.sep, "\0"}

DELIMITER_NAMES = {"tab": "\t", "\\t": "\t", "comma": ",", "space": " ", "pipe": "|"}

# Every key a config file or --set may name, by section; anything else is
# rejected, so a misspelt key cannot be silently ignored.
_TABLE_KEYS = {"paper_id", "delimiter", "has_header"}
CONFIG_KEYS = {
    "inputs": {"papers", "affiliations"},
    "selection": {"venues", "train_years", "truth_year"},
    "papers_table": _TABLE_KEYS | {"year", "venue_id"},
    "affiliations_table": _TABLE_KEYS | {"author_id", "institution_id"},
    "aggregation": {"methods", "k"},
    "run": {"strict"},
    "output": {"dir"},
}


class ConfigError(Exception):
    pass


class PipelineConfig:
    def __init__(
        self,
        papers_path: str,
        affiliations_path: str,
        papers_schema: TableSchema,
        affiliations_schema: TableSchema,
        venues: list[str],
        train_years: YearRange,
        truth_year: int,
        specs: list[AggregationSpec] | None = None,
        k: int = 20,
        output_dir: str = "out",
        strict: bool = False,
    ) -> None:
        self.papers_path = papers_path
        self.affiliations_path = affiliations_path
        self.papers_schema = papers_schema
        self.affiliations_schema = affiliations_schema
        self.venues = venues
        self.train_years = train_years
        self.truth_year = truth_year
        self.specs = [] if specs is None else specs
        self.k = k
        self.output_dir = output_dir
        self.strict = strict

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PipelineConfig):
            return NotImplemented
        return vars(self) == vars(other)

    def validate(self) -> None:
        if self.truth_year <= self.train_years.high:
            raise ConfigError(
                f"training years {self.train_years.low}-{self.train_years.high} "
                f"must precede the truth year {self.truth_year}"
            )
        # The papers reader skips every row outside these years, so a span
        # beyond them could only score empty tables.
        span = self.scored_years()
        if span.low < MIN_YEAR or span.high > MAX_YEAR:
            raise ConfigError(
                f"scored years {span.low}-{span.high} (train_years through truth_year) "
                f"must lie within {MIN_YEAR}-{MAX_YEAR}"
            )
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.specs:
            raise ConfigError("no aggregation methods configured")
        if not self.venues:
            raise ConfigError("no venues configured")
        # Ranking files and report columns are named by label, so two specs
        # with one label would overwrite each other.
        by_label: dict[str, AggregationSpec] = {}
        for spec in self.specs:
            first = by_label.setdefault(spec.label, spec)
            if first is not spec:
                raise ConfigError(
                    f"methods {first.text or first!r} and {spec.text or spec!r} "
                    f"share the label {spec.label!r}"
                )
        seen_venues: set[str] = set()
        for venue_id in self.venues:
            if venue_id in seen_venues:
                raise ConfigError(f"venue id {venue_id!r} is listed twice")
            seen_venues.add(venue_id)
            if venue_id in ("", ".", "..") or any(
                char in venue_id for char in UNSAFE_VENUE_CHARS
            ):
                raise ConfigError(
                    f"venue id {venue_id!r} cannot be part of an output file name"
                )

    def scored_years(self) -> YearRange:
        # Scores are needed for the training span and the held-out year.
        return YearRange(self.train_years.low, self.truth_year)


def _parse_delimiter(text: str) -> str:
    return DELIMITER_NAMES.get(text.strip().lower(), text)


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _schema_from_section(
    section: configparser.SectionProxy | None, default: TableSchema, kind: str
) -> TableSchema:
    if section is None:
        return default
    try:
        common = {
            "delimiter": _parse_delimiter(section.get("delimiter", "tab")),
            "has_header": _parse_bool(section.get("has_header", "false")),
        }
        if kind == "papers":
            return TableSchema(
                paper_id=section.getint("paper_id", default.paper_id),
                year=section.getint("year", default.year),
                venue_id=section.getint("venue_id", default.venue_id),
                **common,
            )
        return TableSchema(
            paper_id=section.getint("paper_id", default.paper_id),
            author_id=section.getint("author_id", default.author_id),
            institution_id=section.getint("institution_id", default.institution_id),
            **common,
        )
    except ValueError as exc:
        raise ConfigError(f"bad {kind} table schema: {exc}") from exc


def load_config(path: str, overrides: Sequence[str] = ()) -> PipelineConfig:
    """Read an INI config file, applying ``section.key=value`` overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    loaded = parser.read(path, encoding="utf-8")
    if not loaded:
        raise ConfigError(f"cannot read config file {path!r}")
    for override in overrides:
        try:
            target, value = override.split("=", 1)
            section, key = target.split(".", 1)
        except ValueError:
            raise ConfigError(f"override must look like section.key=value: {override!r}")
        if section not in parser:
            parser.add_section(section)
        parser[section][key] = value
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"config {path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"config {path}: unknown key {key!r} in section [{section}]")
    try:
        inputs = parser["inputs"]
        selection = parser["selection"]
        papers_path = inputs["papers"]
        affiliations_path = inputs["affiliations"]
        venues = [v.strip() for v in selection["venues"].split(",") if v.strip()]
        train_years = YearRange.parse(selection["train_years"])
        truth_year = int(selection["truth_year"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config {path}: {exc!r}") from exc
    papers_schema = _schema_from_section(
        parser["papers_table"] if "papers_table" in parser else None,
        TableSchema.papers_default(),
        "papers",
    )
    affiliations_schema = _schema_from_section(
        parser["affiliations_table"] if "affiliations_table" in parser else None,
        TableSchema.affiliations_default(),
        "affiliations",
    )
    methods_text = parser.get("aggregation", "methods", fallback=DEFAULT_METHODS)
    try:
        specs = [
            AggregationSpec.parse(text)
            for text in (part.strip() for part in methods_text.split(","))
            if text
        ]
        k = parser.getint("aggregation", "k", fallback=20)
        strict = parser.getboolean("run", "strict", fallback=False)
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    config = PipelineConfig(
        papers_path=papers_path,
        affiliations_path=affiliations_path,
        papers_schema=papers_schema,
        affiliations_schema=affiliations_schema,
        venues=venues,
        train_years=train_years,
        truth_year=truth_year,
        specs=specs,
        k=k,
        output_dir=parser.get("output", "dir", fallback="out"),
        strict=strict,
    )
    return config


def _describe_rows(stats: ParseStats) -> str:
    text = f"{stats.rows} rows, {stats.skipped} skipped"
    if stats.skipped:
        text += f" (first at row {stats.first_skipped})"
    return text


def cmd_score(config: PipelineConfig) -> int:
    """One streaming pass over both dumps, emitting per-venue-year tables.

    ``score_venue_years`` runs the first three phases: index the papers
    the reader keeps by venue and year, read and bucket only their
    affiliation rows, credit each venue-year. Both readers still check and
    count every row. The fourth writes one score file per venue and scored
    year.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    span = config.scored_years()
    venue_set = set(config.venues)
    paper_stats = ParseStats()
    affil_stats = ParseStats()
    kept = unattributed = 0

    def count_kept(papers):
        nonlocal kept
        for paper in papers:
            kept += 1
            yield paper

    def count_missing(_paper) -> None:
        nonlocal unattributed
        unattributed += 1

    papers = iter_papers(
        config.papers_path, config.papers_schema, config.strict, paper_stats, venue_set, span
    )

    def read_rows(paper_ids):
        return iter_affiliations(
            config.affiliations_path,
            config.affiliations_schema,
            config.strict,
            affil_stats,
            paper_ids,
        )

    try:
        tables = score_venue_years(count_kept(papers), read_rows, count_missing)
    except DuplicatePaperIdError as exc:
        raise DuplicatePaperIdError(f"{config.papers_path}: {exc}") from exc
    for venue_id in config.venues:
        for year in span:
            table = tables.get((venue_id, year)) or ScoreTable.from_numerators(year, {}, 1)
            write_score_csv(
                table, os.path.join(config.output_dir, score_file_name(venue_id, year))
            )
    print(
        f"papers: {_describe_rows(paper_stats)}; "
        f"affiliations: {_describe_rows(affil_stats)}; "
        f"papers kept by the venue/year filter: {kept}; "
        f"filtered papers without affiliations: {unattributed}",
        file=sys.stderr,
    )
    return EXIT_OK


def _read_tables(
    config: PipelineConfig, venue_id: str, years: YearRange
) -> dict[int, ScoreTable]:
    return {
        year: read_score_csv(
            os.path.join(config.output_dir, score_file_name(venue_id, year)), year
        )
        for year in years
    }


def _aggregate(spec: AggregationSpec, years: YearTables, venue_id: str) -> RankList:
    """``run_aggregation``; a spec that does not fit the data is named by venue and method."""
    try:
        return run_aggregation(spec, years)
    except (KTooLargeError, InvalidPError) as exc:
        raise type(exc)(f"venue {venue_id!r}, method {spec.label}: {exc}") from exc


def _rank_venue(
    config: PipelineConfig,
    venue_id: str,
    specs: Sequence[AggregationSpec],
    years: YearTables,
) -> dict[str, RankList]:
    """Aggregate one venue's training years with every spec and write each ranking."""
    rankings = {}
    for spec in specs:
        ranking = _aggregate(spec, years, venue_id)
        base = os.path.join(config.output_dir, ranking_file_name(venue_id, spec.label))
        write_ranking_csv(ranking, base)
        write_ranking_json(ranking, spec, base[: -len(".csv")] + ".json")
        rankings[spec.label] = ranking
    return rankings


def cmd_aggregate(config: PipelineConfig, method: str | None = None) -> int:
    """Aggregate the training-year score files into final rankings."""
    if method is None:
        specs = config.specs
    else:
        try:
            specs = [AggregationSpec.parse(method)]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    for venue_id in config.venues:
        tables = _read_tables(config, venue_id, config.train_years)
        _rank_venue(config, venue_id, specs, YearTables(list(tables.values())))
    return EXIT_OK


def _build_report(config: PipelineConfig) -> EvalReport:
    rankings_by_venue = {}
    truth_by_venue = {}
    for venue_id in config.venues:
        truth_table = read_score_csv(
            os.path.join(config.output_dir, score_file_name(venue_id, config.truth_year)),
            config.truth_year,
        )
        truth_by_venue[venue_id] = GroundTruth.from_score_table(truth_table)
        rankings_by_venue[venue_id] = {
            spec.label: read_ranking_csv(
                os.path.join(config.output_dir, ranking_file_name(venue_id, spec.label)),
                spec.label,
            )
            for spec in config.specs
        }
    return evaluate_rankings(rankings_by_venue, truth_by_venue, config.k)


def _write_report(config: PipelineConfig, report: EvalReport) -> None:
    text = render_report_text(report)
    for name, content in (("report.txt", text), ("report.csv", render_report_csv(report))):
        path = os.path.join(config.output_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.write(content)
    sys.stdout.write(text)


def cmd_evaluate(config: PipelineConfig) -> EvalReport:
    """Score every configured method's ranking files against the held-out year."""
    report = _build_report(config)
    _write_report(config, report)
    return report


def cmd_pipeline(config: PipelineConfig) -> int:
    """score, aggregate, evaluate, then predict the year after the truth year.

    Each score file is read back once and each venue-year normalized once;
    everything after that runs on those views in memory: every venue's
    rankings are written first, then the report, then the predictions,
    which aggregate every scored year.
    """
    cmd_score(config)
    years_by_venue = {}
    rankings_by_venue = {}
    truth_by_venue = {}
    for venue_id in config.venues:
        tables = _read_tables(config, venue_id, config.scored_years())
        years = years_by_venue[venue_id] = YearTables(list(tables.values()))
        training = years.through(config.train_years.high)
        rankings_by_venue[venue_id] = _rank_venue(config, venue_id, config.specs, training)
        truth_by_venue[venue_id] = GroundTruth.from_score_table(tables[config.truth_year])
    report = evaluate_rankings(rankings_by_venue, truth_by_venue, config.k)
    _write_report(config, report)
    by_label = {spec.label: spec for spec in config.specs}
    for row in report.rows:
        venue_id = row.venue_id
        prediction = _aggregate(by_label[row.winner], years_by_venue[venue_id], venue_id)
        write_ranking_csv(
            prediction,
            os.path.join(config.output_dir, f"prediction_{venue_id}.csv"),
        )
    return EXIT_OK


def _parse_count_range(text: str) -> tuple[int, int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return int(low), int(high)
    value = int(text)
    return value, value


def cmd_synth(args: argparse.Namespace) -> int:
    # Only this command generates corpora; the others never load the generator.
    from .synth import CorpusParams, generate_corpus

    try:
        params = CorpusParams(
            num_institutions=args.institutions,
            num_authors=args.authors,
            num_venues=args.venues,
            years=YearRange.parse(args.years),
            papers_per_venue_year=args.papers_per_venue_year,
            authors_per_paper=_parse_count_range(args.authors_per_paper),
            affils_per_author=_parse_count_range(args.affils_per_author),
            strength_drift=args.drift,
            unknown_rate=args.unknown_rate,
            filler_width=args.filler_width,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    generated = generate_corpus(params, args.out, compute_realized=not args.no_truth)
    emitted = [generated.papers_path, generated.affiliations_path]
    if generated.truth.realized is not None:
        for year, table in generated.truth.realized.items():
            path = os.path.join(args.out, f"truth_{year}.csv")
            write_score_csv(table, path)
            emitted.append(path)
    for path in emitted:
        print(path)
    return EXIT_OK


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
    synth.add_argument("--filler-width", type=int, default=0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--no-truth",
        action="store_true",
        help="stream to disk without computing realized truth (for huge corpora)",
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
        sub.add_argument("--k", type=int, default=None, help="evaluation cutoff")
        sub.add_argument("--strict", action="store_true", help="abort on malformed rows")
        sub.add_argument("--output-dir", default=None)
        if name == "aggregate":
            sub.add_argument("--method", default=None, help="run a single method")

    return parser


def _configured(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config, args.set)
    if args.k is not None:
        config.k = args.k
    if args.strict:
        config.strict = True
    if args.output_dir is not None:
        config.output_dir = args.output_dir
    config.validate()
    return config


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        config = _configured(args)
        if args.command == "score":
            return cmd_score(config)
        if args.command == "aggregate":
            return cmd_aggregate(config, args.method)
        if args.command == "evaluate":
            cmd_evaluate(config)
            return EXIT_OK
        return cmd_pipeline(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    except (InvalidPError, KTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MalformedRowError, MalformedFileError, DuplicatePaperIdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ZeroIdealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_TRUTH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
