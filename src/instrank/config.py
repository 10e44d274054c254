"""The run configuration: ``load_config`` reads an INI file and its overrides, runs
every check and returns an immutable ``PipelineConfig``. It is kept out of ``cli``
because, with no bytecode cache, each run compiles every module from source, and
the largest module's compile sets a small run's peak memory.
"""

from __future__ import annotations

import configparser
import os
from typing import Any, Callable, NamedTuple, Sequence

from .aggregate import AggregationSpec
from .ingest import MAX_YEAR, MIN_YEAR, TableSchema, YearRange

DEFAULT_METHODS = "normalized_sum, borda:sum, fagin"

# Venue ids become part of output file names.
UNSAFE_VENUE_CHARS = {"/", "\\", os.sep, "\0"}

DELIMITER_NAMES = {"tab": "\t", "\\t": "\t", "comma": ",", "space": " ", "pipe": "|"}

# Every key a config file or --set may name, by section; anything else is
# rejected, so a misspelt key cannot be silently ignored.
_TABLE_KEYS = {"delimiter", "has_header"}
CONFIG_KEYS = {
    "inputs": {"papers", "affiliations"},
    "selection": {"venues", "train_years", "truth_year"},
    "papers_table": _TABLE_KEYS | {"paper_id", "year", "venue_id"},
    "affiliations_table": _TABLE_KEYS | {"paper_id", "author_id", "institution_id"},
    "aggregation": {"methods", "k"},
    "run": {"strict"},
    "output": {"dir"},
}


class ConfigError(Exception):
    pass


class PipelineConfig(NamedTuple):
    """A checked run configuration; ``load_config`` builds it and runs every check."""

    papers_path: str
    affiliations_path: str
    papers_schema: TableSchema
    affiliations_schema: TableSchema
    venues: list[str]
    train_years: YearRange
    truth_year: int
    specs: list[AggregationSpec]
    k: int
    output_dir: str
    strict: bool

    def scored_years(self) -> YearRange:
        # Scores are needed for the training span and the held-out year.
        return YearRange(self.train_years.low, self.truth_year)


def _parse_delimiter(text: str) -> str:
    return DELIMITER_NAMES.get(text.strip().lower(), text)


def _parse_boolean(text: str) -> bool:
    """configparser's boolean words, any case: 1/yes/true/on and 0/no/false/off."""
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"Not a boolean: {text}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _schema_from_section(read_key: Callable, name: str, default: TableSchema) -> TableSchema:
    """The section's table layout; an absent key keeps the default's value."""
    schema = default._replace(
        delimiter=read_key(name, "delimiter", _parse_delimiter, default.delimiter),
        has_header=read_key(name, "has_header", _parse_boolean, default.has_header),
        **{
            column: read_key(name, column, int, getattr(default, column))
            for column in sorted(CONFIG_KEYS[name] - _TABLE_KEYS)
        },
    )
    try:
        schema.check()
    except ValueError as exc:
        raise ConfigError(f"bad [{name}] section: {exc}") from exc
    return schema


def load_config(path: str, overrides: Sequence[str] = ()) -> PipelineConfig:
    """Read an INI config file, applying ``section.key=value`` overrides in order.

    Values are taken literally (no ``%`` interpolation). Every default and
    every check lives here: a fault raises ``ConfigError``, so a config
    returned is one that can run.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        loaded = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file {path!r}")
    for override in overrides:
        target, equals, value = override.partition("=")
        section, dot, key = target.partition(".")
        # An empty section name would write into configparser's defaults.
        if not (equals and dot and section):
            raise ConfigError(f"override must look like section.key=value: {override!r}")
        if section not in parser:
            parser.add_section(section)
        parser[section][key] = value
    # configparser copies [DEFAULT] keys into every section; name them where they came from.
    if parser.defaults():
        raise ConfigError(f"config {path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"config {path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"config {path}: unknown key {key!r} in section [{section}]")

    def read_key(section: str, key: str, convert: Callable[[str], Any] = str, default: Any = None):
        """``convert`` of the key's text, else ``default`` (None: required); faults name the key."""
        if not parser.has_option(section, key):
            if default is not None:
                return default
            where = f"key {key!r} in section" if parser.has_section(section) else "section"
            raise ConfigError(f"config {path}: missing {where} [{section}]")
        try:
            return convert(parser[section][key])
        except ValueError as exc:
            raise ConfigError(f"config {path}: key {key!r} in section [{section}]: {exc}") from exc

    papers_path = read_key("inputs", "papers")
    affiliations_path = read_key("inputs", "affiliations")
    venues = [v.strip() for v in read_key("selection", "venues").split(",") if v.strip()]
    train_years = read_key("selection", "train_years", YearRange.parse)
    truth_year = read_key("selection", "truth_year", int)
    methods = read_key("aggregation", "methods", default=DEFAULT_METHODS).split(",")
    try:
        written = [(text, AggregationSpec.parse(text)) for text in map(str.strip, methods) if text]
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    k = read_key("aggregation", "k", int, 20)
    strict = read_key("run", "strict", _parse_boolean, False)
    papers_schema = _schema_from_section(read_key, "papers_table", TableSchema.papers_default())
    affiliations_schema = _schema_from_section(
        read_key, "affiliations_table", TableSchema.affiliations_default()
    )
    output_dir = read_key("output", "dir", default="out")
    if truth_year <= train_years.high:
        raise ConfigError(
            f"training years {train_years.low}-{train_years.high} "
            f"must precede the truth year {truth_year}"
        )
    # The papers reader skips every row outside these years, so a span
    # beyond them could only score empty tables.
    if train_years.low < MIN_YEAR or truth_year > MAX_YEAR:
        raise ConfigError(
            f"scored years {train_years.low}-{truth_year} (train_years through truth_year) "
            f"must lie within {MIN_YEAR}-{MAX_YEAR}"
        )
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not written:
        raise ConfigError("no aggregation methods configured")
    if not venues:
        raise ConfigError("no venues configured")
    # Ranking files and report columns are named by label, so two specs
    # with one label would overwrite each other.
    by_label: dict[str, str] = {}
    for text, spec in written:
        if spec.label in by_label:
            first = by_label[spec.label]
            raise ConfigError(f"methods {first!r} and {text!r} share the label {spec.label!r}")
        by_label[spec.label] = text
    seen_venues: set[str] = set()
    for venue_id in venues:
        if venue_id in seen_venues:
            raise ConfigError(f"venue id {venue_id!r} is listed twice")
        seen_venues.add(venue_id)
        if venue_id in ("", ".", "..") or any(char in venue_id for char in UNSAFE_VENUE_CHARS):
            raise ConfigError(f"venue id {venue_id!r} cannot be part of an output file name")
    # An empty directory would read and write the working directory.
    if not output_dir:
        raise ConfigError("output.dir is empty")
    return PipelineConfig(
        papers_path=papers_path,
        affiliations_path=affiliations_path,
        papers_schema=papers_schema,
        affiliations_schema=affiliations_schema,
        venues=venues,
        train_years=train_years,
        truth_year=truth_year,
        specs=[spec for _, spec in written],
        k=k,
        output_dir=output_dir,
        strict=strict,
    )
