"""Streaming readers for large delimited publication dumps.

Input files are plain or gzipped UTF-8 text, one record per line, fields
separated by a single-character delimiter (tab by default). There is no
quoting: a delimiter byte always splits fields. Files are never loaded
whole; every reader yields records one line at a time so memory stays
flat no matter how large the dump is.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass
from sys import intern
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

# Sentinel institution id assigned when the affiliation field is empty.
# Kept in raw score tables so credit is conserved, but excluded from any
# ranking-grade output.
UNKNOWN_INSTITUTION = "UNKNOWN"

MIN_YEAR = 1900
MAX_YEAR = 2100

GZIP_MAGIC = b"\x1f\x8b"

# Builds a row record without the NamedTuple's Python-level ``__new__``: one call less per row.
_new_tuple = tuple.__new__


class MalformedRowError(ValueError):
    """A data row that cannot be parsed under the configured schema."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"row {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class StreamError(OSError):
    """An I/O or decoding failure partway through a file."""

    def __init__(self, path: str, line_number: int, cause: Exception):
        super().__init__(f"{path}: read failed near row {line_number}: {cause}")
        self.path = path
        self.line_number = line_number


class DuplicatePaperIdError(ValueError):
    """The same paper id appeared twice in a filtered paper stream."""


@dataclass(frozen=True)
class TableSchema:
    """Column ordinals for one delimited table.

    Only the ordinals a given parser needs have to be set; rows may carry
    any number of extra columns beyond the configured ones. Ordinals are
    zero-based positions in the split row.
    """

    paper_id: int = 0
    year: int | None = None
    venue_id: int | None = None
    author_id: int | None = None
    institution_id: int | None = None
    delimiter: str = "\t"
    has_header: bool = False

    def __post_init__(self) -> None:
        columns = (self.paper_id, self.year, self.venue_id, self.author_id, self.institution_id)
        ordinals = [o for o in columns if o is not None]
        if any(o < 0 for o in ordinals):
            raise ValueError("column ordinals must be non-negative")
        if len(set(ordinals)) != len(ordinals):
            raise ValueError("column ordinals must be distinct within a table")
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")

    @classmethod
    def papers_default(cls) -> "TableSchema":
        """Layout of the 2016 academic-graph paper dump."""
        return cls(paper_id=0, year=3, venue_id=8)

    @classmethod
    def affiliations_default(cls) -> "TableSchema":
        """Layout of the 2016 academic-graph paper-author-affiliation dump."""
        return cls(paper_id=0, author_id=1, institution_id=2)


class PaperRecord(NamedTuple):
    paper_id: str
    year: int
    venue_id: str


class AffiliationRow(NamedTuple):
    paper_id: str
    author_id: str
    institution_id: str


class AttributedPaper(NamedTuple):
    """A filtered paper together with every affiliation row that cites it."""

    paper: PaperRecord
    affiliations: tuple[AffiliationRow, ...]


class RawRow(NamedTuple):
    line_number: int
    fields: list[str]


@dataclass
class ParseStats:
    """Counts kept while parsing one table."""

    rows: int = 0
    parsed: int = 0
    skipped: int = 0
    # Line number of the first skipped row (a header counts as row 1).
    first_skipped: int | None = None


@dataclass(frozen=True)
class YearRange:
    """Inclusive span of publication years."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"empty year range {self.low}-{self.high}")

    def __contains__(self, year: int) -> bool:
        return self.low <= year <= self.high

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.low, self.high + 1))

    @classmethod
    def parse(cls, text: str) -> "YearRange":
        """Parse ``"2011-2014"`` or a single year ``"2011"``."""
        part = text.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            return cls(int(lo), int(hi))
        year = int(part)
        return cls(year, year)


def _read_rows(
    path: str,
    schema: TableSchema,
    parse: Callable[[int, list[str]], tuple],
    strict: bool,
    stats: ParseStats | None,
) -> Iterator[tuple]:
    """The one line-reading loop: yields ``parse(line_number, fields)`` per line.

    Gzip is detected from the magic bytes, not the name. A declared header
    is consumed but still counted, so a headered file's first data row is
    row 2. A MalformedRowError from ``parse`` skips the row, or under
    ``strict`` aborts. A missing file raises FileNotFoundError on the first
    ``next``; mid-stream failures raise StreamError with the row reached.
    """
    with open(path, "rb") as raw:
        gzipped = raw.peek(2)[:2] == GZIP_MAGIC
        source = gzip.GzipFile(fileobj=raw) if gzipped else raw
        # Only "\n" ends a row; a lone "\r" is data, a trailing one is stripped.
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="\n")
        delimiter = schema.delimiter
        line_number = header = 1 if schema.has_header else 0
        skipped, aborted, first_skipped = 0, 0, None
        try:
            if header:
                stream.readline()
            for line_number, line in enumerate(stream, header + 1):
                try:
                    record = parse(line_number, line.rstrip("\r\n").split(delimiter))
                except MalformedRowError:
                    if strict:
                        aborted = 1
                        raise
                    skipped += 1
                    if first_skipped is None:
                        first_skipped = line_number
                    continue
                yield record
        except (OSError, UnicodeDecodeError, EOFError) as exc:
            raise StreamError(path, line_number + 1, exc) from exc
        finally:
            # Counted once, not per row; a strict abort's row is read, not parsed.
            if stats is not None:
                rows = line_number - header
                stats.rows += rows
                stats.parsed += rows - skipped - aborted
                stats.skipped += skipped
                stats.first_skipped = stats.first_skipped or first_skipped


def open_table(path: str, schema: TableSchema) -> Iterator[RawRow]:
    """Stream ``RawRow``s (line number, split fields) through the one reader, ``_read_rows``."""
    return _read_rows(path, schema, RawRow, False, None)


def _paper_parser(schema: TableSchema) -> Callable[[int, list[str]], PaperRecord]:
    if schema.year is None or schema.venue_id is None:
        raise ValueError("schema does not describe a papers table")
    paper_col, year_col, venue_col = schema.paper_id, schema.year, schema.venue_id
    needed = max(paper_col, year_col, venue_col) + 1

    def parse(line_number: int, fields: list[str]) -> PaperRecord:
        if len(fields) < needed:
            raise MalformedRowError(
                line_number, f"expected at least {needed} columns, got {len(fields)}"
            )
        paper_id = fields[paper_col]
        if not paper_id:
            raise MalformedRowError(line_number, "empty paper id")
        year_text = fields[year_col]
        try:
            year = int(year_text)
        except ValueError:
            raise MalformedRowError(line_number, f"year {year_text!r} is not an integer") from None
        if not MIN_YEAR <= year <= MAX_YEAR:
            raise MalformedRowError(line_number, f"year {year} outside {MIN_YEAR}-{MAX_YEAR}")
        return _new_tuple(PaperRecord, (paper_id, year, fields[venue_col]))

    return parse


def _affiliation_parser(schema: TableSchema) -> Callable[[int, list[str]], AffiliationRow]:
    if schema.author_id is None or schema.institution_id is None:
        raise ValueError("schema does not describe an affiliations table")
    paper_col, author_col = schema.paper_id, schema.author_id
    institution_col = schema.institution_id
    needed = max(paper_col, author_col, institution_col) + 1

    def parse(line_number: int, fields: list[str]) -> AffiliationRow:
        if len(fields) < needed:
            raise MalformedRowError(
                line_number, f"expected at least {needed} columns, got {len(fields)}"
            )
        paper_id = fields[paper_col]
        if not paper_id:
            raise MalformedRowError(line_number, "empty paper id")
        author_id = fields[author_col]
        if not author_id:
            raise MalformedRowError(line_number, "empty author id")
        institution = fields[institution_col] or UNKNOWN_INSTITUTION
        return _new_tuple(AffiliationRow, (paper_id, author_id, institution))

    return parse


def parse_paper_row(row: RawRow, schema: TableSchema) -> PaperRecord:
    """Extract a PaperRecord; raises MalformedRowError with the row number."""
    return _paper_parser(schema)(*row)


def parse_affiliation_row(row: RawRow, schema: TableSchema) -> AffiliationRow:
    """Extract an AffiliationRow; empty institution becomes the UNKNOWN sentinel."""
    return _affiliation_parser(schema)(*row)


def iter_papers(
    path: str, schema: TableSchema, strict: bool = False, stats: ParseStats | None = None
) -> Iterator[PaperRecord]:
    """Parse a papers table, skipping (or, when strict, aborting on) bad rows."""
    return _read_rows(path, schema, _paper_parser(schema), strict, stats)


def iter_affiliations(
    path: str, schema: TableSchema, strict: bool = False, stats: ParseStats | None = None
) -> Iterator[AffiliationRow]:
    """Parse an affiliations table with the same skip-or-abort policy."""
    return _read_rows(path, schema, _affiliation_parser(schema), strict, stats)


def filter_papers(
    papers: Iterable[PaperRecord],
    venues: Collection[str],
    years: YearRange,
) -> Iterator[PaperRecord]:
    """Keep papers whose venue is in the set and year in the inclusive range.

    Order is preserved; an empty venue set selects nothing.
    """
    for paper in papers:
        if paper.venue_id in venues and paper.year in years:
            yield paper


def bucket_affiliations(
    papers: Iterable[PaperRecord],
    rows: Iterable[AffiliationRow],
    on_missing: Callable[[PaperRecord], None] | None = None,
) -> Iterator[tuple[PaperRecord, list[str]]]:
    """The join: each filtered paper with its flat ``[author, institution, ...]`` list.

    Memory is proportional to the filtered papers' rows, not the dump: the
    affiliation stream is consumed once, and each matching row keeps only
    its two ids, passed through ``sys.intern`` because a corpus has just a
    few thousand distinct authors and institutions. Papers come out in
    paper-stream order with their rows in file order; papers with no rows
    go to ``on_missing`` instead.
    """
    # Index the filtered papers by id.
    index: dict[str, PaperRecord] = {}
    for paper in papers:
        if paper.paper_id in index:
            raise DuplicatePaperIdError(
                f"paper id {paper.paper_id!r} appears twice in the filtered set"
            )
        index[paper.paper_id] = paper
    # Bucket the matching rows; rows of other papers are dropped as they pass.
    buckets: dict[str, list[str]] = {paper_id: [] for paper_id in index}
    for row in rows:
        # Field access, not unpacking: unpacking a tuple subclass takes the slow path.
        bucket = buckets.get(row.paper_id)
        if bucket is not None:
            bucket.append(intern(row.author_id))
            bucket.append(intern(row.institution_id))
    # Emit, popping each bucket so its memory goes as the caller works through them.
    for paper_id, paper in index.items():
        flat = buckets.pop(paper_id)
        if flat:
            yield paper, flat
        elif on_missing is not None:
            on_missing(paper)


def join_affiliations(
    papers: Iterable[PaperRecord],
    rows: Iterable[AffiliationRow],
    on_missing: Callable[[PaperRecord], None] | None = None,
) -> Iterator[AttributedPaper]:
    """Attach affiliation rows to each filtered paper, in paper-stream order.

    Built on ``bucket_affiliations``; each paper's ``AffiliationRow``s are
    rebuilt from its flat list only as the paper is emitted.
    """
    for paper, flat in bucket_affiliations(papers, rows, on_missing):
        ids = iter(flat)
        yield AttributedPaper(
            paper,
            tuple(
                AffiliationRow(paper.paper_id, author_id, institution_id)
                for author_id, institution_id in zip(ids, ids)
            ),
        )
