"""Streaming readers for large delimited publication dumps.

Input files are plain or gzipped UTF-8 text, one record per line, fields
separated by a single-character delimiter (tab by default). There is no
quoting: a delimiter byte always splits fields. Files are never loaded
whole; every reader yields records one line at a time so memory stays
flat no matter how large the dump is.

``_read_rows`` is the one reader, with one inline loop per table (papers
and affiliations): every row is checked and counted in place, with
no call per row, and a bad row goes to one skip-or-abort policy. The
selection is pushed into the loops, so most of a whole-graph dump is
validated and dropped without building a record: ``iter_papers`` takes
the venue set and year span, and ``iter_affiliations`` the paper ids the
join asks for. The join indexes the filtered papers first
(``index_papers``), each by its shared ``(venue_id, year)`` key, and
scoring credits their rows run by run as they stream past; only a dump
whose rows are not grouped by paper has them gathered first
(``gather_rows``), each paper's two ids per row appended to one list
headed by its key.
"""

from __future__ import annotations

import io
from sys import intern
from typing import Callable, Collection, Iterable, Iterator, Literal, NamedTuple

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

    def __init__(self, path: str, line_number: int, reason: str):
        super().__init__(f"{path}: row {line_number}: {reason}")
        self.path = path
        self.line_number = line_number
        self.reason = reason


class StreamError(OSError):
    """An I/O failure partway through a file, or a row that is not UTF-8."""

    def __init__(self, path: str, line_number: int, cause: Exception):
        what = "not UTF-8 at" if isinstance(cause, UnicodeDecodeError) else "read failed near"
        super().__init__(f"{path}: {what} row {line_number}: {cause}")
        self.path = path
        self.line_number = line_number


class DuplicatePaperIdError(ValueError):
    """The same paper id appeared twice in a filtered paper stream."""


class TableSchema(NamedTuple):
    """Column ordinals for one delimited table; ``check`` checks them, not the constructor.

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

    def check(self) -> None:
        ordinals = [o for o in self[:5] if o is not None]  # the five column fields
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


# The join's source of affiliation rows: given the filtered paper ids, it
# streams ``(paper_id, author_id, institution_id)`` tuples of those papers.
# It is called once, or twice when the rows of some paper are not
# contiguous: the first pass is then abandoned (closed, if it has a
# ``close``) and the second is read to the end.
RowReader = Callable[[Collection[str]], Iterable[tuple[str, str, str]]]


class ParseStats:
    """Counts of the last read of a table, set as it ends or is closed; reads replace, not add."""

    def __init__(
        self, rows: int = 0, skipped: int = 0, first_skipped: int | None = None, *, kept: int = 0
    ) -> None:
        self.rows = rows
        self.skipped = skipped
        # Line number of the first skipped row (a header counts as row 1).
        self.first_skipped = first_skipped
        # Records yielded: the rows that passed the checks and the selection.
        self.kept = kept

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParseStats):
            return NotImplemented
        return vars(self) == vars(other)


class YearRange:
    """Inclusive span of publication years."""

    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int) -> None:
        if low > high:
            raise ValueError(f"empty year range {low}-{high}")
        self.low = low
        self.high = high

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YearRange):
            return NotImplemented
        return self.low == other.low and self.high == other.high

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __contains__(self, year: int) -> bool:
        return self.low <= year <= self.high

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.low, self.high + 1))

    @classmethod
    def parse(cls, text: str) -> "YearRange":
        """Parse ``"2011-2014"`` or a single year ``"2011"``."""
        return cls(*parse_range(text))


def parse_range(text: str) -> tuple[int, int]:
    """``"low-high"`` or one number ``"n"`` as inclusive (low, high); the order is not checked."""
    low, dash, high = text.strip().partition("-")
    return int(low), int(high if dash else low)


def _read_rows(
    path: str,
    schema: TableSchema,
    table: Literal["papers", "affiliations"],
    strict: bool,
    stats: ParseStats | None,
    venues: Collection[str] | None = None,
    years: YearRange | None = None,
    paper_ids: Collection[str] | None = None,
) -> Iterator[tuple]:
    """The one line-reading loop per table: ``"papers"`` or ``"affiliations"``.

    Gzip is detected from the magic bytes, not the name. A declared header
    is consumed but still counted, so a headered file's first data row is
    row 2. Every row is checked in place, with no call per row; a bad row
    is skipped and counted, or under ``strict`` aborts with a
    MalformedRowError naming the file and the row. Only rows that pass the
    selection (``venues`` and ``years`` for papers, ``paper_ids`` for
    affiliations; None keeps all) become records, counted as ``kept``. A
    missing file raises FileNotFoundError on the first ``next``; mid-stream
    failures raise StreamError with the row reached, or with the row that
    is not UTF-8.
    """
    with open(path, "rb") as raw:
        source = raw
        if raw.peek(2)[:2] == GZIP_MAGIC:
            import gzip  # only gzipped dumps pay for the import

            source = gzip.GzipFile(fileobj=raw)
        # Only "\n" ends a row; a lone "\r" is data, a trailing one is stripped.
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="\n")
        delimiter = schema.delimiter
        line_number = header = 1 if schema.has_header else 0
        lines = enumerate(stream, header + 1)
        skipped = kept = 0
        first_skipped = None

        def skip(number: int, reason: str) -> None:
            """The one skip-or-abort policy for a row that fails its table's checks."""
            nonlocal skipped, first_skipped
            if strict:
                raise MalformedRowError(path, number, reason)
            skipped += 1
            if first_skipped is None:
                first_skipped = number

        try:
            if header:
                stream.readline()
            if table == "papers":
                paper_col, year_col, venue_col = schema.paper_id, schema.year, schema.venue_id
                needed = max(paper_col, year_col, venue_col) + 1
                low, high = (years.low, years.high) if years is not None else (MIN_YEAR, MAX_YEAR)
                for line_number, line in lines:
                    # Columns past the last one read are left unsplit.
                    fields = line.rstrip("\r\n").split(delimiter, needed)
                    if len(fields) < needed:
                        skip(line_number, f"expected at least {needed} columns, got {len(fields)}")
                        continue
                    paper_id = fields[paper_col]
                    if not paper_id:
                        skip(line_number, "empty paper id")
                        continue
                    year_text = fields[year_col]
                    try:
                        year = int(year_text)
                    except ValueError:
                        skip(line_number, f"year {year_text!r} is not an integer")
                        continue
                    if not MIN_YEAR <= year <= MAX_YEAR:
                        skip(line_number, f"year {year} outside {MIN_YEAR}-{MAX_YEAR}")
                        continue
                    venue_id = fields[venue_col]
                    if low <= year <= high and (venues is None or venue_id in venues):
                        kept += 1
                        yield _new_tuple(PaperRecord, (paper_id, year, venue_id))
            else:
                paper_col, author_col = schema.paper_id, schema.author_id
                institution_col = schema.institution_id
                needed = max(paper_col, author_col, institution_col) + 1
                for line_number, line in lines:
                    fields = line.rstrip("\r\n").split(delimiter, needed)
                    if len(fields) < needed:
                        skip(line_number, f"expected at least {needed} columns, got {len(fields)}")
                        continue
                    paper_id = fields[paper_col]
                    if not paper_id:
                        skip(line_number, "empty paper id")
                        continue
                    author_id = fields[author_col]
                    if not author_id:
                        skip(line_number, "empty author id")
                        continue
                    if paper_ids is None or paper_id in paper_ids:
                        kept += 1
                        yield paper_id, author_id, fields[institution_col] or UNKNOWN_INSTITUTION
        except UnicodeDecodeError as exc:
            # The text reader decodes ahead in chunks, so its error names no
            # row: decode the rows again from the start to find it.
            number = 0
            try:
                source.seek(0)
                for number, line in enumerate(source, 1):
                    line.decode("utf-8")
            except UnicodeDecodeError as row_exc:
                raise StreamError(path, number, row_exc) from exc
            except (OSError, EOFError) as read_exc:
                raise StreamError(path, number + 1, read_exc) from exc
            raise StreamError(path, number + 1, exc) from exc
        except (OSError, EOFError) as exc:
            raise StreamError(path, line_number + 1, exc) from exc
        finally:
            # Counted once, not per row; a strict abort's row is read, not skipped.
            if stats is not None:
                stats.rows = line_number - header
                stats.skipped = skipped
                stats.kept = kept
                stats.first_skipped = first_skipped


def iter_papers(
    path: str,
    schema: TableSchema,
    strict: bool = False,
    stats: ParseStats | None = None,
    venues: Collection[str] | None = None,
    years: YearRange | None = None,
) -> Iterator[PaperRecord]:
    """Parse a papers table, skipping (or, when strict, aborting on) bad rows.

    Every row is checked and counted in ``stats``; only papers whose venue
    is in ``venues`` and year in ``years`` are yielded (None selects all),
    in file order. An empty venue set selects nothing.
    """
    if schema.year is None or schema.venue_id is None:
        raise ValueError("schema does not describe a papers table")
    schema.check()
    return _read_rows(path, schema, "papers", strict, stats, venues=venues, years=years)


def iter_affiliations(
    path: str,
    schema: TableSchema,
    strict: bool = False,
    stats: ParseStats | None = None,
    paper_ids: Collection[str] | None = None,
) -> Iterator[tuple[str, str, str]]:
    """Parse an affiliations table with the same skip-or-abort policy.

    Yields plain ``(paper_id, author_id, institution_id)`` tuples, an empty
    institution becoming ``UNKNOWN_INSTITUTION``. Every row is checked and
    counted; only rows of ``paper_ids`` are yielded (None yields all).
    """
    if schema.author_id is None or schema.institution_id is None:
        raise ValueError("schema does not describe an affiliations table")
    schema.check()
    return _read_rows(path, schema, "affiliations", strict, stats, paper_ids=paper_ids)


def filter_papers(
    papers: Iterable[PaperRecord],
    venues: Collection[str],
    years: YearRange,
) -> Iterator[PaperRecord]:
    """Keep papers whose venue is in the set and year in the inclusive range.

    Order is preserved; an empty venue set selects nothing. This is the
    selection ``iter_papers`` applies while reading, over records in memory.
    """
    for paper in papers:
        if paper.venue_id in venues and paper.year in years:
            yield paper


def index_papers(papers: Iterable[PaperRecord]) -> dict[str, tuple[str, int]]:
    """Each filtered paper id mapped to its ``(venue_id, year)`` key, in stream order.

    A key is one tuple shared by every paper of its venue-year, so nothing
    is built per paper. A paper id listed twice raises
    ``DuplicatePaperIdError``.
    """
    where: dict[str, tuple[str, int]] = {}
    keys: dict[tuple[str, int], tuple[str, int]] = {}
    for paper_id, year, venue_id in papers:
        if paper_id in where:
            raise DuplicatePaperIdError(f"paper id {paper_id!r} appears twice in the filtered set")
        key = (venue_id, year)
        where[paper_id] = keys.setdefault(key, key)
    return where


def gather_rows(where: dict, read_rows: RowReader) -> dict[str, list]:
    """Bucket the indexed papers' rows: each entry becomes ``[key, author, institution, ...]``.

    ``where`` is an index as ``index_papers`` builds it; its entries are
    replaced in place and it is returned. ``read_rows`` is called once with
    it. Each row of an indexed paper appends its two ids, in file order,
    through ``sys.intern`` (a corpus has a few thousand distinct authors
    and institutions); other rows are dropped. A list of length 1 is a
    paper with no rows.
    """
    for paper_id, key in where.items():
        where[paper_id] = [key]
    for paper_id, author_id, institution_id in read_rows(where):
        ids = where.get(paper_id)
        if ids is not None:
            ids.append(intern(author_id))
            ids.append(intern(institution_id))
    return where


def join_affiliations(
    papers: Iterable[PaperRecord],
    read_rows: RowReader,
    on_missing: Callable[[PaperRecord], None] | None = None,
) -> Iterator[AttributedPaper]:
    """Attach affiliation rows to each filtered paper, in paper-stream order.

    Built on ``index_papers`` and ``gather_rows``; each paper's record and
    its ``AffiliationRow``s are rebuilt from its id list only as the paper
    is emitted. Papers with no rows go to ``on_missing`` instead.
    """
    for paper_id, ids in gather_rows(index_papers(papers), read_rows).items():
        venue_id, year = ids[0]
        paper = PaperRecord(paper_id, year, venue_id)
        if len(ids) == 1:
            if on_missing is not None:
                on_missing(paper)
            continue
        pairs = iter(ids[1:])
        yield AttributedPaper(
            paper,
            tuple(
                AffiliationRow(paper_id, author_id, institution_id)
                for author_id, institution_id in zip(pairs, pairs)
            ),
        )
