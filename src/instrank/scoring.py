"""Per-year institution credit tables.

Each paper carries one unit of credit, split equally over its distinct
authors, then over each author's distinct institutions on that paper.
Credit is exact: a table holds integer numerators over one common
denominator, so accumulation is associative and any order of the paper
stream gives a bit-identical table. ``ScoreTable`` is the one
table type: it carries a year's credit through the score file, its
read-back and aggregation, and with no year it holds the normalized
sum. ``score_venue_years`` is the one credit path, crediting each paper
as its run of rows ends (or, for a dump not grouped by paper, after
gathering the rows first); ``_credit`` holds the one attribution rule
both orders apply, and a single paper's split (``paper_shares``) is that
path run on one paper. Credit is counted per denominator, as plain integers,
and put over the lcm of the denominators seen only when the table is
built; ``over_lcm`` is that one sum, which aggregation's normalized sum
shares. No ``Fraction`` is built anywhere on this path.
Tables are keyed in sorted institution order for reproducible iteration.
``order_by_score`` is the one ordering of a score file and of every
ranking. A score file stores each score as the float of its exact value;
``stored_table`` builds, in memory, the table ``read_score_csv`` reads
back from that file, so ``pipeline`` aggregates what the separate stages
read without parsing its files again. Score and ranking files are read
back through one checked row reader (``read_checked_rows``), which
decodes each row on its own, so a bad row, bad bytes included, raises
``ingest.MalformedRowError`` naming it, the same error as a bad dump row.
Every output file, the ``instrank synth`` dumps included, is written whole
by one context manager, ``write_output``: the pipeline's files in one write
of their whole text, the dumps row by row.
"""

from __future__ import annotations

import logging
import math
import os
from contextlib import contextmanager
from operator import itemgetter
from sys import intern
from typing import Callable, Collection, Iterable, Iterator, Mapping, TextIO

from .ingest import (
    UNKNOWN_INSTITUTION,
    AttributedPaper,
    MalformedRowError,
    PaperRecord,
    RowReader,
    gather_rows,
    index_papers,
)

log = logging.getLogger(__name__)

# perfbench/prepare.py still builds ``ScoreTable(year, entries, RAW)``;
# the third argument is accepted and ignored.
RAW = "raw"


class ScoreTable:
    """Institution scores ``numerators[i] / denominator`` for one year.

    With ``year`` ``None`` the table is an aggregated result over several
    years. ``ScoreTable(year, entries)`` takes exact values (``Fraction``,
    ``int`` or ``float``) and puts them over their least common denominator;
    the third argument is ignored (see ``RAW``). ``from_numerators`` adopts
    integers already over one positive denominator. Two tables are equal
    when they hold the same year, institutions and values, whatever their
    denominators. Raw tables may carry the UNKNOWN sentinel;
    ranking-grade outputs must not. Tables are not modified once built.
    """

    __slots__ = ("year", "numerators", "denominator")

    def __init__(self, year: int | None, entries: Mapping[str, float], tag: object = None) -> None:
        ratios = {institution: value.as_integer_ratio() for institution, value in entries.items()}
        denominator = math.lcm(*{d for _, d in ratios.values()})
        self.year = year
        self.numerators = {
            institution: n * (denominator // d) for institution, (n, d) in ratios.items()
        }
        self.denominator = denominator

    @classmethod
    def from_numerators(
        cls, year: int | None, numerators: dict[str, int], denominator: int
    ) -> "ScoreTable":
        table = cls.__new__(cls)
        table.year = year
        table.numerators = numerators
        table.denominator = denominator
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        mine, theirs = self.numerators, other.numerators
        if self.year != other.year or mine.keys() != theirs.keys():
            return False
        # a/b == c/d exactly when a*d == c*b.
        own_denominator, their_denominator = self.denominator, other.denominator
        return all(
            numerator * their_denominator == theirs[institution] * own_denominator
            for institution, numerator in mine.items()
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(year={self.year!r}, "
            f"numerators={self.numerators!r}, denominator={self.denominator!r})"
        )


def over_lcm(year: int | None, parts: Collection[tuple[int, Mapping[str, int]]]) -> ScoreTable:
    """One table summing ``parts``, each a denominator and integer amounts over it.

    Every amount is put over ``math.lcm`` of the denominators (1 when there
    are none) and an institution's amounts are added, so the table is the
    same whatever order the parts come in. Institutions are in id order.
    """
    denominator = math.lcm(*(part for part, _ in parts))
    numerators: dict[str, int] = {}
    for part, amounts in parts:
        factor = denominator // part
        for institution, amount in amounts.items():
            numerators[institution] = numerators.get(institution, 0) + amount * factor
    return ScoreTable.from_numerators(year, dict(sorted(numerators.items())), denominator)


class _Credit:
    """One venue-year's credit, counted per denominator as plain integers.

    It is also the index entry of each of its credited papers, so marking
    a paper credited builds nothing per paper.
    """

    __slots__ = ("key", "amounts")

    def __init__(self, key: tuple[str, int]) -> None:
        self.key = key
        self.amounts: dict[int, dict[str, int]] = {}


def _credit(
    where: dict[str, object], paper_id: str, ids: list, credited: dict[tuple[str, int], _Credit]
) -> None:
    """Credit one paper, ``ids`` being ``[key, author, institution, ...]``, then mark it credited.

    The attribution rule: each of the paper's distinct authors holds an
    equal part, split equally over that author's distinct institutions on
    the paper, so each of them earns ``1/(authors * institutions)``,
    counted under that denominator. Institution ids are interned as they
    enter a count.
    """
    key = ids[0]
    credit = credited.get(key)
    if credit is None:
        credit = credited[key] = _Credit(key)
    by_author: dict[str, dict[str, None]] = {}
    pairs = iter(ids)
    next(pairs)
    for author, institution in zip(pairs, pairs):
        institutions = by_author.get(author)
        if institutions is None:
            by_author[author] = {institution: None}
        else:
            institutions[institution] = None
    amounts = credit.amounts
    author_count = len(by_author)
    for institutions in by_author.values():
        denominator = author_count * len(institutions)
        counts = amounts.get(denominator)
        if counts is None:
            counts = amounts[denominator] = {}
        for institution in institutions:
            if institution in counts:
                counts[institution] += 1
            else:
                counts[intern(institution)] = 1
    where[paper_id] = credit


def _credit_runs(
    where: dict[str, object],
    rows: Iterable[tuple[str, str, str]],
    credited: dict[tuple[str, int], _Credit],
) -> bool:
    """Credit each paper when its run of consecutive rows ends.

    Rows of papers not in ``where`` are dropped. Returns False, leaving
    the rest unread, at the first row of a paper already credited: the
    rows are not grouped by paper.
    """
    run_id = None
    run: list = []
    for paper_id, author_id, institution_id in rows:
        if paper_id != run_id:
            entry = where.get(paper_id)
            if entry is None:
                continue
            if entry.__class__ is _Credit:
                return False
            if run_id is not None:
                _credit(where, run_id, run, credited)
            run_id = paper_id
            run = [entry]
        run.append(author_id)
        run.append(institution_id)
    if run_id is not None:
        _credit(where, run_id, run, credited)
    return True


def score_venue_years(
    papers: Iterable[PaperRecord],
    read_rows: RowReader,
    on_missing: Callable[[PaperRecord], None] | None = None,
) -> dict[tuple[str, int], ScoreTable]:
    """Raw tables keyed by (venue, year) for every venue-year that has credit.

    ``papers`` is the filtered paper stream, and ``read_rows`` streams the
    affiliation rows of the paper ids it is given. The papers are indexed
    first (``index_papers``), each by its venue-year key. A dump whose
    rows are grouped by paper is then credited run by run: when a paper's
    run of rows ends it is credited and its index entry becomes its
    venue-year's credit, so only the current run's ids are held and score
    memory is proportional to the filtered papers, not to their rows. A
    row of a paper already credited means the rows are not grouped: that
    pass is closed, its credit dropped, and ``read_rows`` is called again
    to gather every paper's rows first (``gather_rows``), as lists on the
    same index, which are then credited in paper-stream order. Either way
    the attribution rule (see ``_credit``) applies to each paper's rows:
    duplicate (author, institution) pairs count once, and the UNKNOWN
    sentinel is credited like any other institution, so a paper's credit
    sums to exactly 1. Each venue-year is put over the lcm of its
    denominators once, at the end. Filtered papers without rows go to
    ``on_missing``, in paper-stream order, and earn no credit, so a
    venue-year whose papers all lack rows has no table. Tables are in the
    order of each venue-year's first credited paper in the paper stream.
    """
    where: dict[str, object] = index_papers(papers)
    credited: dict[tuple[str, int], _Credit] = {}
    rows = read_rows(where)
    if not _credit_runs(where, rows, credited):
        close = getattr(rows, "close", None)
        if close is not None:
            close()
        credited.clear()
        for paper_id, entry in where.items():
            if entry.__class__ is _Credit:
                where[paper_id] = entry.key
        for paper_id, ids in gather_rows(where, read_rows).items():
            if len(ids) == 1:
                where[paper_id] = ids[0]
            else:
                _credit(where, paper_id, ids, credited)
    ordered: dict[tuple[str, int], _Credit] = {}
    for paper_id, entry in where.items():
        if entry.__class__ is _Credit:
            if entry.key not in ordered:
                ordered[entry.key] = entry
        elif on_missing is not None:
            on_missing(PaperRecord(paper_id, entry[1], entry[0]))
    # The index goes before the tables are built, so they can reuse its memory.
    del where
    return {key: over_lcm(key[1], credit.amounts.items()) for key, credit in ordered.items()}


def paper_shares(paper: AttributedPaper) -> ScoreTable:
    """One paper's unit of credit split per the attribution rule, as a table.

    This is ``score_venue_years`` on the one paper; a paper with no rows
    gets an empty table.
    """
    record = paper.paper
    tables = score_venue_years([record], lambda _paper_ids: paper.affiliations)
    return tables.get((record.venue_id, record.year)) or ScoreTable.from_numerators(
        record.year, {}, 1
    )


def normalize(table: ScoreTable) -> ScoreTable:
    """Scale entries so the maximum is exactly 1.

    The scaled table is the same numerators over the top one. An empty
    table normalizes to an empty table. A table with no score above zero
    has no meaningful scale; it is passed through unchanged with a warning.
    """
    numerators = table.numerators
    top = max(numerators.values(), default=None)
    if top is None:
        return ScoreTable.from_numerators(table.year, {}, 1)
    if top <= 0:
        log.warning("year %s: no score above zero, normalization is a no-op", table.year)
        return table
    return ScoreTable.from_numerators(table.year, numerators, top)


def drop_unknown(table: ScoreTable) -> ScoreTable:
    """Remove the UNKNOWN sentinel before any ranking-grade use."""
    if UNKNOWN_INSTITUTION not in table.numerators:
        return table
    kept = {
        institution: numerator
        for institution, numerator in table.numerators.items()
        if institution != UNKNOWN_INSTITUTION
    }
    return type(table).from_numerators(table.year, kept, table.denominator)


def order_by_score(entries: Mapping[str, int | float]) -> list[tuple[str, int | float]]:
    """Entries ordered by score, highest first, ties by id ascending.

    Sorting by id and then stably by score alone gives the same order as a
    ``(score, id)`` key without building key tuples. Tables pass their
    integer numerators, so the sort compares plain integers.
    """
    ordered = sorted(entries.items())
    ordered.sort(key=itemgetter(1), reverse=True)
    return ordered


def score_file_name(venue_id: str, year: int) -> str:
    return f"scores_{venue_id}_{year}.csv"


def stored_table(table: ScoreTable) -> ScoreTable:
    """``table`` as its score file stores it, equal to what ``read_score_csv`` reads back.

    The UNKNOWN sentinel is dropped and each score becomes the float
    ``numerator / denominator`` that ``write_score_csv`` writes. Every such
    float is exact, so the table holds the floats over their lcm, in id
    order, as the reader builds it: same keys in the same order, same
    numerators, same denominator.
    """
    visible = drop_unknown(table)
    denominator = visible.denominator
    return ScoreTable(
        table.year,
        {
            institution: numerator / denominator
            for institution, numerator in sorted(visible.numerators.items())
        },
    )


def write_score_csv(table: ScoreTable, path: str) -> None:
    """Write ``institution_id,score`` sorted by score descending, id ascending.

    The UNKNOWN sentinel never reaches disk. Scores are written as
    shortest round-tripping floats, so a rerun is byte-identical. Integer
    true division is correctly rounded, so ``numerator / denominator`` is
    the float of the exact score, and the file stores ``stored_table(table)``.
    Rows are ordered by the exact scores.
    """
    visible = drop_unknown(table)
    denominator = visible.denominator
    rows = "".join(
        f"{institution},{numerator / denominator!r}\n"
        for institution, numerator in order_by_score(visible.numerators)
    )
    with write_output(path) as out:
        out.write("institution_id,score\n" + rows)


@contextmanager
def write_output(path: str) -> Iterator[TextIO]:
    """The one writer of an output file: what the block writes, whole, or the file as it was.

    ``with write_output(path) as out:`` yields ``<path>.tmp`` open for text
    as UTF-8 with LF line ends; when the block ends the file is renamed onto
    ``path``, so a crash mid-write never leaves ``path`` cut short. A block,
    write or rename that raises removes ``<path>.tmp`` again before the
    error leaves the ``with``.
    """
    temporary = path + ".tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as out:
            yield out
        os.replace(temporary, path)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:  # never written, or not ours to remove
            pass
        raise


def read_checked_rows(
    path: str, header: str, what: str
) -> Iterator[tuple[int, str, str, str, float]]:
    """Yield ``(row, lead, institution, score text, score)`` per row of a score or ranking file.

    ``header`` is the file's first line. When it has a column before
    ``institution_id`` (a ranking's rank), ``lead`` is the text before the
    row's first comma, else it is empty; the institution id is the rest up
    to the last comma, so it may hold commas. Line ends, LF or CRLF, are
    stripped and blank lines are skipped. A row that is not UTF-8, a bad
    header (``what`` names the kind of file), a score that is not a finite
    number >= 0, an empty institution id, or an institution listed twice
    raises ``MalformedRowError`` naming the file and the row (the header
    is row 1).
    """
    has_lead = not header.startswith("institution_id,")
    seen: set[str] = set()

    def decode(raw: bytes, line_number: int) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRowError(path, line_number, f"not UTF-8: {exc}") from None

    with open(path, "rb") as src:
        first = decode(src.readline(), 1).strip()
        if first != header:
            raise MalformedRowError(path, 1, f"not a {what} header: {first!r}")
        for line_number, raw in enumerate(src, start=2):
            line = decode(raw, line_number).rstrip("\r\n")
            if not line:
                continue
            lead = ""
            if has_lead:
                lead, _, line = line.partition(",")
            institution, _, text = line.rpartition(",")
            try:
                score = float(text)
            except ValueError:
                score = math.nan
            if not 0 <= score < math.inf:
                raise MalformedRowError(
                    path, line_number, f"score {text!r} is not a finite number >= 0"
                )
            if not institution:
                raise MalformedRowError(path, line_number, "empty institution id")
            if institution in seen:
                raise MalformedRowError(
                    path, line_number, f"institution {institution!r} is listed twice"
                )
            seen.add(institution)
            yield line_number, lead, institution, text, score


def read_score_csv(path: str, year: int) -> ScoreTable:
    """Read a table written by write_score_csv back into exact form.

    Every score on disk is a float, so a dyadic rational, and the table
    holds it exactly. The rows are checked by ``read_checked_rows``.
    """
    scores = {
        institution: score
        for _, _, institution, _, score in read_checked_rows(
            path, "institution_id,score", "score table"
        )
    }
    return ScoreTable(year, dict(sorted(scores.items())))
