"""Streaming table readers: schemas, strictness, filtering, joining."""

from __future__ import annotations

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rows_of
from instrank.ingest import (
    UNKNOWN_INSTITUTION,
    AffiliationRow,
    DuplicatePaperIdError,
    MalformedRowError,
    PaperRecord,
    ParseStats,
    StreamError,
    TableSchema,
    YearRange,
    filter_papers,
    iter_affiliations,
    iter_papers,
    join_affiliations,
)

PAPERS = TableSchema.papers_default()
AFFILS = TableSchema.affiliations_default()


def write_papers(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def paper_line(paper_id="P1", year="2014", venue="V0"):
    fields = [""] * 9
    fields[0] = paper_id
    fields[3] = year
    fields[8] = venue
    return "\t".join(fields)


# --- schema ------------------------------------------------------------


def test_default_schemas_use_the_dump_layout():
    assert (PAPERS.paper_id, PAPERS.year, PAPERS.venue_id) == (0, 3, 8)
    assert (AFFILS.paper_id, AFFILS.author_id, AFFILS.institution_id) == (0, 1, 2)
    assert PAPERS.delimiter == "\t" and not PAPERS.has_header


def test_schema_rejects_clashing_or_negative_ordinals():
    with pytest.raises(ValueError):
        TableSchema(paper_id=1, year=1, venue_id=2)
    with pytest.raises(ValueError):
        TableSchema(paper_id=-1)
    with pytest.raises(ValueError):
        TableSchema(delimiter=",,")


def test_year_range_parse_and_membership():
    span = YearRange.parse("2011-2014")
    assert (span.low, span.high) == (2011, 2014)
    assert 2011 in span and 2014 in span and 2015 not in span
    assert list(YearRange.parse("2012")) == [2012]
    with pytest.raises(ValueError):
        YearRange(2015, 2011)


# --- the reader: gzip, headers, stream failures ------------------------


def test_iter_affiliations_yields_rows_in_file_order(tmp_path):
    path = write_papers(tmp_path / "t.tsv", ["a\tb\tc", "d\te\tf"])
    rows = list(iter_affiliations(path, AFFILS, strict=True))
    assert rows == [("a", "b", "c"), ("d", "e", "f")]


def test_iter_affiliations_counts_the_consumed_header(tmp_path):
    schema = TableSchema(paper_id=0, author_id=1, institution_id=2, has_header=True)
    path = write_papers(tmp_path / "t.tsv", ["pid\taid\tiid", "a\tb\tc", "short"])
    stats = ParseStats()
    rows = list(iter_affiliations(path, schema, stats=stats))
    assert rows == [("a", "b", "c")]
    # The header is row 1, so the first data row is row 2 and the short one row 3.
    assert stats == ParseStats(rows=2, parsed=1, skipped=1, first_skipped=3)


def test_iter_affiliations_sniffs_gzip_by_magic_not_name(tmp_path):
    path = tmp_path / "t.tsv"  # no .gz suffix on purpose
    path.write_bytes(gzip.compress(b"a\tb\tc\nd\te\tf\n"))
    rows = list(iter_affiliations(str(path), AFFILS))
    assert rows == [("a", "b", "c"), ("d", "e", "f")]


def test_iter_affiliations_missing_file_raises_before_iteration(tmp_path):
    with pytest.raises(FileNotFoundError):
        iterator = iter_affiliations(str(tmp_path / "absent.tsv"), AFFILS)
        next(iterator)


def test_iter_affiliations_wraps_mid_stream_decode_failures(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"good\trow\tI\n\xff\xfe broken\n")
    with pytest.raises(StreamError) as info:
        list(iter_affiliations(str(path), AFFILS))
    assert info.value.path == str(path)
    assert isinstance(info.value, OSError)


def test_iter_affiliations_wraps_truncated_gzip(tmp_path):
    path = tmp_path / "t.tsv"
    payload = gzip.compress(b"a\tb\tc\n" * 200)
    path.write_bytes(payload[: len(payload) // 2])
    with pytest.raises(StreamError):
        list(iter_affiliations(str(path), AFFILS))


# --- row rules ----------------------------------------------------------


def test_iter_papers_reads_a_well_formed_row(tmp_path):
    path = write_papers(tmp_path / "p.tsv", [paper_line()])
    assert list(iter_papers(path, PAPERS, strict=True)) == [PaperRecord("P1", 2014, "V0")]


def test_iter_papers_rejects_short_bad_year_and_empty_id(tmp_path):
    path = write_papers(tmp_path / "p.tsv", [paper_line()] * 6 + ["P1\tx"])
    with pytest.raises(MalformedRowError) as info:
        list(iter_papers(path, PAPERS, strict=True))
    assert (info.value.path, info.value.line_number) == (path, 7)
    assert str(info.value) == f"{path}: row 7: expected at least 9 columns, got 2"
    for line, reason in [
        (paper_line(year="abc"), "not an integer"),
        (paper_line(year="1776"), "outside"),
        (paper_line(paper_id=""), "empty paper id"),
    ]:
        path = write_papers(tmp_path / "p.tsv", [line])
        with pytest.raises(MalformedRowError, match=reason):
            list(iter_papers(path, PAPERS, strict=True))


def test_iter_affiliations_maps_empty_institution_to_unknown(tmp_path):
    path = write_papers(tmp_path / "a.tsv", ["P1\tA1\t"])
    assert list(iter_affiliations(path, AFFILS, strict=True)) == [
        ("P1", "A1", UNKNOWN_INSTITUTION)
    ]


def test_iter_affiliations_rejects_empty_author_or_paper(tmp_path):
    for line, reason in [("P1\t\tI1", "empty author id"), ("\tA1\tI1", "empty paper id")]:
        path = write_papers(tmp_path / "a.tsv", ["P0\tA0\tI0", "P0\tA1\tI1", line])
        with pytest.raises(MalformedRowError) as info:
            list(iter_affiliations(path, AFFILS, strict=True))
        assert str(info.value) == f"{path}: row 3: {reason}"


def test_parsers_demand_a_matching_schema(tmp_path):
    path = write_papers(tmp_path / "t.tsv", ["a"])
    with pytest.raises(ValueError):
        iter_papers(path, AFFILS)
    with pytest.raises(ValueError):
        iter_affiliations(path, PAPERS)


def test_extra_trailing_columns_are_ignored(tmp_path):
    path = write_papers(tmp_path / "a.tsv", ["P1\tA1\tI1\tjunk\tmore"])
    assert list(iter_affiliations(path, AFFILS, strict=True)) == [("P1", "A1", "I1")]
    path = write_papers(tmp_path / "p.tsv", [paper_line() + "\tjunk\tmore"])
    assert list(iter_papers(path, PAPERS, strict=True)) == [PaperRecord("P1", 2014, "V0")]


# --- lenient vs strict iteration ----------------------------------------


def test_iter_papers_skips_bad_rows_and_counts_them(tmp_path):
    path = write_papers(
        tmp_path / "p.tsv",
        [paper_line("P1"), "short\trow", paper_line("P2", year="never"), paper_line("P3")],
    )
    stats = ParseStats()
    parsed = list(iter_papers(path, PAPERS, stats=stats))
    assert [p.paper_id for p in parsed] == ["P1", "P3"]
    assert (stats.rows, stats.parsed, stats.skipped) == (4, 2, 2)


def test_iter_papers_strict_aborts_with_the_row_number(tmp_path):
    path = write_papers(tmp_path / "p.tsv", [paper_line("P1"), "short"])
    with pytest.raises(MalformedRowError) as info:
        list(iter_papers(path, PAPERS, strict=True))
    assert info.value.line_number == 2


def test_iter_affiliations_same_policy(tmp_path):
    path = write_papers(tmp_path / "a.tsv", ["P1\tA1\tI1", "P2\t\tI9", "P3\tA2\t"])
    stats = ParseStats()
    rows = list(iter_affiliations(path, AFFILS, stats=stats))
    assert rows == [
        AffiliationRow("P1", "A1", "I1"),
        AffiliationRow("P3", "A2", UNKNOWN_INSTITUTION),
    ]
    assert (stats.rows, stats.parsed, stats.skipped) == (3, 2, 1)
    with pytest.raises(MalformedRowError):
        list(iter_affiliations(path, AFFILS, strict=True))


def test_strict_abort_counts_the_failing_row_as_read_not_parsed(tmp_path):
    lines = [paper_line(f"P{i}") for i in range(1, 5)] + ["short", paper_line("P9")]
    path = write_papers(tmp_path / "p.tsv", lines)
    stats = ParseStats()
    with pytest.raises(MalformedRowError) as info:
        list(iter_papers(path, PAPERS, strict=True, stats=stats))
    assert info.value.line_number == 5
    assert (stats.rows, stats.parsed, stats.skipped) == (5, 4, 0)
    assert stats.first_skipped is None


def test_parse_stats_record_the_first_skipped_row(tmp_path):
    schema = TableSchema(paper_id=0, author_id=1, institution_id=2, has_header=True)
    path = write_papers(
        tmp_path / "a.tsv", ["pid\taid\tiid", "P1\tA1\tI1", "P2\t\tI1", "P3", "P4\tA4\tI4"]
    )
    stats = ParseStats()
    assert len(list(iter_affiliations(path, schema, stats=stats))) == 2
    assert (stats.rows, stats.parsed, stats.skipped, stats.first_skipped) == (4, 2, 2, 3)
    # A second table read into the same stats adds its counts, keeps the first row.
    other = write_papers(tmp_path / "b.tsv", ["pid\taid\tiid", "P9"])
    list(iter_affiliations(other, schema, stats=stats))
    assert (stats.rows, stats.parsed, stats.skipped, stats.first_skipped) == (5, 2, 3, 3)


LONE_CR = b"P1\tA1\tI1\rjunk\nP2\tA2\tI2\n"


@pytest.mark.parametrize("compressed", [False, True])
def test_only_a_newline_ends_a_row(tmp_path, compressed):
    path = tmp_path / "a.tsv"
    path.write_bytes(gzip.compress(LONE_CR) if compressed else LONE_CR)
    stats = ParseStats()
    rows = list(iter_affiliations(str(path), AFFILS, stats=stats))
    assert rows == [AffiliationRow("P1", "A1", "I1\rjunk"), AffiliationRow("P2", "A2", "I2")]
    assert (stats.rows, stats.parsed, stats.skipped) == (2, 2, 0)


def test_strict_abort_row_counts_newlines_only(tmp_path):
    path = tmp_path / "a.tsv"
    # Universal newlines would read the text after "\r" as a row of its own.
    path.write_bytes(b"P1\tA1\tI1\rP3\tA3\tI3\nP2\t\tI2\n")
    with pytest.raises(MalformedRowError) as info:
        list(iter_affiliations(str(path), AFFILS, strict=True))
    assert info.value.line_number == 2


# --- the shared reader against a reference ------------------------------

# Field values that make rows good, short, id-less or badly dated.
FIELD_VALUES = ["", "P1", "P2", "A1", "I1", "V0", "2014", "1776", "2100", "x9", "é"]


def reference_parse(text, kind, has_header, strict):
    """Records, (rows, parsed, skipped, first_skipped) and the strict abort row.

    Built on ``str.split("\n")`` and the documented row rules, independent
    of the program's reader.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    records, rows, skipped, first_skipped, abort_row = [], 0, 0, None, None
    for number, line in enumerate(lines, 1):
        if has_header and number == 1:
            continue
        rows += 1
        fields = line.removesuffix("\r").split("\t")
        record = None
        if kind == "papers" and len(fields) >= 9 and fields[0]:
            try:
                year = int(fields[3])
            except ValueError:
                year = None
            if year is not None and 1900 <= year <= 2100:
                record = PaperRecord(fields[0], year, fields[8])
        elif kind == "affiliations" and len(fields) >= 3 and fields[0] and fields[1]:
            record = AffiliationRow(fields[0], fields[1], fields[2] or UNKNOWN_INSTITUTION)
        if record is not None:
            records.append(record)
        elif strict:
            abort_row = number
            break
        else:
            skipped += 1
            first_skipped = first_skipped or number
    return records, (rows, len(records), skipped, first_skipped), abort_row


@given(
    kind=st.sampled_from(["papers", "affiliations"]),
    rows=st.lists(
        st.one_of(
            st.lists(st.sampled_from(FIELD_VALUES), min_size=0, max_size=11),
            st.lists(st.sampled_from(FIELD_VALUES[1:]), min_size=9, max_size=10),
        ),
        max_size=25,
    ),
    has_header=st.booleans(),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    compressed=st.booleans(),
    strict=st.booleans(),
    ids=st.one_of(st.none(), st.sets(st.sampled_from(FIELD_VALUES))),
    years=st.one_of(
        st.none(),
        st.lists(st.sampled_from([1900, 2013, 2014, 2100]), min_size=2, max_size=2).map(
            lambda ends: YearRange(min(ends), max(ends))
        ),
    ),
)
@settings(max_examples=200, deadline=None)
def test_reader_matches_a_reference_over_real_files(
    tmp_path_factory, kind, rows, has_header, crlf, final_newline, compressed, strict, ids, years
):
    # ``ids`` selects venues of papers, or paper ids of affiliation rows. The
    # selection drops records only: counts and the abort row stay the reference's.
    lines = (["header\tline"] if has_header else []) + ["\t".join(row) for row in rows]
    ending = "\r\n" if crlf else "\n"
    text = ending.join(lines) + (ending if final_newline and lines else "")
    path = tmp_path_factory.mktemp("reader") / "t.tsv"
    payload = text.encode("utf-8")
    path.write_bytes(gzip.compress(payload) if compressed else payload)

    stats = ParseStats()
    if kind == "papers":
        schema = TableSchema(paper_id=0, year=3, venue_id=8, has_header=has_header)
        records = iter_papers(str(path), schema, strict, stats, ids, years)
    else:
        schema = TableSchema(paper_id=0, author_id=1, institution_id=2, has_header=has_header)
        records = iter_affiliations(str(path), schema, strict, stats, ids)
    got, abort_row = [], None
    try:
        for record in records:
            got.append(record)
    except MalformedRowError as exc:
        abort_row = exc.line_number
    expected, counts, expected_abort = reference_parse(text, kind, has_header, strict)
    if kind == "papers":
        expected = [
            paper
            for paper in expected
            if (ids is None or paper.venue_id in ids) and (years is None or paper.year in years)
        ]
    elif ids is not None:
        expected = [row for row in expected if row.paper_id in ids]
    assert got == expected
    assert (stats.rows, stats.parsed, stats.skipped, stats.first_skipped) == counts
    assert abort_row == expected_abort


# --- filtering ----------------------------------------------------------


def papers_list():
    return [
        PaperRecord("P1", 2011, "V0"),
        PaperRecord("P2", 2012, "V1"),
        PaperRecord("P3", 2013, "V0"),
        PaperRecord("P4", 2014, "V0"),
    ]


def test_filter_papers_applies_venue_and_year_window():
    kept = list(filter_papers(papers_list(), {"V0"}, YearRange(2012, 2013)))
    assert [p.paper_id for p in kept] == ["P3"]


def test_filter_papers_empty_venue_set_selects_nothing():
    assert list(filter_papers(papers_list(), set(), YearRange(1900, 2100))) == []


@given(
    st.lists(
        st.tuples(
            st.integers(2000, 2020),
            st.sampled_from(["V0", "V1", "V2"]),
        ),
        max_size=60,
    ),
    st.sets(st.sampled_from(["V0", "V1", "V2"])),
    st.integers(2000, 2020),
    st.integers(0, 10),
)
@settings(max_examples=100, deadline=None)
def test_filter_papers_matches_comprehension(raw, venues, low, width):
    papers = [PaperRecord(f"P{i}", year, venue) for i, (year, venue) in enumerate(raw)]
    span = YearRange(low, low + width)
    kept = list(filter_papers(papers, venues, span))
    assert kept == [p for p in papers if p.venue_id in venues and p.year in span]


# --- joining ------------------------------------------------------------


def test_join_groups_rows_under_their_paper_in_stream_order():
    papers = [PaperRecord("P1", 2011, "V0"), PaperRecord("P2", 2011, "V0")]
    rows = [
        AffiliationRow("P2", "A1", "I1"),
        AffiliationRow("P1", "A2", "I2"),
        AffiliationRow("P2", "A3", "I3"),
        AffiliationRow("P9", "A4", "I4"),  # not in the filtered set
    ]
    # The reader may yield rows of other papers too; the join drops them.
    joined = list(join_affiliations(papers, lambda paper_ids: rows))
    assert [a.paper.paper_id for a in joined] == ["P1", "P2"]
    assert joined[0].affiliations == (AffiliationRow("P1", "A2", "I2"),)
    assert joined[1].affiliations == (
        AffiliationRow("P2", "A1", "I1"),
        AffiliationRow("P2", "A3", "I3"),
    )


def test_join_reports_papers_without_rows_through_the_callback():
    papers = [PaperRecord("P1", 2011, "V0"), PaperRecord("P2", 2011, "V0")]
    rows = [AffiliationRow("P1", "A1", "I1")]
    orphans: list[str] = []
    joined = list(
        join_affiliations(papers, rows_of(rows), on_missing=lambda p: orphans.append(p.paper_id))
    )
    assert [a.paper.paper_id for a in joined] == ["P1"]
    assert orphans == ["P2"]


def test_join_rejects_duplicate_paper_ids():
    papers = [PaperRecord("P1", 2011, "V0"), PaperRecord("P1", 2012, "V0")]
    with pytest.raises(DuplicatePaperIdError):
        list(join_affiliations(papers, rows_of([])))


# --- end to end over files ----------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", exclude_characters="\t\r\n\x00"
                ),
                min_size=1,
                max_size=12,
            ),
            st.integers(1900, 2100),
            st.text(
                alphabet=st.characters(codec="utf-8", exclude_characters="\t\r\n\x00"),
                max_size=8,
            ),
        ),
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_paper_rows_roundtrip_through_a_real_file(tmp_path_factory, records):
    tmp_path = tmp_path_factory.mktemp("roundtrip")
    lines = [paper_line(pid, str(year), venue) for pid, year, venue in records]
    path = write_papers(tmp_path / "p.tsv", lines)
    parsed = list(iter_papers(path, PAPERS, strict=True))
    assert parsed == [PaperRecord(pid, year, venue) for pid, year, venue in records]
