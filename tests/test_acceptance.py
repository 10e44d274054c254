"""Acceptance suite: one test per shipping criterion.

Each test prints one [ACCEPTANCE] line; the assertions carry the stated
tolerances. These run in the normal pytest session and are expected to
stay green on a 1-CPU container.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from conftest import exact, make_table
from instrank.aggregate import (
    AggregationSpec,
    YearTables,
    borda_combine,
    borda_points,
    normalized_sum,
    rank_venue,
    ranking_file_name,
    read_ranking_csv,
    run_aggregation,
    to_ranking,
)
from instrank.cli import EXIT_OK, load_config, main
from instrank.evaluate import (
    EvalReport,
    EvalRow,
    evaluate_rankings,
    ndcg_at_k,
    render_report_csv,
    render_report_text,
)
from instrank.ingest import (
    UNKNOWN_INSTITUTION,
    AffiliationRow,
    AttributedPaper,
    PaperRecord,
    TableSchema,
    YearRange,
    iter_affiliations,
    iter_papers,
    join_affiliations,
)
from instrank.scoring import (
    ScoreTable,
    paper_shares,
    read_score_csv,
    score_file_name,
    score_venue_years,
)
from instrank.synth import CorpusParams, generate_corpus, naive_score, naive_topk

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "report_table_golden.txt")


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def _announce(name: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n[ACCEPTANCE] {name}: FAIL")
            raise
        with capsys.disabled():
            print(f"\n[ACCEPTANCE] {name}: PASS")

    return _announce


def test_report_layout_matches_the_golden_file(announce):
    with announce("report renderer reproduces the reference layout byte-exactly"):
        report = EvalReport(
            20,
            [
                EvalRow(
                    "SIGIR",
                    {"Proposed": 0.823, "Borda Count": 0.74, "Fagin": 0.80},
                    "Proposed",
                ),
                EvalRow(
                    "SIGMOD",
                    {"Proposed": 0.876, "Borda Count": 0.724, "Fagin": 0.712},
                    "Proposed",
                ),
                EvalRow(
                    "SIGCOMM",
                    {"Proposed": 0.713, "Borda Count": 0.703, "Fagin": 0.649},
                    "Proposed",
                ),
            ],
        )
        rendered = render_report_text(report).encode("utf-8")
        golden = Path(GOLDEN).read_bytes()
        assert rendered == golden


def assert_bitwise_equal(mine: ScoreTable, reference: ScoreTable) -> None:
    assert mine.year == reference.year
    assert mine == reference
    assert list(mine.numerators) == list(reference.numerators)
    assert [n / mine.denominator for n in mine.numerators.values()] == [
        n / reference.denominator for n in reference.numerators.values()
    ]


def test_streaming_scores_equal_the_naive_oracle(announce):
    with announce("streaming scores match the naive oracle bitwise on 20 random corpora"):
        rng = random.Random(20260817)
        started = time.perf_counter()
        for trial in range(20):
            num_venues = rng.randint(1, 5)
            span = YearRange(2011, 2011 + rng.randint(0, 4))
            n_years = span.high - span.low + 1
            ppvy = rng.randint(1, max(1, 2000 // (num_venues * n_years)))
            num_authors = rng.randint(4, 300)
            params = CorpusParams(
                num_institutions=rng.randint(1, 30),
                num_authors=num_authors,
                num_venues=num_venues,
                years=span,
                papers_per_venue_year=ppvy,
                authors_per_paper=(1, rng.randint(1, min(4, num_authors))),
                affils_per_author=(1, rng.randint(1, 3)),
                unknown_rate=rng.choice([0.0, 0.15]),
                rng_seed=trial,
            )
            with tempfile.TemporaryDirectory() as tmp:
                corpus = generate_corpus(params, tmp)
                venues = {f"V{i}" for i in range(num_venues)}

                def streams():
                    papers = iter_papers(
                        corpus.papers_path,
                        TableSchema.papers_default(),
                        strict=True,
                        venues=venues,
                        years=span,
                    )

                    def read_rows(paper_ids):
                        return iter_affiliations(
                            corpus.affiliations_path,
                            TableSchema.affiliations_default(),
                            strict=True,
                            paper_ids=paper_ids,
                        )

                    return papers, read_rows

                # The scoring path that ``instrank score`` runs, from the same streams.
                streamed = score_venue_years(*streams())
                joined = list(join_affiliations(*streams()))
                for venue in venues:
                    reference = naive_score(
                        paper for paper in joined if paper.paper.venue_id == venue
                    )
                    for year in span:
                        mine = streamed.get((venue, year))
                        assert (mine is None) == (year not in reference)
                        if mine is not None:
                            assert_bitwise_equal(mine, reference[year])
                # The realized truth pools every venue of the year.
                assert corpus.realized is not None
                papers, read_rows = streams()
                pooled = score_venue_years(
                    (paper._replace(venue_id="*") for paper in papers), read_rows
                )
                for year in span:
                    assert_bitwise_equal(pooled[("*", year)], corpus.realized[year])
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


def test_fagin_always_returns_the_naive_top_k(announce):
    with announce("fagin top-k equals the naive top-k on 500 random instances"):
        rng = random.Random(1729)
        started = time.perf_counter()
        for trial in range(500):
            n = rng.randint(1, 500)
            n_lists = rng.randint(1, 10)
            universe = [f"I{j:03d}" for j in range(n)]
            tables = []
            for year in range(2011, 2011 + n_lists):
                entries = {
                    inst: Fraction(rng.randint(0, 40), rng.randint(1, 8))
                    for inst in universe
                    if rng.random() < 0.9
                }
                tables.append(make_table(year, entries))
            union = {inst for table in tables for inst in table.numerators}
            if not union:
                tables[0] = make_table(2011, {universe[0]: 1})
                union = {universe[0]}
            k = rng.randint(1, min(50, len(union)))
            mine = run_aggregation(AggregationSpec("fagin", fagin_k=k), YearTables(tables))
            reference = naive_topk(tables, k)
            assert {i.institution_id for i in mine.items} == {
                i.institution_id for i in reference.items
            }
            assert [i.institution_id for i in mine.items] == [
                i.institution_id for i in reference.items
            ]
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"fagin comparison took {elapsed:.1f}s"


def _random_full_orders(rng, universe, n_lists, max_adjacent_swaps=3):
    base = universe[:]
    rng.shuffle(base)
    orders = []
    for _ in range(n_lists):
        order = base[:]
        for _ in range(rng.randint(0, max_adjacent_swaps)):
            pos = rng.randrange(len(order) - 1) if len(order) > 1 else 0
            if len(order) > 1:
                order[pos], order[pos + 1] = order[pos + 1], order[pos]
        orders.append(order)
    return orders


BORDA_CASES = (
    ("sum", None),
    ("median", None),
    ("geometric_mean", None),
    ("p_norm", 2.0),
)


def test_borda_unanimity(announce):
    with announce("borda variants respect unanimous pairwise preferences (500 instances)"):
        rng = random.Random(31415)
        for _ in range(500):
            universe = [f"I{j:02d}" for j in range(rng.randint(2, 12))]
            orders = _random_full_orders(rng, universe, rng.randint(1, 5))
            positions = [{institution: rank for rank, institution in enumerate(order)} for order in orders]
            points = borda_points(orders)
            for variant, p in BORDA_CASES:
                ranking = borda_combine(points, variant, p=p)
                agg_pos = {institution: rank for rank, institution in enumerate(ranking.ids())}
                for x, y in combinations(universe, 2):
                    if all(pos[x] < pos[y] for pos in positions):
                        assert agg_pos[x] < agg_pos[y]
                    elif all(pos[y] < pos[x] for pos in positions):
                        assert agg_pos[y] < agg_pos[x]


def test_borda_permutation_invariance(announce):
    with announce("borda variants ignore the order of input lists (500 instances)"):
        rng = random.Random(2718)
        for _ in range(500):
            universe = [f"I{j:02d}" for j in range(rng.randint(2, 12))]
            orders = _random_full_orders(rng, universe, rng.randint(2, 6), 10)
            shuffled = orders[:]
            rng.shuffle(shuffled)
            for variant, p in BORDA_CASES:
                direct = borda_combine(borda_points(orders), variant, p=p)
                reordered = borda_combine(borda_points(shuffled), variant, p=p)
                assert direct == reordered


def test_borda_p1_matches_sum_order(announce):
    with announce("p-norm at p=1 sorts exactly like the plain sum (500 instances)"):
        rng = random.Random(161803)
        for _ in range(500):
            universe = [f"I{j:02d}" for j in range(rng.randint(2, 20))]
            orders = []
            for _ in range(rng.randint(1, 6)):
                members = [inst for inst in universe if rng.random() < 0.8]
                rng.shuffle(members)
                orders.append(members)
            if not any(orders):
                continue
            points = borda_points(orders)
            by_sum = borda_combine(points, "sum")
            by_p1 = borda_combine(points, "p_norm", p=1.0)
            assert by_sum.ids() == by_p1.ids()


def test_ndcg_reference_values_and_properties(announce):
    with announce("ndcg hits its reference values and stays monotone and bounded"):
        rng = random.Random(977)
        # Ideal ordering scores exactly 1.0.
        for _ in range(1000):
            ids = [f"I{j}" for j in range(rng.randint(1, 15))]
            relevance = {i: rng.randint(0, 9) for i in ids}
            if not any(relevance.values()):
                relevance[ids[0]] = 1
            truth = to_ranking(make_table(2015, relevance))
            ideal_order = [
                inst
                for inst, _ in sorted(
                    relevance.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            assert ndcg_at_k(ideal_order, truth, rng.randint(1, len(ids))) == 1.0

        # Three-item worst case against brute force over all 6 orders.
        truth = to_ranking(make_table(2015, {"A": 3, "B": 2, "C": 1}))
        brute = {
            order: ndcg_at_k(list(order), truth, 3) for order in permutations("ABC")
        }
        worst = min(brute.values())
        assert abs(worst - 0.7899980042460358) < 1e-9
        assert abs(ndcg_at_k(["C", "B", "A"], truth, 3) - worst) < 1e-9

        # Bounds and adjacent-swap monotonicity.
        checked = 0
        while checked < 1000:
            ids = [f"I{j}" for j in range(rng.randint(2, 12))]
            relevance = {i: rng.random() for i in ids}
            truth = to_ranking(make_table(2015, relevance))
            order = ids[:]
            rng.shuffle(order)
            k = rng.randint(1, len(ids))
            value = ndcg_at_k(order, truth, k)
            assert 0.0 <= value <= 1.0 + 1e-12
            pos = rng.randrange(len(order) - 1)
            first, second = order[pos], order[pos + 1]
            if relevance[first] < relevance[second]:
                before = ndcg_at_k(order, truth, len(order))
                order[pos], order[pos + 1] = second, first
                assert ndcg_at_k(order, truth, len(order)) > before
            checked += 1


def test_normalized_sum_scale_invariance(announce):
    with announce("normalized sum is bitwise invariant to per-year rescaling"):
        rng = random.Random(515)
        for _ in range(100):
            universe = [f"I{j:02d}" for j in range(rng.randint(1, 20))]
            tables = []
            for year in range(2011, 2011 + rng.randint(1, 5)):
                entries = {
                    inst: Fraction(rng.randint(0, 30), rng.randint(1, 6))
                    for inst in universe
                    if rng.random() < 0.9
                }
                tables.append(make_table(year, entries))
            baseline = normalized_sum(YearTables(tables))
            for constant in (1e-6, 3, 1e6):
                target = rng.randrange(len(tables))
                factor = Fraction(constant)
                scaled = [
                    make_table(
                        table.year,
                        {
                            inst: value * factor
                            for inst, value in exact(table).items()
                        },
                    )
                    if index == target
                    else table
                    for index, table in enumerate(tables)
                ]
                rescaled = normalized_sum(YearTables(scaled))
                assert rescaled == baseline
                assert [n / rescaled.denominator for n in rescaled.numerators.values()] == [
                    n / baseline.denominator for n in baseline.numerators.values()
                ]


def test_share_conservation_at_scale(announce):
    with announce("credit shares sum to exactly 1 on 100000 random papers"):
        rng = random.Random(8128)
        pool = [f"I{j}" for j in range(8)] + [UNKNOWN_INSTITUTION]
        for serial in range(100_000):
            paper = PaperRecord(f"P{serial}", 2014, "V0")
            rows = []
            for author_index in range(rng.randint(1, 5)):
                author_id = f"A{author_index}"
                for _ in range(rng.randint(1, 4)):
                    rows.append(
                        AffiliationRow(paper.paper_id, author_id, rng.choice(pool))
                    )
            shares = paper_shares(AttributedPaper(paper, tuple(rows)))
            assert sum(shares.numerators.values()) == shares.denominator
            floats = (n / shares.denominator for n in shares.numerators.values())
            assert abs(math.fsum(floats) - 1.0) < 1e-9


def test_memory_stays_bounded_on_a_gigabyte_corpus(announce, tmp_path):
    with announce("scoring a ~1 GB dump stays under 256 MB resident"):
        params = CorpusParams(
            num_institutions=50,
            num_authors=20000,
            num_venues=50,
            years=YearRange(2011, 2015),
            papers_per_venue_year=5000,
            authors_per_paper=(2, 4),
            affils_per_author=(1, 2),
            unknown_rate=0.02,
            filler_width=170,
            rng_seed=99,
        )
        corpus = generate_corpus(params, str(tmp_path), compute_realized=False)
        size = os.path.getsize(corpus.affiliations_path)
        assert size >= 1.0e9, f"affiliation dump only {size / 1e9:.2f} GB"
        out_dir = tmp_path / "out"
        config_path = tmp_path / "run.ini"
        config_path.write_text(
            "[inputs]\n"
            f"papers = {corpus.papers_path}\n"
            f"affiliations = {corpus.affiliations_path}\n"
            "\n[selection]\n"
            "venues = V0\n"
            "train_years = 2011\n"
            "truth_year = 2012\n"
            "\n[output]\n"
            f"dir = {out_dir}\n",
            encoding="utf-8",
        )
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import resource, sys\n"
            "from instrank.cli import main\n"
            "code = main(['score', '--config', sys.argv[1]])\n"
            "print('RSS_KB', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n",
            encoding="utf-8",
        )
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, str(probe), str(config_path)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        elapsed = time.perf_counter() - started
        assert result.returncode == EXIT_OK, result.stderr
        rss_kb = int(result.stdout.split("RSS_KB")[1].strip())
        assert rss_kb < 256 * 1024, f"peak RSS {rss_kb / 1024:.0f} MB"
        assert elapsed < 300.0, f"scoring took {elapsed:.0f}s"
        # The filtered set really was small and fully scored.
        table = read_score_csv(
            os.path.join(str(out_dir), score_file_name("V0", 2011)), 2011
        )
        assert table.numerators


def test_pipeline_selects_a_consistent_winner(announce, tmp_path):
    with announce("end-to-end run picks the method with the best held-out NDCG"):
        params = CorpusParams(
            num_institutions=30,
            num_authors=800,
            num_venues=3,
            years=YearRange(2011, 2015),
            papers_per_venue_year=150,
            authors_per_paper=(1, 4),
            affils_per_author=(1, 2),
            unknown_rate=0.1,
            rng_seed=424242,
        )
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
        out_dir = tmp_path / "out"
        config_path = tmp_path / "run.ini"
        config_path.write_text(
            "[inputs]\n"
            f"papers = {corpus.papers_path}\n"
            f"affiliations = {corpus.affiliations_path}\n"
            "\n[selection]\n"
            "venues = V0, V1, V2\n"
            "train_years = 2011-2014\n"
            "truth_year = 2015\n"
            "\n[aggregation]\n"
            "methods = normalized_sum, borda:sum, fagin\n"
            "k = 20\n"
            "\n[output]\n"
            f"dir = {out_dir}\n",
            encoding="utf-8",
        )
        assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK

        values: dict[str, dict[str, float]] = {}
        report_csv = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert report_csv[0] == "venue,method,ndcg@20"
        for line in report_csv[1:]:
            venue, label, value = line.split(",")
            values.setdefault(venue, {})[label] = float(value)
        assert set(values) == {"V0", "V1", "V2"}

        report_txt = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
        labels = report_txt[1].split()[2:]
        assert labels == ["normalized_sum", "borda_sum", "fagin"]
        config = load_config(str(config_path))
        for line in report_txt[2:]:
            cells = line.split()
            venue = cells[0]
            starred = [i for i, cell in enumerate(cells[1:]) if cell.startswith("*")]
            assert len(starred) == 1
            winner_label = labels[starred[0]]
            winner_value = values[venue][winner_label]
            for label, value in values[venue].items():
                assert 0.0 <= value <= 1.0 + 1e-12
                assert winner_value >= value
            # The written prediction is the winning method over all scored years.
            winning_spec = next(s for s in config.specs if s.label == winner_label)
            tables = [
                read_score_csv(
                    os.path.join(str(out_dir), score_file_name(venue, year)), year
                )
                for year in range(2011, 2016)
            ]
            expected = run_aggregation(winning_spec, YearTables(tables))
            prediction = (out_dir / f"prediction_{venue}.csv").read_text(encoding="utf-8")
            got_ids = [line.split(",")[1] for line in prediction.splitlines()[1:]]
            assert got_ids == expected.ids()


def test_pipeline_files_equal_the_in_memory_protocol(announce, tmp_path):
    with announce("pipeline rankings and report equal rank_venue and evaluate_rankings"):
        params = CorpusParams(
            num_institutions=40,
            num_authors=600,
            num_venues=3,
            years=YearRange(2011, 2015),
            papers_per_venue_year=80,
            unknown_rate=0.05,
            rng_seed=8080,
        )
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        corpus = generate_corpus(params, str(corpus_dir), compute_realized=False)
        out_dir = tmp_path / "out"
        config_path = tmp_path / "run.ini"
        config_path.write_text(
            "[inputs]\n"
            f"papers = {corpus.papers_path}\n"
            f"affiliations = {corpus.affiliations_path}\n"
            "\n[selection]\n"
            "venues = V0, V1, V2\n"
            "train_years = 2011-2014\n"
            "truth_year = 2015\n"
            "\n[aggregation]\n"
            "methods = normalized_sum, borda:sum, borda:median, "
            "borda:geometric_mean, borda:p_norm:2, fagin\n"
            "k = 10\n"
            "\n[output]\n"
            f"dir = {out_dir}\n",
            encoding="utf-8",
        )
        assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK
        config = load_config(str(config_path))

        def read_back(venue: str, year: int) -> ScoreTable:
            return read_score_csv(str(out_dir / score_file_name(venue, year)), year)

        rankings = {
            venue: rank_venue(
                venue,
                YearTables([read_back(venue, year) for year in config.train_years]),
                config.specs,
            )
            for venue in config.venues
        }
        truth = {
            venue: to_ranking(read_back(venue, config.truth_year))
            for venue in config.venues
        }
        report = evaluate_rankings(rankings, truth, config.k)
        assert (out_dir / "report.csv").read_text(encoding="utf-8") == render_report_csv(report)
        assert (out_dir / "report.txt").read_text(encoding="utf-8") == render_report_text(report)
        for venue in config.venues:
            for spec in config.specs:
                written = read_ranking_csv(str(out_dir / ranking_file_name(venue, spec.label)))
                assert written.ids() == rankings[venue][spec.label].ids()
