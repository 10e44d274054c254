"""Rank research institutions from publication records.

The pipeline streams delimited paper/affiliation dumps, splits each
paper's unit of credit over authors and their institutions, builds
per-year score tables, aggregates the years into a consensus ranking
(normalized score sum, Borda variants, or Fagin top-k), and evaluates
rankings as NDCG against a held-out year.
"""

from .aggregate import (
    AggregationSpec,
    RankList,
    RankedItem,
    borda_aggregate,
    fagin_topk,
    normalized_sum,
    rank_venue,
    run_aggregation,
    to_ranking,
)
from .evaluate import (
    EvalReport,
    EvalRow,
    dcg_at_k,
    evaluate_rankings,
    ndcg_at_k,
)
from .ingest import (
    UNKNOWN_INSTITUTION,
    AffiliationRow,
    AttributedPaper,
    PaperRecord,
    TableSchema,
    YearRange,
    filter_papers,
    join_affiliations,
)
from .scoring import ScoreTable, normalize, paper_shares

__version__ = "0.1.0"

# The corpus generator and its oracles load on first access, so running a
# pipeline never imports them.
_SYNTH_NAMES = ("CorpusParams", "generate_corpus", "naive_score", "naive_topk")


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AffiliationRow",
    "AggregationSpec",
    "AttributedPaper",
    "CorpusParams",
    "EvalReport",
    "EvalRow",
    "PaperRecord",
    "RankList",
    "RankedItem",
    "ScoreTable",
    "TableSchema",
    "UNKNOWN_INSTITUTION",
    "YearRange",
    "borda_aggregate",
    "dcg_at_k",
    "evaluate_rankings",
    "fagin_topk",
    "filter_papers",
    "generate_corpus",
    "join_affiliations",
    "naive_score",
    "naive_topk",
    "ndcg_at_k",
    "normalize",
    "normalized_sum",
    "paper_shares",
    "rank_venue",
    "run_aggregation",
    "to_ranking",
]
