"""Ranking quality measured as NDCG against a held-out year.

The truth is the held-out year as a ranking, ``to_ranking(table)``: its
scores are the gains, taken linearly as the floats the score file stores,
and its order is the ideal one that normalizes the metric into [0, 1]. An
item missing from the truth contributes nothing.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .aggregate import RankList


class ZeroIdealError(ValueError):
    """Truth with no positive relevance leaves NDCG undefined."""


def _dcg(ids: Sequence[str], relevance: Mapping[str, float], k: int) -> float:
    """Discounted cumulative gain of the first k ranked ids.

    Each id's gain is its relevance. Position i (1-based) contributes
    gain / log2(i + 1); rankings shorter than k simply stop early.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gains = []
    for position, institution in enumerate(ids[:k], start=1):
        value = relevance.get(institution, 0.0)
        if value:
            gains.append(value / math.log2(position + 1))
    return math.fsum(gains)


def _graded(truth: RankList, k: int) -> tuple[dict[str, float], float]:
    """The truth's relevance map and its ideal DCG at k, the divisor of every NDCG."""
    if any(score < 0 for _, score in truth.items):
        raise ValueError("negative relevance in the truth")
    relevance = dict(truth.items)
    ideal = _dcg(truth.ids(), relevance, k)
    if ideal == 0:
        raise ZeroIdealError("no positive relevance, NDCG undefined")
    return relevance, ideal


def ndcg_at_k(ids: Sequence[str], truth: RankList, k: int) -> float:
    """Normalized DCG in [0, 1]; undefined (not 0) for all-zero truth.

    The truth's order is the ideal one. ``to_ranking`` orders a table by
    its exact scores, and float rounding is monotonic, so the float gains
    still fall down the truth. Two scores that round to one float give one
    gain, so their order leaves every DCG unchanged.
    """
    relevance, ideal = _graded(truth, k)
    return _dcg(ids, relevance, k) / ideal


class EvalRow(NamedTuple):
    venue_id: str
    values: dict[str, float]
    winner: str


class EvalReport(NamedTuple):
    k: int
    rows: list[EvalRow]

    @property
    def method_labels(self) -> list[str]:
        return list(self.rows[0].values) if self.rows else []


def evaluate_rankings(
    rankings_by_venue: Mapping[str, Mapping[str, RankList]],
    truth_by_venue: Mapping[str, RankList],
    k: int,
) -> EvalReport:
    """Score each venue's rankings, keyed by method label, against its truth.

    Each venue's relevance map and ideal DCG are built once; every value
    is the float ``ndcg_at_k`` gives. The winner per venue is the method
    with the highest NDCG; exact ties go to the method listed first. A
    venue missing from ``truth_by_venue`` raises ``KeyError``; an all-zero
    truth raises its ``ZeroIdealError`` again, named by venue.
    """
    rows = []
    for venue_id, rankings in rankings_by_venue.items():
        try:
            relevance, ideal = _graded(truth_by_venue[venue_id], k)
        except ZeroIdealError as exc:
            raise ZeroIdealError(f"venue {venue_id!r}: {exc}") from exc
        values = {
            label: _dcg(ranking.ids(), relevance, k) / ideal
            for label, ranking in rankings.items()
        }
        winner = max(values, key=values.get)
        rows.append(EvalRow(venue_id, values, winner))
    return EvalReport(k, rows)


def render_report_text(report: EvalReport) -> str:
    """Lay the report out as an aligned text table, one venue per row.

    The title names the cutoff and the venues, and the winning value per
    venue is starred. Values print with three decimals.
    """
    labels = report.method_labels
    venues = ", ".join(row.venue_id for row in report.rows)
    title = f"NDCG@{report.k} values for {venues}"
    header = ["Conf. Name"] + labels
    grid = [header]
    for row in report.rows:
        cells = [row.venue_id]
        for label in labels:
            mark = "*" if label == row.winner else ""
            cells.append(f"{mark}{row.values[label]:.3f}")
        grid.append(cells)
    widths = [max(len(line[col]) for line in grid) for col in range(len(header))]
    lines = [title]
    for line in grid:
        rendered = "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        lines.append(rendered.rstrip())
    return "\n".join(lines) + "\n"


def render_report_csv(report: EvalReport) -> str:
    lines = [f"venue,method,ndcg@{report.k}"]
    for row in report.rows:
        for label in report.method_labels:
            lines.append(f"{row.venue_id},{label},{row.values[label]!r}")
    return "\n".join(lines) + "\n"
