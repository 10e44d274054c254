"""Ranking quality measured as NDCG against a held-out year.

Gains are the held-out year's scores taken linearly, as the floats the
score file stores; an item missing from the truth contributes nothing.
The ideal ordering for the same truth normalizes the metric into [0, 1].
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .aggregate import RankList
from .scoring import ScoreTable, drop_unknown, order_by_score


class ZeroIdealError(ValueError):
    """Truth with no positive relevance leaves NDCG undefined."""


class MissingTruthError(KeyError):
    """No ground truth was supplied for a venue under evaluation."""


class GroundTruth:
    """Relevance per institution for one held-out year."""

    __slots__ = ("year", "relevance", "ideal")

    def __init__(self, year: int, relevance: dict[str, float]) -> None:
        for institution, value in relevance.items():
            if value < 0:
                raise ValueError(f"negative relevance for {institution!r}")
        self.year = year
        self.relevance = relevance
        # Institutions by relevance descending, id ascending: the ideal ranking.
        self.ideal = tuple(institution for institution, _ in order_by_score(relevance))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroundTruth):
            return NotImplemented
        return self.year == other.year and self.relevance == other.relevance

    @classmethod
    def from_score_table(cls, table: ScoreTable) -> "GroundTruth":
        """Gains are each score's float, ``numerator / denominator``.

        A read-back table holds floats exactly. In an exact table two scores
        may round to one float; their ideal order then follows the ids, which
        leaves every DCG value unchanged.
        """
        visible = drop_unknown(table)
        denominator = visible.denominator
        return cls(
            table.year,
            {
                institution: numerator / denominator
                for institution, numerator in visible.numerators.items()
            },
        )


def dcg_at_k(ids: Sequence[str], truth: GroundTruth, k: int) -> float:
    """Discounted cumulative gain of the first k ranked ids.

    Position i (1-based) contributes gain / log2(i + 1); rankings shorter
    than k simply stop early.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gains = []
    for position, institution in enumerate(ids[:k], start=1):
        value = float(truth.relevance.get(institution, 0.0))
        if value:
            gains.append(value / math.log2(position + 1))
    return math.fsum(gains)


def ideal_dcg_at_k(truth: GroundTruth, k: int) -> float:
    """DCG of the best ordering the truth itself allows."""
    return dcg_at_k(truth.ideal, truth, k)


def ndcg_at_k(ids: Sequence[str], truth: GroundTruth, k: int) -> float:
    """Normalized DCG in [0, 1]; undefined (not 0) for all-zero truth."""
    ideal = ideal_dcg_at_k(truth, k)
    if ideal == 0:
        raise ZeroIdealError(
            f"year {truth.year}: no positive relevance, NDCG undefined"
        )
    return dcg_at_k(ids, truth, k) / ideal


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
    truth_by_venue: Mapping[str, GroundTruth],
    k: int,
) -> EvalReport:
    """Score each venue's rankings, keyed by method label, against its truth.

    The winner per venue is the method with the highest NDCG; exact ties
    go to the method listed first.
    """
    rows = []
    for venue_id, rankings in rankings_by_venue.items():
        if venue_id not in truth_by_venue:
            raise MissingTruthError(venue_id)
        truth = truth_by_venue[venue_id]
        values = {
            label: ndcg_at_k(ranking.ids(), truth, k) for label, ranking in rankings.items()
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
