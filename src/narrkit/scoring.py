"""Annotation-quality aggregation: human matching tiers and 0-6 VLM ratings.

The four matching tiers map onto a fixed 0-100 point scale:

    VeryMatch 100, GoodMatch 85, SomehowMatch 70, NotMatch 0

Ratings use the 0-6 scale of the reviewer prompt, where 0, 1 and 2 are the
tiers that flag hallucinated content. Raw rating means are reported as-is;
any 0-100 conversion of ratings is left to consumers.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import asdict, dataclass
from enum import Enum
from functools import reduce
from typing import Iterable

from .jsonl import records, want_choice, want_int, want_str

__all__ = [
    "MatchTier",
    "TierJudgment",
    "VLMRating",
    "TierAggregate",
    "RatingAggregate",
    "tier_to_score",
    "aggregate_tiers",
    "aggregate_ratings",
    "read_tier_judgments",
    "read_vlm_ratings",
]

HALLUCINATION_RATINGS = frozenset({0, 1, 2})


class MatchTier(Enum):
    VERY_MATCH = "VeryMatch"
    GOOD_MATCH = "GoodMatch"
    SOMEHOW_MATCH = "SomehowMatch"
    NOT_MATCH = "NotMatch"


_TIER_SCORES = {
    MatchTier.VERY_MATCH: 100.0,
    MatchTier.GOOD_MATCH: 85.0,
    MatchTier.SOMEHOW_MATCH: 70.0,
    MatchTier.NOT_MATCH: 0.0,
}


def tier_to_score(tier: MatchTier) -> float:
    """Fixed four-entry tier-to-points table; no other outputs exist."""
    return _TIER_SCORES[tier]


@dataclass(frozen=True, slots=True)
class TierJudgment:
    item_id: str
    tier: MatchTier
    rater_id: str


@dataclass(frozen=True, slots=True)
class VLMRating:
    item_id: str
    rating: int

    def __post_init__(self):
        if not 0 <= self.rating <= 6:
            raise ValueError(f"rating must be within 0..6, got {self.rating}")


@dataclass(frozen=True)
class TierAggregate:
    """Pooled and item-weighted means over mapped tier scores.

    ``mean_score`` pools every judgment equally. ``item_weighted_mean``
    averages raters within each item first so items with more raters do not
    dominate; the two coincide when rater coverage is balanced.
    """

    mean_score: float
    item_weighted_mean: float
    per_tier_counts: dict[str, int]
    per_rater_means: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RatingAggregate:
    mean_rating: float
    hallucination_rate: float
    distribution: tuple[int, ...]  # counts for ratings 0..6

    def to_dict(self) -> dict:
        return {**asdict(self), "distribution": list(self.distribution)}


def aggregate_tiers(judgments: Iterable[TierJudgment]) -> TierAggregate:
    records = list(judgments)
    if not records:
        raise ValueError("no judgments to aggregate")

    scores = [tier_to_score(j.tier) for j in records]
    counts = {tier.value: 0 for tier in MatchTier}
    per_item: dict[str, list[float]] = {}
    per_rater: dict[str, list[float]] = {}
    for judgment, score in zip(records, scores):
        counts[judgment.tier.value] += 1
        per_item.setdefault(judgment.item_id, []).append(score)
        per_rater.setdefault(judgment.rater_id, []).append(score)

    item_means = [sum(v) / len(v) for v in per_item.values()]
    return TierAggregate(
        mean_score=sum(scores) / len(scores),
        # Left to right: from Python 3.12 on, builtin sum compensates float sums and
        # can round item means differently. The other sums add integer-valued scores.
        item_weighted_mean=reduce(operator.add, item_means, 0.0) / len(item_means),
        per_tier_counts=counts,
        per_rater_means={
            rater: sum(v) / len(v) for rater, v in sorted(per_rater.items())
        },
    )


def aggregate_ratings(ratings: Iterable[VLMRating]) -> RatingAggregate:
    records = list(ratings)
    if not records:
        raise ValueError("no ratings to aggregate")
    distribution = [0] * 7
    flagged = 0
    for rec in records:
        distribution[rec.rating] += 1
        if rec.rating in HALLUCINATION_RATINGS:
            flagged += 1
    return RatingAggregate(
        mean_rating=sum(r.rating for r in records) / len(records),
        hallucination_rate=flagged / len(records),
        distribution=tuple(distribution),
    )


# Each tier by its value: a dict lookup costs a fraction of MatchTier(value).
_TIERS = {tier.value: tier for tier in MatchTier}


def read_tier_judgments(lines: Iterable[str]) -> list[TierJudgment]:
    """Read line-delimited {item_id, rater_id, tier} records."""
    tiers = tuple(_TIERS)
    with records(lines) as recs:
        # The rater interned: a corpus has a few raters with many judgments each.
        return [TierJudgment(want_str(rec, "item_id"), _TIERS[want_choice(rec, "tier", tiers)],
                             sys.intern(want_str(rec, "rater_id"))) for rec in recs]


def read_vlm_ratings(lines: Iterable[str]) -> list[VLMRating]:
    """Read line-delimited {item_id, rating} records; ratings must be 0..6."""
    with records(lines) as recs:
        return [VLMRating(want_str(rec, "item_id"), want_int(rec, "rating")) for rec in recs]
