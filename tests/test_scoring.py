import pytest

from narrkit.scoring import (
    MatchTier,
    TierJudgment,
    VLMRating,
    aggregate_ratings,
    aggregate_tiers,
    read_tier_judgments,
    read_vlm_ratings,
    tier_to_score,
)


class TestTierTable:
    @pytest.mark.parametrize(
        "tier,score",
        [
            (MatchTier.VERY_MATCH, 100),
            (MatchTier.GOOD_MATCH, 85),
            (MatchTier.SOMEHOW_MATCH, 70),
            (MatchTier.NOT_MATCH, 0),
        ],
    )
    def test_exact_scores(self, tier, score):
        assert tier_to_score(tier) == score

    def test_no_other_tiers_exist(self):
        assert len(MatchTier) == 4


def judgment(tier, item="i1", rater="r1"):
    return TierJudgment(item, tier, rater)


class TestAggregateTiers:
    def test_hand_mean(self):
        agg = aggregate_tiers(
            [judgment(MatchTier.VERY_MATCH, "a"), judgment(MatchTier.GOOD_MATCH, "b")]
        )
        assert agg.mean_score == 92.5
        assert agg.item_weighted_mean == 92.5

    def test_all_not_match(self):
        agg = aggregate_tiers([judgment(MatchTier.NOT_MATCH)] * 3)
        assert agg.mean_score == 0

    def test_singleton(self):
        assert aggregate_tiers([judgment(MatchTier.VERY_MATCH)]).mean_score == 100

    def test_counts(self):
        agg = aggregate_tiers(
            [
                judgment(MatchTier.VERY_MATCH, "a"),
                judgment(MatchTier.VERY_MATCH, "b"),
                judgment(MatchTier.NOT_MATCH, "c"),
            ]
        )
        assert agg.per_tier_counts == {
            "VeryMatch": 2,
            "GoodMatch": 0,
            "SomehowMatch": 0,
            "NotMatch": 1,
        }

    def test_per_rater_means(self):
        agg = aggregate_tiers(
            [
                judgment(MatchTier.VERY_MATCH, "a", "r1"),
                judgment(MatchTier.NOT_MATCH, "b", "r1"),
                judgment(MatchTier.GOOD_MATCH, "a", "r2"),
            ]
        )
        assert agg.per_rater_means == {"r1": 50.0, "r2": 85.0}

    def test_item_weighting_differs_under_unbalanced_raters(self):
        # item a gets two perfect scores, item b one zero; pooling favours a
        agg = aggregate_tiers(
            [
                judgment(MatchTier.VERY_MATCH, "a", "r1"),
                judgment(MatchTier.VERY_MATCH, "a", "r2"),
                judgment(MatchTier.NOT_MATCH, "b", "r1"),
            ]
        )
        assert agg.mean_score == pytest.approx(200 / 3)
        assert agg.item_weighted_mean == 50.0

    def test_bounded_by_mapped_scores(self):
        records = [
            judgment(MatchTier.GOOD_MATCH, "a"),
            judgment(MatchTier.SOMEHOW_MATCH, "b"),
        ]
        agg = aggregate_tiers(records)
        scores = [tier_to_score(j.tier) for j in records]
        assert min(scores) <= agg.mean_score <= max(scores)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_tiers([])


class TestAggregateRatings:
    def test_hand_mean_no_hallucination(self):
        agg = aggregate_ratings([VLMRating("a", 6), VLMRating("b", 6), VLMRating("c", 3)])
        assert agg.mean_rating == 5.0
        assert agg.hallucination_rate == 0.0

    def test_zero_rating_is_hallucination(self):
        assert aggregate_ratings([VLMRating("a", 0)]).hallucination_rate == 1.0

    def test_mixed(self):
        agg = aggregate_ratings([VLMRating("a", 2), VLMRating("b", 5)])
        assert agg.hallucination_rate == 0.5

    def test_distribution(self):
        agg = aggregate_ratings([VLMRating("a", 2), VLMRating("b", 2), VLMRating("c", 6)])
        assert agg.distribution == (0, 0, 2, 0, 0, 0, 1)

    def test_rate_zero_iff_all_at_least_three(self):
        ok = aggregate_ratings([VLMRating(str(i), r) for i, r in enumerate([3, 4, 5, 6])])
        assert ok.hallucination_rate == 0.0
        bad = aggregate_ratings([VLMRating(str(i), r) for i, r in enumerate([3, 4, 2])])
        assert bad.hallucination_rate > 0.0

    @pytest.mark.parametrize("rating", [-1, 7, 100])
    def test_out_of_range_rejected(self, rating):
        with pytest.raises(ValueError):
            VLMRating("a", rating)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_ratings([])


class TestReaders:
    def test_judgment_lines(self):
        lines = [
            '{"item_id": "a", "rater_id": "r1", "tier": "VeryMatch"}',
            '{"item_id": "b", "rater_id": "r2", "tier": "NotMatch"}',
        ]
        out = read_tier_judgments(lines)
        assert out[0].tier is MatchTier.VERY_MATCH
        assert out[1].rater_id == "r2"

    def test_judgments_of_a_rater_share_its_id(self):
        lines = [f'{{"item_id": "i{k}", "rater_id": "rater-7", "tier": "GoodMatch"}}' for k in range(3)]
        assert len({id(j.rater_id) for j in read_tier_judgments(lines)}) == 1

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_tier_judgments(['{"item_id": "a", "rater_id": "r", "tier": "Great"}'])

    def test_rating_lines(self):
        out = read_vlm_ratings(['{"item_id": "a", "rating": 4}'])
        assert out == [VLMRating("a", 4)]

    def test_non_integer_rating_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            read_vlm_ratings(['{"item_id": "a", "rating": 4.5}'])

    def test_out_of_range_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_vlm_ratings(['{"item_id": "a", "rating": 9}'])
