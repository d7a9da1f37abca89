import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_manifest
from narrkit import matching
from narrkit.manifest import (
    ActionRecord,
    ClipRecord,
    DatasetManifest,
    TimeInterval,
    VideoEntry,
)
from narrkit.matching import (
    FilterPolicy,
    MatchRecord,
    MatchRule,
    MatchThresholds,
    filter_matched,
    format_match_record,
    interval_iou,
    match_clip_action,
    match_dataset,
    parse_match_records,
)


def naive_matches(m, max_start_diff=5.0, iou_low=0.2, iou_high=0.5):
    """Straightforward re-statement of the matching procedure.

    Deliberately written from scratch against the rule definition, not the
    library code, so the two act as independent implementations.
    """
    found = set()
    for video_id, entry in m.videos.items():
        actions = m.actions.get(video_id, [])
        for clip in entry.clips:
            s_c, e_c = clip.interval.start_s, clip.interval.end_s
            for idx, action in enumerate(actions):
                s_a, e_a = action.interval.start_s, action.interval.end_s
                intersection = max(0.0, min(e_c, e_a) - max(s_c, s_a))
                hull = max(e_c, e_a) - min(s_c, s_a)
                iou = intersection / hull if hull > 0 else 0.0
                start_diff = abs(s_c - s_a)
                rule_a = start_diff < max_start_diff and e_c > e_a and iou > iou_low
                rule_b = iou > iou_high
                if rule_a or rule_b:
                    rule = "RuleB" if rule_b else "RuleA"
                    found.add((video_id, clip.clip_id, idx, iou, rule))
    return found


def as_set(records):
    return {(r.video_id, r.clip_id, r.action_index, r.iou, r.rule.value) for r in records}


def output_keys(m, records):
    clip_start = {
        (v, c.clip_id): c.interval.start_s for v, e in m.videos.items() for c in e.clips
    }
    return [
        (r.video_id, clip_start[(r.video_id, r.clip_id)], r.action_index)
        for r in records
    ]


def long_video_manifest(rng, n_videos=2, n_clips=400, n_actions=400, span=3600.0):
    """Long videos whose actions stress the interval join.

    Each video has one action covering the whole video, so from the first
    position in start order on the running maximum of action ends is the
    video end. The rest mirror clips, touch a clip at either end, repeat the
    previous action's start, or are random. The action list is shuffled, so
    list order differs from start order.
    """
    m = DatasetManifest()
    for v in range(n_videos):
        video_id = f"long{v}"
        clips = []
        for j in range(n_clips):
            start = float(rng.uniform(60, span - 120))
            clips.append(clip(video_id, f"c{j:04d}", start, start + float(rng.uniform(1, 60))))
        acts = [action(video_id, 0.0, span)]
        while len(acts) < n_actions:
            src = clips[int(rng.integers(len(clips)))].interval
            kind = int(rng.integers(5))
            if kind == 0:
                acts.append(action(video_id, src.start_s, src.end_s))
            elif kind == 1:
                acts.append(action(video_id, src.end_s, src.end_s + float(rng.uniform(1, 60))))
            elif kind == 2:
                acts.append(action(video_id, src.start_s - float(rng.uniform(1, 59)), src.start_s))
            elif kind == 3:
                prev = acts[-1].interval.start_s
                acts.append(action(video_id, prev, prev + float(rng.uniform(1, 60))))
            else:
                start = float(rng.uniform(1, span - 60))
                acts.append(action(video_id, start, start + float(rng.uniform(1, 60))))
        m.videos[video_id] = VideoEntry(span, sorted(clips, key=lambda c: c.interval.start_s))
        m.actions[video_id] = [acts[i] for i in rng.permutation(len(acts))]
    return m


def clip(video, cid, start, end):
    return ClipRecord(video, cid, TimeInterval(start, end), "caption text")


def action(video, start, end):
    return ActionRecord(video, TimeInterval(start, end), "action text")


class TestIntervalIoU:
    def test_identical(self):
        assert interval_iou(TimeInterval(5, 15), TimeInterval(5, 15)) == 1.0

    def test_disjoint(self):
        assert interval_iou(TimeInterval(0, 10), TimeInterval(20, 30)) == 0.0

    def test_hand_case(self):
        assert interval_iou(TimeInterval(5, 15), TimeInterval(10, 20)) == pytest.approx(5 / 15)

    def test_touching_intervals_score_zero(self):
        assert interval_iou(TimeInterval(0, 10), TimeInterval(10, 20)) == 0.0

    @given(
        st.tuples(
            st.floats(0, 1000), st.floats(0.01, 100),
            st.floats(0, 1000), st.floats(0.01, 100),
        )
    )
    def test_symmetric_and_bounded(self, quad):
        s1, l1, s2, l2 = quad
        a = TimeInterval(s1, s1 + l1)
        b = TimeInterval(s2, s2 + l2)
        v = interval_iou(a, b)
        assert v == interval_iou(b, a)
        assert 0.0 <= v <= 1.0

    def test_translation_invariance(self, rng):
        for _ in range(500):
            s1, s2 = rng.uniform(0, 100, 2)
            l1, l2 = rng.uniform(0.5, 30, 2)
            shift = rng.uniform(0, 500)
            base = interval_iou(TimeInterval(s1, s1 + l1), TimeInterval(s2, s2 + l2))
            moved = interval_iou(
                TimeInterval(s1 + shift, s1 + l1 + shift),
                TimeInterval(s2 + shift, s2 + l2 + shift),
            )
            assert moved == pytest.approx(base, abs=1e-12)


class TestMatchClipAction:
    def test_both_rules_reports_high_overlap(self):
        decision = match_clip_action(clip("v", "c", 10, 40), action("v", 12, 30))
        assert decision.rule is MatchRule.RULE_B
        assert decision.iou == pytest.approx(18 / 30)
        assert decision.start_diff_s == pytest.approx(2.0)

    def test_identical_intervals(self):
        decision = match_clip_action(clip("v", "c", 10, 40), action("v", 10, 40))
        assert decision.rule is MatchRule.RULE_B
        assert decision.iou == 1.0

    def test_no_match(self):
        assert match_clip_action(clip("v", "c", 0, 10), action("v", 8, 30)) is None

    def test_start_aligned_only(self):
        # start_diff 2 < 5, clip outlasts action, iou 9/25 between thresholds
        decision = match_clip_action(clip("v", "c", 0, 25), action("v", 2, 11))
        assert decision.rule is MatchRule.RULE_A

    def test_start_diff_boundary_excluded(self):
        # gap of exactly 5 s, IoU in (0.2, 0.5]: neither rule may fire
        decision = match_clip_action(clip("v", "c", 5, 20), action("v", 0, 12))
        assert decision is None

    def test_clip_end_not_after_action_end(self):
        # equal ends kill the start-aligned rule; IoU 0.25 is below the high bar
        assert match_clip_action(clip("v", "c", 0, 4), action("v", 2, 8)) is None

    def test_iou_exactly_half_excluded(self):
        c, a = clip("v", "c", 0, 10), action("v", 5, 10)
        assert interval_iou(c.interval, a.interval) == 0.5
        assert match_clip_action(c, a) is None

    def test_iou_low_boundary_excluded(self):
        # start_diff 0, clip outlasts action, IoU exactly at the low threshold
        c, a = clip("v", "c", 0, 10), action("v", 0, 2)
        assert interval_iou(c.interval, a.interval) == 0.2
        assert match_clip_action(c, a) is None

    def test_video_mismatch(self):
        with pytest.raises(ValueError, match="across videos"):
            match_clip_action(clip("v1", "c", 0, 10), action("v2", 0, 10))

    def test_custom_thresholds(self):
        th = MatchThresholds(iou_high=0.3)
        decision = match_clip_action(clip("v", "c", 0, 10), action("v", 4, 10), th)
        assert decision.rule is MatchRule.RULE_B

    @pytest.mark.parametrize("low,high", [(0.6, 0.5), (-0.1, 0.5), (0.2, 1.5)])
    def test_bad_thresholds(self, low, high):
        with pytest.raises(ValueError):
            MatchThresholds(iou_low=low, iou_high=high)

    @pytest.mark.parametrize("diff", [-1.0, math.nan, math.inf])
    def test_bad_start_diff(self, diff):
        with pytest.raises(ValueError, match="^max_start_diff_s must be"):
            MatchThresholds(max_start_diff_s=diff)


class TestMatchDataset:
    def build(self, clips, actions):
        m = DatasetManifest()
        m.videos["v"] = VideoEntry(None, clips)
        if actions:
            m.actions["v"] = actions
        return m

    def test_all_identical(self):
        clips = [clip("v", "c1", 0, 10), clip("v", "c2", 20, 30)]
        acts = [action("v", 0, 10), action("v", 20, 30)]
        m = self.build(clips, acts)
        records = match_dataset(m)
        # every clip overlaps exactly one action fully, the other not at all
        assert {(r.clip_id, r.action_index) for r in records} == {("c1", 0), ("c2", 1)}
        assert all(r.rule is MatchRule.RULE_B for r in records)

    def test_two_clips_two_actions_same_interval(self):
        clips = [clip("v", "c1", 0, 10), clip("v", "c2", 0, 10)]
        acts = [action("v", 0, 10), action("v", 0, 10)]
        records = match_dataset(self.build(clips, acts))
        assert len(records) == 4
        assert all(r.rule is MatchRule.RULE_B and r.iou == 1.0 for r in records)

    def test_no_actions(self):
        m = self.build([clip("v", "c1", 0, 10)], [])
        assert match_dataset(m) == []

    def test_matches_oracle(self, rng):
        m = random_manifest(rng, n_videos=60)
        assert as_set(match_dataset(m)) == naive_matches(m)

    def test_output_order(self, rng):
        m = random_manifest(rng, n_videos=20)
        keys = output_keys(m, match_dataset(m))
        assert keys == sorted(keys)

    def test_long_videos_match_oracle(self, rng):
        m = long_video_manifest(rng)
        records = match_dataset(m)
        assert len(records) == len(as_set(records))
        assert as_set(records) == naive_matches(m)
        keys = output_keys(m, records)
        assert keys == sorted(keys)

    def test_unsorted_clips_and_actions(self):
        m = self.build(
            [clip("v", "late", 50, 70), clip("v", "early", 0, 20), clip("v", "mid", 20, 45)],
            [
                action("v", 52, 70),   # 0: late
                action("v", 20, 44),   # 1: mid; touches early's end
                action("v", 0, 20),    # 2: early
                action("v", 45, 50),   # 3: touches mid and late only
                action("v", 1, 19),    # 4: early
                action("v", 21, 30),   # 5: mid, start-aligned only
                action("v", 0, 69),    # 6: overlaps every clip, matches none
            ],
        )
        records = match_dataset(m)
        assert [(r.clip_id, r.action_index, r.rule.value) for r in records] == [
            ("early", 2, "RuleB"), ("early", 4, "RuleB"),
            ("mid", 1, "RuleB"), ("mid", 5, "RuleA"),
            ("late", 0, "RuleB"),
        ]
        assert as_set(records) == naive_matches(m)

    def test_evaluates_only_candidate_pairs(self, rng, monkeypatch):
        calls = 0
        scalar = matching.match_clip_action

        def counting(*args):
            nonlocal calls
            calls += 1
            return scalar(*args)

        monkeypatch.setattr(matching, "match_clip_action", counting)
        clips, acts = [], []
        for j in range(1000):
            start = float(rng.uniform(0, 36000))
            clips.append(clip("v", f"c{j:04d}", start, start + float(rng.uniform(1, 60))))
            start = float(rng.uniform(0, 36000))
            acts.append(action("v", start, start + float(rng.uniform(1, 60))))
        m = self.build(sorted(clips, key=lambda c: c.interval.start_s), acts)
        assert match_dataset(m)
        assert calls < 0.01 * 1000 * 1000

    def test_threads_do_not_change_output(self, rng):
        m = random_manifest(rng, n_videos=30)
        assert match_dataset(m, threads=4) == match_dataset(m, threads=1)

    def test_monotonicity(self, rng):
        m = random_manifest(rng, n_videos=30)
        strict = MatchThresholds(max_start_diff_s=3.0, iou_low=0.3)
        loose = MatchThresholds(max_start_diff_s=8.0, iou_low=0.1)
        kept = {(r.video_id, r.clip_id, r.action_index) for r in match_dataset(m, strict)}
        wide = {(r.video_id, r.clip_id, r.action_index) for r in match_dataset(m, loose)}
        assert kept <= wide


class TestFilterMatched:
    def setup_method(self):
        self.m = DatasetManifest()
        self.m.videos["v"] = VideoEntry(
            None,
            [clip("v", "c1", 0, 30), clip("v", "c2", 100, 130)],
        )
        self.m.actions["v"] = [
            action("v", 0, 12),   # iou 0.4 against c1
            action("v", 0, 18),   # iou 0.6 against c1
        ]

    def test_unmatched_clip_dropped(self):
        result = filter_matched(self.m, match_dataset(self.m), FilterPolicy.BEST_PER_CLIP)
        ids = [c.clip_id for c in result.manifest.iter_clips()]
        assert ids == ["c1"]

    def test_best_per_clip_takes_highest_iou(self):
        result = filter_matched(self.m, match_dataset(self.m), FilterPolicy.BEST_PER_CLIP)
        assert result.assignment[("v", "c1")] == [1]

    def test_keep_all_retains_multimap(self):
        result = filter_matched(self.m, match_dataset(self.m), FilterPolicy.KEEP_ALL)
        assert result.assignment[("v", "c1")] == [0, 1]

    def test_tie_break_prefers_earliest_action_start(self):
        m = DatasetManifest()
        m.videos["v"] = VideoEntry(None, [clip("v", "c1", 0, 20)])
        # equal-length contained actions share IoU 12/20; starts differ
        m.actions["v"] = [
            ActionRecord("v", TimeInterval(6, 18), "late"),
            ActionRecord("v", TimeInterval(2, 14), "early"),
        ]
        matches = match_dataset(m)
        ious = {r.action_index: r.iou for r in matches}
        assert ious[0] == ious[1] == pytest.approx(0.6)
        result = filter_matched(m, matches, FilterPolicy.BEST_PER_CLIP)
        assert result.assignment[("v", "c1")] == [1]
        assert m.actions["v"][1].interval.start_s == 2

    def test_tie_break_on_supplied_half_iou_records(self):
        # filter consumes whatever match records it is handed; a 0.5/0.5 tie
        # from action starts 3 s and 7 s resolves to the 3 s action
        m = DatasetManifest()
        m.videos["v"] = VideoEntry(None, [clip("v", "c1", 0, 20)])
        m.actions["v"] = [
            ActionRecord("v", TimeInterval(3, 13), "early"),
            ActionRecord("v", TimeInterval(7, 17), "late"),
        ]
        supplied = [
            MatchRecord("v", "c1", 1, 0.5, 7.0, MatchRule.RULE_A),
            MatchRecord("v", "c1", 0, 0.5, 3.0, MatchRule.RULE_A),
        ]
        result = filter_matched(m, supplied, FilterPolicy.BEST_PER_CLIP)
        assert result.assignment[("v", "c1")] == [0]
        assert m.actions["v"][0].interval.start_s == 3

    def test_tie_break_falls_back_to_action_index(self):
        m = DatasetManifest()
        m.videos["v"] = VideoEntry(None, [clip("v", "c1", 0, 20)])
        m.actions["v"] = [
            ActionRecord("v", TimeInterval(3, 20), "a"),
            ActionRecord("v", TimeInterval(3, 20), "b"),
        ]
        result = filter_matched(m, match_dataset(m), FilterPolicy.BEST_PER_CLIP)
        assert result.assignment[("v", "c1")] == [0]

    def test_unknown_clip_rejected(self):
        bogus = MatchRecord("v", "nope", 0, 0.9, 0.0, MatchRule.RULE_B)
        with pytest.raises(ValueError, match="unknown clip"):
            filter_matched(self.m, [bogus])
        # a clip id known only in another video, named after switching videos
        self.m.videos["w"] = VideoEntry(None, [clip("w", "cw", 0, 10)])
        self.m.actions["w"] = [action("w", 0, 10)]
        interleaved = [
            MatchRecord("v", "c1", 0, 0.4, 0.0, MatchRule.RULE_A),
            MatchRecord("w", "cw", 0, 0.9, 0.0, MatchRule.RULE_B),
            MatchRecord("v", "cw", 0, 0.9, 0.0, MatchRule.RULE_B),
        ]
        with pytest.raises(ValueError, match="unknown clip 'cw' in video 'v'"):
            filter_matched(self.m, interleaved)

    def test_unknown_video_rejected(self):
        bogus = MatchRecord("w", "c1", 0, 0.9, 0.0, MatchRule.RULE_B)
        with pytest.raises(ValueError, match="unknown video"):
            filter_matched(self.m, [bogus])

    def test_survivors_are_input_records(self, rng):
        m = random_manifest(rng, n_videos=25)
        result = filter_matched(m, match_dataset(m), FilterPolicy.BEST_PER_CLIP)
        for video_id, entry in result.manifest.videos.items():
            source = m.videos[video_id]
            assert entry.duration_s == source.duration_s
            for c in entry.clips:
                assert c in source.clips
        assert result.manifest.actions == m.actions


def collect_then_min(m, matches, policy):
    """The assignment as filter_matched made it before it folded the stream:
    every match collected per clip, then the first minimum of each clip's rank."""
    by_clip = {}
    for rec in matches:
        by_clip.setdefault((rec.video_id, rec.clip_id), []).append(rec)
    assignment = {}
    for video_id, entry in m.videos.items():
        actions = m.actions.get(video_id, [])
        for c in entry.clips:
            candidates = by_clip.get((video_id, c.clip_id))
            if not candidates:
                continue
            if policy is FilterPolicy.BEST_PER_CLIP:
                best = min(candidates, key=lambda r: (-r.iou, actions[r.action_index].interval.start_s,
                                                       r.action_index))
                assignment[(video_id, c.clip_id)] = [best.action_index]
            else:
                assignment[(video_id, c.clip_id)] = sorted(r.action_index for r in candidates)
    return assignment


def _shuffled(records, rng):
    return [records[i] for i in rng.permutation(len(records))]


def _video_returns(records, rng):
    # each video's first half of matches, then every video's second half
    halves = [[], []]
    for video_id in dict.fromkeys(r.video_id for r in records):
        own = [r for r in records if r.video_id == video_id]
        halves[0] += own[: len(own) // 2]
        halves[1] += own[len(own) // 2:]
    return halves[0] + halves[1]


def _duplicated(records, rng):
    return _shuffled(records + [records[i] for i in rng.integers(0, len(records), len(records) // 3)], rng)


class TestFilterFold:
    """filter_matched folds the stream and gives collect-then-min's assignment."""

    @pytest.mark.parametrize("policy", list(FilterPolicy))
    @pytest.mark.parametrize("reorder", [_shuffled, _video_returns, _duplicated],
                             ids=["interleaved", "video-returns", "duplicates"])
    def test_any_order_matches_collect_then_min(self, rng, policy, reorder):
        m = random_manifest(rng, n_videos=40)
        matches = reorder(match_dataset(m), rng)
        assert len({r.video_id for r in matches[:20]}) > 1  # not grouped by video
        if policy is FilterPolicy.KEEP_ALL and reorder is _duplicated:  # would list an index twice
            with pytest.raises(ValueError, match="^match repeats action index"):
                filter_matched(m, matches, policy)
            return
        result = filter_matched(m, matches, policy)
        expected = collect_then_min(m, matches, policy)
        assert list(result.assignment.items()) == list(expected.items())
        assert [(c.video_id, c.clip_id) for c in result.manifest.iter_clips()] == list(expected)

    # Action starts 3, 3 and 5; every match is against clip c1, in the order given.
    _TIES = {
        "iou": [(2, 0.4), (1, 0.6), (0, 0.5)],
        "start": [(2, 0.5), (1, 0.5), (0, 0.4)],
        "index": [(1, 0.5), (0, 0.5), (2, 0.5)],
        "duplicate": [(1, 0.5), (1, 0.5), (0, 0.4), (1, 0.5)],
    }

    @pytest.mark.parametrize("policy", list(FilterPolicy))
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("tie", list(_TIES))
    def test_tie_breaks_match_collect_then_min(self, policy, reverse, tie):
        m = DatasetManifest()
        m.videos["v"] = VideoEntry(None, [clip("v", "c1", 0, 20)])
        m.actions["v"] = [action("v", 3, 13), action("v", 3, 9), action("v", 5, 15)]
        matches = [MatchRecord("v", "c1", i, iou, 0.0, MatchRule.RULE_A) for i, iou in self._TIES[tie]]
        if reverse:
            matches.reverse()
        if policy is FilterPolicy.KEEP_ALL and tie == "duplicate":  # would list index 1 twice
            with pytest.raises(ValueError, match="^match repeats action index 1 for clip 'c1' in video 'v'$"):
                filter_matched(m, matches, policy)
            return
        expected = collect_then_min(m, matches, policy)
        assert filter_matched(m, matches, policy).assignment == expected
        if policy is FilterPolicy.BEST_PER_CLIP:
            assert expected == {("v", "c1"): [{"iou": 1, "start": 1, "index": 0, "duplicate": 1}[tie]]}


class TestWireFormat:
    def test_round_trip(self, rng):
        m = random_manifest(rng, n_videos=10)
        records = match_dataset(m)
        lines = [format_match_record(r) for r in records]
        back = list(parse_match_records(lines))
        for orig, parsed in zip(records, back):
            assert (orig.video_id, orig.clip_id, orig.action_index, orig.rule) == (
                parsed.video_id,
                parsed.clip_id,
                parsed.action_index,
                parsed.rule,
            )
            assert parsed.iou == pytest.approx(orig.iou, abs=1e-9)

    def test_records_of_a_video_share_its_id(self, rng):
        lines = [format_match_record(r) for r in match_dataset(random_manifest(rng, n_videos=10))]
        by_video = {}
        for rec in parse_match_records(lines):
            assert by_video.setdefault(rec.video_id, rec.video_id) is rec.video_id

    def test_iou_has_at_least_six_decimals(self):
        rec = MatchRecord("v", "c", 0, 0.5, 1.0, MatchRule.RULE_B)
        line = format_match_record(rec)
        assert '"iou": 0.500000000' in line

    def test_bad_line_reports_position(self):
        good = format_match_record(MatchRecord("v", "c", 0, 0.5, 1.0, MatchRule.RULE_B))
        null_index = good.replace('"action_index": 0', '"action_index": null')
        for line in ['{"video_id": "v"}', "[1]", '"x"', "null", "{nope", null_index]:
            with pytest.raises(ValueError, match="^line 2: "):
                list(parse_match_records([good, line]))
