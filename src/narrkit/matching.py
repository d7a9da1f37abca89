"""Temporal action-to-clip matching over a manifest.

A clip and an action pair up when either of two predicates fires on their
time intervals:

* start-aligned rule (RuleA): the start times differ by less than
  ``max_start_diff_s``, the clip outlasts the action, and interval IoU
  exceeds ``iou_low``;
* high-overlap rule (RuleB): interval IoU exceeds ``iou_high``.

All comparisons are strict, so boundary values never match. When both rules
fire the pairing is reported as RuleB, the stronger evidence. IoU here uses
the hull span max(end) - min(start) as the denominator rather than the
set-theoretic union; the thresholds were tuned against that definition, so
it is kept verbatim.

Note the two rule thresholds ship with defaults 0.2 and 0.5. Published
descriptions of this procedure disagree on whether the low threshold is
0.2 or 0.25; the executable definition uses 0.2 and that is the default
here, with ``iou_low`` configurable.

Because every rule needs IoU > ``iou_low`` >= 0, only pairs that overlap
strictly (a shared stretch of positive length) can match. Matching is
therefore an interval join: per video, a sweep over actions in start order
evaluates only the actions that can overlap each clip. Endpoints must be
finite, which ``TimeInterval`` enforces, so the sweep's sorted order holds.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator

from .jsonl import (InputError, encode_str, iter_json_objects, stream_name, want_choice, want_int,
                    want_number, want_str)
from .manifest import ActionRecord, ClipRecord, DatasetManifest, TimeInterval, VideoEntry
from .params import MatchThresholds

__all__ = [
    "MatchRule",
    "MatchThresholds",
    "MatchDecision",
    "MatchRecord",
    "FilterPolicy",
    "FilterResult",
    "interval_iou",
    "match_clip_action",
    "match_dataset",
    "filter_matched",
    "format_match_record",
    "parse_match_records",
]


class MatchRule(Enum):
    """Which predicate produced a match. Values double as the wire names."""

    RULE_A = "RuleA"  # start-aligned: close starts, clip outlasts action, IoU > low
    RULE_B = "RuleB"  # high overlap: IoU > high


@dataclass(frozen=True, slots=True)
class MatchDecision:
    iou: float
    start_diff_s: float
    rule: MatchRule


@dataclass(frozen=True, slots=True)
class MatchRecord:
    video_id: str
    clip_id: str
    action_index: int
    iou: float
    start_diff_s: float
    rule: MatchRule


def interval_iou(a: TimeInterval, b: TimeInterval) -> float:
    """Intersection over hull span of two intervals, in [0, 1].

    The denominator is max(end) - min(start), the smallest interval covering
    both inputs. Symmetric, translation invariant, and exactly 1.0 only for
    identical intervals.
    """
    return _iou(a.start_s, a.end_s, b.start_s, b.end_s)


def _iou(a_start: float, a_end: float, b_start: float, b_end: float) -> float:
    intersection = min(a_end, b_end) - max(a_start, b_start)
    if intersection <= 0:
        return 0.0
    hull = max(a_end, b_end) - min(a_start, b_start)
    return intersection / hull  # rounding is monotone, so hull >= intersection > 0


def match_clip_action(
    clip: ClipRecord, action: ActionRecord, th: MatchThresholds | None = None
) -> MatchDecision | None:
    """Evaluate both match rules for one clip/action pair.

    Returns None when neither rule fires. The pair must belong to the same
    video; matching never crosses video boundaries.
    """
    th = th or MatchThresholds()
    if clip.video_id != action.video_id:
        raise ValueError(
            f"cannot match across videos: clip '{clip.video_id}' vs "
            f"action '{action.video_id}'"
        )
    # Each endpoint read builds a float, so each is read once.
    clip_start, clip_end = clip.interval.start_s, clip.interval.end_s
    action_start, action_end = action.interval.start_s, action.interval.end_s
    iou = _iou(clip_start, clip_end, action_start, action_end)
    start_diff = abs(clip_start - action_start)
    rule_b = iou > th.iou_high
    rule_a = start_diff < th.max_start_diff_s and clip_end > action_end and iou > th.iou_low
    if rule_b:
        return MatchDecision(iou, start_diff, MatchRule.RULE_B)
    if rule_a:
        return MatchDecision(iou, start_diff, MatchRule.RULE_A)
    return None


def _match_video(
    video_id: str, entry: VideoEntry, actions: list[ActionRecord], th: MatchThresholds
) -> list[MatchRecord]:
    # Actions in start order, with ``reach`` the running maximum of their
    # ends. Actions before ``lo`` end at or before the clip starts; actions
    # from ``hi`` on start at or after it ends. Neither can overlap it.
    order = sorted(range(len(actions)), key=lambda i: actions[i].interval.start_s)
    starts = [actions[i].interval.start_s for i in order]
    reach = list(accumulate((actions[i].interval.end_s for i in order), max))
    found = []
    for clip in sorted(entry.clips, key=lambda c: c.interval.start_s):
        hi = bisect_left(starts, clip.interval.end_s)
        lo = bisect_right(reach, clip.interval.start_s)
        for idx in sorted(order[lo:hi]):
            decision = match_clip_action(clip, actions[idx], th)
            if decision is not None:
                found.append(
                    MatchRecord(
                        video_id,
                        clip.clip_id,
                        idx,
                        decision.iou,
                        decision.start_diff_s,
                        decision.rule,
                    )
                )
    return found


def _iter_matches(m: DatasetManifest, th: MatchThresholds) -> Iterator[MatchRecord]:
    """match_dataset's records; only the current video's are alive."""
    for video_id in sorted(m.videos):
        yield from _match_video(video_id, m.videos[video_id], m.actions.get(video_id, []), th)


def match_dataset(
    m: DatasetManifest, th: MatchThresholds | None = None, threads: int = 1
) -> list[MatchRecord]:
    """Match actions to clips in every video of the manifest.

    Output is ordered by (video_id, clip start, action index). All work runs
    in the calling thread; ``threads`` is accepted for compatibility and
    ignored.
    """
    return list(_iter_matches(m, th or MatchThresholds()))


class FilterPolicy(Enum):
    KEEP_ALL = "all"
    BEST_PER_CLIP = "best"


@dataclass
class FilterResult:
    """Filtered sub-manifest plus the surviving clip -> action assignment.

    ``assignment`` maps (video_id, clip_id) to the retained action indices.
    Under BEST_PER_CLIP each list has exactly one element.
    """

    manifest: DatasetManifest
    assignment: dict[tuple[str, str], list[int]]


def filter_matched(
    m: DatasetManifest,
    matches: Iterable[MatchRecord],
    policy: FilterPolicy = FilterPolicy.BEST_PER_CLIP,
) -> FilterResult:
    """Drop unmatched clips and resolve multi-matches per ``policy``.

    BEST_PER_CLIP keeps the highest-IoU action per clip, breaking ties by
    earliest action start and then lowest action index. Videos and actions
    pass through untouched; only clips are filtered, so every surviving
    record existed in the input. Clip ids are unique within a video, as
    parse_manifest ensures.

    ``matches`` is read once, in any order, and each match is folded into its
    clip's entry as it arrives: under BEST_PER_CLIP the action index and IoU of
    the clip's best match so far, else one action index per match. A match that
    the manifest lacks fails before the next is read.
    """
    filtered = DatasetManifest(actions=dict(m.actions))
    assignment: dict[tuple[str, str], list[int]] = {}
    for video_id, entry, indices in _kept_clips(m, _fold_matches(m, matches, policy), policy):
        filtered.videos[video_id] = entry
        assignment.update(((video_id, clip.clip_id), i) for clip, i in zip(entry.clips, indices))
    return FilterResult(filtered, assignment)


def _fold_matches(
    m: DatasetManifest, matches: Iterable[MatchRecord], policy: FilterPolicy, unique: bool = False
) -> dict[str, list]:
    """filter_matched's fold: per video with a match, one entry or None per clip, in clip order.
    Under BEST_PER_CLIP an entry is an action index, and each clip's IoU follows the entries.
    With ``unique``, a KEEP_ALL match whose clip already holds its action index is an error."""
    best = policy is FilterPolicy.BEST_PER_CLIP
    folded: dict[str, list] = {}
    # The video the previous match named: its clips' positions by clip_id, its actions and its
    # entries. ``match`` writes each video's lines together; any other order only rebuilds the
    # positions more often.
    ids_video, positions, actions, slots = None, {}, [], []
    for rec in matches:
        if rec.video_id != ids_video:
            entry = m.videos.get(rec.video_id)
            if entry is None:
                raise ValueError(f"match references unknown video '{rec.video_id}'")
            ids_video, positions = rec.video_id, {c.clip_id: i for i, c in enumerate(entry.clips)}
            actions = m.actions.get(rec.video_id, [])
            slots = folded.get(rec.video_id)
            if slots is None:
                slots = folded[rec.video_id] = [None] * (len(entry.clips) * (1 + best))
        i = positions.get(rec.clip_id)
        if i is None:
            raise ValueError(f"match references unknown clip '{rec.clip_id}' in video '{rec.video_id}'")
        if not 0 <= rec.action_index < len(actions):
            raise ValueError(
                f"match references action index {rec.action_index} out of range "
                f"for video '{rec.video_id}'"
            )
        if not best:
            if slots[i] is None:
                slots[i] = []
            elif unique and rec.action_index in slots[i]:
                raise ValueError(f"match repeats action index {rec.action_index} for clip "
                                 f"'{rec.clip_id}' in video '{rec.video_id}'")
            slots[i].append(rec.action_index)
            continue
        # Only a strictly better match by (-iou, action start, action index) wins, as in min().
        old, j = slots[i], i + len(slots) // 2
        start = actions[rec.action_index].interval.start_s
        if old is None or rec.iou > slots[j] or (
                rec.iou == slots[j] and (start, rec.action_index) < (actions[old].interval.start_s, old)):
            slots[i], slots[j] = rec.action_index, rec.iou
    return folded


def _kept_clips(
    m: DatasetManifest, folded: dict[str, list], policy: FilterPolicy
) -> Iterator[tuple[str, VideoEntry, list[list[int]]]]:
    """Per video of ``m``, in order: its id, an entry with just its kept clips, and the
    action indices of each. Each video's entries leave ``folded`` as it is reached."""
    best = policy is FilterPolicy.BEST_PER_CLIP
    for video_id, entry in m.videos.items():
        kept, indices = [], []
        for clip, found in zip(entry.clips, folded.pop(video_id, ())):
            if found is not None:
                kept.append(clip)
                indices.append([found] if best else sorted(found))
        yield video_id, VideoEntry(entry.duration_s, kept), indices


def format_match_record(rec: MatchRecord) -> str:
    """One wire line per match; ratios carry nine decimal digits."""
    return (
        "{"
        f'"video_id": {encode_str(rec.video_id)}, '
        f'"clip_id": {encode_str(rec.clip_id)}, '
        f'"action_index": {rec.action_index}, '
        f'"iou": {rec.iou:.9f}, '
        f'"start_diff_s": {rec.start_diff_s:.9f}, '
        f'"rule": "{rec.rule.value}"'
        "}"
    )


# Each rule by its value: a dict lookup costs a fraction of MatchRule(value).
_RULES = {rule.value: rule for rule in MatchRule}


def parse_match_records(lines: Iterable[str]) -> Iterator[MatchRecord]:
    """Each match line as a record; an IoU or a start gap that ``match`` cannot write is an error."""
    source = stream_name(lines)
    rules = tuple(_RULES)
    for lineno, rec in iter_json_objects(lines, source):
        # Interned, so that the records of a video share one string, the manifest's too.
        video_id = sys.intern(want_str(rec, "video_id", lineno, source))
        clip_id = want_str(rec, "clip_id", lineno, source)
        action_index = want_int(rec, "action_index", lineno, source)
        iou = want_number(rec, "iou", lineno, source)
        if not 0.0 <= iou <= 1.0:
            raise InputError("field 'iou' must be in [0, 1]", lineno, source)
        start_diff_s = want_number(rec, "start_diff_s", lineno, source)
        if start_diff_s < 0.0:
            raise InputError("field 'start_diff_s' must be >= 0", lineno, source)
        yield MatchRecord(video_id, clip_id, action_index, iou, start_diff_s,
                          _RULES[want_choice(rec, "rule", rules, lineno, source)])
