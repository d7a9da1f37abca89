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

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator

from .manifest import ActionRecord, ClipRecord, DatasetManifest, TimeInterval, VideoEntry

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


@dataclass(frozen=True)
class MatchThresholds:
    max_start_diff_s: float = 5.0
    iou_low: float = 0.2
    iou_high: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.iou_low <= self.iou_high <= 1.0:
            raise ValueError(
                f"need 0 <= iou_low <= iou_high <= 1, got "
                f"{self.iou_low}/{self.iou_high}"
            )
        if self.max_start_diff_s < 0:
            raise ValueError(f"max_start_diff_s must be >= 0, got {self.max_start_diff_s}")


@dataclass(frozen=True)
class MatchDecision:
    iou: float
    start_diff_s: float
    rule: MatchRule


@dataclass(frozen=True)
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
    intersection = min(a.end_s, b.end_s) - max(a.start_s, b.start_s)
    if intersection <= 0:
        return 0.0
    hull = max(a.end_s, b.end_s) - min(a.start_s, b.start_s)
    if hull <= 0:
        return 0.0
    return intersection / hull


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
    iou = interval_iou(clip.interval, action.interval)
    start_diff = abs(clip.interval.start_s - action.interval.start_s)
    rule_b = iou > th.iou_high
    rule_a = (
        start_diff < th.max_start_diff_s
        and clip.interval.end_s > action.interval.end_s
        and iou > th.iou_low
    )
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


def match_dataset(
    m: DatasetManifest, th: MatchThresholds | None = None, threads: int = 1
) -> list[MatchRecord]:
    """Match actions to clips in every video of the manifest.

    Output is ordered by (video_id, clip start, action index). All work runs
    in the calling thread; ``threads`` is accepted for compatibility and
    ignored.
    """
    th = th or MatchThresholds()
    merged: list[MatchRecord] = []
    for video_id in sorted(m.videos):
        merged.extend(
            _match_video(video_id, m.videos[video_id], m.actions.get(video_id, []), th)
        )
    return merged


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
    record existed in the input.
    """
    by_clip: dict[tuple[str, str], list[MatchRecord]] = {}
    # Clip ids of the video the previous match named. Match files are grouped
    # by video, so each set is built once and only one is alive at a time.
    ids_video, clip_ids = None, set()
    for rec in matches:
        entry = m.videos.get(rec.video_id)
        if entry is None:
            raise ValueError(f"match references unknown video '{rec.video_id}'")
        if rec.video_id != ids_video:
            ids_video, clip_ids = rec.video_id, {c.clip_id for c in entry.clips}
        if rec.clip_id not in clip_ids:
            raise ValueError(
                f"match references unknown clip '{rec.clip_id}' in video "
                f"'{rec.video_id}'"
            )
        actions = m.actions.get(rec.video_id, [])
        if not 0 <= rec.action_index < len(actions):
            raise ValueError(
                f"match references action index {rec.action_index} out of range "
                f"for video '{rec.video_id}'"
            )
        by_clip.setdefault((rec.video_id, rec.clip_id), []).append(rec)

    def best(candidates: list[MatchRecord]) -> MatchRecord:
        actions = m.actions[candidates[0].video_id]
        return min(
            candidates,
            key=lambda r: (
                -r.iou,
                actions[r.action_index].interval.start_s,
                r.action_index,
            ),
        )

    filtered = DatasetManifest(split_tag=m.split_tag)
    assignment: dict[tuple[str, str], list[int]] = {}
    for video_id, entry in m.videos.items():
        kept = []
        for clip in entry.clips:
            key = (video_id, clip.clip_id)
            candidates = by_clip.get(key)
            if not candidates:
                continue
            kept.append(clip)
            if policy is FilterPolicy.BEST_PER_CLIP:
                assignment[key] = [best(candidates).action_index]
            else:
                assignment[key] = sorted(r.action_index for r in candidates)
        filtered.videos[video_id] = VideoEntry(entry.duration_s, kept)
    for video_id, records in m.actions.items():
        filtered.actions[video_id] = records
    return FilterResult(filtered, assignment)


def format_match_record(rec: MatchRecord) -> str:
    """One wire line per match; ratios carry nine decimal digits."""
    return (
        "{"
        f'"video_id": {json.dumps(rec.video_id)}, '
        f'"clip_id": {json.dumps(rec.clip_id)}, '
        f'"action_index": {rec.action_index}, '
        f'"iou": {rec.iou:.9f}, '
        f'"start_diff_s": {rec.start_diff_s:.9f}, '
        f'"rule": "{rec.rule.value}"'
        "}"
    )


def parse_match_records(lines: Iterable[str]) -> Iterator[MatchRecord]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("record must be a JSON object")
            yield MatchRecord(
                rec["video_id"],
                rec["clip_id"],
                int(rec["action_index"]),
                float(rec["iou"]),
                float(rec["start_diff_s"]),
                MatchRule(rec["rule"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad match record at line {lineno}: {exc}") from exc
