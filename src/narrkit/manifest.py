"""Corpus data model and line-delimited manifest I/O.

A manifest file is UTF-8 text with one JSON record per line. Every record
carries a ``kind`` field:

    {"kind": "video", "video_id": "v1", "duration_s": 120.0}
    {"kind": "clip", "video_id": "v1", "clip_id": "c1",
     "start_s": 0.0, "end_s": 10.0, "caption": "..."}
    {"kind": "action", "video_id": "v1", "start_s": 1.0, "end_s": 9.0,
     "description": "..."}

``duration_s`` is optional (some source corpora do not ship it). Record
kinds may arrive in any order; clips are sorted by start time per video on
ingest. Timestamps are finite decimal seconds and survive a write/parse round
trip at full precision.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

__all__ = [
    "ManifestError",
    "TimeInterval",
    "ClipRecord",
    "ActionRecord",
    "VideoEntry",
    "DatasetManifest",
    "Violation",
    "parse_manifest",
    "validate_manifest",
    "partition",
    "write_manifest",
]

RECORD_KINDS = ("video", "clip", "action")

ManifestSource = Union[str, os.PathLike, IO[str], Iterable[str]]


class ManifestError(ValueError):
    """Raised for malformed manifest input. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class TimeInterval:
    """Finite time span in seconds; end must lie strictly after start."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ValueError(
                f"interval endpoints must be finite, got [{self.start_s}, {self.end_s}]"
            )
        if self.start_s < 0:
            raise ValueError(f"interval start must be >= 0, got {self.start_s}")
        if self.end_s <= self.start_s:
            raise ValueError(
                f"interval end must exceed start, got [{self.start_s}, {self.end_s}]"
            )

    @property
    def length_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class ClipRecord:
    video_id: str
    clip_id: str
    interval: TimeInterval
    caption: str


@dataclass(frozen=True)
class ActionRecord:
    video_id: str
    interval: TimeInterval
    description: str


@dataclass
class VideoEntry:
    """Per-video slot: known duration (if any) plus start-ordered clips."""

    duration_s: float | None = None
    clips: list[ClipRecord] = field(default_factory=list)


@dataclass
class DatasetManifest:
    """In-memory corpus: videos (with clips) and per-video action lists.

    Treated as immutable once built; functions in this package never mutate a
    manifest they receive. ``split_tag`` annotates which partition a manifest
    represents and is deliberately excluded from structural equality, since
    the wire format only carries video/clip/action records.
    """

    videos: dict[str, VideoEntry] = field(default_factory=dict)
    actions: dict[str, list[ActionRecord]] = field(default_factory=dict)
    split_tag: str | None = field(default=None, compare=False)

    @property
    def n_videos(self) -> int:
        return len(self.videos)

    @property
    def n_clips(self) -> int:
        return sum(len(v.clips) for v in self.videos.values())

    @property
    def n_actions(self) -> int:
        return sum(len(a) for a in self.actions.values())

    def iter_clips(self) -> Iterator[ClipRecord]:
        for entry in self.videos.values():
            yield from entry.clips

    def iter_actions(self) -> Iterator[ActionRecord]:
        for records in self.actions.values():
            yield from records


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by validate_manifest. Data, not an error."""

    code: str
    video_id: str | None
    clip_id: str | None
    message: str


def _iter_lines(source: ManifestSource) -> Iterator[str]:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


def _want_str(rec: dict, key: str, lineno: int) -> str:
    value = rec.get(key)
    if not isinstance(value, str) or not value:
        raise ManifestError(f"field '{key}' must be a non-empty string", lineno)
    return value


def _want_text(rec: dict, key: str, lineno: int) -> str:
    value = rec.get(key)
    if not isinstance(value, str):
        raise ManifestError(f"field '{key}' must be a string", lineno)
    return value


def _want_number(rec: dict, key: str, lineno: int) -> float:
    value = rec.get(key)
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ManifestError(f"field '{key}' must be a finite number", lineno)


def parse_manifest(source: ManifestSource) -> DatasetManifest:
    """Parse a line-delimited manifest into a DatasetManifest.

    ``source`` may be a path, an open text file, or any iterable of lines.
    Parsing is insensitive to the order of record kinds: a clip may precede
    its video record, and a video record is optional (an entry with unknown
    duration is created for any referenced video id). Clips are sorted by
    start time within each video.

    Raises ManifestError, carrying the offending line number, for unreadable
    JSON, unknown kinds, missing or mistyped fields, invalid intervals, and
    duplicate ids.
    """
    durations: dict[str, float | None] = {}
    explicit_videos: set[str] = set()
    clips: dict[str, list[ClipRecord]] = {}
    clip_ids: dict[str, set[str]] = {}
    actions: dict[str, list[ActionRecord]] = {}

    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"invalid JSON: {exc.msg}", lineno) from exc
        if not isinstance(rec, dict):
            raise ManifestError("record must be a JSON object", lineno)

        kind = rec.get("kind")
        if kind not in RECORD_KINDS:
            raise ManifestError(
                f"field 'kind' must be one of {RECORD_KINDS}, got {kind!r}", lineno
            )
        video_id = _want_str(rec, "video_id", lineno)

        if kind == "video":
            if video_id in explicit_videos:
                raise ManifestError(f"duplicate video record '{video_id}'", lineno)
            explicit_videos.add(video_id)
            duration = None
            if rec.get("duration_s") is not None:
                duration = _want_number(rec, "duration_s", lineno)
                if duration <= 0:
                    raise ManifestError("field 'duration_s' must be > 0", lineno)
            durations[video_id] = duration
        elif kind == "clip":
            clip_id = _want_str(rec, "clip_id", lineno)
            start = _want_number(rec, "start_s", lineno)
            end = _want_number(rec, "end_s", lineno)
            caption = _want_text(rec, "caption", lineno)
            try:
                interval = TimeInterval(start, end)
            except ValueError as exc:
                raise ManifestError(f"clip '{clip_id}': {exc}", lineno) from exc
            seen = clip_ids.setdefault(video_id, set())
            if clip_id in seen:
                raise ManifestError(
                    f"duplicate clip_id '{clip_id}' in video '{video_id}'", lineno
                )
            seen.add(clip_id)
            clips.setdefault(video_id, []).append(
                ClipRecord(video_id, clip_id, interval, caption)
            )
        else:
            start = _want_number(rec, "start_s", lineno)
            end = _want_number(rec, "end_s", lineno)
            description = _want_text(rec, "description", lineno)
            try:
                interval = TimeInterval(start, end)
            except ValueError as exc:
                raise ManifestError(f"action in video '{video_id}': {exc}", lineno) from exc
            actions.setdefault(video_id, []).append(
                ActionRecord(video_id, interval, description)
            )

    manifest = DatasetManifest()
    all_ids = set(durations) | set(clips) | set(actions)
    for video_id in sorted(all_ids):
        ordered = sorted(
            clips.get(video_id, []), key=lambda c: c.interval.start_s
        )
        manifest.videos[video_id] = VideoEntry(durations.get(video_id), ordered)
        if video_id in actions:
            # full-key sort keeps parsing insensitive to input line order even
            # for actions sharing a start time
            manifest.actions[video_id] = sorted(
                actions[video_id],
                key=lambda a: (a.interval.start_s, a.interval.end_s, a.description),
            )
    return manifest


def validate_manifest(m: DatasetManifest) -> list[Violation]:
    """Collect every invariant breach in the manifest.

    Returns an empty list exactly when the manifest is well-formed. Unlike
    parse_manifest this never raises; violations are data.
    """
    out: list[Violation] = []

    def flag(code, video_id, clip_id, message):
        out.append(Violation(code, video_id, clip_id, message))

    for video_id, entry in m.videos.items():
        duration = entry.duration_s
        if duration is not None and duration <= 0:
            flag("bad-duration", video_id, None, f"duration_s {duration} is not > 0")
            duration = None
        seen_ids: set[str] = set()
        prev_start = None
        for clip in entry.clips:
            if clip.video_id != video_id:
                flag(
                    "video-id-mismatch",
                    video_id,
                    clip.clip_id,
                    f"clip carries video_id '{clip.video_id}'",
                )
            if clip.clip_id in seen_ids:
                flag(
                    "duplicate-clip-id",
                    video_id,
                    clip.clip_id,
                    f"clip_id '{clip.clip_id}' appears more than once",
                )
            seen_ids.add(clip.clip_id)
            if not clip.caption.strip():
                flag("empty-caption", video_id, clip.clip_id, "caption is blank")
            if duration is not None and clip.interval.end_s > duration:
                flag(
                    "clip-exceeds-duration",
                    video_id,
                    clip.clip_id,
                    f"clip ends at {clip.interval.end_s}s but video lasts {duration}s",
                )
            if prev_start is not None and clip.interval.start_s < prev_start:
                flag(
                    "clips-unordered",
                    video_id,
                    clip.clip_id,
                    "clips are not sorted by start_s",
                )
            prev_start = clip.interval.start_s

    for video_id, records in m.actions.items():
        if video_id not in m.videos:
            flag(
                "orphan-actions",
                video_id,
                None,
                "actions reference a video absent from the videos map",
            )
        for idx, action in enumerate(records):
            if action.video_id != video_id:
                flag(
                    "video-id-mismatch",
                    video_id,
                    None,
                    f"action {idx} carries video_id '{action.video_id}'",
                )
            if not action.description.strip():
                flag(
                    "empty-description",
                    video_id,
                    None,
                    f"action {idx} description is blank",
                )
    return out


def partition(
    m: DatasetManifest, val_ids: Iterable[str]
) -> tuple[DatasetManifest, DatasetManifest]:
    """Split a manifest into (train, val) by video id.

    Every id in ``val_ids`` must exist in the manifest; records are shared
    with the input, never copied or modified.
    """
    wanted = set(val_ids)
    known = set(m.videos) | set(m.actions)
    unknown = sorted(wanted - known)
    if unknown:
        raise ValueError(f"val_ids not present in manifest: {unknown}")

    train = DatasetManifest(split_tag="train")
    val = DatasetManifest(split_tag="val")
    for video_id, entry in m.videos.items():
        (val if video_id in wanted else train).videos[video_id] = entry
    for video_id, records in m.actions.items():
        (val if video_id in wanted else train).actions[video_id] = records
    return train, val


def _record_lines(m: DatasetManifest) -> Iterator[str]:
    for video_id in sorted(set(m.videos) | set(m.actions)):
        entry = m.videos.get(video_id)
        if entry is not None:
            rec = {"kind": "video", "video_id": video_id}
            if entry.duration_s is not None:
                rec["duration_s"] = entry.duration_s
            yield json.dumps(rec)
            for clip in entry.clips:
                yield json.dumps(
                    {
                        "kind": "clip",
                        "video_id": video_id,
                        "clip_id": clip.clip_id,
                        "start_s": clip.interval.start_s,
                        "end_s": clip.interval.end_s,
                        "caption": clip.caption,
                    }
                )
        for action in m.actions.get(video_id, []):
            yield json.dumps(
                {
                    "kind": "action",
                    "video_id": video_id,
                    "start_s": action.interval.start_s,
                    "end_s": action.interval.end_s,
                    "description": action.description,
                }
            )


def write_manifest(m: DatasetManifest, sink: Union[str, os.PathLike, IO[str]]) -> int:
    """Serialize a manifest as line-delimited records; returns bytes written.

    Videos are emitted in sorted id order so output is canonical; parsing the
    result reproduces the manifest structurally (see parse_manifest).
    """
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            return write_manifest(m, fh)
    written = 0
    for line in _record_lines(m):
        sink.write(line + "\n")
        written += len(line.encode("utf-8")) + 1
    return written


def dumps_manifest(m: DatasetManifest) -> str:
    """Render the manifest to a single string (mostly for tests and stdout)."""
    buf = io.StringIO()
    write_manifest(m, buf)
    return buf.getvalue()
