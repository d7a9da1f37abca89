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
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

from .jsonl import (TEXT, InputError, encode_number, encode_str, records, want_choice, want_number, want_str,
                    want_text)

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
    "write_manifest",
]

RECORD_KINDS = ("video", "clip", "action")

ManifestSource = Union[str, os.PathLike, IO[str], Iterable[str]]


# The manifest reader's name for the error all readers raise (see jsonl).
ManifestError = InputError


class TimeInterval(complex):
    """Finite time span in seconds; end must lie strictly after start.

    An immutable value that stores both endpoints as doubles in the object
    itself: ``start_s`` is the real part and ``end_s`` the imaginary part, so
    an interval holds no float objects and each read builds one. It compares
    and hashes as the complex number with those parts; arithmetic inherited
    from ``complex`` is not part of its API.
    """

    __slots__ = ()
    __match_args__ = ("start_s", "end_s")

    start_s = complex.real
    end_s = complex.imag

    def __new__(cls, start_s: float, end_s: float):
        if isinstance(start_s, complex) or isinstance(end_s, complex):
            raise TypeError("interval endpoints must be real numbers")
        self = complex.__new__(cls, start_s, end_s)
        # Checked as stored: two ints may convert to the same double.
        start_s, end_s = self.real, self.imag
        if not (math.isfinite(start_s) and math.isfinite(end_s)):
            raise ValueError(f"interval endpoints must be finite, got [{start_s}, {end_s}]")
        if start_s < 0:
            raise ValueError(f"interval start must be >= 0, got {start_s}")
        if end_s <= start_s:
            raise ValueError(f"interval end must exceed start, got [{start_s}, {end_s}]")
        return self

    def __repr__(self) -> str:
        return f"TimeInterval(start_s={self.real!r}, end_s={self.imag!r})"

    @property
    def length_s(self) -> float:
        return self.imag - self.real


@dataclass(frozen=True, slots=True)
class ClipRecord:
    video_id: str
    clip_id: str
    interval: TimeInterval
    caption: str


@dataclass(frozen=True, slots=True)
class ActionRecord:
    video_id: str
    interval: TimeInterval
    description: str


@dataclass(slots=True)
class VideoEntry:
    """Per-video slot: known duration (if any) plus start-ordered clips."""

    duration_s: float | None = None
    clips: list[ClipRecord] = field(default_factory=list)


@dataclass
class DatasetManifest:
    """In-memory corpus: videos (with clips) and per-video action lists.

    Treated as immutable once built; functions in this package never mutate a
    manifest they receive.
    """

    videos: dict[str, VideoEntry] = field(default_factory=dict)
    actions: dict[str, list[ActionRecord]] = field(default_factory=dict)

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
        for actions in self.actions.values():
            yield from actions


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by validate_manifest. Data, not an error."""

    code: str
    video_id: str | None
    clip_id: str | None
    message: str


def parse_manifest(source: ManifestSource) -> DatasetManifest:
    """Parse a line-delimited manifest into a DatasetManifest.

    ``source`` may be a path, an open text file, or any iterable of lines.
    Parsing is insensitive to the order of record kinds: a clip may precede
    its video record, and a video record is optional (an entry with unknown
    duration is created for any referenced video id). Clips are sorted by
    start time within each video. Every ``video_id`` and ``clip_id`` is
    interned (``sys.intern``), so records with equal ids share one string.

    Raises ManifestError, carrying the offending line number, for unreadable
    JSON, unknown kinds, missing or mistyped fields, invalid intervals, and
    duplicate ids.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, **TEXT) as fh:
            return parse_manifest(fh)
    videos: dict[str, VideoEntry] = {}
    # Each video's clips by clip_id: the duplicate check and, in line order, the clips.
    clips: defaultdict[str, dict[str, ClipRecord]] = defaultdict(dict)
    actions: defaultdict[str, list[ActionRecord]] = defaultdict(list)

    with records(source) as recs:
        for rec in recs:
            kind = want_choice(rec, "kind", RECORD_KINDS)
            # Interned, so that all the records of a video share one string.
            video_id = sys.intern(want_str(rec, "video_id"))

            if kind == "video":
                if video_id in videos:
                    raise ValueError(f"duplicate video record '{video_id}'")
                entry = videos[video_id] = VideoEntry()
                if rec.get("duration_s") is not None:
                    duration = want_number(rec, "duration_s")
                    if duration <= 0:
                        raise ValueError("field 'duration_s' must be > 0")
                    entry.duration_s = duration
            elif kind == "clip":
                # Interned too: corpora number clips within each video, so ids repeat across videos.
                clip_id = sys.intern(want_str(rec, "clip_id"))
                start = want_number(rec, "start_s")
                end = want_number(rec, "end_s")
                caption = want_text(rec, "caption")
                try:
                    interval = TimeInterval(start, end)
                except ValueError as exc:
                    raise ValueError(f"clip '{clip_id}': {exc}") from exc
                by_id = clips[video_id]
                if clip_id in by_id:
                    raise ValueError(f"duplicate clip_id '{clip_id}' in video '{video_id}'")
                by_id[clip_id] = ClipRecord(video_id, clip_id, interval, caption)
            else:
                start = want_number(rec, "start_s")
                end = want_number(rec, "end_s")
                description = want_text(rec, "description")
                try:
                    interval = TimeInterval(start, end)
                except ValueError as exc:
                    raise ValueError(f"action in video '{video_id}': {exc}") from exc
                actions[video_id].append(ActionRecord(video_id, interval, description))

    manifest = DatasetManifest()
    for video_id in sorted(videos.keys() | clips.keys() | actions.keys()):
        entry = manifest.videos[video_id] = videos.get(video_id) or VideoEntry()
        # Each video's dict goes as its list is made; the stable sort keeps line order.
        entry.clips = sorted(clips.pop(video_id, {}).values(), key=lambda c: c.interval.start_s)
        if video_id in actions:
            # A new list sized to its records, not the one append over-allocated.
            # The full-key sort keeps parsing insensitive to input line order even
            # for actions sharing a start time.
            manifest.actions[video_id] = sorted(
                actions.pop(video_id), key=lambda a: (a.interval.start_s, a.interval.end_s, a.description)
            )
    return manifest


def validate_manifest(m: DatasetManifest) -> list[Violation]:
    """Collect the content breaches of a manifest as ``parse_manifest`` returns it.

    Parsing already rejects duplicate ids and durations not above 0, sorts each
    video's clips, and files every record under its own video: what a parsed
    manifest can still hold is a blank caption, a clip that ends past its video,
    and a blank action description. Returns an empty list when it holds none of
    these; unlike parse_manifest this never raises.
    """
    out: list[Violation] = []
    for video_id, entry in m.videos.items():
        duration = entry.duration_s
        for clip in entry.clips:
            if not clip.caption.strip():
                out.append(Violation("empty-caption", video_id, clip.clip_id, "caption is blank"))
            if duration is not None and clip.interval.end_s > duration:
                message = f"clip ends at {clip.interval.end_s}s but video lasts {duration}s"
                out.append(Violation("clip-exceeds-duration", video_id, clip.clip_id, message))
    for video_id, actions in m.actions.items():
        for idx, action in enumerate(actions):
            if not action.description.strip():
                message = f"action {idx} description is blank"
                out.append(Violation("empty-description", video_id, None, message))
    return out


def _record_lines(m: DatasetManifest) -> Iterator[str]:
    for video_id in sorted(set(m.videos) | set(m.actions)):
        vid = encode_str(video_id)
        try:
            entry = m.videos.get(video_id)
            if entry is not None:
                if entry.duration_s is None:
                    yield f'{{"kind": "video", "video_id": {vid}}}'
                else:
                    duration = encode_number(entry.duration_s, "duration_s")
                    yield f'{{"kind": "video", "video_id": {vid}, "duration_s": {duration}}}'
                for clip in entry.clips:
                    yield (
                        f'{{"kind": "clip", "video_id": {vid}, "clip_id": {encode_str(clip.clip_id)}, '
                        f'"start_s": {encode_number(clip.interval.start_s, "start_s")}, '
                        f'"end_s": {encode_number(clip.interval.end_s, "end_s")}, '
                        f'"caption": {encode_str(clip.caption)}}}'
                    )
            for action in m.actions.get(video_id, []):
                yield (
                    f'{{"kind": "action", "video_id": {vid}, '
                    f'"start_s": {encode_number(action.interval.start_s, "start_s")}, '
                    f'"end_s": {encode_number(action.interval.end_s, "end_s")}, '
                    f'"description": {encode_str(action.description)}}}'
                )
        except ValueError as exc:
            raise ValueError(f"video '{video_id}': {exc}") from None


def write_manifest(m: DatasetManifest, sink: Union[str, os.PathLike, IO[str]]) -> int:
    """Serialize a manifest as line-delimited records; returns bytes written.

    Videos are emitted in sorted id order so output is canonical; parsing the
    result reproduces the manifest structurally (see parse_manifest). Each
    line is the ASCII that ``json.dumps`` writes for its record, so the count
    is its length. A number that is not finite raises ValueError naming its
    video; given a path, it raises before the file is opened.
    """
    lines: Iterable[str] = _record_lines(m)
    if isinstance(sink, (str, os.PathLike)):
        lines = list(lines)
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            return _write_lines(lines, fh)
    return _write_lines(lines, sink)


def _write_lines(lines: Iterable[str], sink: IO[str]) -> int:
    written = 0
    for line in lines:
        sink.write(line + "\n")
        written += len(line) + 1
    return written


def dumps_manifest(m: DatasetManifest) -> str:
    """Render the manifest to a single string (mostly for tests and stdout)."""
    buf = io.StringIO()
    write_manifest(m, buf)
    return buf.getvalue()
