"""Corpus profiling: histograms, summary aggregates and token-count files.

Histogram bins are half-open [lo, hi); values below the first edge land in
``underflow`` and values at or above the last edge in ``overflow``, so the
total count is always conserved. Medians take the lower middle element for
even sample sizes, keeping summaries deterministic without interpolation.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass
from math import fsum
from typing import TYPE_CHECKING, Iterable, Sequence

from .jsonl import TEXT, InputError, records, want_int, want_str
from .params import DEFAULT_EDGES, check_edges

if TYPE_CHECKING:  # for annotations only: ``from narrkit import histogram`` loads no manifest model
    from .manifest import DatasetManifest

__all__ = [
    "Histogram",
    "SummaryStats",
    "check_edges",
    "histogram",
    "summarize",
    "clip_length_summary",
    "clips_per_video_summary",
    "word_count",
    "read_token_counts",
    "dataset_report",
    "DEFAULT_EDGES",
]


@dataclass(frozen=True)
class Histogram:
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    underflow: int
    overflow: int

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def to_dict(self) -> dict:
        return {**asdict(self), "bin_edges": list(self.bin_edges), "counts": list(self.counts)}


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    median: float
    min: float
    max: float

    def to_dict(self) -> dict:
        return asdict(self)


def histogram(values: Iterable[float], bin_edges: Sequence[float]) -> Histogram:
    """Count values into half-open bins defined by strictly increasing edges."""
    edges = [float(e) for e in bin_edges]
    check_edges(edges)
    # slot 0 is the underflow and slot len(edges) the overflow; bisect_right
    # maps an edge value into the bin it opens, and a NaN value past the end.
    slots = [0] * (len(edges) + 1)
    for value in values:
        slots[bisect_right(edges, float(value))] += 1
    return Histogram(tuple(edges), tuple(slots[1:-1]), slots[0], slots[-1])


def _mean(data: list) -> float:
    try:
        return fsum(data) / len(data)
    except OverflowError:  # the sum passed the float range, which the mean cannot: sum exactly
        from fractions import Fraction  # loaded only on this path

        return float(sum(map(Fraction, data)) / len(data))


def summarize(values: Iterable[float]) -> SummaryStats:
    data = list(values)
    if not data:
        raise ValueError("cannot summarize an empty collection")
    # Before the sort: where an infinity meets a finite overflow, fsum's outcome follows the order.
    mean = _mean(data)
    # One copy, sorted in place. The sort is stable, so of equal values (0.0 and -0.0, 1 and
    # 1.0) the first given is first in its run, and that is the one min() and max() return.
    data.sort()
    return SummaryStats(
        n=len(data),
        mean=mean,
        median=float(data[(len(data) - 1) // 2]),  # the lower middle value
        min=float(data[0]),
        max=float(data[bisect_left(data, data[-1])]),  # the first of the largest values' run
    )


def clip_length_summary(m: DatasetManifest) -> SummaryStats:
    """Mean/median/min/max of clip lengths in seconds over the whole corpus."""
    lengths = [clip.interval.length_s for clip in m.iter_clips()]
    if not lengths:
        raise ValueError("manifest has no clips")
    return summarize(lengths)


def clips_per_video_summary(m: DatasetManifest) -> SummaryStats:
    if not m.videos:
        raise ValueError("manifest has no videos")
    return summarize([len(entry.clips) for entry in m.videos.values()])


def word_count(text: str) -> int:
    """Number of maximal whitespace-separated runs."""
    return len(text.split())


# Per kind of token file: the field that keys each count within its video.
_TOKEN_KEYS = {"caption": ("clip_id", want_str), "action": ("action_index", want_int)}


def read_token_counts(kind: str, path: str, m: DatasetManifest) -> list[int]:
    """The ``tokens`` count of each of ``m``'s clips (``kind`` "caption", keyed by ``clip_id``)
    or actions ("action", keyed by ``action_index``), in the manifest's order, from the JSONL
    file at ``path``; there must be some, and each must be present once."""
    field, want_key = _TOKEN_KEYS[kind]
    tables: defaultdict[str, dict] = defaultdict(dict)  # per video id, interned as the manifest's are
    with open(path, **TEXT) as fh, records(fh) as recs:
        for rec in recs:
            video_id = sys.intern(want_str(rec, "video_id"))
            key, table = want_key(rec, field), tables[video_id]
            if key in table:
                raise ValueError(f"duplicate {kind} token count for {(video_id, key)}")
            count = table[key] = want_int(rec, "tokens")
            if not 0 <= count <= 2**53:  # a histogram bins each count as an exact float
                raise ValueError("field 'tokens' must be an integer in [0, 2**53]")
    keys = (((clip.video_id, clip.clip_id) for clip in m.iter_clips()) if kind == "caption" else
            ((video_id, i) for video_id, actions in m.actions.items() for i in range(len(actions))))
    counts = []
    for video_id, key in keys:
        if key not in tables[video_id]:
            raise InputError(f"missing {kind} token count for {(video_id, key)}", source=path)
        counts.append(tables[video_id][key])
    if not counts:
        raise InputError("no records to profile", source=path)
    return counts


def _entry(values, edges) -> dict:
    section = {"histogram": histogram(values, edges).to_dict()}
    section["summary"] = summarize(values).to_dict() if values else None
    return section


def dataset_report(
    m: DatasetManifest,
    edges: dict[str, Sequence[float]] | None = None,
    caption_tokens: Sequence[int] | None = None,
    action_tokens: Sequence[int] | None = None,
) -> dict:
    """Build the full profiling document for a manifest.

    Returns a plain dict ready for JSON emission: named histogram+summary
    sections plus corpus-level counts. Token sections appear only when the
    corresponding precomputed counts are supplied.
    """
    cfg = {**DEFAULT_EDGES, **(edges or {})}

    durations = [
        e.duration_s for e in m.videos.values() if e.duration_s is not None
    ]
    # Each section's values are built as its entry is, so one list is alive at a time.
    report = {
        "n_videos": m.n_videos,
        "n_clips": m.n_clips,
        "n_actions": m.n_actions,
        "n_videos_with_duration": len(durations),
        "video_length_s": _entry(durations, cfg["video_length_s"]),
        "clip_length_s": _entry([c.interval.length_s for c in m.iter_clips()], cfg["clip_length_s"]),
        "clips_per_video": _entry([len(e.clips) for e in m.videos.values()], cfg["clips_per_video"]),
        "action_words": _entry([word_count(a.description) for a in m.iter_actions()], cfg["action_words"]),
        "caption_words": _entry([word_count(c.caption) for c in m.iter_clips()], cfg["caption_words"]),
    }
    for name, counts in (("action_tokens", action_tokens), ("caption_tokens", caption_tokens)):
        if counts is not None:
            lengths = [int(c) for c in counts]
            if not lengths:
                raise ValueError("no records to profile")
            report[name] = _entry(lengths, cfg[name])
    return report
