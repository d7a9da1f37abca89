"""Corpus profiling: histograms and summary aggregates.

Histogram bins are half-open [lo, hi); values below the first edge land in
``underflow`` and values at or above the last edge in ``overflow``, so the
total count is always conserved. Medians take the lower middle element for
even sample sizes, keeping summaries deterministic without interpolation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from math import fsum
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # a config's histogram_edges are checked without loading the manifest model
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


def check_edges(edges: Sequence[float]) -> None:
    """Raise ValueError unless edges are at least two strictly increasing numbers."""
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    if not all(hi > lo for lo, hi in zip(edges, edges[1:])):  # a NaN edge fails too
        raise ValueError("bin edges must be strictly increasing")


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
    return SummaryStats(
        n=len(data),
        mean=_mean(data),
        median=float(sorted(data)[(len(data) - 1) // 2]),  # the lower middle value
        min=float(min(data)),
        max=float(max(data)),
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


DEFAULT_EDGES: dict[str, list[float]] = {
    "video_length_s": [float(e) for e in range(0, 630, 30)],
    "clip_length_s": [float(e) for e in range(0, 65, 5)],
    "clips_per_video": [float(e) for e in range(0, 32, 2)],
    "action_words": [float(e) for e in range(0, 105, 5)],
    "caption_words": [float(e) for e in range(0, 160, 10)],
    "action_tokens": [float(e) for e in range(0, 170, 10)],
    "caption_tokens": [float(e) for e in range(0, 210, 10)],
}


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
    cfg = dict(DEFAULT_EDGES)
    if edges:
        cfg.update(edges)

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
