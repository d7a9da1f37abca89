"""Narrative sequences and rolling-context conditioning windows.

A narrative sequence is an ordered list of steps, each holding an action,
a caption, an embedding reference and a keyframe reference. From it we
derive conditioning windows: 2k-step views where the first k steps supply
reference frames and the last k are render targets. Windows advance with
stride k, so each window's targets become the next window's references (the
rolling contract). When the steps run out before the last window's targets
are complete, that window is the same slice cut short by the end of the
sequence and is flagged partial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .jsonl import records, want_int, want_str, want_text
from .params import check_context_length

__all__ = [
    "StepRecord",
    "NarrativeSequence",
    "ConditioningWindow",
    "tile_captions",
    "check_context_length",
    "build_windows",
    "window_count",
    "export_windows",
    "read_step_sequences",
]


@dataclass(frozen=True, slots=True)
class StepRecord:
    index: int  # 1-based position within the sequence
    action: str
    caption: str
    embedding_id: str
    keyframe_id: str


@dataclass
class NarrativeSequence:
    sequence_id: str
    steps: list[StepRecord]

    def __post_init__(self):
        if not self.steps:
            raise ValueError(f"sequence '{self.sequence_id}' has no steps")
        for pos, step in enumerate(self.steps, start=1):
            if step.index != pos:
                raise ValueError(
                    f"sequence '{self.sequence_id}': step indices must be "
                    f"contiguous from 1, found {step.index} at position {pos}"
                )

    def __len__(self) -> int:
        return len(self.steps)


def tile_captions(captions: Iterable[str], separator: str = "\n") -> str:
    """Join captions in temporal order into one conditioning text.

    Splitting on the separator recovers the inputs as long as no caption
    contains it.
    """
    items = list(captions)
    if not items:
        raise ValueError("need at least one caption to tile")
    return separator.join(items)


@dataclass(frozen=True)
class ConditioningWindow:
    """One render window: k reference steps followed by the target steps.

    ``partial`` marks the last window when the end of the sequence cuts its
    target block short of k steps; no other window is shorter.
    """

    window_index: int
    k: int
    ref_step_indices: tuple[int, ...]
    target_step_indices: tuple[int, ...]
    reference_frames: tuple[str, ...]
    target_frames: tuple[str, ...]
    reference_embeddings: tuple[str, ...]
    target_embeddings: tuple[str, ...]
    tiled_caption: str
    partial: bool = field(default=False)


def _make_window(
    index: int, k: int, refs: list[StepRecord], targets: list[StepRecord], partial: bool
) -> ConditioningWindow:
    return ConditioningWindow(
        window_index=index,
        k=k,
        ref_step_indices=tuple(s.index for s in refs),
        target_step_indices=tuple(s.index for s in targets),
        reference_frames=tuple(s.keyframe_id for s in refs),
        target_frames=tuple(s.keyframe_id for s in targets),
        reference_embeddings=tuple(s.embedding_id for s in refs),
        target_embeddings=tuple(s.embedding_id for s in targets),
        tiled_caption=tile_captions([s.caption for s in refs + targets]),
        partial=partial,
    )


def build_windows(seq: NarrativeSequence, k: int) -> list[ConditioningWindow]:
    """Slice a sequence into rolling conditioning windows of context length k.

    Windows start at step 1 and advance with stride k; window i's targets
    are window i+1's references. Requires 1 <= k <= 3 and at least 2k steps.
    """
    check_context_length(k)
    n = len(seq)
    if n < 2 * k:
        raise ValueError(
            f"sequence '{seq.sequence_id}' has {n} steps; need at least {2 * k} "
            f"for k={k}"
        )
    steps = seq.steps
    return [
        _make_window(i, k, steps[s : s + k], steps[s + k : s + 2 * k], partial=s + 2 * k > n)
        for i, s in enumerate(range(0, n - k, k))
    ]


def window_count(n_steps: int, k: int) -> int:
    """Number of windows build_windows emits for a sequence of n_steps."""
    if n_steps < 2 * k:
        raise ValueError(f"need at least {2 * k} steps for k={k}")
    return -(-(n_steps - 2 * k) // k) + 1


def export_windows(
    seq: NarrativeSequence, windows: Iterable[ConditioningWindow]
) -> Iterator[str]:
    """Serialize windows as line-delimited records for downstream renderers."""
    for w in windows:
        yield json.dumps(
            {
                "sequence_id": seq.sequence_id,
                "window_index": w.window_index,
                "k": w.k,
                "ref_step_indices": list(w.ref_step_indices),
                "target_step_indices": list(w.target_step_indices),
                "tiled_caption": w.tiled_caption,
                "embedding_ids": list(w.reference_embeddings + w.target_embeddings),
                "partial": w.partial,
            }
        )


def read_step_sequences(lines: Iterable[str]) -> dict[str, NarrativeSequence]:
    """Read line-delimited step records grouped into sequences.

    Each record is {sequence_id, index, action, caption, embedding_id,
    keyframe_id}. Steps may arrive in any order; they are sorted by index
    per sequence and must then be contiguous from 1.
    """
    grouped: dict[str, list[StepRecord]] = {}
    with records(lines) as recs:
        for rec in recs:
            step = StepRecord(
                want_int(rec, "index"),
                want_text(rec, "action"),
                want_text(rec, "caption"),
                want_str(rec, "embedding_id"),
                want_str(rec, "keyframe_id"),
            )
            grouped.setdefault(want_str(rec, "sequence_id"), []).append(step)
    sequences: dict[str, NarrativeSequence] = {}
    for sequence_id in sorted(grouped):
        steps = sorted(grouped[sequence_id], key=lambda s: s.index)
        sequences[sequence_id] = NarrativeSequence(sequence_id, steps)
    return sequences
