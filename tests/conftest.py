import functools
import operator
import os

import numpy as np
import pytest

from narrkit.context import NarrativeSequence, StepRecord
from narrkit.manifest import (
    ActionRecord,
    ClipRecord,
    DatasetManifest,
    TimeInterval,
    VideoEntry,
)

_WORDS = (
    "stir the sauce pour oil chop onions heat pan add salt mix batter "
    "flip gently plate garnish simmer broth whisk eggs knead dough"
).split()


def _text(rng: np.random.Generator, lo=2, hi=12) -> str:
    n = int(rng.integers(lo, hi + 1))
    return " ".join(rng.choice(_WORDS, size=n))


def random_manifest(
    rng: np.random.Generator,
    n_videos: int = 50,
    max_clips: int = 20,
    max_actions: int = 20,
) -> DatasetManifest:
    """Valid synthetic corpus with overlapping clip/action intervals."""
    m = DatasetManifest()
    for i in range(n_videos):
        video_id = f"v{i:05d}"
        clips = []
        for j in range(int(rng.integers(0, max_clips + 1))):
            start = float(rng.uniform(0, 100))
            end = start + float(rng.uniform(0.5, 30))
            clips.append(
                ClipRecord(video_id, f"c{j:03d}", TimeInterval(start, end), _text(rng))
            )
        clips.sort(key=lambda c: c.interval.start_s)
        if clips and rng.random() < 0.7:
            duration = max(c.interval.end_s for c in clips) + float(rng.uniform(0, 30))
        else:
            duration = None
        m.videos[video_id] = VideoEntry(duration, clips)

        actions = []
        for _ in range(int(rng.integers(0, max_actions + 1))):
            if clips and rng.random() < 0.15:
                # mirror a clip interval so exact-overlap paths get exercised
                src = clips[int(rng.integers(0, len(clips)))]
                interval = TimeInterval(src.interval.start_s, src.interval.end_s)
            else:
                start = float(rng.uniform(0, 100))
                interval = TimeInterval(start, start + float(rng.uniform(0.5, 30)))
            actions.append(ActionRecord(video_id, interval, _text(rng)))
        if actions:
            actions.sort(key=lambda a: (a.interval.start_s, a.interval.end_s, a.description))
            m.actions[video_id] = actions
    return m


def random_sequence(rng: np.random.Generator, n_steps: int, sequence_id="seq") -> NarrativeSequence:
    steps = [
        StepRecord(t, _text(rng, 1, 5), _text(rng, 3, 9), f"emb-{t:04d}", f"key-{t:04d}")
        for t in range(1, n_steps + 1)
    ]
    return NarrativeSequence(sequence_id, steps)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def allow_cpus(monkeypatch, n: int) -> None:
    """Make this process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left() -> None:
    """Fail if this process has a child that is running or not yet reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def left_to_right_sum(values) -> float:
    """Floats added one at a time from 0.0, as Python's builtin sum added them
    before 3.12 made it compensated: the order a per-pair loop sums in."""
    return functools.reduce(operator.add, values, 0.0)
