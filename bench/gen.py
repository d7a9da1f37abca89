"""Seeded synthetic inputs for the three benchmark workloads.

Every file is a pure function of (workload, seed, scale). The generator
imports nothing from narrkit: it writes the wire formats directly, and keeps
the records it wrote in memory so the output checks in ``checks.py`` can
compute expected results without going through the program under test.

``scale`` shrinks every size for the smoke test; 1.0 gives the sizes the
benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

# Same vocabulary and interval shapes as tests/conftest.random_manifest.
_WORDS = (
    "stir the sauce pour oil chop onions heat pan add salt mix batter "
    "flip gently plate garnish simmer broth whisk eggs knead dough"
).split()
_TIERS = ("VeryMatch", "GoodMatch", "SomehowMatch", "NotMatch")
_RATERS = tuple(f"r{i}" for i in range(5))
_EMB_MAGIC = b"EMB1"


@dataclass
class Video:
    video_id: str
    duration_s: float | None
    # (clip_id, start, end, caption), sorted by start
    clips: list[tuple[str, float, float, str]]
    # (start, end, description), sorted by (start, end, description)
    actions: list[tuple[float, float, str]]


@dataclass
class Inputs:
    """Paths of the generated files plus what the checks need to know."""

    files: dict[str, str] = field(default_factory=dict)
    videos: list[Video] = field(default_factory=list)
    step_counts: list[int] = field(default_factory=list)
    tiers: list[tuple[str, str, str]] = field(default_factory=list)  # item, rater, tier
    ratings: list[int] = field(default_factory=list)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    records: dict[str, int] = field(default_factory=dict)

    def describe(self) -> dict:
        """Record count, byte size and sha256 of every generated file."""
        out = {}
        for name, path in sorted(self.files.items()):
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            out[name] = {
                "file": os.path.basename(path),
                "records": self.records[name],
                "bytes": os.path.getsize(path),
                "sha256": digest.hexdigest(),
            }
        return out


def _texts(rng: np.random.Generator, n: int, lo: int = 2, hi: int = 12) -> list[str]:
    """n space-joined runs of lo..hi words each."""
    counts = rng.integers(lo, hi + 1, size=n)
    words = [_WORDS[i] for i in rng.integers(0, len(_WORDS), size=int(counts.sum()))]
    ends = np.cumsum(counts).tolist()
    return [" ".join(words[e - c : e]) for e, c in zip(ends, counts.tolist())]


def _intervals(rng: np.random.Generator, n: int, span_s: float) -> tuple[list[float], list[float]]:
    start = rng.uniform(0, span_s, size=n)
    return start.tolist(), (start + rng.uniform(0.5, 30, size=n)).tolist()


def _video(
    rng: np.random.Generator,
    video_id: str,
    n_clips: int,
    n_actions: int,
    span_s: float,
    mirror_rate: float,
) -> Video:
    starts, ends = _intervals(rng, n_clips, span_s)
    clips = sorted(
        zip([f"c{j:04d}" for j in range(n_clips)], starts, ends, _texts(rng, n_clips)),
        key=lambda c: c[1],
    )
    if clips and rng.random() < 0.7:
        duration = max(c[2] for c in clips) + float(rng.uniform(0, 30))
    else:
        duration = None
    starts, ends = _intervals(rng, n_actions, span_s)
    if clips:
        # mirror some clip intervals so exact-overlap paths get exercised
        mirror = (rng.random(n_actions) < mirror_rate).tolist()
        sources = rng.integers(0, len(clips), size=n_actions).tolist()
        for i in range(n_actions):
            if mirror[i]:
                starts[i], ends[i] = clips[sources[i]][1], clips[sources[i]][2]
    actions = sorted(zip(starts, ends, _texts(rng, n_actions)))
    return Video(video_id, duration, clips, actions)


def _write_manifest(path: str, videos: list[Video]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for v in videos:
            rec = {"kind": "video", "video_id": v.video_id}
            if v.duration_s is not None:
                rec["duration_s"] = v.duration_s
            lines = [json.dumps(rec)]
            for clip_id, start, end, caption in v.clips:
                lines.append(json.dumps({
                    "kind": "clip", "video_id": v.video_id, "clip_id": clip_id,
                    "start_s": start, "end_s": end, "caption": caption,
                }))
            for start, end, description in v.actions:
                lines.append(json.dumps({
                    "kind": "action", "video_id": v.video_id,
                    "start_s": start, "end_s": end, "description": description,
                }))
            fh.write("\n".join(lines) + "\n")
            n += len(lines)
    return n


def _write_jsonl(path: str, records) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
            n += 1
    return n


def _write_emb1(path: str, vectors: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC + struct.pack("<II", *vectors.shape))
        fh.write(np.ascontiguousarray(vectors, dtype="<f4").tobytes())


def _corpus_wide(inp: Inputs, rng: np.random.Generator, workdir: str, scale: float) -> None:
    n_videos = max(8, round(4000 * scale))
    inp.videos = [
        _video(rng, f"v{i:05d}", int(rng.integers(0, 21)), int(rng.integers(0, 21)), 100.0, 0.15)
        for i in range(n_videos)
    ]
    inp.files["manifest"] = os.path.join(workdir, "corpus.jsonl")
    inp.records["manifest"] = _write_manifest(inp.files["manifest"], inp.videos)

    # One narrative sequence per video with at least 2k = 4 clips, so that
    # `windows --k 2` accepts every sequence.
    steps = []
    for v in inp.videos:
        if len(v.clips) < 4:
            continue
        inp.step_counts.append(len(v.clips))
        for index, (clip_id, _, _, caption) in enumerate(v.clips, start=1):
            action = v.actions[index - 1][2] if index <= len(v.actions) else _texts(rng, 1, 1, 5)[0]
            steps.append({
                "sequence_id": v.video_id, "index": index, "action": action,
                "caption": caption, "embedding_id": f"{v.video_id}/{clip_id}/emb",
                "keyframe_id": f"{v.video_id}/{clip_id}/key",
            })
    inp.files["steps"] = os.path.join(workdir, "steps.jsonl")
    inp.records["steps"] = _write_jsonl(inp.files["steps"], steps)

    items = [f"{v.video_id}/{c[0]}" for v in inp.videos for c in v.clips]
    for item in items:
        raters = rng.permutation(len(_RATERS))[: int(rng.integers(1, 4))]
        for r in sorted(raters):
            inp.tiers.append((item, _RATERS[r], _TIERS[int(rng.integers(0, 4))]))
    inp.ratings = [int(x) for x in rng.integers(0, 7, size=len(items))]
    inp.files["tiers"] = os.path.join(workdir, "tiers.jsonl")
    inp.records["tiers"] = _write_jsonl(
        inp.files["tiers"],
        ({"item_id": i, "rater_id": r, "tier": t} for i, r, t in inp.tiers),
    )
    inp.files["ratings"] = os.path.join(workdir, "ratings.jsonl")
    inp.records["ratings"] = _write_jsonl(
        inp.files["ratings"],
        ({"item_id": i, "rating": r} for i, r in zip(items, inp.ratings)),
    )


def _corpus_long(inp: Inputs, rng: np.random.Generator, workdir: str, scale: float) -> None:
    n = max(20, round(1000 * scale))
    inp.videos = [
        _video(rng, f"L{i:04d}", n, n, 36000.0 * n / 1000, 0.02) for i in range(4)
    ]
    inp.files["manifest"] = os.path.join(workdir, "long.jsonl")
    inp.records["manifest"] = _write_manifest(inp.files["manifest"], inp.videos)


def _embed_eval(inp: Inputs, rng: np.random.Generator, workdir: str, scale: float) -> None:
    rows = max(16, round(20000 * scale))
    pred = rng.standard_normal((rows, 768), dtype=np.float32)
    target = (0.8 * pred + 0.6 * rng.standard_normal((rows, 768), dtype=np.float32)).astype(np.float32)
    pairs = max(16, round(2000 * scale))
    text = rng.standard_normal((pairs, 512), dtype=np.float32)
    image = (text + rng.standard_normal((pairs, 512), dtype=np.float32)).astype(np.float32)
    inp.arrays = {"pred": pred, "target": target, "text": text, "image": image}
    for name in ("pred", "target"):
        inp.files[name] = os.path.join(workdir, f"{name}.emb")
        _write_emb1(inp.files[name], inp.arrays[name])
        inp.records[name] = rows
    for name in ("text", "image"):
        inp.files[name] = os.path.join(workdir, f"{name}.jsonl")
        inp.records[name] = _write_jsonl(
            inp.files[name],
            ({"id": f"{name}-{i:05d}", "values": row.tolist()} for i, row in enumerate(inp.arrays[name])),
        )


_BUILDERS = {
    "corpus-wide": _corpus_wide,
    "corpus-long": _corpus_long,
    "embed-eval": _embed_eval,
}
WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int, workdir: str, scale: float = 1.0) -> Inputs:
    """Write the workload's input files into ``workdir`` and describe them."""
    os.makedirs(workdir, exist_ok=True)
    inp = Inputs()
    _BUILDERS[workload](inp, np.random.default_rng([seed, WORKLOADS.index(workload)]), workdir, scale)
    return inp
