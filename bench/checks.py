"""Output checks for every benchmarked command.

Expected values come from the generator's in-memory records and plain
numpy, never from narrkit. Each check returns None when the output is right
and a one-line reason when it is not; a failed check, or one that raises on
malformed output, counts the operation as failed.

Tolerances: match, filter, windows, stats, score counts and the perturbed
file layout are compared exactly. Floating results that the program sums in
a different order than numpy are compared at a relative tolerance of 1e-9
(regloss, flowloss, clipt, score means); the Fréchet distance, which goes
through two different matrix square roots, at 1e-6.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from gen import Inputs, Video

# narrkit's default thresholds (RuleA: start gap, IoU floor; RuleB: IoU floor)
MAX_START_DIFF_S = 5.0
IOU_LOW = 0.2
IOU_HIGH = 0.5
K = 2
RTOL = 1e-9
FRECHET_RTOL = 1e-6
FRECHET_JITTER = 1e-6


def expected_matches(videos: list[Video]) -> list[str]:
    """Vectorised all-pairs matcher: the match lines in narrkit's order.

    Hull IoU (intersection over max(end) - min(start)), strict thresholds,
    RuleB winning when both rules fire, ratios with nine decimals.
    """
    lines: list[str] = []
    for v in sorted(videos, key=lambda v: v.video_id):
        if not v.clips or not v.actions:
            continue
        cs = np.array([c[1] for c in v.clips])[:, None]
        ce = np.array([c[2] for c in v.clips])[:, None]
        as_ = np.array([a[0] for a in v.actions])[None, :]
        ae = np.array([a[1] for a in v.actions])[None, :]
        inter = np.minimum(ce, ae) - np.maximum(cs, as_)
        hull = np.maximum(ce, ae) - np.minimum(cs, as_)
        overlap = inter > 0
        iou = np.where(overlap, inter / np.where(overlap, hull, 1.0), 0.0)
        diff = np.abs(cs - as_)
        rule_b = iou > IOU_HIGH
        rule_a = (diff < MAX_START_DIFF_S) & (ce > ae) & (iou > IOU_LOW)
        vid = json.dumps(v.video_id)
        for ci, ai in zip(*np.nonzero(rule_a | rule_b)):
            rule = "RuleB" if rule_b[ci, ai] else "RuleA"
            lines.append(
                f'{{"video_id": {vid}, "clip_id": {json.dumps(v.clips[ci][0])}, '
                f'"action_index": {ai}, "iou": {iou[ci, ai]:.9f}, '
                f'"start_diff_s": {diff[ci, ai]:.9f}, "rule": "{rule}"}}'
            )
    return lines


def _read(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def check_validate(path: str) -> str | None:
    text = _read(path)
    if text != "":
        return f"expected no violations, got {len((text or '').splitlines())} line(s)"
    return None


def check_match(path: str, expected: list[str]) -> str | None:
    text = _read(path)
    if text is None:
        return "no match output"
    got = text.splitlines()
    if got != expected:
        bad = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        return f"match output differs from the all-pairs oracle at line {bad + 1} ({len(got)} vs {len(expected)} lines)"
    return None


def check_filter(path: str, assignment: str | None, inp: Inputs, expected: list[str]) -> str | None:
    text = _read(path)
    if text is None:
        return "no filter output"
    matched = {(r["video_id"], r["clip_id"]) for r in map(json.loads, expected)}
    known = {(v.video_id, c[0]) for v in inp.videos for c in v.clips}
    kinds = {"video": 0, "clip": 0, "action": 0}
    kept = set()
    try:
        for line in text.splitlines():
            rec = json.loads(line)
            kinds[rec["kind"]] += 1
            if rec["kind"] == "clip":
                kept.add((rec["video_id"], rec["clip_id"]))
    except (ValueError, KeyError, TypeError) as exc:
        return f"filter output does not parse back: {exc}"
    if kinds["clip"] != len(matched) or kept != matched:
        return f"kept {kinds['clip']} clips, expected the {len(matched)} distinct matched clips"
    if kept - known:
        return "filter output holds clips absent from the input"
    if kinds["video"] != len(inp.videos) or kinds["action"] != sum(len(v.actions) for v in inp.videos):
        return "filter output changed the video or action records"
    if assignment is not None:
        rows = (_read(assignment) or "").splitlines()
        try:
            keys = {(r["video_id"], r["clip_id"]) for r in map(json.loads, rows)}
        except (ValueError, KeyError, TypeError) as exc:
            return f"assignment does not parse back: {exc}"
        if len(rows) != len(matched) or keys != matched:
            return f"assignment has {len(rows)} rows for {len(matched)} kept clips"
    return None


def check_stats(path: str, inp: Inputs) -> str | None:
    try:
        report = json.loads(_read(path) or "")
    except ValueError as exc:
        return f"stats output is not JSON: {exc}"
    want = {
        "n_videos": len(inp.videos),
        "n_clips": sum(len(v.clips) for v in inp.videos),
        "n_actions": sum(len(v.actions) for v in inp.videos),
    }
    got = {k: report.get(k) for k in want}
    if got != want:
        return f"stats counts {got} != {want}"
    lengths = [c[2] - c[1] for v in inp.videos for c in v.clips]
    summary = report["clip_length_s"]["summary"]
    if (summary["min"], summary["max"]) != (min(lengths), max(lengths)):
        return "stats clip length range differs"
    return None


def window_total(step_counts: list[int], k: int = K) -> int:
    """Sum of per-sequence window counts: ceil((n - 2k) / k) + 1."""
    return sum(-(-(n - 2 * k) // k) + 1 for n in step_counts)


def check_windows(path: str, inp: Inputs) -> str | None:
    text = _read(path)
    if text is None:
        return "no windows output"
    got, want = len(text.splitlines()), window_total(inp.step_counts)
    return None if got == want else f"{got} windows, expected {want}"


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


_TIER_POINTS = {"VeryMatch": 100.0, "GoodMatch": 85.0, "SomehowMatch": 70.0, "NotMatch": 0.0}


def check_score(path: str, inp: Inputs) -> str | None:
    try:
        doc = json.loads(_read(path) or "")
        tiers, ratings = doc["tiers"], doc["ratings"]
    except (ValueError, KeyError) as exc:
        return f"score output is malformed: {exc}"
    points = np.array([_TIER_POINTS[t] for _, _, t in inp.tiers])
    r = np.array(inp.ratings)
    if not _close(tiers["mean_score"], float(points.mean()), RTOL):
        return "tier mean differs"
    if not _close(ratings["mean_rating"], float(r.mean()), RTOL):
        return "rating mean differs"
    if ratings["distribution"] != np.bincount(r, minlength=7).tolist():
        return "rating distribution differs"
    if ratings["hallucination_rate"] != float((r <= 2).sum()) / len(r):
        return "hallucination rate differs"
    return None


def check_perturb(path: str, inp: Inputs) -> str | None:
    rows, dim = inp.arrays["pred"].shape
    if not os.path.exists(path):
        return "no perturb output"
    with open(path, "rb") as fh:
        head = fh.read(12)
    if head[:4] != b"EMB1" or struct.unpack("<II", head[4:]) != (rows, dim):
        return "perturb output header is wrong"
    if os.path.getsize(path) != 12 + rows * dim * 4:
        return "perturb output has the wrong size"
    return None


def expected_metrics(inp: Inputs) -> dict[str, object]:
    """Reference values for the four `metrics` subcommands, in float64."""
    p = inp.arrays["pred"].astype(np.float64)
    t = inp.arrays["target"].astype(np.float64)
    pn, tn = np.linalg.norm(p, axis=1), np.linalg.norm(t, axis=1)
    cos_term = 1.0 - np.clip(np.einsum("ij,ij->i", p, t) / (pn * tn), -1.0, 1.0)
    mse_term = ((p - t) ** 2).mean(axis=1)
    d = p - t
    flow = float(np.einsum("ij,ij->i", d, d).mean())

    # Fréchet through eigenvalues of C_a C_b (narrkit goes through the
    # symmetric form C_a^1/2 C_b C_a^1/2 instead).
    eye = np.eye(p.shape[1])
    ca = np.cov(p, rowvar=False) + FRECHET_JITTER * eye
    cb = np.cov(t, rowvar=False) + FRECHET_JITTER * eye
    mu = p.mean(axis=0) - t.mean(axis=0)
    root = np.sqrt(np.clip(np.linalg.eigvals(ca @ cb).real, 0.0, None)).sum()
    frechet = max(0.0, float(mu @ mu + np.trace(ca) + np.trace(cb) - 2.0 * root))

    x = inp.arrays["text"].astype(np.float64)
    y = inp.arrays["image"].astype(np.float64)
    cosines = np.einsum("ij,ij->i", x, y) / (np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
    return {
        "regloss": {
            "total": float((cos_term + mse_term).mean()),
            "cosine_term": float(cos_term.mean()),
            "mse_term": float(mse_term.mean()),
            "pairs": len(p),
        },
        "flowloss": flow,
        "frechet": frechet,
        "clipt": float(np.clip(cosines, -1.0, 1.0).mean()),
    }


def check_metric(path: str, kind: str, expected: dict[str, object]) -> str | None:
    text = _read(path)
    if text is None:
        return f"no {kind} output"
    want = expected[kind]
    try:
        got = json.loads(text)
    except ValueError as exc:
        return f"{kind} output is not a number or JSON: {exc}"
    if kind == "regloss":
        if not isinstance(got, dict) or got.get("pairs") != want["pairs"]:
            return "regloss pair count differs"
        for key in ("total", "cosine_term", "mse_term"):
            if not _close(float(got[key]), want[key], RTOL):
                return f"regloss {key} {got[key]!r} != {want[key]!r}"
        return None
    rtol = FRECHET_RTOL if kind == "frechet" else RTOL
    if not isinstance(got, float) or not _close(got, want, rtol):
        return f"{kind} {got!r} != {want!r} (rtol {rtol:g})"
    return None
