"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one [acceptance] PASS/FAIL line; run with `pytest -s
tests/test_acceptance.py` to see them live.
"""

import functools
import json
import time

import numpy as np
import pytest

from conftest import random_manifest, random_sequence
from test_matching import naive_matches

from narrkit.cli import run as cli_run
from narrkit.context import build_windows, window_count
from narrkit.embedcore import (
    EmbeddingSet,
    GaussianMoments,
    PerturbationSpec,
    fit_moments,
    frechet_distance,
    perturb,
    perturb_set,
    regression_loss,
    regression_loss_grad,
)
from narrkit.embedio import read_embeddings, write_embeddings
from narrkit.manifest import (
    ActionRecord,
    ClipRecord,
    DatasetManifest,
    TimeInterval,
    VideoEntry,
    dumps_manifest,
    parse_manifest,
    write_manifest,
)
from narrkit.matching import (
    MatchRule,
    interval_iou,
    match_clip_action,
    match_dataset,
)
from narrkit.scoring import MatchTier, TierJudgment, aggregate_tiers, tier_to_score
from narrkit.stats import clip_length_summary, clips_per_video_summary, histogram


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL  {label}")
                raise
            print(f"[acceptance] criterion {number}: PASS  {label}")

        return wrapper

    return decorate


@criterion(1, "matching equals the naive oracle on 1000 synthetic videos, <5s")
def test_matching_oracle_equivalence():
    rng = np.random.default_rng(101)
    m = random_manifest(rng, n_videos=1000, max_clips=20, max_actions=20)
    t0 = time.perf_counter()
    records = match_dataset(m, threads=1)
    elapsed = time.perf_counter() - t0
    ours = {(r.video_id, r.clip_id, r.action_index, r.iou, r.rule.value) for r in records}
    expected = naive_matches(m)
    assert ours == expected
    assert len(ours) > 0
    assert elapsed < 5.0


@criterion(2, "rule boundaries are strict: 5s gap, equal ends, IoU 0.5")
def test_matching_rule_constants():
    def pair(cs, ce, as_, ae):
        return (
            ClipRecord("v", "c", TimeInterval(cs, ce), "x"),
            ActionRecord("v", TimeInterval(as_, ae), "y"),
        )

    # start gap of exactly 5 s blocks the start-aligned rule (IoU 0.35)
    clip, action = pair(5, 20, 0, 12)
    assert interval_iou(clip.interval, action.interval) == pytest.approx(0.35)
    assert match_clip_action(clip, action) is None

    # clip end strictly before action end blocks it too (IoU 0.25)
    clip, action = pair(0, 4, 2, 8)
    assert match_clip_action(clip, action) is None

    # equal ends block it as well (IoU exactly 0.5 keeps the other rule out)
    clip, action = pair(0, 8, 4, 8)
    assert interval_iou(clip.interval, action.interval) == 0.5
    assert match_clip_action(clip, action) is None

    # IoU exactly 0.5 with the start-aligned rule satisfied: reported as
    # RuleA, never RuleB
    clip, action = pair(0, 10, 2.5, 7.5)
    assert interval_iou(clip.interval, action.interval) == 0.5
    decision = match_clip_action(clip, action)
    assert decision is not None and decision.rule is MatchRule.RULE_A

    # just past each boundary the rules do fire
    assert match_clip_action(*pair(4.999, 20, 0, 12)).rule is MatchRule.RULE_A
    assert match_clip_action(*pair(0, 10, 2.5, 7.6)).rule is MatchRule.RULE_B


@criterion(3, "IoU laws over 10000 random pairs")
def test_iou_laws():
    rng = np.random.default_rng(202)
    for _ in range(10_000):
        s1, s2 = rng.uniform(0, 200, 2)
        l1, l2 = rng.uniform(0.01, 50, 2)
        a = TimeInterval(s1, s1 + l1)
        b = TimeInterval(s2, s2 + l2)
        v = interval_iou(a, b)
        assert v == interval_iou(b, a)
        assert 0.0 <= v <= 1.0
        shift = rng.uniform(0, 300)
        shifted = interval_iou(
            TimeInterval(s1 + shift, s1 + l1 + shift),
            TimeInterval(s2 + shift, s2 + l2 + shift),
        )
        assert abs(shifted - v) <= 1e-12
    for _ in range(100):
        s = rng.uniform(0, 200)
        e = s + rng.uniform(0.01, 50)
        assert interval_iou(TimeInterval(s, e), TimeInterval(s, e)) == 1.0


@criterion(4, "analytic loss gradient matches central differences, <1e-5")
def test_regression_gradient_check():
    rng = np.random.default_rng(303)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(16, 257))
        pred = rng.normal(size=dim)
        target = rng.normal(size=dim)
        analytic = regression_loss_grad(pred, target)
        numeric = np.zeros(dim)
        for i in range(dim):
            step = np.zeros(dim)
            step[i] = h
            hi = regression_loss(pred + step, target).total
            lo = regression_loss(pred - step, target).total
            numeric[i] = (hi - lo) / (2 * h)
        rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic))
        worst = max(worst, rel)
    assert worst < 1e-5


@criterion(5, "Frechet distance closed forms, rotation invariance, sampling")
def test_frechet_closed_forms():
    rng = np.random.default_rng(404)

    sampled = fit_moments(rng.normal(size=(500, 6)))
    assert frechet_distance(sampled, sampled) <= 1e-8

    a = GaussianMoments([0.0], [[1.0]])
    b = GaussianMoments([1.0], [[1.0]])
    assert abs(frechet_distance(a, b, jitter=0.0) - 1.0) <= 1e-9

    da = GaussianMoments(np.zeros(2), np.diag([1.0, 4.0]))
    db = GaussianMoments(np.zeros(2), np.diag([4.0, 1.0]))
    assert abs(frechet_distance(da, db, jitter=0.0) - 2.0) <= 1e-9

    mats = rng.normal(size=(2, 8, 8))
    ma = GaussianMoments(rng.normal(size=8), mats[0] @ mats[0].T + 0.1 * np.eye(8))
    mb = GaussianMoments(rng.normal(size=8), mats[1] @ mats[1].T + 0.1 * np.eye(8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rotated = frechet_distance(
        GaussianMoments(q @ ma.mean, q @ ma.covariance @ q.T),
        GaussianMoments(q @ mb.mean, q @ mb.covariance @ q.T),
    )
    assert abs(rotated - frechet_distance(ma, mb)) <= 1e-6

    sa = fit_moments(rng.normal(0.0, 1.0, size=(100_000, 1)))
    sb = fit_moments(rng.normal(1.0, 1.0, size=(100_000, 1)))
    assert abs(frechet_distance(sa, sb) - 1.0) <= 0.05


@criterion(6, "perturbation contract: identity, reproducibility, mask, shuffle")
def test_perturbation_contract(tmp_path):
    rng = np.random.default_rng(505)

    z64 = rng.normal(size=512)
    z32 = z64.astype(np.float32)
    basis = np.ones(512)
    identity = PerturbationSpec(0.0, 0.0, False, seed=9)
    assert perturb(z64, basis, identity).tobytes() == z64.tobytes()
    assert perturb(z32, basis[:512], identity).tobytes() == z32.tobytes()

    spec = PerturbationSpec(seed=77)
    a = perturb(z64, basis, spec)
    b = perturb(z64, basis, spec)
    assert a.tobytes() == b.tobytes()
    es = EmbeddingSet(rng.normal(size=(64, 48)))
    spec_set = PerturbationSpec(seed=13)
    one = perturb_set(es, np.ones(48), spec_set, threads=1)
    three = perturb_set(es, np.ones(48), spec_set, threads=3)
    assert one.vectors.tobytes() == three.vectors.tobytes()

    dim = 10_000
    filled = np.full(dim, 3.5)
    masked = perturb(
        filled, np.ones(dim), PerturbationSpec(0.0, 0.25, False, seed=3)
    )
    frac = float(np.mean(masked == 0.0))
    assert 0.237 <= frac <= 0.263

    shuffled = perturb(
        z64, basis, PerturbationSpec(0.0, 0.0, True, seed=4)
    )
    assert np.array_equal(np.sort(shuffled), np.sort(z64))
    assert shuffled.tobytes() != z64.tobytes()

    # reproducibility across separate processes, not just repeated calls
    import subprocess
    import sys

    src_path = tmp_path / "src.emb"
    write_embeddings(EmbeddingSet(rng.normal(size=(16, 12)).astype(np.float32)), src_path)
    blobs = []
    for name in ("r1.emb", "r2.emb"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from narrkit.cli import run; sys.exit(run(sys.argv[1:]))",
                "perturb", "--in", str(src_path), "--seed", "42", "--out", str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


@criterion(7, "rolling windows: identity, count formula, target coverage")
def test_rolling_windows():
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 200:
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 41))
        if n < 2 * k:
            continue
        checked += 1
        seq = random_sequence(rng, n, sequence_id=f"seq{checked}")
        windows = build_windows(seq, k)
        for earlier, later in zip(windows, windows[1:]):
            assert earlier.target_step_indices == later.ref_step_indices
        assert len(windows) == window_count(n, k)
        if (n - 2 * k) % k == 0:
            assert len(windows) == (n - 2 * k) // k + 1
            assert not windows[-1].partial
        targets = set()
        for w in windows:
            targets.update(w.target_step_indices)
        assert targets >= set(range(2 * k, n + 1))


@criterion(8, "tier rubric maps to {100, 85, 70, 0}; pair mean 92.5")
def test_rubric_exactness():
    assert tier_to_score(MatchTier.VERY_MATCH) == 100.0
    assert tier_to_score(MatchTier.GOOD_MATCH) == 85.0
    assert tier_to_score(MatchTier.SOMEHOW_MATCH) == 70.0
    assert tier_to_score(MatchTier.NOT_MATCH) == 0.0
    agg = aggregate_tiers(
        [
            TierJudgment("i1", MatchTier.VERY_MATCH, "r1"),
            TierJudgment("i2", MatchTier.GOOD_MATCH, "r1"),
        ]
    )
    assert agg.mean_score == 92.5


@criterion(9, "round trips: manifest, embedding bits, CLI determinism")
def test_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(707)

    corpus = random_manifest(rng, n_videos=1000, max_clips=20, max_actions=20)
    assert parse_manifest(dumps_manifest(corpus).splitlines()) == corpus

    es = EmbeddingSet(
        rng.normal(size=(64, 32)).astype(np.float32),
        ids=[f"e{i}" for i in range(64)],
    )
    emb_path = tmp_path / "x.emb"
    write_embeddings(es, emb_path)
    back = read_embeddings(emb_path)
    assert back.vectors.tobytes() == es.vectors.tobytes()
    assert back.ids == es.ids

    # fixtures shared by the CLI determinism sweep
    manifest_path = tmp_path / "corpus.jsonl"
    write_manifest(random_manifest(rng, n_videos=15), manifest_path)
    matches_path = tmp_path / "matches.jsonl"
    assert cli_run(["match", "--manifest", str(manifest_path), "--out", str(matches_path)]) == 0
    capsys.readouterr()
    second = EmbeddingSet(rng.normal(size=(20, 8)).astype(np.float32))
    emb2_path = tmp_path / "y.emb"
    write_embeddings(second, emb2_path)
    tiers_path = tmp_path / "tiers.jsonl"
    tiers_path.write_text(
        '{"item_id": "a", "rater_id": "r1", "tier": "VeryMatch"}\n'
        '{"item_id": "b", "rater_id": "r2", "tier": "SomehowMatch"}\n'
    )
    ratings_path = tmp_path / "ratings.jsonl"
    ratings_path.write_text('{"item_id": "a", "rating": 5}\n{"item_id": "b", "rating": 2}\n')
    steps_path = tmp_path / "steps.jsonl"
    with open(steps_path, "w") as fh:
        seq = random_sequence(rng, 9, sequence_id="s1")
        for s in seq.steps:
            fh.write(
                json.dumps(
                    {
                        "sequence_id": "s1",
                        "index": s.index,
                        "action": s.action,
                        "caption": s.caption,
                        "embedding_id": s.embedding_id,
                        "keyframe_id": s.keyframe_id,
                    }
                )
                + "\n"
            )

    sweeps = [
        (["validate", "--manifest", str(manifest_path)], []),
        (["match", "--manifest", str(manifest_path)], []),
        (
            [
                "filter",
                "--manifest", str(manifest_path),
                "--matches", str(matches_path),
                "--policy", "best",
            ],
            ["assignment.jsonl"],
        ),
        (["stats", "--manifest", str(manifest_path)], []),
        (["score", "--tiers", str(tiers_path), "--ratings", str(ratings_path)], []),
        (["metrics", "frechet", "--a", str(emb_path), "--b", str(emb_path)], []),
        (
            ["metrics", "clipt", "--text", str(emb2_path), "--image", str(emb2_path),
             "--scale", "percent"],
            [],
        ),
        (["metrics", "regloss", "--pred", str(emb2_path), "--target", str(emb2_path)], []),
        (["metrics", "flowloss", "--pred", str(emb2_path), "--target", str(emb2_path)], []),
        (["perturb", "--in", str(emb2_path), "--seed", "5", "--out", "perturbed.emb"], []),
        (["windows", "--steps", str(steps_path), "--k", "2"], []),
    ]
    for argv, extra_outputs in sweeps:
        outputs = []
        for attempt in ("one", "two"):
            work = tmp_path / f"run-{attempt}"
            work.mkdir(exist_ok=True)
            concrete = list(argv)
            files = []
            for i, token in enumerate(concrete):
                if token.endswith((".emb",)) and concrete[i - 1] == "--out":
                    concrete[i] = str(work / token)
                    files.append(work / token)
            for name in extra_outputs:
                concrete += ["--assignment", str(work / name)]
                files.append(work / name)
            code = cli_run(concrete)
            captured = capsys.readouterr()
            assert code == 0, f"{argv} exited {code}: {captured.err}"
            blob = captured.out.encode()
            for path in files:
                blob += path.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv}"

    # the identical-set distance the sweep just printed must be ~0
    code = cli_run(["metrics", "frechet", "--a", str(emb_path), "--b", str(emb_path)])
    out = capsys.readouterr().out
    assert code == 0 and float(out.strip()) <= 1e-8


@criterion(10, "stats on a hand-computed toy corpus plus count conservation")
def test_stats_correctness():
    m = DatasetManifest()
    m.videos["a"] = VideoEntry(
        60.0,
        [
            ClipRecord("a", "c1", TimeInterval(0, 10), "w"),
            ClipRecord("a", "c2", TimeInterval(10, 30), "w"),
            ClipRecord("a", "c3", TimeInterval(30, 60), "w"),
        ],
    )
    m.videos["b"] = VideoEntry(
        20.0,
        [
            ClipRecord("b", "c1", TimeInterval(0, 5), "w"),
            ClipRecord("b", "c2", TimeInterval(5, 10), "w"),
            ClipRecord("b", "c3", TimeInterval(10, 15), "w"),
            ClipRecord("b", "c4", TimeInterval(15, 20), "w"),
        ],
    )
    m.videos["c"] = VideoEntry(
        4.0,
        [
            ClipRecord("c", "c1", TimeInterval(0, 2), "w"),
            ClipRecord("c", "c2", TimeInterval(2, 4), "w"),
        ],
    )
    assert m.n_videos == 3 and m.n_clips == 9

    lengths = clip_length_summary(m)
    assert lengths.n == 9
    assert lengths.mean == pytest.approx(84 / 9)
    assert lengths.median == 5.0
    assert lengths.min == 2.0
    assert lengths.max == 30.0

    per_video = clips_per_video_summary(m)
    assert (per_video.mean, per_video.median, per_video.min, per_video.max) == (
        3.0, 3.0, 2.0, 4.0,
    )

    clip_hist = histogram(
        [c.interval.length_s for c in m.iter_clips()], [0, 5, 10, 20, 40]
    )
    assert clip_hist.counts == (2, 4, 1, 2)
    assert clip_hist.underflow == 0 and clip_hist.overflow == 0

    duration_hist = histogram(
        [e.duration_s for e in m.videos.values()], [0, 10, 50, 100]
    )
    assert duration_hist.counts == (1, 1, 1)

    rng = np.random.default_rng(808)
    values = rng.uniform(-100, 400, size=10_000)
    edges = np.cumsum(rng.uniform(1, 40, size=12))
    h = histogram(values, edges)
    assert h.total == 10_000
    assert sum(h.counts) + h.underflow + h.overflow == 10_000
