import json

import numpy as np
import pytest

from conftest import random_manifest, random_sequence
from narrkit.cli import run
from narrkit.embedcore import EmbeddingSet
from narrkit.embedio import read_embeddings, write_embeddings
from narrkit.manifest import parse_manifest, write_manifest


@pytest.fixture
def manifest_path(tmp_path, rng):
    path = tmp_path / "corpus.jsonl"
    write_manifest(random_manifest(rng, n_videos=12), path)
    return str(path)


@pytest.fixture
def emb_paths(tmp_path, rng):
    a = EmbeddingSet(rng.normal(size=(30, 8)).astype(np.float32))
    b = EmbeddingSet(rng.normal(loc=0.5, size=(30, 8)).astype(np.float32))
    pa, pb = tmp_path / "a.emb", tmp_path / "b.emb"
    write_embeddings(a, pa)
    write_embeddings(b, pb)
    return str(pa), str(pb)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_clean_manifest(self, capsys, manifest_path):
        code, out, err = invoke(capsys, "validate", "--manifest", manifest_path)
        assert code == 0
        assert out == ""
        assert "0 violation(s)" in err

    def test_inverted_interval(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "clip", "video_id": "v", "clip_id": "cX", '
            '"start_s": 9.0, "end_s": 4.0, "caption": "x"}\n'
        )
        code, out, err = invoke(capsys, "validate", "--manifest", str(path))
        assert code == 1
        assert "cX" in out

    def test_semantic_violation_listed(self, capsys, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"kind": "video", "video_id": "v", "duration_s": 5.0}\n'
            '{"kind": "clip", "video_id": "v", "clip_id": "c1", '
            '"start_s": 0.0, "end_s": 9.0, "caption": "x"}\n'
        )
        code, out, err = invoke(capsys, "validate", "--manifest", str(path))
        assert code == 1
        rec = json.loads(out.splitlines()[0])
        assert rec["code"] == "clip-exceeds-duration"
        assert rec["clip_id"] == "c1"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["duration_s", "start_s", "end_s"])
    def test_non_finite_number_rejected(self, capsys, tmp_path, field, literal):
        values = {"duration_s": "20.0", "start_s": "0.0", "end_s": "9.0", field: literal}
        path = tmp_path / "m.jsonl"
        path.write_text(
            f'{{"kind": "video", "video_id": "v", "duration_s": {values["duration_s"]}}}\n'
            f'{{"kind": "clip", "video_id": "v", "clip_id": "c1", "start_s": '
            f'{values["start_s"]}, "end_s": {values["end_s"]}, "caption": "x"}}\n'
        )
        code, out, err = invoke(capsys, "validate", "--manifest", str(path))
        assert code == 1
        rec = json.loads(out)
        assert rec["code"] == "parse-error"
        assert rec["line"] == (1 if field == "duration_s" else 2)
        assert err.startswith("error: ")
        assert f"'{field}' must be a finite number" in err


class TestMatch:
    def test_deterministic_output(self, capsys, manifest_path, tmp_path):
        out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        code, _, _ = invoke(capsys, "match", "--manifest", manifest_path, "--out", str(out1))
        assert code == 0
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_when_no_out(self, capsys, manifest_path):
        code, out, _ = invoke(capsys, "match", "--manifest", manifest_path)
        assert code == 0
        for line in out.splitlines():
            rec = json.loads(line)
            assert rec["rule"] in ("RuleA", "RuleB")

    def test_threshold_flags_apply(self, capsys, manifest_path):
        _, loose, _ = invoke(
            capsys, "match", "--manifest", manifest_path, "--iou-low", "0.05",
            "--max-start-diff", "50",
        )
        _, strict, _ = invoke(
            capsys, "match", "--manifest", manifest_path, "--iou-low", "0.45",
            "--max-start-diff", "0.5",
        )
        assert len(loose.splitlines()) >= len(strict.splitlines())

    def test_threads_flag_keeps_bytes(self, capsys, manifest_path):
        _, a, _ = invoke(capsys, "match", "--manifest", manifest_path, "--threads", "1")
        _, b, _ = invoke(capsys, "match", "--manifest", manifest_path, "--threads", "4")
        assert a == b


class TestFilter:
    def test_best_policy(self, capsys, manifest_path, tmp_path):
        matches = tmp_path / "matches.jsonl"
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(matches))
        filtered = tmp_path / "filtered.jsonl"
        assignment = tmp_path / "assignment.jsonl"
        code, _, err = invoke(
            capsys,
            "filter",
            "--manifest", manifest_path,
            "--matches", str(matches),
            "--policy", "best",
            "--out", str(filtered),
            "--assignment", str(assignment),
        )
        assert code == 0
        sub = parse_manifest(str(filtered))
        full = parse_manifest(manifest_path)
        assert sub.n_clips <= full.n_clips
        matched_clips = {
            (json.loads(l)["video_id"], json.loads(l)["clip_id"])
            for l in matches.read_text().splitlines()
        }
        assert {(c.video_id, c.clip_id) for c in sub.iter_clips()} == matched_clips
        for line in assignment.read_text().splitlines():
            rec = json.loads(line)
            assert len(rec["action_indices"]) == 1

    @pytest.mark.parametrize("line", ["[1]", '"x"', "null"])
    def test_non_object_match_line(self, capsys, manifest_path, tmp_path, line):
        matches = tmp_path / "matches.jsonl"
        matches.write_text(line + "\n")
        code, out, err = invoke(
            capsys, "filter", "--manifest", manifest_path, "--matches", str(matches)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad match record at line 1: ")


class TestStats:
    def test_report_and_determinism(self, capsys, manifest_path, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code, _, _ = invoke(capsys, "stats", "--manifest", manifest_path, "--out", str(out1))
        assert code == 0
        invoke(capsys, "stats", "--manifest", manifest_path, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["n_videos"] == 12
        assert "clip_length_s" in report

    def test_token_files(self, capsys, manifest_path, tmp_path):
        m = parse_manifest(manifest_path)
        cap = tmp_path / "cap.jsonl"
        with open(cap, "w") as fh:
            for clip in m.iter_clips():
                fh.write(
                    json.dumps(
                        {"video_id": clip.video_id, "clip_id": clip.clip_id, "tokens": 42}
                    )
                    + "\n"
                )
        code, out, _ = invoke(
            capsys, "stats", "--manifest", manifest_path, "--caption-tokens", str(cap)
        )
        assert code == 0
        assert json.loads(out)["caption_tokens"]["summary"]["mean"] == 42

    def test_missing_token_named(self, capsys, manifest_path, tmp_path):
        cap = tmp_path / "cap.jsonl"
        cap.write_text("")
        code, _, err = invoke(
            capsys, "stats", "--manifest", manifest_path, "--caption-tokens", str(cap)
        )
        assert code == 1
        assert "missing caption token count" in err


class TestScore:
    def test_both_sections(self, capsys, tmp_path):
        tiers = tmp_path / "tiers.jsonl"
        tiers.write_text(
            '{"item_id": "a", "rater_id": "r1", "tier": "VeryMatch"}\n'
            '{"item_id": "b", "rater_id": "r1", "tier": "GoodMatch"}\n'
        )
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_text(
            '{"item_id": "a", "rating": 6}\n{"item_id": "b", "rating": 2}\n'
        )
        code, out, _ = invoke(
            capsys, "score", "--tiers", str(tiers), "--ratings", str(ratings)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tiers"]["mean_score"] == 92.5
        assert doc["ratings"]["hallucination_rate"] == 0.5

    def test_requires_an_input(self, capsys):
        code, _, err = invoke(capsys, "score")
        assert code == 2


class TestMetrics:
    def test_frechet_identical_sets(self, capsys, emb_paths):
        a, _ = emb_paths
        code, out, _ = invoke(capsys, "metrics", "frechet", "--a", a, "--b", a)
        assert code == 0
        assert float(out.strip()) <= 1e-8

    def test_frechet_differs_for_shifted_sets(self, capsys, emb_paths):
        a, b = emb_paths
        code, out, _ = invoke(capsys, "metrics", "frechet", "--a", a, "--b", b)
        assert code == 0
        assert float(out.strip()) > 0.1

    def test_clipt_scales(self, capsys, emb_paths):
        a, _ = emb_paths
        _, raw, _ = invoke(capsys, "metrics", "clipt", "--text", a, "--image", a)
        _, pct, _ = invoke(
            capsys, "metrics", "clipt", "--text", a, "--image", a, "--scale", "percent"
        )
        assert float(raw) == pytest.approx(1.0, abs=1e-9)
        assert float(pct) == pytest.approx(100.0, abs=1e-6)

    def test_regloss_reports_terms(self, capsys, emb_paths):
        a, b = emb_paths
        code, out, _ = invoke(
            capsys, "metrics", "regloss", "--pred", a, "--target", b, "--alpha", "2.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs"] == 30
        assert doc["total"] == pytest.approx(doc["cosine_term"] + doc["mse_term"])

    def test_flowloss_zero_for_identical(self, capsys, emb_paths):
        a, _ = emb_paths
        code, out, _ = invoke(capsys, "metrics", "flowloss", "--pred", a, "--target", a)
        assert code == 0
        assert float(out.strip()) == 0.0


class TestPerturb:
    def test_identity_flags_round_trip(self, capsys, emb_paths, tmp_path):
        a, _ = emb_paths
        out_path = tmp_path / "out.emb"
        code, _, _ = invoke(
            capsys, "perturb", "--in", a, "--out", str(out_path),
            "--noise-scale", "0", "--mask-rate", "0", "--no-shuffle",
        )
        assert code == 0
        assert read_embeddings(str(out_path)).vectors.tobytes() == \
            read_embeddings(a).vectors.tobytes()

    def test_deterministic_given_seed(self, capsys, emb_paths, tmp_path):
        a, _ = emb_paths
        o1, o2 = tmp_path / "o1.emb", tmp_path / "o2.emb"
        invoke(capsys, "perturb", "--in", a, "--out", str(o1), "--seed", "7")
        invoke(capsys, "perturb", "--in", a, "--out", str(o2), "--seed", "7",
               "--threads", "4")
        assert o1.read_bytes() == o2.read_bytes()

    def test_seed_changes_output(self, capsys, emb_paths, tmp_path):
        a, _ = emb_paths
        o1, o2 = tmp_path / "o1.emb", tmp_path / "o2.emb"
        invoke(capsys, "perturb", "--in", a, "--out", str(o1), "--seed", "7")
        invoke(capsys, "perturb", "--in", a, "--out", str(o2), "--seed", "8")
        assert o1.read_bytes() != o2.read_bytes()

    def test_requires_out(self, capsys, emb_paths):
        a, _ = emb_paths
        code, _, err = invoke(capsys, "perturb", "--in", a)
        assert code == 2

    def test_population_file(self, capsys, emb_paths, tmp_path):
        a, b = emb_paths
        out_path = tmp_path / "o.emb"
        code, _, _ = invoke(
            capsys, "perturb", "--in", a, "--population", b, "--out", str(out_path)
        )
        assert code == 0


class TestWindows:
    @pytest.fixture
    def steps_path(self, tmp_path, rng):
        path = tmp_path / "steps.jsonl"
        with open(path, "w") as fh:
            for sid, n in (("s1", 8), ("s2", 5)):
                seq = random_sequence(rng, n, sequence_id=sid)
                for s in seq.steps:
                    fh.write(
                        json.dumps(
                            {
                                "sequence_id": sid,
                                "index": s.index,
                                "action": s.action,
                                "caption": s.caption,
                                "embedding_id": s.embedding_id,
                                "keyframe_id": s.keyframe_id,
                            }
                        )
                        + "\n"
                    )
        return str(path)

    def test_export(self, capsys, steps_path):
        code, out, _ = invoke(capsys, "windows", "--steps", steps_path, "--k", "2")
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()]
        assert {r["sequence_id"] for r in records} == {"s1", "s2"}
        assert len([r for r in records if r["sequence_id"] == "s1"]) == 3

    def test_short_sequence_fails(self, capsys, steps_path):
        code, _, err = invoke(capsys, "windows", "--steps", steps_path, "--k", "3")
        assert code == 1
        assert "s2" in err


class TestSubprocessDeterminism:
    """Byte-identical output across genuinely separate processes."""

    def run_twice(self, tmp_path, argv_for):
        import subprocess
        import sys

        blobs = []
        for name in ("run1", "run2"):
            out = tmp_path / f"{name}.out"
            cmd = [
                sys.executable,
                "-c",
                "import sys; from narrkit.cli import run; sys.exit(run(sys.argv[1:]))",
            ] + argv_for(str(out))
            proc = subprocess.run(cmd, capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            blobs.append(out.read_bytes() + proc.stdout)
        assert blobs[0] == blobs[1]

    def test_perturb(self, emb_paths, tmp_path):
        a, _ = emb_paths
        self.run_twice(
            tmp_path,
            lambda out: ["perturb", "--in", a, "--seed", "11", "--out", out],
        )

    def test_match(self, manifest_path, tmp_path):
        self.run_twice(
            tmp_path,
            lambda out: ["match", "--manifest", manifest_path, "--out", out],
        )


class TestUsageAndConfig:
    def test_unknown_flag_exits_2(self, capsys, manifest_path):
        code, _, err = invoke(capsys, "match", "--manifest", manifest_path, "--bogus")
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_missing_file_exits_1(self, capsys):
        code, _, err = invoke(capsys, "validate", "--manifest", "/nope/missing.jsonl")
        assert code == 1
        assert "error" in err

    def test_config_file_applies(self, capsys, manifest_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iou_low": 0.05, "max_start_diff_s": 50.0}))
        _, defaults, _ = invoke(capsys, "match", "--manifest", manifest_path)
        _, via_config, _ = invoke(
            capsys, "match", "--manifest", manifest_path, "--config", str(cfg)
        )
        _, via_flags, _ = invoke(
            capsys, "match", "--manifest", manifest_path, "--iou-low", "0.05",
            "--max-start-diff", "50",
        )
        assert via_config == via_flags
        assert len(via_config.splitlines()) >= len(defaults.splitlines())

    def test_flag_overrides_config(self, capsys, manifest_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iou_low": 0.05, "max_start_diff_s": 50.0}))
        _, defaults, _ = invoke(capsys, "match", "--manifest", manifest_path)
        _, overridden, _ = invoke(
            capsys, "match", "--manifest", manifest_path, "--config", str(cfg),
            "--iou-low", "0.2", "--max-start-diff", "5",
        )
        assert overridden == defaults
