import errno
import gc
import io
import json
import os
import stat

import numpy as np
import pytest

from conftest import allow_cpus, assert_no_child_left, left_to_right_sum, random_manifest, random_sequence
from narrkit import cli, embedcore, embedio
from narrkit.cli import run
from narrkit.embedcore import EmbeddingSet, PerturbationSpec, perturb_set, population_std
from narrkit.embedio import MAGIC, read_embeddings, write_embeddings
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

    def test_every_code_in_order(self, capsys, tmp_path):
        # each clip's two checks in clip order, then each action's description
        path, out_path = tmp_path / "m.jsonl", tmp_path / "v.jsonl"
        path.write_text(
            '{"kind": "action", "video_id": "v", "start_s": 0.0, "end_s": 1.0, "description": " "}\n'
            '{"kind": "clip", "video_id": "v", "clip_id": "c2", "start_s": 2.0, "end_s": 4.0, "caption": ""}\n'
            '{"kind": "clip", "video_id": "v", "clip_id": "c1", "start_s": 0.0, "end_s": 9.0, "caption": ""}\n'
            '{"kind": "video", "video_id": "v", "duration_s": 5.0}\n'
        )
        code, _, err = invoke(capsys, "validate", "--manifest", str(path), "--out", str(out_path))
        assert (code, err) == (1, "checked 1 videos, 2 clips, 1 actions: 4 violation(s)\n")
        assert out_path.read_text().splitlines() == [
            '{"code": "empty-caption", "video_id": "v", "clip_id": "c1", "message": "caption is blank"}',
            '{"code": "clip-exceeds-duration", "video_id": "v", "clip_id": "c1", '
            '"message": "clip ends at 9.0s but video lasts 5.0s"}',
            '{"code": "empty-caption", "video_id": "v", "clip_id": "c2", "message": "caption is blank"}',
            '{"code": "empty-description", "video_id": "v", "clip_id": null, '
            '"message": "action 0 description is blank"}',
        ]

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

    def test_bad_utf8_recorded_as_parse_error(self, capsys, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"kind": "video", "video_id": "v"}\n{"kind": "video", "video_id": "\xff"}\n')
        out_path = tmp_path / "v.jsonl"
        code, _, err = invoke(capsys, "validate", "--manifest", str(path), "--out", str(out_path))
        assert (code, err) == (1, f"error: {path}: line 2: invalid UTF-8\n")
        assert json.loads(out_path.read_text()) == {
            "code": "parse-error", "line": 2, "message": "line 2: invalid UTF-8"
        }

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"kind": "video", "video_id": "w", "duration_s": 0}', "field 'duration_s' must be > 0"),
            ('{"kind": "action", "video_id": "v", "start_s": 9.0, "end_s": 4.0, "description": "y"}',
             "action in video 'v': interval end must exceed start, got [9.0, 4.0]"),
        ],
        ids=["zero-duration", "inverted-action"],
    )
    def test_parse_error_recorded(self, capsys, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "video", "video_id": "v"}\n' + line + "\n")
        out_path = tmp_path / "v.jsonl"
        code, _, err = invoke(capsys, "validate", "--manifest", str(path), "--out", str(out_path))
        assert (code, err) == (1, f"error: {path}: line 2: {message}\n")
        assert json.loads(out_path.read_text()) == {
            "code": "parse-error", "line": 2, "message": f"line 2: {message}"
        }


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
        assert err == f"error: {matches}: line 1: record must be a JSON object\n"

    @pytest.mark.parametrize("failure", ["bad-record", "assignment-dir-missing"])
    def test_failure_leaves_no_output(self, capsys, manifest_path, tmp_path, failure):
        matches = tmp_path / "matches.jsonl"
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(matches))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assignment = out_dir / "a.jsonl"
        if failure == "bad-record":
            with open(matches, "a") as fh:
                fh.write('{"video_id": "v"}\n')
        else:
            assignment = out_dir / "missing" / "a.jsonl"
        code, _, err = invoke(
            capsys, "filter", "--manifest", manifest_path, "--matches", str(matches),
            "--out", str(out_dir / "f.jsonl"), "--assignment", str(assignment),
        )
        assert code == 1
        assert err.startswith("error: ")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_assignment_on_the_out_file_is_a_usage_error(self, capsys, manifest_path, tmp_path, existing):
        # The two outputs would share one path and one temp file name.
        matches, out = tmp_path / "matches.jsonl", tmp_path / "f.jsonl"
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(matches))
        if existing:
            out.write_text("kept\n")
        code, stdout, err = invoke(
            capsys, "filter", "--manifest", manifest_path, "--matches", str(matches),
            "--out", str(out), "--assignment", str(tmp_path / "." / "f.jsonl"),
        )
        assert (code, stdout, err) == (2, "", "error: --assignment: names the same file as --out\n")
        left = ["corpus.jsonl", "f.jsonl", "matches.jsonl"] if existing else ["corpus.jsonl", "matches.jsonl"]
        assert sorted(p.name for p in tmp_path.iterdir()) == left
        assert not existing or out.read_text() == "kept\n"

    @pytest.mark.parametrize("field,value,reason", [
        ("iou", 5.0, "field 'iou' must be in [0, 1]"),
        ("start_diff_s", -3.0, "field 'start_diff_s' must be >= 0"),
    ], ids=["iou", "start-diff"])
    def test_match_line_that_match_cannot_write(self, capsys, manifest_path, tmp_path, field, value, reason):
        # An IoU of 5 would win --policy best over every match that match wrote.
        matches = tmp_path / "matches.jsonl"
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(matches))
        lines = matches.read_text().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), field: value}) + "\n"
        matches.write_text("".join(lines))
        code, out, err = invoke(capsys, "filter", "--manifest", manifest_path, "--matches", str(matches))
        assert (code, out, err) == (1, "", f"error: {matches}: line 2: {reason}\n")

    def test_repeated_match_line_under_policy_all(self, capsys, manifest_path, tmp_path):
        # The file twice over would give each clip its action indices twice, as [0, 0].
        matches = tmp_path / "matches.jsonl"
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(matches))
        once = matches.read_text()
        code, best_once, _ = invoke(capsys, "filter", "--manifest", manifest_path, "--matches", str(matches))
        assert code == 0
        matches.write_text(once + once)
        first = json.loads(once.splitlines()[0])
        code, out, err = invoke(capsys, "filter", "--manifest", manifest_path, "--matches", str(matches),
                                "--policy", "all")
        assert (code, out) == (1, "")
        assert err == (f"error: {matches}: match repeats action index {first['action_index']} for clip "
                       f"'{first['clip_id']}' in video '{first['video_id']}'\n")
        # Under best a repeated line cannot change the output, so it is read as it is.
        code, out, _ = invoke(capsys, "filter", "--manifest", manifest_path, "--matches", str(matches))
        assert (code, out) == (0, best_once)

    def test_both_outputs_on_dev_null(self, capsys, manifest_path, tmp_path):
        matches = tmp_path / "matches.jsonl"
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(matches))
        code, _, _ = invoke(capsys, "filter", "--manifest", manifest_path, "--matches", str(matches),
                            "--out", os.devnull, "--assignment", os.devnull)
        assert code == 0

    def test_outputs_replace_existing_files(self, capsys, manifest_path, tmp_path):
        matches = tmp_path / "matches.jsonl"
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(matches))
        out, assignment = tmp_path / "f.jsonl", tmp_path / "a.jsonl"
        out.write_text("stale\n")
        assignment.write_text("stale\n")
        code, _, _ = invoke(
            capsys, "filter", "--manifest", manifest_path, "--matches", str(matches),
            "--out", str(out), "--assignment", str(assignment),
        )
        assert code == 0
        assert "stale" not in out.read_text() + assignment.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.jsonl", "corpus.jsonl", "f.jsonl", "matches.jsonl"
        ]


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

    def test_huge_durations_summarized(self, capsys, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"kind": "video", "video_id": "v1", "duration_s": 1e308}\n'
                            '{"kind": "video", "video_id": "v2", "duration_s": 1e308}\n')
        code, out, err = invoke(capsys, "stats", "--manifest", str(manifest))
        assert code == 0, err
        assert json.loads(out)["video_length_s"]["summary"]["mean"] == 1e308

    @pytest.mark.parametrize("flag", ["--caption-tokens", "--action-tokens"])
    def test_no_records_to_profile(self, capsys, tmp_path, flag):
        manifest, tokens = tmp_path / "m.jsonl", tmp_path / "tokens.jsonl"
        manifest.write_text('{"kind": "video", "video_id": "v1", "duration_s": 120.0}\n')
        tokens.write_text("")
        code, out, err = invoke(capsys, "stats", "--manifest", str(manifest), flag, str(tokens))
        assert (code, out, err) == (1, "", f"error: {tokens}: no records to profile\n")

    @pytest.mark.parametrize("flag,kind,field,key", [
        ("--caption-tokens", "caption", '"clip_id": "c1"', "('v1', 'c1')"),
        ("--action-tokens", "action", '"action_index": 0', "('v1', 0)"),
    ], ids=["caption", "action"])
    def test_duplicate_token_count_named(self, capsys, tmp_path, flag, kind, field, key):
        # A second count for a key is an error on its line, not a silent overwrite.
        manifest, tokens = tmp_path / "m.jsonl", tmp_path / "tokens.jsonl"
        manifest.write_text(
            '{"kind": "clip", "video_id": "v1", "clip_id": "c1", "start_s": 0, "end_s": 5, "caption": "a"}\n'
            '{"kind": "action", "video_id": "v1", "start_s": 0, "end_s": 4, "description": "b"}\n'
        )
        tokens.write_text(f'{{"video_id": "v1", {field}, "tokens": 3}}\n'
                          f'{{"video_id": "v1", {field}, "tokens": 900}}\n')
        code, out, err = invoke(capsys, "stats", "--manifest", str(manifest), flag, str(tokens))
        assert (code, out, err) == (1, "", f"error: {tokens}: line 2: duplicate {kind} token count for {key}\n")


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

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 0.5)])
    def test_loss_bytes_match_per_pair_formula(self, capsys, tmp_path, alpha, beta):
        # The per-pair formula the loss commands computed before they were
        # batched: 1-D dot products and norms, summed left to right.
        rng = np.random.default_rng(11)
        n = embedcore._BLOCK + 1
        pred = rng.normal(size=(n, 768)).astype(np.float32)
        target = (pred + rng.normal(scale=0.5, size=pred.shape)).astype(np.float32)
        paths = [str(tmp_path / "pred.emb"), str(tmp_path / "target.emb")]
        for vectors, path in zip((pred, target), paths):
            write_embeddings(EmbeddingSet(vectors), path)
        terms = []
        for p, t in zip(pred.astype(np.float64), target.astype(np.float64)):
            cos = float(np.clip(np.dot(p, t) / (np.linalg.norm(p) * np.linalg.norm(t)), -1.0, 1.0))
            cos_term, mse_term = alpha * (1.0 - cos), beta * float(np.mean((p - t) ** 2))
            terms.append((cos_term + mse_term, cos_term, mse_term, float(np.dot(p - t, p - t))))
        total, cos_term, mse_term, flow = (left_to_right_sum(column) / n for column in zip(*terms))
        regloss = {"total": total, "cosine_term": cos_term, "mse_term": mse_term, "pairs": n}

        pair = ["--pred", paths[0], "--target", paths[1]]
        weights = ["--alpha", str(alpha), "--beta", str(beta)]
        assert invoke(capsys, "metrics", "regloss", *pair, *weights) == (0, json.dumps(regloss) + "\n", "")
        assert invoke(capsys, "metrics", "flowloss", *pair) == (0, repr(flow) + "\n", "")

    def test_regloss_zero_norm_names_pair(self, capsys, tmp_path, rng):
        pred = rng.normal(size=(embedcore._BLOCK + 3, 4)).astype(np.float32)
        pred[embedcore._BLOCK + 1] = 0.0
        a, b = str(tmp_path / "a.emb"), str(tmp_path / "b.emb")
        write_embeddings(EmbeddingSet(pred), a)
        write_embeddings(EmbeddingSet(np.ones_like(pred)), b)
        code, out, err = invoke(capsys, "metrics", "regloss", "--pred", a, "--target", b)
        assert (code, out, err) == (
            1, "", f"error: {a}: zero-norm embedding at pair index {embedcore._BLOCK + 1}\n"
        )

    @pytest.mark.parametrize("metric,flags", [("regloss", ("--pred", "--target")),
                                              ("clipt", ("--text", "--image"))], ids=["regloss", "clipt"])
    @pytest.mark.parametrize("zero,named", [((0,), 0), ((1,), 1), ((0, 1), 0)],
                             ids=["first", "second", "both"])
    def test_zero_norm_names_its_file(self, capsys, tmp_path, rng, metric, flags, zero, named):
        paths = [str(tmp_path / "first.emb"), str(tmp_path / "second.emb")]
        for k, path in enumerate(paths):
            rows = rng.normal(size=(5, 4)).astype(np.float32)
            rows[2 if k in zero else 4] = 0.0  # a later zero row in a set not named
            write_embeddings(EmbeddingSet(rows), path)
        code, out, err = invoke(capsys, "metrics", metric, flags[0], paths[0], flags[1], paths[1])
        assert (code, out, err) == (1, "", f"error: {paths[named]}: zero-norm embedding at pair index 2\n")

    @pytest.mark.parametrize("metric", ["regloss", "flowloss"])
    def test_pair_count_mismatch(self, capsys, tmp_path, emb_paths, metric):
        short = str(tmp_path / "short.emb")
        write_embeddings(EmbeddingSet(np.ones((29, 8), dtype=np.float32)), short)
        code, out, err = invoke(capsys, "metrics", metric, "--pred", emb_paths[0], "--target", short)
        assert (code, out, err) == (1, "", f"error: {short}: pair count mismatch: 30 vs 29\n")

    @pytest.mark.parametrize(
        "metric,flags,shape,reason",
        [
            ("regloss", ("--pred", "--target"), (30, 4), "dimension mismatch: 8 vs 4"),
            ("flowloss", ("--pred", "--target"), (30, 4), "dimension mismatch: 8 vs 4"),
            ("clipt", ("--text", "--image"), (29, 8), "pair count mismatch: 30 vs 29"),
            ("clipt", ("--text", "--image"), (30, 4), "dimension mismatch: 8 vs 4"),
            ("frechet", ("--a", "--b"), (30, 4), "dimension mismatch: 8 vs 4"),
        ],
        ids=["regloss-dimension", "flowloss-dimension", "clipt-count", "clipt-dimension",
             "frechet-dimension"],
    )
    def test_mismatch_names_second_file(self, capsys, tmp_path, emb_paths, metric, flags, shape, reason):
        other = str(tmp_path / "other.emb")
        write_embeddings(EmbeddingSet(np.ones(shape, dtype=np.float32)), other)
        code, out, err = invoke(capsys, "metrics", metric, flags[0], emb_paths[0], flags[1], other)
        assert (code, out, err) == (1, "", f"error: {other}: {reason}\n")

    def test_frechet_checks_b_before_fitting_it(self, capsys, monkeypatch, tmp_path, emb_paths):
        narrow = str(tmp_path / "b4.emb")
        write_embeddings(EmbeddingSet(np.ones((30, 4), dtype=np.float32)), narrow)
        fitted, fit = [], embedcore.fit_moments
        monkeypatch.setattr(embedcore, "fit_moments", lambda es: fitted.append(es.dim) or fit(es))
        code, _, err = invoke(capsys, "metrics", "frechet", "--a", emb_paths[0], "--b", narrow)
        assert (code, err, fitted) == (1, f"error: {narrow}: dimension mismatch: 8 vs 4\n", [8])

    @pytest.mark.parametrize(
        "metric,flags",
        [("regloss", ("--pred", "--target")), ("flowloss", ("--pred", "--target")),
         ("clipt", ("--text", "--image"))],
        ids=["regloss", "flowloss", "clipt"],
    )
    def test_empty_sets_rejected(self, capsys, tmp_path, metric, flags):
        first, second = str(tmp_path / "first.emb"), str(tmp_path / "second.emb")
        for path in (first, second):
            write_embeddings(EmbeddingSet(np.ones((0, 8), dtype=np.float32)), path)
        code, out, err = invoke(capsys, "metrics", metric, flags[0], first, flags[1], second)
        assert (code, out, err) == (1, "", f"error: {second}: no pairs to score\n")

    def test_bad_binary_input_is_named(self, capsys, tmp_path, emb_paths):
        bad = tmp_path / "trunc.emb"
        bad.write_bytes(b"EMB1\x01")
        code, out, err = invoke(capsys, "metrics", "frechet", "--a", emb_paths[0], "--b", str(bad))
        assert (code, out, err) == (1, "", f"error: {bad}: embedding file truncated before header\n")

    def test_frechet_names_a_set_too_small_to_fit(self, capsys, tmp_path, emb_paths):
        one = tmp_path / "one.emb"
        write_embeddings(EmbeddingSet(np.ones((1, 8), dtype=np.float32)), one)
        code, out, err = invoke(capsys, "metrics", "frechet", "--a", emb_paths[0], "--b", str(one))
        assert (code, out, err) == (1, "", f"error: {one}: fit_moments needs at least 2 vectors\n")

    def test_frechet_fits_a_before_reading_b(self, capsys, tmp_path):
        one, missing = tmp_path / "one.emb", tmp_path / "missing.emb"
        write_embeddings(EmbeddingSet(np.ones((1, 8), dtype=np.float32)), one)
        code, out, err = invoke(capsys, "metrics", "frechet", "--a", str(one), "--b", str(missing))
        assert (code, out, err) == (1, "", f"error: {one}: fit_moments needs at least 2 vectors\n")

    @pytest.mark.parametrize(
        "case,weights,err",
        [
            ("opposite", ["--alpha", "1e308"],
             "--alpha: alpha 1e+308 scales the cosine term past the float range"),
            ("extreme", ["--beta", "1e300"],
             "--beta: beta 1e+300 scales the MSE term past the float range"),
            ("opposite", ["--config", "{cfg}"],
             "{cfg}: alpha 1e+308 scales the cosine term past the float range"),
        ],
        ids=["alpha-flag", "beta-flag", "alpha-config"],
    )
    def test_non_finite_loss_names_its_weight(self, capsys, tmp_path, case, weights, err):
        pred, target, cfg = tmp_path / "pred.emb", tmp_path / "target.emb", tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 1e308}')
        rows = {"opposite": np.arange(1, 17, dtype=np.float32).reshape(2, 8),
                "extreme": np.full((2, 8), 3e38, dtype=np.float32)}[case]
        write_embeddings(EmbeddingSet(rows), pred)
        write_embeddings(EmbeddingSet(-rows), target)
        out = tmp_path / "loss.json"
        argv = ["metrics", "regloss", "--pred", str(pred), "--target", str(target), "--out", str(out),
                *(arg.format(cfg=cfg) for arg in weights)]
        assert invoke(capsys, *argv) == (1, "", f"error: {err.format(cfg=cfg)}\n")
        assert not out.exists()

    def test_frechet_overflow_names_jitter(self, capsys, tmp_path, emb_paths):
        out = tmp_path / "fd.txt"
        argv = ["metrics", "frechet", "--a", emb_paths[0], "--b", emb_paths[1], "--jitter", "1e200",
                "--out", str(out)]
        assert invoke(capsys, *argv) == (1, "", "error: --jitter: non-finite value in the trace term\n")
        assert not out.exists()

    @pytest.mark.parametrize("jitter", ["1e20", "1e150"])
    def test_swamping_jitter_rejected(self, capsys, tmp_path, rng, jitter):
        a, b, out = tmp_path / "a.emb", tmp_path / "b.emb", tmp_path / "fd.txt"
        write_embeddings(EmbeddingSet(rng.normal(size=(50, 8)).astype(np.float32)), a)
        write_embeddings(EmbeddingSet(rng.normal(size=(50, 8)).astype(np.float32)), b)
        argv = ["metrics", "frechet", "--a", str(a), "--b", str(b), "--jitter", jitter, "--out", str(out)]
        err = f"error: --jitter: jitter {float(jitter)!r} swamps the mean term and every variance of the first set\n"
        assert invoke(capsys, *argv) == (1, "", err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "sets,jitter,expected",
        [("samples", "1e16", (1, "", "error: --jitter: jitter 1e+16 swamps the mean term\n")),
         ("constant", "1e150", (1, "", "error: --jitter: jitter 1e+150 swamps the mean term\n")),
         ("samples", "1e10", (0, "0.0867919921875\n", "")),
         ("constant", "1e10", (0, "3.0\n", ""))],
        ids=["samples-1e16", "constant-1e150", "samples-1e10", "constant-1e10"],
    )
    def test_jitter_that_swamps_the_mean_term_rejected(self, capsys, tmp_path, sets, jitter, expected):
        # The mean term survives the bare covariances' traces but is lost in the jittered ones.
        rng = np.random.default_rng(0)
        if sets == "samples":
            rows = [rng.normal(size=(50, 8)).astype(np.float32) for _ in range(2)]
        else:
            rows = [np.ones((5, 3), dtype=np.float32), np.zeros((5, 3), dtype=np.float32)]
        a, b = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embeddings(EmbeddingSet(rows[0]), a)
        write_embeddings(EmbeddingSet(rows[1]), b)
        argv = ["metrics", "frechet", "--a", str(a), "--b", str(b), "--jitter", jitter]
        assert invoke(capsys, *argv) == expected

    @pytest.mark.parametrize("argv", [["metrics", "flowloss", "--pred", "{e}", "--target", "{e}"],
                                      ["perturb", "--in", "{e}", "--out", "{out}"]],
                             ids=["flowloss", "perturb"])
    def test_empty_binary_id_names_its_number(self, capsys, tmp_path, argv):
        e, out = tmp_path / "e.emb", tmp_path / "o.emb"
        e.write_bytes(MAGIC + (3).to_bytes(4, "little") + (1).to_bytes(4, "little") + bytes(12) + b"a\n\nb")
        argv = [arg.format(e=e, out=out) for arg in argv]
        assert invoke(capsys, *argv) == (1, "", f"error: {e}: embedding id 2 is empty\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["metrics", "flowloss", "--pred", "{e}", "--target", "{e}"],
                                      ["perturb", "--in", "{e}", "--out", "{out}"]],
                             ids=["flowloss", "perturb"])
    def test_empty_jsonl_id_names_its_line(self, capsys, tmp_path, argv):
        e, out = tmp_path / "e.jsonl", tmp_path / "o.emb"
        e.write_text('{"id": "a", "values": [1, 2]}\n{"id": "", "values": [1, 2]}\n')
        argv = [arg.format(e=e, out=out) for arg in argv]
        assert invoke(capsys, *argv) == (1, "", f"error: {e}: line 2: field 'id' must be a non-empty string\n")
        assert not out.exists()

    def test_jsonl_value_beyond_float32_is_named(self, capsys, tmp_path):
        good, bad = tmp_path / "good.jsonl", tmp_path / "big.jsonl"
        good.write_text('{"values": [1.0, 1.0]}\n')
        bad.write_text('{"values": [1e39, 1.0]}\n')
        code, out, err = invoke(capsys, "metrics", "clipt", "--text", str(good), "--image", str(bad))
        assert (code, out, err) == (
            1, "", f"error: {bad}: line 1: field 'values' exceeds the float32 range\n"
        )


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
               "--threads", "3")
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

    @pytest.mark.parametrize("population", [False, True])
    def test_names_a_population_too_small(self, capsys, emb_paths, tmp_path, population):
        one = tmp_path / "one.emb"
        write_embeddings(EmbeddingSet(np.ones((1, 8), dtype=np.float32)), one)
        files = ["--in", emb_paths[0], "--population", str(one)] if population else ["--in", str(one)]
        out_path = tmp_path / "o.emb"
        code, out, err = invoke(capsys, "perturb", *files, "--out", str(out_path))
        advice = "" if population else "; supply --population"
        assert (code, out, err) == (
            1, "", f"error: {one}: std basis needs a population of at least 2 vectors{advice}\n"
        )
        assert not out_path.exists()

    def test_population_file(self, capsys, emb_paths, tmp_path):
        a, b = emb_paths
        out_path = tmp_path / "o.emb"
        code, _, _ = invoke(
            capsys, "perturb", "--in", a, "--population", b, "--out", str(out_path)
        )
        assert code == 0

    def test_population_dimension_names_the_population(self, capsys, emb_paths, tmp_path):
        narrow, out_path = tmp_path / "b4.emb", tmp_path / "o.emb"
        write_embeddings(EmbeddingSet(np.ones((30, 4), dtype=np.float32)), narrow)
        argv = ["perturb", "--in", emb_paths[0], "--population", str(narrow), "--out", str(out_path)]
        assert invoke(capsys, *argv) == (1, "", f"error: {narrow}: dimension 4 does not match --in dimension 8\n")
        assert not out_path.exists()

    def test_newline_in_id_blamed_before_perturbing(self, capsys, monkeypatch, tmp_path):
        src, out_path = tmp_path / "ids.jsonl", tmp_path / "o.emb"
        src.write_text('{"id": "a", "values": [1, 2]}\n{"id": "b\\nc", "values": [3, 4]}\n')
        monkeypatch.setattr(embedcore, "perturb_set", lambda *a, **k: pytest.fail("perturbed"))
        assert invoke(capsys, "perturb", "--in", str(src), "--out", str(out_path)) == (
            1, "", f"error: {src}: embedding id 2 may not contain a newline: 'b\\nc'; use --format jsonl\n"
        )
        assert not out_path.exists()
        monkeypatch.undo()
        code, _, _ = invoke(capsys, "perturb", "--in", str(src), "--out", str(out_path), "--format", "jsonl")
        assert code == 0
        assert read_embeddings(str(out_path)).ids == ["a", "b\nc"]


class TestPerturbThreads:
    """--threads splits perturb's rows across forked workers and changes nothing else."""

    @pytest.fixture
    def id_path(self, tmp_path, rng):
        path = tmp_path / "ids.emb"
        write_embeddings(EmbeddingSet(rng.normal(size=(25, 6)).astype(np.float32),
                                      [f"item-{i}" for i in range(25)]), path)
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--shuffle-mode", "sequence"],
            ["--format", "jsonl", "--seed", "3"],
            ["--population", "{b}", "--mask-rate", "0.9"],
            ["--noise-scale", "1e308"],
            ["--in", "{ids}", "--shuffle-mode", "sequence"],
            ["--in", "{ids}", "--format", "jsonl"],
        ],
        ids=["default", "sequence", "jsonl", "population", "noise-overflow", "ids-sequence", "ids-jsonl"],
    )
    def test_threads_1_and_2_agree(self, capsys, monkeypatch, emb_paths, id_path, tmp_path, argv):
        allow_cpus(monkeypatch, 2)
        a, b = emb_paths
        argv = ["--in", a, *[arg.format(b=b, ids=id_path) for arg in argv]]
        runs = []
        for threads in ("1", "2"):
            out_path = tmp_path / f"t{threads}.out"
            result = invoke(capsys, "perturb", *argv, "--out", str(out_path), "--threads", threads)
            runs.append((result, out_path.read_bytes() if out_path.exists() else None))
        assert runs[0] == runs[1]
        if "1e308" in argv:
            assert runs[0] == ((1, "", "error: --noise-scale: the noise takes perturbed values past "
                                       "the float32 range\n"), None)
        else:
            assert runs[0][0][0] == 0
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "argv,blamed",
        [
            (["--in", "{a}", "--config", "{cfg}"], "{cfg}"),
            (["--in", "{a}", "--config", "{cfg}", "--noise-scale", "1e300"], "--noise-scale"),
            (["--in", "{big}"], "{big}"),
            (["--in", "{a}", "--population", "{big}"], "{big}"),
        ],
        ids=["config", "flag-over-config", "default-in", "default-population"],
    )
    def test_noise_overflow_names_its_source(self, capsys, monkeypatch, emb_paths, tmp_path, argv, blamed):
        # the noise at its default takes a value past float32 only when the basis file is that wide
        allow_cpus(monkeypatch, 2)
        cfg, big, out = tmp_path / "cfg.json", tmp_path / "big.emb", tmp_path / "o.emb"
        cfg.write_text('{"noise_scale": 1e308, "mask_rate": 0, "shuffle": false}')
        rows = np.full((30, 8), 3.4e38, dtype=np.float32)
        rows[::2] *= -1
        write_embeddings(EmbeddingSet(rows), big)
        names = dict(a=emb_paths[0], cfg=cfg, big=big)
        argv = [arg.format(**names) for arg in argv] + ["--seed", "1"]
        for threads in ("1", "2"):
            assert invoke(capsys, "perturb", *argv, "--out", str(out), "--threads", threads) == (
                1, "", f"error: {blamed.format(**names)}: the noise takes perturbed values past the "
                "float32 range\n")
            assert not out.exists()

    def test_no_warning_from_any_process(self, emb_paths, tmp_path):
        # A subprocess keeps Python's default warning filters, which print a RuntimeWarning.
        import subprocess
        import sys

        out_path = tmp_path / "o.emb"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from narrkit.cli import run; sys.exit(run(sys.argv[1:]))",
             "perturb", "--in", emb_paths[0], "--out", str(out_path), "--noise-scale", "1e308",
             "--threads", "2"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: --noise-scale: the noise takes perturbed values past the float32 range\n"
        )
        assert not out_path.exists()

    def test_failing_worker_leaves_nothing(self, capsys, monkeypatch, emb_paths, tmp_path):
        allow_cpus(monkeypatch, 2)
        row = embedcore._perturb_row

        def failing(x, basis, spec, i, coord_shuffle):
            if i == 29:  # the last row, in the worker's range
                raise RuntimeError("worker failed")
            return row(x, basis, spec, i, coord_shuffle)

        monkeypatch.setattr(embedcore, "_perturb_row", failing)
        out_path = tmp_path / "o.emb"
        code, out, err = invoke(capsys, "perturb", "--in", emb_paths[0], "--out", str(out_path),
                                "--threads", "2")
        assert (code, out, err) == (1, "", "error: perturb worker for rows 15..29 exited with status 1\n")
        assert not out_path.exists()
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
        assert_no_child_left()

    def test_thousand_threads_on_one_cpu_fork_nothing(self, capsys, monkeypatch, emb_paths, tmp_path):
        allow_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        outs = [tmp_path / "t1.emb", tmp_path / "t1000.emb"]
        for threads, out_path in zip(("1", "1000"), outs):
            code, _, err = invoke(capsys, "perturb", "--in", emb_paths[0], "--out", str(out_path),
                                  "--threads", threads)
            assert code == 0, err
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_write_failure_in_a_worker_is_an_error(self, capsys, monkeypatch, emb_paths, tmp_path):
        allow_cpus(monkeypatch, 2)
        pwrite, parent = embedcore._pwrite, os.getpid()

        def full_disk_in_the_worker(fd, data, position):
            if os.getpid() != parent:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            pwrite(fd, data, position)

        monkeypatch.setattr(embedcore, "_pwrite", full_disk_in_the_worker)
        out_path = tmp_path / "o.emb"
        code, out, err = invoke(capsys, "perturb", "--in", emb_paths[0], "--out", str(out_path),
                                "--threads", "2")
        assert (code, out, err) == (1, "", f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n")
        assert sorted(os.listdir(tmp_path)) == ["a.emb", "b.emb"]  # no output, no temp file
        assert_no_child_left()

    @pytest.mark.parametrize("fmt", ["binary", "jsonl"])
    @pytest.mark.parametrize("mode", ["coords", "sequence"])
    def test_bytes_are_perturb_set_written(self, capsys, monkeypatch, tmp_path, rng, mode, fmt):
        # Three processes each start a block at their own first row; ids travel with their rows.
        allow_cpus(monkeypatch, 3)
        n = 2 * embedcore._BLOCK + 5
        es = EmbeddingSet(rng.normal(size=(n, 6)).astype(np.float32), [f"row-{i}" for i in range(n)])
        source = tmp_path / "in.emb"
        write_embeddings(es, source)
        expected = io.BytesIO()
        write_embeddings(perturb_set(es, population_std(es), PerturbationSpec(seed=5), mode), expected, fmt)
        for threads in ("1", "2", "3"):
            out_path = tmp_path / f"t{threads}.out"
            code, _, err = invoke(capsys, "perturb", "--in", str(source), "--seed", "5", "--format", fmt,
                                  "--shuffle-mode", mode, "--threads", threads, "--out", str(out_path))
            assert code == 0, err
            assert out_path.read_bytes() == expected.getvalue()

    @pytest.mark.parametrize("fmt", ["binary", "jsonl"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pipe_output_written_in_place(self, capsys, monkeypatch, emb_paths, tmp_path, threads, fmt):
        # A pipe takes no positional write: its bytes go through a temporary file.
        allow_cpus(monkeypatch, 2)
        fifo, regular = tmp_path / "out.fifo", tmp_path / "o.out"
        os.mkfifo(fifo)
        argv = ["perturb", "--in", emb_paths[0], "--format", fmt, "--threads", threads, "--out"]
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open at once
        try:
            piped = invoke(capsys, *argv, str(fifo))
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert piped == invoke(capsys, *argv, str(regular))
        assert piped[0] == 0
        assert data == regular.read_bytes()
        assert_no_child_left()

    def test_fork_failure_is_an_error(self, capsys, monkeypatch, emb_paths, tmp_path):
        allow_cpus(monkeypatch, 2)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        out_path = tmp_path / "o.emb"
        code, out, err = invoke(capsys, "perturb", "--in", emb_paths[0], "--out", str(out_path),
                                "--threads", "2")
        assert (code, out, err) == (1, "", "error: [Errno 11] Resource temporarily unavailable\n")
        assert not out_path.exists()


class TestStreamedInputs:
    """Binary sets are read block by block: a fault found late still ends cleanly."""

    N = 2 * embedcore._BLOCK + 3

    @pytest.fixture
    def sets(self, tmp_path, rng):
        good, bad = tmp_path / "good.emb", tmp_path / "bad.emb"
        write_embeddings(EmbeddingSet(rng.normal(size=(self.N, 4)).astype(np.float32)), good)
        write_embeddings(EmbeddingSet(rng.normal(size=(self.N, 4)).astype(np.float32)), bad)
        return str(good), str(bad)

    COMMANDS = [
        ["metrics", "frechet", "--a", "{bad}", "--b", "{good}"],
        ["metrics", "frechet", "--a", "{good}", "--b", "{bad}"],
        ["metrics", "regloss", "--pred", "{good}", "--target", "{bad}"],
        ["metrics", "flowloss", "--pred", "{bad}", "--target", "{good}"],
        ["metrics", "clipt", "--text", "{good}", "--image", "{bad}"],
        ["perturb", "--in", "{bad}"],
        ["perturb", "--in", "{good}", "--population", "{bad}"],
        ["perturb", "--in", "{bad}", "--population", "{good}", "--threads", "2"],
    ]
    IDS = ["frechet-a", "frechet-b", "regloss", "flowloss", "clipt", "perturb-in", "perturb-population",
           "perturb-threads-2"]

    def check_named(self, capsys, tmp_path, argv, sets, reason):
        good, bad = sets
        out = tmp_path / "out"
        argv = [arg.format(good=good, bad=bad) for arg in argv] + ["--out", str(out)]
        assert invoke(capsys, *argv) == (1, "", f"error: {bad}: {reason}\n")
        assert sorted(os.listdir(tmp_path)) == ["bad.emb", "good.emb"]  # no output, no temp file
        assert_no_child_left()

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_nan_in_the_last_block(self, capsys, monkeypatch, tmp_path, sets, argv):
        allow_cpus(monkeypatch, 2)
        rows = read_embeddings(sets[1]).vectors
        rows[-1, -1] = np.nan  # in the last block, and in the forked worker's range
        with open(sets[1], "r+b") as fh:
            fh.seek(12)
            fh.write(rows.tobytes())
        self.check_named(capsys, tmp_path, argv, sets, "embeddings must be finite")

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_truncated_after_open(self, capsys, monkeypatch, tmp_path, sets, argv):
        allow_cpus(monkeypatch, 2)
        layout = embedio.EmbeddingFile._read_layout

        def shrink_once_open(self):
            layout(self)
            if self.name == sets[1]:  # keep 1500 rows: the forked worker's range runs short
                os.truncate(self.name, 12 + 1500 * 16)

        monkeypatch.setattr(embedio.EmbeddingFile, "_read_layout", shrink_once_open)
        reason = f"embedding file truncated: expected {self.N * 16} data bytes, got {1500 * 16}"
        self.check_named(capsys, tmp_path, argv, sets, reason)

    @pytest.mark.parametrize("fmt", ["binary", "jsonl"])
    @pytest.mark.parametrize("argv", [["metrics", "frechet", "--a", "/dev/stdin", "--b", "{good}"],
                                      ["perturb", "--in", "/dev/stdin", "--threads", "2", "--out", "{out}"]],
                             ids=["frechet", "perturb"])
    def test_reads_a_pipe(self, tmp_path, sets, argv, fmt):
        import subprocess
        import sys

        source = tmp_path / "source"
        write_embeddings(read_embeddings(sets[1]), source, fmt=fmt)
        outputs = []
        for stdin in ("/dev/stdin", str(source)):
            out = tmp_path / f"out{len(outputs)}"
            cmd = [arg.format(good=sets[0], out=out) for arg in argv]
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from narrkit.cli import run; sys.exit(run(sys.argv[1:]))",
                 *[stdin if arg == "/dev/stdin" else arg for arg in cmd]],
                input=source.read_bytes(), capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, out.read_bytes() if out.exists() else None))
        assert outputs[0] == outputs[1]


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


# A command line for each flag that takes a path, that path empty; the other paths name files.
_EMPTY_PATHS = [
    (["validate", "--manifest", "{m}", "--config", ""], "--config"),
    (["validate", "--manifest", "{m}", "--out", ""], "--out"),
    (["validate", "--manifest", ""], "--manifest"),
    (["filter", "--manifest", "{m}", "--matches", ""], "--matches"),
    (["filter", "--manifest", "{m}", "--matches", "{matches}", "--assignment", ""], "--assignment"),
    (["stats", "--manifest", "{m}", "--caption-tokens", ""], "--caption-tokens"),
    (["stats", "--manifest", "{m}", "--action-tokens", ""], "--action-tokens"),
    (["score", "--tiers", ""], "--tiers"),
    (["score", "--ratings", ""], "--ratings"),
    (["metrics", "frechet", "--a", "", "--b", "{b}"], "--a"),
    (["metrics", "frechet", "--a", "{a}", "--b", ""], "--b"),
    (["metrics", "clipt", "--text", "", "--image", "{b}"], "--text"),
    (["metrics", "clipt", "--text", "{a}", "--image", ""], "--image"),
    (["metrics", "regloss", "--pred", "", "--target", "{b}"], "--pred"),
    (["metrics", "flowloss", "--pred", "{a}", "--target", ""], "--target"),
    (["perturb", "--in", "", "--out", "{o}"], "--in"),
    (["perturb", "--in", "{a}", "--population", "", "--out", "{o}"], "--population"),
    (["windows", "--steps", ""], "--steps"),
]


_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


class TestUsageAndConfig:
    def test_unknown_flag_exits_2(self, capsys, manifest_path):
        code, _, err = invoke(capsys, "match", "--manifest", manifest_path, "--bogus")
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_only_main_turns_the_cyclic_collector_off(self, capsys, manifest_path, monkeypatch):
        assert invoke(capsys, "validate", "--manifest", manifest_path)[0] == 0
        assert gc.isenabled()
        monkeypatch.setattr(cli, "run", gc.isenabled)
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main()
        finally:
            gc.enable()
        assert exc.value.code is False

    def test_module_runs_as_the_script(self, tmp_path):
        import subprocess
        import sys

        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1]\n")
        argv = [sys.executable, "-m", "narrkit.cli", "score", "--tiers", str(bad)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: {bad}: line 1: record must be a JSON object\n"
        )
        proc = subprocess.run([*argv[:3], "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: narrkit")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = invoke(capsys, "validate", "--manifest", "/nope/missing.jsonl")
        assert code == 1
        assert "error" in err

    def test_pipe_output_written_in_place(self, capsys, manifest_path, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open at once
        try:
            code, _, _ = invoke(capsys, "match", "--manifest", manifest_path, "--out", str(fifo))
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert data.decode() == invoke(capsys, "match", "--manifest", manifest_path)[1] != ""

    def test_missing_output_directory_named(self, capsys, manifest_path, tmp_path):
        out = tmp_path / "missing" / "m.jsonl"
        code, _, err = invoke(capsys, "match", "--manifest", manifest_path, "--out", str(out))
        assert code == 1
        assert err == f"error: {out}: No such file or directory\n"

    @_FULL
    @pytest.mark.parametrize("where", ["at-close", "in-a-write"])
    def test_write_error_names_out(self, capsys, manifest_path, tmp_path, where):
        # /dev/full takes every open and fails every write: a small output fails as its file
        # closes, and one past the write buffer in a write.
        if where == "at-close":
            manifest_path = tmp_path / "one.jsonl"
            manifest_path.write_text(
                '{"kind": "video", "video_id": "v", "duration_s": 10}\n'
                '{"kind": "clip", "video_id": "v", "clip_id": "c", "start_s": 0, "end_s": 5, "caption": "x"}\n'
                '{"kind": "action", "video_id": "v", "start_s": 0, "end_s": 4, "description": "y"}\n')
        size = len(invoke(capsys, "match", "--manifest", str(manifest_path))[1])
        assert (0 < size < io.DEFAULT_BUFFER_SIZE) == (where == "at-close")
        code, out, err = invoke(capsys, "match", "--manifest", str(manifest_path), "--out", "/dev/full")
        assert (code, out, err) == (1, "", "error: /dev/full: No space left on device\n")

    @_FULL
    def test_write_error_names_assignment(self, capsys, manifest_path, tmp_path):
        matches, out = tmp_path / "matches.jsonl", tmp_path / "out" / "f.jsonl"
        invoke(capsys, "match", "--manifest", manifest_path, "--out", str(matches))
        out.parent.mkdir()
        code, _, err = invoke(capsys, "filter", "--manifest", manifest_path, "--matches", str(matches),
                              "--out", str(out), "--assignment", "/dev/full")
        assert (code, err) == (1, "error: /dev/full: No space left on device\n")
        assert os.listdir(out.parent) == []  # neither --out nor its temp file

    @_FULL
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["match", "stats"])
    def test_write_error_names_stdout(self, manifest_path, command, buffered):
        # Buffered, the bytes fail as stdout is flushed; they must not fail again as Python exits.
        import subprocess
        import sys

        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "narrkit.cli", command, "--manifest", manifest_path],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (1, "error: <stdout>: No space left on device\n")

    def test_read_error_names_its_set_while_out_is_open(self, capsys, monkeypatch, emb_paths, tmp_path):
        # --in's rows are first read once perturb's output is open; the failed read names --in.
        preadv, ino = os.preadv, os.stat(emb_paths[0]).st_ino

        def failing_on_in(fd, buffers, offset):
            if os.fstat(fd).st_ino == ino:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", failing_on_in)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _, err = invoke(capsys, "perturb", "--in", emb_paths[0], "--population", emb_paths[1],
                              "--out", str(out_dir / "o.emb"))
        assert (code, err) == (1, f"error: {emb_paths[0]}: {os.strerror(errno.EIO)}\n")
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize("argv,flag", _EMPTY_PATHS, ids=[flag for _, flag in _EMPTY_PATHS])
    def test_empty_path_is_a_usage_error(self, capsys, monkeypatch, manifest_path, emb_paths, tmp_path,
                                         argv, flag):
        matches = tmp_path / "matches.jsonl"
        matches.write_text("")
        before = sorted(os.listdir(tmp_path))
        cwd = tmp_path / "cwd"  # an empty path would resolve to the working directory
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        names = dict(m=manifest_path, matches=matches, a=emb_paths[0], b=emb_paths[1], o=tmp_path / "o.emb")
        argv = [arg.format(**names) for arg in argv]
        assert invoke(capsys, *argv) == (2, "", f"error: {flag}: empty path\n")
        assert sorted(os.listdir(tmp_path)) == sorted([*before, "cwd"])
        assert os.listdir(cwd) == []

    def test_failed_replace_names_the_path_asked_for(self, tmp_path):
        out = tmp_path / "out.jsonl"
        with pytest.raises(IsADirectoryError) as exc:
            with cli._outputs(str(out)) as (fh,):
                fh.write("x\n")
                out.mkdir()  # the temp file can no longer replace it
        assert exc.value.filename == str(out)
        assert os.listdir(tmp_path) == ["out.jsonl"]  # and the temp file is gone

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


STEP = {"sequence_id": "s", "index": 1, "action": "a", "caption": "c",
        "embedding_id": "e", "keyframe_id": "k"}
MATCH = {"video_id": "v", "clip_id": "c", "action_index": 0, "iou": 0.5,
         "start_diff_s": 0.0, "rule": "RuleB"}


class TestStrictInput:
    """A bad line ends in exit 1 and one `error: <source>: line N: reason` line."""

    @pytest.mark.parametrize(
        "flag,line,reason",
        [
            ("--steps", "[1]", "record must be a JSON object"),
            ("--steps", json.dumps({**STEP, "index": "1"}), "field 'index' must be an integer"),
            ("--steps", json.dumps({**STEP, "caption": 7}), "field 'caption' must be a string"),
            ("--caption-tokens", "[1]", "record must be a JSON object"),
            ("--caption-tokens", '{"video_id": "v", "clip_id": "c", "tokens": "4"}',
             "field 'tokens' must be an integer"),
            ("--caption-tokens", '{"video_id": "v", "clip_id": "c", "tokens": -5}',
             "field 'tokens' must be an integer in [0, 2**53]"),
            ("--action-tokens", '{"video_id": "v", "action_index": 0, "tokens": 1%s}' % ("0" * 399),
             "field 'tokens' must be an integer in [0, 2**53]"),
            ("--matches", json.dumps({**MATCH, "iou": float("nan")}),
             "field 'iou' must be a finite number"),
            ("--matches", json.dumps({**MATCH, "start_diff_s": float("-inf")}),
             "field 'start_diff_s' must be a finite number"),
            ("--matches", json.dumps({**MATCH, "video_id": 3}),
             "field 'video_id' must be a non-empty string"),
            ("--tiers", '{"item_id": "a", "rater_id": null, "tier": "VeryMatch"}',
             "field 'rater_id' must be a non-empty string"),
            ("--ratings", '{"item_id": "a", "rating": true}', "field 'rating' must be an integer"),
            # Only JSON's whitespace is blank: str.strip() would also drop these three.
            ("--tiers", "\x1c", "invalid JSON: Expecting value"),
            ("--tiers", '\u00a0{"item_id": "a", "rater_id": "r", "tier": "VeryMatch"}',
             "invalid JSON: Expecting value"),
            ("--tiers", '{"item_id": "a", "rater_id": "r", "tier": "VeryMatch"}\u2028',
             "invalid JSON: Extra data"),
            # "\udcff" is written as the raw byte 0xff, which is not UTF-8
            *((flag, '{"x": "\udcff"}', "invalid UTF-8") for flag in (
                "--manifest", "--matches", "--caption-tokens", "--action-tokens", "--tiers",
                "--ratings", "--steps", "--text")),
        ],
        ids=[
            "steps-array", "steps-string-index", "steps-number-caption", "tokens-array",
            "tokens-string-count", "tokens-negative", "tokens-400-digits", "matches-nan", "matches-minus-infinity",
            "matches-number-video", "tiers-null-rater", "ratings-bool", "tiers-file-separator",
            "tiers-leading-no-break-space", "tiers-trailing-line-separator", "manifest-bad-utf8",
            "matches-bad-utf8", "caption-tokens-bad-utf8", "action-tokens-bad-utf8",
            "tiers-bad-utf8", "ratings-bad-utf8", "steps-bad-utf8", "embeddings-bad-utf8",
        ],
    )
    def test_bad_line(self, capsys, tmp_path, flag, line, reason):
        # one clip and one action, so the match record above is valid but for its defect
        manifest_path = str(tmp_path / "m.jsonl")
        with open(manifest_path, "w") as fh:
            fh.write('{"kind": "clip", "video_id": "v", "clip_id": "c", "start_s": 0.0, '
                     '"end_s": 9.0, "caption": "x"}\n')
            fh.write('{"kind": "action", "video_id": "v", "start_s": 0.0, "end_s": 9.0, '
                     '"description": "y"}\n')
        bad = tmp_path / "bad.jsonl"
        # a valid step 2 follows, so the steps read as one sequence but for the defect
        tail = json.dumps({**STEP, "index": 2}) + "\n" if flag == "--steps" else ""
        bad.write_text("\n" + line + "\n" + tail, encoding="utf-8", errors="surrogateescape")
        argv = {
            "--manifest": ["match", "--manifest", str(bad)],
            "--steps": ["windows", "--steps", str(bad), "--k", "1"],
            "--caption-tokens": ["stats", "--manifest", manifest_path, "--caption-tokens", str(bad)],
            "--action-tokens": ["stats", "--manifest", manifest_path, "--action-tokens", str(bad)],
            "--text": ["metrics", "clipt", "--text", str(bad), "--image", str(bad)],
            "--matches": ["filter", "--manifest", manifest_path, "--matches", str(bad)],
            "--tiers": ["score", "--tiers", str(bad)],
            "--ratings": ["score", "--ratings", str(bad)],
        }[flag]
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {bad}: line 2: {reason}\n")

    @pytest.mark.parametrize(
        "flag,lines,reason",
        [
            ("--matches", [{**MATCH, "action_index": 5}],
             "match references action index 5 out of range for video 'v'"),
            ("--matches", [{**MATCH, "clip_id": "cw"}], "match references unknown clip 'cw' in video 'v'"),
            ("--matches", [{**MATCH, "video_id": "w"}], "match references unknown video 'w'"),
            ("--steps", [STEP, {**STEP, "index": 3}],
             "sequence 's': step indices must be contiguous from 1, found 3 at position 2"),
            ("--steps", [STEP], "sequence 's' has 1 steps; need at least 4 for k=2"),
            ("--tiers", [], "no judgments to aggregate"),
            ("--ratings", [], "no ratings to aggregate"),
        ],
        ids=["action-index", "unknown-clip", "unknown-video", "steps-gap", "steps-short",
             "no-tiers", "no-ratings"],
    )
    def test_bad_file_named(self, capsys, tmp_path, flag, lines, reason):
        manifest_path = str(tmp_path / "m.jsonl")
        with open(manifest_path, "w") as fh:
            fh.write('{"kind": "clip", "video_id": "v", "clip_id": "c", "start_s": 0.0, '
                     '"end_s": 9.0, "caption": "x"}\n')
            fh.write('{"kind": "action", "video_id": "v", "start_s": 0.0, "end_s": 9.0, '
                     '"description": "y"}\n')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(line) + "\n" for line in lines))
        argv = {
            "--matches": ["filter", "--manifest", manifest_path, "--matches", str(bad)],
            "--steps": ["windows", "--steps", str(bad), "--k", "2"],
            "--tiers": ["score", "--tiers", str(bad)],
            "--ratings": ["score", "--ratings", str(bad)],
        }[flag]
        assert invoke(capsys, *argv) == (1, "", f"error: {bad}: {reason}\n")

    def test_match_fault_reported_before_a_later_bad_line(self, capsys, tmp_path):
        # filter reads the matches as a stream: line 2's unknown video stops it
        # before line 4's malformed JSON is read.
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text(
            '{"kind": "clip", "video_id": "v", "clip_id": "c", "start_s": 0.0, "end_s": 9.0, "caption": "x"}\n'
            '{"kind": "action", "video_id": "v", "start_s": 0.0, "end_s": 9.0, "description": "y"}\n')
        bad = tmp_path / "matches.jsonl"
        bad.write_text("".join(line + "\n" for line in (
            json.dumps(MATCH), json.dumps({**MATCH, "video_id": "w"}), json.dumps(MATCH), "{not json")))
        out = tmp_path / "out.jsonl"
        argv = ["filter", "--manifest", str(manifest_path), "--matches", str(bad), "--out", str(out)]
        assert invoke(capsys, *argv) == (1, "", f"error: {bad}: match references unknown video 'w'\n")
        assert not out.exists()


class TestConfig:
    @pytest.fixture
    def steps_path(self, tmp_path):
        path = tmp_path / "steps.jsonl"  # one 6-step sequence: k may be 1, 2 or 3
        path.write_text("".join(json.dumps({**STEP, "index": t}) + "\n" for t in range(1, 7)))
        return str(path)

    def window_ks(self, capsys, steps_path, *argv):
        code, out, err = invoke(capsys, "windows", "--steps", steps_path, *argv)
        assert code == 0, err
        return {json.loads(line)["k"] for line in out.splitlines()}

    def test_precedence(self, capsys, steps_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": 1, "threads": 4}')
        assert self.window_ks(capsys, steps_path) == {2}
        assert self.window_ks(capsys, steps_path, "--config", str(cfg)) == {1}
        assert self.window_ks(capsys, steps_path, "--config", str(cfg), "--k", "3") == {3}

    def test_shuffle_from_config(self, capsys, emb_paths, tmp_path):
        a, _ = emb_paths
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"shuffle": false}')
        outs = {name: tmp_path / f"{name}.emb" for name in ("cfg", "flag", "both", "default")}
        for name, argv in (
            ("cfg", ["--config", str(cfg)]),
            ("flag", ["--no-shuffle"]),
            ("both", ["--config", str(cfg), "--shuffle"]),
            ("default", []),
        ):
            assert invoke(capsys, "perturb", "--in", a, "--out", str(outs[name]), *argv)[0] == 0
        assert outs["cfg"].read_bytes() == outs["flag"].read_bytes()
        assert outs["both"].read_bytes() == outs["default"].read_bytes()
        assert outs["cfg"].read_bytes() != outs["default"].read_bytes()

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["match", "--manifest", "{m}", "--iou-low", "nan"],
             "--iou-low: need 0 <= iou_low <= iou_high <= 1, got nan/0.5"),
            (["match", "--manifest", "{m}", "--max-start-diff", "-1"],
             "--max-start-diff: max_start_diff_s must be >= 0, got -1.0"),
            (["match", "--manifest", "{m}", "--config", "{cfg}", "--iou-low", "0.3"],
             "--iou-low: need 0 <= iou_low <= iou_high <= 1, got 0.3/0.25"),
            (["perturb", "--in", "{a}", "--out", "{out}", "--mask-rate", "2"],
             "--mask-rate: mask_rate must be in [0, 1], got 2.0"),
            (["metrics", "regloss", "--pred", "{a}", "--target", "{a}", "--alpha", "-1"],
             "--alpha: alpha and beta must be non-negative"),
            (["metrics", "regloss", "--pred", "{a}", "--target", "{a}", "--alpha", "nan"],
             "--alpha: alpha and beta must be finite, got nan/1.0"),
            (["metrics", "regloss", "--pred", "{a}", "--target", "{a}", "--beta", "inf"],
             "--beta: alpha and beta must be finite, got 1.0/inf"),
            (["perturb", "--in", "{a}", "--out", "{out}", "--noise-scale", "nan"],
             "--noise-scale: noise_scale must be finite, got nan"),
            (["match", "--manifest", "{m}", "--max-start-diff", "nan"],
             "--max-start-diff: max_start_diff_s must be finite, got nan"),
            # the input named is missing: a range error is reported before any input is read
            (["windows", "--steps", "{out}", "--k", "0"],
             "--k: context length k must be in 1..3, got 0"),
            (["windows", "--steps", "{out}", "--config", "{cfg}", "--k", "4"],
             "--k: context length k must be in 1..3, got 4"),
            (["metrics", "frechet", "--a", "{out}", "--b", "{out}", "--jitter", "nan"],
             "--jitter: jitter must be finite and >= 0, got nan"),
            (["metrics", "frechet", "--a", "{out}", "--b", "{out}", "--jitter", "-1"],
             "--jitter: jitter must be finite and >= 0, got -1.0"),
            (["metrics", "frechet", "--a", "{out}", "--b", "{out}", "--jitter", "inf"],
             "--jitter: jitter must be finite and >= 0, got inf"),
            (["perturb", "--in", "{out}", "--out", "{out}", "--threads", "-3"],
             "--threads: threads must be >= 1, got -3"),
            (["match", "--manifest", "{out}", "--config", "{cfg}", "--threads", "0"],
             "--threads: threads must be >= 1, got 0"),
            # a seed is never wrapped into range
            (["perturb", "--in", "{a}", "--out", "{out}", "--seed", "18446744073709551616"],
             "--seed: seed must be in [0, 2**64), got 18446744073709551616"),
            (["match", "--manifest", "{out}", "--seed", "-1"],
             "--seed: seed must be in [0, 2**64), got -1"),
            # of two flags, the one that fails alone is named, not the first
            (["perturb", "--in", "{a}", "--out", "{out}", "--noise-scale", "0.1", "--mask-rate", "3"],
             "--mask-rate: mask_rate must be in [0, 1], got 3.0"),
            (["metrics", "regloss", "--pred", "{a}", "--target", "{a}", "--alpha", "1", "--beta", "-1"],
             "--beta: alpha and beta must be non-negative"),
            # flags that fail only together: the first is named
            (["metrics", "regloss", "--pred", "{a}", "--target", "{a}", "--alpha", "0", "--beta", "0"],
             "--alpha: alpha + beta must be positive"),
            # a flag that passes with the rest is not named for their error
            (["match", "--manifest", "{m}", "--max-start-diff", "5", "--iou-low", "0.3", "--iou-high", "0.25"],
             "--iou-low: need 0 <= iou_low <= iou_high <= 1, got 0.3/0.25"),
            # two flags that each fail alone: the later in field order is named
            (["match", "--manifest", "{m}", "--max-start-diff", "-1", "--iou-low", "2"],
             "--iou-low: need 0 <= iou_low <= iou_high <= 1, got 2.0/0.5"),
        ],
        ids=["iou-low-nan", "max-start-diff", "flag-against-config", "mask-rate", "alpha",
             "alpha-nan", "beta-inf", "noise-scale-nan", "max-start-diff-nan", "k-0",
             "k-4-with-config", "jitter-nan", "jitter-negative", "jitter-inf", "threads-negative",
             "threads-0-with-config", "seed-2-64", "seed-negative", "second-flag-fails-alone", "beta-fails-alone",
             "flags-fail-together", "first-flag-passes-with-the-rest", "both-flags-fail-alone"],
    )
    def test_out_of_range_flag_named(self, capsys, manifest_path, emb_paths, tmp_path, argv, err):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.emb"
        cfg.write_text('{"iou_high": 0.25}')
        argv = [arg.format(m=manifest_path, a=emb_paths[0], cfg=cfg, out=out) for arg in argv]
        assert invoke(capsys, *argv) == (2, "", f"error: {err}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,err", [
        (["score"], "--tiers: required unless --ratings is given"),
        (["perturb", "--in", "{a}"], "--out: required (binary output does not go to stdout)"),
    ], ids=["score-without-input", "perturb-without-out"])
    def test_missing_required_flag_named(self, capsys, emb_paths, argv, err):
        argv = [arg.format(a=emb_paths[0]) for arg in argv]
        assert invoke(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_flag_of_another_section_leaves_the_config_named(self, capsys, manifest_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mask_rate": 2}')
        argv = ["match", "--manifest", manifest_path, "--config", str(cfg), "--iou-low", "0.3"]
        assert invoke(capsys, *argv) == (1, "", f"error: {cfg}: mask_rate must be in [0, 1], got 2.0\n")

    def test_flag_that_mends_the_config_leaves_another_flag_named(self, capsys, manifest_path, tmp_path):
        # iou_low 0.6 fails alone against the default iou_high 0.5, but this run sets 0.7
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"iou_low": 0.6}')
        argv = ["match", "--manifest", manifest_path, "--config", str(cfg), "--iou-high", "0.7",
                "--max-start-diff", "-1"]
        assert invoke(capsys, *argv) == (2, "", "error: --max-start-diff: max_start_diff_s must be >= 0, got -1.0\n")

    def test_flag_of_the_same_section_leaves_the_config_named(self, capsys, emb_paths, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.emb"
        cfg.write_text('{"mask_rate": 2}')
        argv = ["perturb", "--in", emb_paths[0], "--out", str(out), "--config", str(cfg),
                "--noise-scale", "0.1"]
        assert invoke(capsys, *argv) == (1, "", f"error: {cfg}: mask_rate must be in [0, 1], got 2.0\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,reason",
        [
            ('{"shuffle": "false"}', "field 'shuffle' must be a JSON bool"),
            ('{"shuffle": 0}', "field 'shuffle' must be a JSON bool"),
            ('{"iou_lo": 0.9, "alpha": 1, "beta_": 2}', "unknown config key(s): beta_, iou_lo"),
            ("[1]", "record must be a JSON object"),
            ('"k"', "record must be a JSON object"),
            ('{"k": 2', "invalid JSON: Expecting ',' delimiter"),
            ('{"k": 2.0}', "field 'k' must be a JSON int"),
            ('{"seed": true}', "field 'seed' must be a JSON int"),
            ('{"iou_low": "0.2"}', "field 'iou_low' must be a finite number"),
            ('{"iou_low": NaN}', "field 'iou_low' must be a finite number"),
            ('{"histogram_edges": [0, 5]}', "field 'histogram_edges' must be a JSON dict"),
            ('{"histogram_edges": {"clip_length": [0, 5]}}',
             "field 'histogram_edges' has no list for 'clip_length'"),
            ('{"histogram_edges": {"clip_length_s": [0, "5"]}}',
             "field 'clip_length_s' must be a finite number"),
            ('{"histogram_edges": {"clip_length_s": [5, 1]}}',
             "field 'histogram_edges' for 'clip_length_s': bin edges must be strictly increasing"),
            ('{"histogram_edges": {"caption_words": [5]}}',
             "field 'histogram_edges' for 'caption_words': need at least two bin edges"),
            ('{"k": 1,\n "x": "\udcff"}', "invalid UTF-8"),  # the raw byte 0xff
            ('{"iou_low": 0.9}', "need 0 <= iou_low <= iou_high <= 1, got 0.9/0.5"),
            ('{"beta": -1}', "alpha and beta must be non-negative"),
            ('{"noise_scale": -1}', "noise_scale must be >= 0, got -1.0"),
            ('{"k": 0}', "context length k must be in 1..3, got 0"),
            ('{"threads": 0}', "threads must be >= 1, got 0"),
            ('{"threads": 2.0}', "field 'threads' must be a JSON int"),
            ('{"seed": -1}', "seed must be in [0, 2**64), got -1"),
            ('{"seed": 18446744073709551616}', "seed must be in [0, 2**64), got 18446744073709551616"),
        ],
        ids=[
            "shuffle-string", "shuffle-int", "unknown-keys", "array", "string",
            "invalid-json", "k-float", "seed-bool", "float-string", "float-nan",
            "edges-array", "edges-unknown-name", "edges-string-value", "edges-decreasing",
            "edges-one", "bad-utf8",
            "thresholds-range", "loss-range", "perturbation-range", "k-range", "threads-range",
            "threads-float", "seed-negative", "seed-2-64",
        ],
    )
    def test_bad_config_rejected(self, capsys, steps_path, tmp_path, text, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8", errors="surrogateescape")
        code, out, err = invoke(capsys, "windows", "--steps", steps_path, "--config", str(cfg))
        assert (code, out, err) == (1, "", f"error: {cfg}: {reason}\n")
