"""The corpus commands, perturb and the pair metrics reproduce the committed digests of their
outputs (see golden.py)."""

import json
import os

import golden


def test_corpus_commands_match_golden_digests(tmp_path):
    results = golden.run_cases(str(tmp_path))
    assert results == golden.load_digests()
    # filter gives the same bytes whatever the order of its match lines
    for policy in ("best", "all"):
        twin = results[f"filter-{policy}"]
        assert results[f"filter-{policy}-interleaved"] == twin
        # and whether or not it writes the assignment
        manifest = f"filtered-{policy}.jsonl"
        assert results[f"filter-{policy}-no-assignment"] == {**twin, "outputs": {manifest: twin["outputs"][manifest]}}
    # the interleaved input is the match case's output, stably sorted by clip_id
    with open(tmp_path / "matches.jsonl", encoding="utf-8") as fh:
        lines = sorted(fh, key=lambda line: json.loads(line)["clip_id"])
    with open(os.path.join(golden.DATA, "matches-interleaved.jsonl"), encoding="utf-8") as fh:
        assert fh.readlines() == lines


def test_perturb_matches_golden_digests(tmp_path):
    results = golden.run_cases(str(tmp_path), golden.PERTURB_CASES)
    recorded = golden.load_digests(golden.PERTURB_DIGESTS)
    # NEP 19 lets a numpy release change a Generator's stream: name both releases
    assert results == recorded["cases"], (
        f"digests written by numpy {recorded['numpy']}, running {golden.numpy_version()}")
    # each --threads 2 case writes its --threads 1 twin's bytes
    for name, result in results.items():
        if name.endswith("-threads2"):
            assert result == results[name.replace("-threads2", "-threads1")]


def test_pair_metrics_match_golden_digests(tmp_path):
    results = golden.run_cases(str(tmp_path), golden.METRIC_CASES)
    recorded = golden.load_digests(golden.METRIC_DIGESTS)
    assert results == recorded["cases"], (
        f"digests written by numpy {recorded['numpy']}, running {golden.numpy_version()}")
    assert all(result["exit"] == 0 for result in results.values())
