"""Arbitrary input bytes end in a ValueError or a clean exit, never a traceback."""

import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_manifest
from narrkit import cli, context, embedio, matching, scoring
from narrkit.embedcore import EmbeddingSet
from narrkit.manifest import parse_manifest, write_manifest

# Field names the readers and the config know, so that generated records get
# past the JSON layer and reach the field checks.
FIELDS = [
    "kind", "video_id", "clip_id", "start_s", "end_s", "caption", "description",
    "duration_s", "action_index", "iou", "start_diff_s", "rule", "sequence_id",
    "index", "action", "embedding_id", "keyframe_id", "item_id", "rater_id", "tier",
    "rating", "id", "values", "tokens", "seed", "k", "shuffle", "iou_low",
    "histogram_edges", "clip_length_s",
]
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from(["clip", "video", "action", "RuleA", "VeryMatch", "v00000", "c000"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=3),
    max_leaves=6,
)
records = st.dictionaries(st.sampled_from(FIELDS), values, max_size=8).map(json.dumps)
# Embedding records of the test set's dimension or less, whose values come near 0, the float32
# limit and the float64 limit, and whose id may be empty.
extremes = st.builds(lambda limit, sign, factor: sign * limit * factor,
                     st.sampled_from([0.0, 1e-45, 3.4e38, 1.7e308]), st.sampled_from([1, -1]),
                     st.floats(0.99, 1.01))
embedding_records = st.fixed_dictionaries(
    {"values": st.lists(st.one_of(extremes, st.floats(-2, 2)), min_size=3, max_size=3)
     | st.lists(extremes, min_size=1, max_size=2)},
    optional={"id": st.sampled_from(["", "x"])},
).map(json.dumps)
lines = st.one_of(records, embedding_records, st.sampled_from(["[1]", "null", "{", "", '"x"']),
                  st.text(max_size=20))
documents = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=64).map(lambda b: embedio.MAGIC + b),
    st.lists(lines, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8")),
    st.lists(embedding_records, min_size=1, max_size=5).map(lambda ls: "\n".join(ls).encode("utf-8")),
)

READERS = [
    parse_manifest,
    lambda fh: list(matching.parse_match_records(fh)),
    scoring.read_tier_judgments,
    scoring.read_vlm_ratings,
    context.read_step_sequences,
]


@settings(max_examples=100, deadline=None)
@given(documents)
def test_readers_return_or_raise_value_error(data):
    for read in READERS:
        with contextlib.suppress(ValueError):
            read(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    with contextlib.suppress(ValueError):
        embedio.read_embeddings(io.BytesIO(data))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    manifest = random_manifest(np.random.default_rng(7), n_videos=3)
    write_manifest(manifest, d / "m.jsonl")
    code = cli.run(["match", "--manifest", str(d / "m.jsonl"), "--out", str(d / "matches.jsonl")])
    assert code == 0
    embedio.write_embeddings(EmbeddingSet(np.eye(4, 3)), d / "e.emb")
    (d / "steps.jsonl").write_text("".join(
        json.dumps({"sequence_id": "s", "index": t, "action": "a", "caption": "c",
                    "embedding_id": "e", "keyframe_id": "k"}) + "\n" for t in range(1, 5)
    ))
    return d


def commands(d):
    bad, m, e, out = str(d / "bad"), str(d / "m.jsonl"), str(d / "e.emb"), str(d / "out")
    return [
        ["validate", "--manifest", bad],
        ["match", "--manifest", bad],
        ["filter", "--manifest", bad, "--matches", str(d / "matches.jsonl")],
        ["filter", "--manifest", m, "--matches", bad, "--out", out, "--assignment", out + "2"],
        ["stats", "--manifest", bad],
        ["stats", "--manifest", m, "--caption-tokens", bad],
        ["stats", "--manifest", m, "--action-tokens", bad],
        ["stats", "--manifest", m, "--config", bad],
        ["score", "--tiers", bad],
        ["score", "--ratings", bad],
        ["windows", "--steps", bad],
        ["windows", "--steps", str(d / "steps.jsonl"), "--config", bad],
        ["metrics", "frechet", "--a", bad, "--b", e],
        ["metrics", "clipt", "--text", bad, "--image", e],
        ["metrics", "regloss", "--pred", bad, "--target", e],
        ["metrics", "regloss", "--pred", bad, "--target", bad],
        ["metrics", "flowloss", "--pred", bad, "--target", bad],
        ["perturb", "--in", bad, "--out", out],
        ["perturb", "--in", e, "--out", out, "--config", bad],
    ]


@settings(max_examples=60, deadline=None)
@given(data=documents)
def test_cli_exits_cleanly(inputs, data):
    (inputs / "bad").write_bytes(data)
    for argv in commands(inputs):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        err = err.getvalue()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        # An error names a file or flag that was passed; validate's violation report
        # exits 1 too, as a result.
        if code == 1 and not (argv[0] == "validate" and err.startswith("checked ")):
            sources = [arg for arg in argv if arg.startswith("--") or os.sep in arg]
            assert any(err.startswith(f"error: {source}: ") for source in sources), (argv, err)
