"""The package namespace and what each command imports.

The corpus commands handle records only, so they must run where numpy cannot
be imported; the package's lazy namespace must still offer every public name.
"""

import importlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import random_manifest

import narrkit
from narrkit.cli import run
from narrkit.manifest import write_manifest

_SRC = os.path.dirname(os.path.dirname(narrkit.__file__))

# Setting sys.modules["numpy"] to None makes every later `import numpy` fail.
_CLI_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; "
    "from narrkit.cli import run; sys.exit(run(sys.argv[1:]))"
)


def _python(*argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = random_manifest(np.random.default_rng(7), n_videos=12)
    paths = {name: str(root / f"{name}.jsonl") for name in (
        "manifest", "matches", "captions", "actions", "steps", "tiers", "ratings")}
    write_manifest(manifest, paths["manifest"])
    assert run(["match", "--manifest", paths["manifest"], "--out", paths["matches"]]) == 0
    with open(paths["captions"], "w") as fh:
        for clip in manifest.iter_clips():
            fh.write(json.dumps({"video_id": clip.video_id, "clip_id": clip.clip_id, "tokens": 5})
                     + "\n")
    with open(paths["actions"], "w") as fh:
        for video_id, records in manifest.actions.items():
            for i in range(len(records)):
                fh.write(json.dumps({"video_id": video_id, "action_index": i, "tokens": 4}) + "\n")
    with open(paths["steps"], "w") as fh:
        for t in range(1, 7):
            fh.write(json.dumps({"sequence_id": "s", "index": t, "action": "a", "caption": "c",
                                 "embedding_id": f"e{t}", "keyframe_id": f"k{t}"}) + "\n")
    with open(paths["tiers"], "w") as fh:
        fh.write('{"item_id": "a", "rater_id": "r1", "tier": "VeryMatch"}\n')
    with open(paths["ratings"], "w") as fh:
        fh.write('{"item_id": "a", "rating": 6}\n')
    return paths, root


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--manifest", "{manifest}"],
        ["match", "--manifest", "{manifest}"],
        ["filter", "--manifest", "{manifest}", "--matches", "{matches}",
         "--assignment", "{root}/assignment.jsonl"],
        ["stats", "--manifest", "{manifest}", "--caption-tokens", "{captions}",
         "--action-tokens", "{actions}"],
        ["windows", "--steps", "{steps}", "--k", "2"],
        ["score", "--tiers", "{tiers}", "--ratings", "{ratings}"],
    ],
    ids=lambda argv: argv[0],
)
def test_corpus_commands_run_without_numpy(corpus, argv):
    paths, root = corpus
    argv = [arg.format(**paths, root=root) for arg in argv]
    proc = _python("-c", _CLI_WITHOUT_NUMPY, *argv, "--out", str(root / f"{argv[0]}.out"))
    assert proc.returncode == 0, proc.stderr


def _narrkit_modules(code: str, *argv: str) -> set[str]:
    # Run ``code`` in a fresh interpreter; the narrkit modules it left loaded.
    proc = _python("-c", code + "\nimport sys; print(*sorted(m for m in sys.modules if 'narrkit' in m))", *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


_BASE = {"narrkit", "narrkit.cli", "narrkit.jsonl", "narrkit.params"}
_RUN_CLI = "import sys; from narrkit.cli import run; assert run(sys.argv[1:]) == 0"


def test_cli_import_loads_no_command_module():
    assert _narrkit_modules("import narrkit.cli") == _BASE


# Each corpus command and the narrkit modules it loads beyond those of the CLI.
_CLOSURES = [
    (["validate", "--manifest", "{manifest}"], {"manifest"}),
    (["match", "--manifest", "{manifest}"], {"manifest", "matching"}),
    (["filter", "--manifest", "{manifest}", "--matches", "{matches}"], {"manifest", "matching"}),
    (["stats", "--manifest", "{manifest}", "--caption-tokens", "{captions}"], {"manifest", "stats"}),
    (["windows", "--steps", "{steps}"], {"context"}),
    (["score", "--tiers", "{tiers}", "--ratings", "{ratings}"], {"scoring"}),
]


@pytest.mark.parametrize("argv,closure", _CLOSURES, ids=[argv[0] for argv, _ in _CLOSURES])
def test_command_loads_only_its_modules(corpus, argv, closure):
    paths, root = corpus
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(root / f"{argv[0]}.closure")]
    assert _narrkit_modules(_RUN_CLI, *argv) == _BASE | {f"narrkit.{name}" for name in closure}


def test_histogram_edges_load_only_stats(corpus, tmp_path):
    paths, _ = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"histogram_edges": {"clip_length_s": [0, 5, 10]}}))
    argv = ["windows", "--steps", paths["steps"], "--config", str(cfg), "--out", str(tmp_path / "w")]
    # the edges are checked by params, so a command that draws no histogram loads no stats
    assert _narrkit_modules(_RUN_CLI, *argv) == _BASE | {"narrkit.context"}


def test_stats_loads_no_statistics_module(corpus, tmp_path):
    # statistics pulls in random, fractions and decimal for two one-line sums
    paths, _ = corpus
    code = ("import sys; from narrkit.cli import run; "
            "assert run(sys.argv[1:]) == 0; print('statistics' in sys.modules)")
    proc = _python("-c", code, "stats", "--manifest", paths["manifest"], "--out", str(tmp_path / "r"))
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize(
    "argv,cfg,err",
    [
        (["windows", "--steps", "{steps}"], {"mask_rate": 2},
         "error: {cfg}: mask_rate must be in [0, 1], got 2.0\n"),
        (["match", "--manifest", "{manifest}"], {"alpha": -1},
         "error: {cfg}: alpha and beta must be non-negative\n"),
    ],
    ids=["windows-mask-rate", "match-alpha"],
)
def test_every_config_section_checked_without_numpy(corpus, tmp_path, argv, cfg, err):
    # a shared config file with an embedding setting out of range fails every command
    paths, _ = corpus
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [arg.format(**paths) for arg in argv] + ["--config", str(cfg_path)]
    proc = _python("-c", _CLI_WITHOUT_NUMPY, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err.format(cfg=cfg_path))


# The names the package exported before its namespace became lazy, by module.
_EXPORTED = {
    "manifest": ["ActionRecord", "ClipRecord", "DatasetManifest", "ManifestError", "TimeInterval",
                 "VideoEntry", "Violation", "parse_manifest", "validate_manifest", "write_manifest"],
    "matching": ["FilterPolicy", "MatchRecord", "MatchRule", "MatchThresholds", "filter_matched",
                 "interval_iou", "match_clip_action", "match_dataset"],
    "embedcore": ["EmbeddingSet", "FlowSample", "GaussianMoments", "PerturbationSpec",
                  "RegressionLossParams", "clip_t_score", "fit_moments", "flow_loss",
                  "flow_matching_loss", "frechet_distance", "perturb", "perturb_set",
                  "population_std", "regression_loss", "regression_loss_grad"],
    "embedio": ["read_embeddings", "write_embeddings"],
    "context": ["ConditioningWindow", "NarrativeSequence", "StepRecord", "build_windows",
                "tile_captions"],
    "scoring": ["MatchTier", "aggregate_ratings", "aggregate_tiers", "tier_to_score"],
    "stats": ["Histogram", "SummaryStats", "histogram", "summarize"],
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in _EXPORTED.items() for n in names])
def test_exported_name_resolves_to_its_module(module, name):
    namespace: dict = {}
    exec(f"from narrkit import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"narrkit.{module}"), name)


def test_star_import_binds_every_exported_name():
    assert sum(map(len, _EXPORTED.values())) == 48
    namespace: dict = {}
    exec("from narrkit import *", namespace)
    for module, names in _EXPORTED.items():
        for name in names:
            assert namespace[name] is getattr(importlib.import_module(f"narrkit.{module}"), name)
    assert set(namespace) - {"__builtins__"} == set(narrkit.__all__)


# Removed in 0.2.0: no command, bench step or acceptance test reached them.
_REMOVED = ["add_noise", "cosine_similarity", "rescale_latent", "HistoryRecord", "build_history",
            "export_training_records", "parse_training_records", "partition"]


@pytest.mark.parametrize("name", _REMOVED)
def test_removed_name_raises_attribute_error(name):
    assert name not in narrkit.__all__
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(narrkit, name)


def test_version_is_pyprojects():
    # By a regex: Python 3.10 has no tomllib.
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), encoding="utf-8") as fh:
        version = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
    assert version is not None and version.group(1) == narrkit.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        narrkit.nope  # noqa: B018
    assert not hasattr(narrkit, "a.b")  # not a module path either


def test_corpus_names_and_submodules_load_no_numpy():
    proc = _python("-c", (
        "import sys; import narrkit.cli; from narrkit import matching, stats; "
        "from narrkit import histogram, parse_manifest, InputError, PerturbationSpec; "
        "assert 'numpy' not in sys.modules, 'numpy loaded'; "
        "from narrkit import fit_moments; assert 'numpy' in sys.modules"
    ))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["perturb", "--in", "{a}", "--threads", "1"], False),
        (["perturb", "--in", "{a}", "--threads", "2"], True),
        (["metrics", "regloss", "--pred", "{a}", "--target", "{b}"], False),
        (["metrics", "flowloss", "--pred", "{a}", "--target", "{b}"], False),
        (["metrics", "frechet", "--a", "{a}", "--b", "{b}"], False),
        (["metrics", "clipt", "--text", "{a}", "--image", "{b}"], False),
    ],
    ids=["perturb-threads-1", "perturb-threads-2", "regloss", "flowloss", "frechet", "clipt"],
)
def test_only_a_perturb_worker_loads_multiprocessing(tmp_path, argv, loaded):
    from narrkit.embedio import write_embeddings

    rng = np.random.default_rng(3)
    names = {name: str(tmp_path / f"{name}.emb") for name in "ab"}
    for path in names.values():
        write_embeddings(narrkit.EmbeddingSet(rng.normal(size=(40, 8)).astype(np.float32)), path)
    argv = [arg.format(**names) for arg in argv] + ["--out", str(tmp_path / "out")]
    # Two CPUs, so that --threads 2 starts a worker on any machine.
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; from narrkit.cli import run; "
            "assert run(sys.argv[1:]) == 0; print('multiprocessing' in sys.modules)")
    proc = _python("-c", code, *argv)
    assert (proc.returncode, proc.stdout) == (0, f"{loaded}\n"), proc.stderr
