"""Byte digests of the corpus commands, of ``perturb`` and of the pair metrics on
the committed inputs in data/golden.

Each case runs ``narrkit.cli.run`` in process, in a scratch directory that
holds a copy of the inputs, and records the exit code and the sha256 of
stdout, of stderr and of each output file. ``data/golden/digests.json``
keeps the corpus commands' digests that the current code must reproduce. Only
the standard library is needed for them: the corpus commands load no numpy,
so any supported Python can check them.

The ``perturb-*`` cases need numpy, so they run only where it imports, and
are counted as skipped elsewhere. They cover both shuffle modes, on the
``EMB1`` set with binary output and on the JSONL set, whose records carry
ids, with JSONL output, each at ``--threads 1`` and ``2``; test_golden.py also
requires each ``--threads 2`` case to match its twin. ``data/golden/digests-perturb.json``
keeps their digests and the numpy release that wrote them, printed beside the
running one: NEP 19 lets a release change a ``Generator``'s stream, and so
move a digest.

The ``metric-*`` cases need numpy too. They run ``regloss``, ``flowloss`` and
``clipt`` on ``set.emb`` and on ``set.jsonl``, each paired with itself, and on
``pair-a.emb`` against ``pair-b.emb``, whose 1100 rows cross the kernels'
block boundaries. ``data/golden/digests-metrics.json`` keeps their digests
and the numpy release that wrote them. ``frechet`` is left out: its last
digits follow the BLAS thread count (see README, "``frechet`` digits").

    PYTHONPATH=src python tests/golden.py            # check; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden.py --rewrite  # record the current digests

A change that moves a digest names the case in CHANGES.md and says why.
``matches-interleaved.jsonl`` is the ``match`` case's output stably sorted by
``clip_id``, so each video's lines are spread across the file; the
``filter-*-interleaved`` cases read it and write the same bytes, under the
same names, as ``filter-best`` and ``filter-all``. The ``filter-*-no-assignment``
cases leave out ``--assignment`` and write the same filtered manifest.

The ``error-*`` cases feed one ``bad-*`` input each to the manifest, match,
tier, rating, step, token count and config readers; each must exit 1 and print
``error: <source>: line N: <reason>``, without ``line N: `` for the config,
with a reason that narrkit writes itself, so that no Python release moves it.
``error-validate`` also writes its ``parse-error`` line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
DIGESTS = os.path.join(DATA, "digests.json")
PERTURB_DIGESTS = os.path.join(DATA, "digests-perturb.json")
METRIC_DIGESTS = os.path.join(DATA, "digests-metrics.json")
INPUTS = ("manifest.jsonl", "caption_tokens.jsonl", "action_tokens.jsonl", "steps.jsonl",
          "tiers.jsonl", "ratings.jsonl", "tiers-item-means.jsonl", "config.json",
          "matches-interleaved.jsonl", "set.emb", "set.jsonl", "pair-a.emb", "pair-b.emb",
          "bad-manifest.jsonl", "bad-matches.jsonl", "bad-tiers.jsonl", "bad-ratings.jsonl",
          "bad-steps.jsonl", "bad-caption-tokens.jsonl", "bad-action-tokens.jsonl", "bad-config.json")

_M = ("--manifest", "manifest.jsonl")
# (case name, argv, output files), run in this order: filter reads match's output.
CASES = [
    ("validate", ["validate", *_M, "--out", "violations.jsonl"], ["violations.jsonl"]),
    ("match", ["match", *_M, "--out", "matches.jsonl"], ["matches.jsonl"]),
    ("match-iou-low-0.25", ["match", *_M, "--iou-low", "0.25", "--out", "matches-025.jsonl"],
     ["matches-025.jsonl"]),
    *[(f"filter-{policy}", ["filter", *_M, "--matches", "matches.jsonl", "--policy", policy,
                            "--out", f"filtered-{policy}.jsonl",
                            "--assignment", f"assignment-{policy}.jsonl"],
       [f"filtered-{policy}.jsonl", f"assignment-{policy}.jsonl"]) for policy in ("best", "all")],
    # Without --assignment, so each case must reproduce its twin's filtered manifest.
    *[(f"filter-{policy}-no-assignment",
       ["filter", *_M, "--matches", "matches.jsonl", "--policy", policy, "--out", f"filtered-{policy}.jsonl"],
       [f"filtered-{policy}.jsonl"]) for policy in ("best", "all")],
    # The same matches in another order, so each case must reproduce its twin's digests.
    *[(f"filter-{policy}-interleaved",
       ["filter", *_M, "--matches", "matches-interleaved.jsonl", "--policy", policy,
        "--out", f"filtered-{policy}.jsonl", "--assignment", f"assignment-{policy}.jsonl"],
       [f"filtered-{policy}.jsonl", f"assignment-{policy}.jsonl"]) for policy in ("best", "all")],
    ("stats", ["stats", *_M, "--out", "report.json"], ["report.json"]),
    ("stats-tokens-config", ["stats", *_M, "--caption-tokens", "caption_tokens.jsonl",
                             "--action-tokens", "action_tokens.jsonl", "--config", "config.json"],
     []),
    *[(f"windows-k{k}", ["windows", "--steps", "steps.jsonl", "--k", str(k),
                         "--out", f"windows-k{k}.jsonl"], [f"windows-k{k}.jsonl"]) for k in (1, 2, 3)],
    ("score", ["score", "--tiers", "tiers.jsonl", "--ratings", "ratings.jsonl"], []),
    ("score-item-means", ["score", "--tiers", "tiers-item-means.jsonl"], []),
    # Each reader rejects one bad input: exit 1 and one stderr line, error: <source>: line N: <reason>.
    ("error-validate", ["validate", "--manifest", "bad-manifest.jsonl", "--out", "violations-bad.jsonl"],
     ["violations-bad.jsonl"]),
    ("error-filter-matches",
     ["filter", *_M, "--matches", "bad-matches.jsonl", "--out", "filtered-bad.jsonl"], []),
    ("error-score-tiers", ["score", "--tiers", "bad-tiers.jsonl"], []),
    ("error-score-ratings", ["score", "--ratings", "bad-ratings.jsonl"], []),
    ("error-windows-steps", ["windows", "--steps", "bad-steps.jsonl", "--out", "windows-bad.jsonl"], []),
    ("error-stats-caption-tokens", ["stats", *_M, "--caption-tokens", "bad-caption-tokens.jsonl"], []),
    ("error-stats-action-tokens", ["stats", *_M, "--action-tokens", "bad-action-tokens.jsonl"], []),
    ("error-config", ["stats", *_M, "--config", "bad-config.json"], []),
]

# Run only where numpy imports. Twins differ only in --threads, and write the same files.
PERTURB_CASES = [
    (f"perturb-{mode}-{fmt}-threads{threads}",
     ["perturb", "--in", source, "--shuffle-mode", mode, "--format", fmt, "--seed", "7",
      "--threads", str(threads), "--out", f"perturbed-{mode}.{fmt}"], [f"perturbed-{mode}.{fmt}"])
    for mode in ("coords", "sequence") for fmt, source in (("binary", "set.emb"), ("jsonl", "set.jsonl"))
    for threads in (1, 2)
]

# Run only where numpy imports; the output is stdout.
METRIC_CASES = [
    (f"metric-{metric}-{name}", ["metrics", metric, first, a, second, b], [])
    for metric, first, second in (("regloss", "--pred", "--target"), ("flowloss", "--pred", "--target"),
                                  ("clipt", "--text", "--image"))
    for name, a, b in (("emb", "set.emb", "set.emb"), ("jsonl", "set.jsonl", "set.jsonl"),
                       ("pair", "pair-a.emb", "pair-b.emb"))
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cases(workdir: str, cases: list = CASES) -> dict:
    """Run each of ``cases`` in ``workdir`` and return its digests, keyed by case name."""
    from narrkit import cli

    for name in INPUTS:
        shutil.copy(os.path.join(DATA, name), workdir)
    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)  # every path the commands see, and so every message, is relative
    try:
        for name, argv, outputs in cases:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            results[name] = {
                "exit": code,
                "stdout": _sha256(out.getvalue().encode("utf-8", "surrogateescape")),
                "stderr": _sha256(err.getvalue().encode("utf-8", "surrogateescape")),
                "outputs": {path: _sha256(pathlib.Path(path).read_bytes()) for path in outputs},
            }
    finally:
        os.chdir(cwd)
    return results


def load_digests(path: str = DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def numpy_version() -> str | None:
    """The release of numpy, or None where it does not import."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _dump(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _mismatches(expected: dict, results: dict) -> list[str]:
    bad = sorted(name for name in expected.keys() | results.keys()
                 if expected.get(name) != results.get(name))
    for name in bad:
        print(f"MISMATCH {name}: expected {expected.get(name)}, got {results.get(name)}")
    return bad


def main(argv: list[str]) -> int:
    if argv not in ([], ["--rewrite"]):
        print(__doc__, file=sys.stderr)
        return 2
    numpy_release = numpy_version()
    # the lists that need numpy: (kind, cases, digest file)
    numpy_lists = [("perturb", PERTURB_CASES, PERTURB_DIGESTS), ("metric", METRIC_CASES, METRIC_DIGESTS)]
    with tempfile.TemporaryDirectory() as workdir:
        results = run_cases(workdir)
        numpy_results = [run_cases(workdir, cases) for _, cases, _ in numpy_lists] if numpy_release else None
    if numpy_results is None:
        for kind, cases, _ in numpy_lists:
            print(f"skipped {len(cases)} {kind} cases: numpy does not import")
    if argv:
        _dump(DIGESTS, results)
        print(f"wrote {len(results)} cases to {DIGESTS}")
        for (_, _, path), got in zip(numpy_lists, numpy_results or []):
            _dump(path, {"numpy": numpy_release, "cases": got})
            print(f"wrote {len(got)} cases to {path}")
        return 0
    bad = _mismatches(load_digests(), results)
    print(f"{len(results) - len(bad)} of {len(results)} cases match on Python {sys.version.split()[0]}")
    for (kind, _, path), got in zip(numpy_lists, numpy_results or []):
        recorded = load_digests(path)
        bad_numpy = _mismatches(recorded["cases"], got)
        print(f"{len(got) - len(bad_numpy)} of {len(got)} {kind} cases match on numpy "
              f"{numpy_release} (digests written by numpy {recorded['numpy']})")
        bad += bad_numpy
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
