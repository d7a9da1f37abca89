"""Traced in-process pass over one workload's commands.

Run as ``python tracer.py SPEC OUT`` in a fresh interpreter, with narrkit's
``src`` on PYTHONPATH. SPEC is a JSON file ``{"run_id": ..., "commands":
[[name, argv], ...]}``. For each command the tracer

1. times ``narrkit.cli.run(argv)`` as span ``cli.<name>``, then
2. replays the command through narrkit's public functions, one span per
   layer call, under span ``replay.<name>``.

The CLI glue of a command is its ``cli.<name>`` time minus the time the
replayed layer calls cover. ``manifest.decode`` re-times ``json.loads`` over
the lines a parse just read; it sits outside the replay so it is not
subtracted from the glue, and ``manifest.build`` is parse minus decode.

Spans stay in memory and are written to OUT as one JSON document when the
pass ends, together with each command's exit code and the cost of recording
one span. Nothing here is imported by narrkit: the spans wrap calls into its
modules from outside.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import traceback

# Only the standard library is imported above, so the first span times the
# whole import of the CLI, numpy included.
_t0 = time.perf_counter()
import narrkit.cli as cli  # noqa: E402

_t1 = time.perf_counter()

import numpy as np  # noqa: E402

from narrkit import context, embedcore, embedio, matching, scoring, stats  # noqa: E402
from narrkit.manifest import parse_manifest, validate_manifest, write_manifest  # noqa: E402


class Tracer:
    """Collects spans (id, parent, name, start, end, counts) for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, **counts) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), parent, name, start, end, counts])

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        record = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, counts]
        self.spans.append(record)
        self._stack.append(record[0])
        record[3] = time.perf_counter()
        try:
            yield counts
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def dump(self) -> list[dict]:
        return [
            {"run": self.run_id, "id": i, "parent": p, "name": n, "start": s, "end": e, "counts": c}
            for i, p, n, s, e, c in self.spans
        ]


def span_cost(reps: int = 2000) -> float:
    """Seconds one empty span costs to record."""
    probe = Tracer("calibration")
    start = time.perf_counter()
    for _ in range(reps):
        with probe.span("x"):
            pass
    return (time.perf_counter() - start) / reps


def _parse(tr: Tracer, path: str):
    with tr.span("manifest.parse", **{"manifest.bytes_in": os.path.getsize(path)}) as counts:
        m = parse_manifest(path)
        counts["manifest.records_in"] = m.n_videos + m.n_clips + m.n_actions
    return m


def _decode(tr: Tracer, path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    loads = json.loads
    with tr.span("manifest.decode"):
        for line in lines:
            if line:
                loads(line)


def _overlaps(m) -> tuple[int, int]:
    """Candidate (same-video) and strictly overlapping clip/action pairs."""
    candidates = overlaps = 0
    for video_id, entry in m.videos.items():
        actions = m.actions.get(video_id, [])
        if not entry.clips or not actions:
            continue
        cs = np.array([c.interval.start_s for c in entry.clips])[:, None]
        ce = np.array([c.interval.end_s for c in entry.clips])[:, None]
        as_ = np.array([a.interval.start_s for a in actions])[None, :]
        ae = np.array([a.interval.end_s for a in actions])[None, :]
        candidates += cs.size * as_.size
        overlaps += int((np.minimum(ce, ae) - np.maximum(cs, as_) > 0).sum())
    return candidates, overlaps


def replay_validate(tr, args):
    m = _parse(tr, args.manifest)
    with tr.span("manifest.validate"):
        validate_manifest(m)


def replay_match(tr, args):
    m = _parse(tr, args.manifest)
    candidates, overlaps = _overlaps(m)
    with tr.span(
        "matching.match",
        **{"matching.candidate_pairs": candidates, "matching.overlap_pairs": overlaps},
    ) as counts:
        records = matching.match_dataset(m, matching.MatchThresholds(), threads=args.threads or 1)
        counts["matching.matches"] = len(records)
    with tr.span("matching.format"):
        "".join(matching.format_match_record(r) + "\n" for r in records)


def replay_filter(tr, args):
    m = _parse(tr, args.manifest)
    with tr.span("matching.parse_records"):
        with open(args.matches, "r", encoding="utf-8") as fh:
            records = list(matching.parse_match_records(fh))
    with tr.span("matching.filter") as counts:
        result = matching.filter_matched(m, records, matching.FilterPolicy(args.policy))
        counts["matching.clips_kept"] = result.manifest.n_clips
    with tr.span("manifest.write") as counts:
        counts["manifest.bytes_out"] = write_manifest(result.manifest, args.out + ".replay")


def replay_stats(tr, args):
    m = _parse(tr, args.manifest)
    with tr.span("stats.report"):
        stats.dataset_report(m)


def replay_windows(tr, args):
    with tr.span("context.read_steps"):
        with open(args.steps, "r", encoding="utf-8") as fh:
            sequences = context.read_step_sequences(fh)
    k = args.k or 2
    for sequence_id in sorted(sequences):
        seq = sequences[sequence_id]
        with tr.span("context.build_windows"):
            windows = context.build_windows(seq, k)
        with tr.span("context.export") as counts:
            counts["context.windows_out"] = len(list(context.export_windows(seq, windows)))


def replay_score(tr, args):
    with tr.span("scoring.read") as counts:
        with open(args.tiers, "r", encoding="utf-8") as fh:
            judgments = scoring.read_tier_judgments(fh)
        counts["scoring.records_in"] = len(judgments)
    with tr.span("scoring.aggregate"):
        scoring.aggregate_tiers(judgments).to_dict()
    with tr.span("scoring.read") as counts:
        with open(args.ratings, "r", encoding="utf-8") as fh:
            ratings = scoring.read_vlm_ratings(fh)
        counts["scoring.records_in"] = len(ratings)
    with tr.span("scoring.aggregate"):
        scoring.aggregate_ratings(ratings).to_dict()


def _read(tr: Tracer, path: str):
    with open(path, "rb") as fh:
        binary = fh.read(len(embedio.MAGIC)) == embedio.MAGIC
    name = "embedio.read_binary" if binary else "embedio.read_jsonl"
    with tr.span(name, **{"embedio.bytes_in": os.path.getsize(path)}):
        return embedio.read_embeddings(path)


def replay_perturb(tr, args):
    source = _read(tr, args.input)
    rows = {"embedcore.rows": len(source)}
    with tr.span("embedcore.population_std", **rows):
        basis = embedcore.population_std(source)
    spec = embedcore.PerturbationSpec(seed=args.seed or 0)
    with tr.span("embedcore.perturb_set", **rows):
        result = embedcore.perturb_set(source, basis, spec, shuffle_mode=args.shuffle_mode, threads=args.threads or 1)
    with tr.span("embedio.write_binary") as counts:
        counts["embedio.bytes_out"] = embedio.write_embeddings(result, args.out + ".replay")


def replay_regloss(tr, args):
    pred, target = _read(tr, args.pred), _read(tr, args.target)
    params = embedcore.RegressionLossParams()
    with tr.span("embedcore.regression_loss", **{"embedcore.rows": len(pred)}):
        [embedcore.regression_loss(p, t, params) for p, t in zip(pred.vectors, target.vectors)]


def replay_flowloss(tr, args):
    pred, target = _read(tr, args.pred), _read(tr, args.target)
    with tr.span("embedcore.flow_loss", **{"embedcore.rows": len(pred)}):
        embedcore.flow_matching_loss(
            [embedcore.FlowSample(p, t) for p, t in zip(pred.vectors, target.vectors)]
        )


def replay_frechet(tr, args):
    a, b = _read(tr, args.a), _read(tr, args.b)
    with tr.span("embedcore.fit_moments", **{"embedcore.rows": len(a) + len(b)}):
        ma, mb = embedcore.fit_moments(a), embedcore.fit_moments(b)
    with tr.span("embedcore.frechet_distance"):
        embedcore.frechet_distance(ma, mb, jitter=1e-6 if args.jitter is None else args.jitter)


def replay_clipt(tr, args):
    text, image = _read(tr, args.text), _read(tr, args.image)
    with tr.span("embedcore.clip_t_score", **{"embedcore.rows": len(text)}):
        embedcore.clip_t_score(text, image, scale=args.scale)


REPLAYS = {
    "validate": replay_validate,
    "match": replay_match,
    "filter": replay_filter,
    "stats": replay_stats,
    "windows": replay_windows,
    "score": replay_score,
    "perturb": replay_perturb,
    "regloss": replay_regloss,
    "flowloss": replay_flowloss,
    "frechet": replay_frechet,
    "clipt": replay_clipt,
}


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    tr = Tracer(spec["run_id"])
    tr.add("cli.import", _t0, _t1)
    parser = cli.build_parser()
    results = []
    with tr.span("pass"):
        for name, argv in spec["commands"]:
            with tr.span(f"cli.{name}"):
                rc = cli.run(argv)
            error = None
            try:
                args = parser.parse_args(argv)
                with tr.span(f"replay.{name}"):
                    REPLAYS[name](tr, args)
                if getattr(args, "manifest", None):
                    _decode(tr, args.manifest)
            except Exception:  # a failing replay is reported, the pass goes on
                error = traceback.format_exc(limit=3)
            results.append({"name": name, "rc": rc, "replay_error": error})
    doc = {
        "narrkit_file": cli.__file__,
        "span_cost_s": span_cost(),
        "commands": results,
        "spans": tr.dump(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
