"""Batch command-line driver.

Subcommands cover the whole pipeline: manifest validation, temporal
matching, match-based filtering, corpus statistics, annotation-quality
aggregation, embedding metrics, embedding perturbation, and conditioning
window export. Primary outputs go to --out or stdout; logs go to stderr.

Every subcommand is deterministic given its inputs, configuration and
--seed: two runs produce byte-identical primary outputs, and --threads can
only change wall time. Flag values override the optional JSON config file,
which overrides built-in defaults.

Exit codes: 0 success, 1 validation or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import context as ctx
from . import embedcore, embedio, matching, scoring, stats
from .manifest import DatasetManifest, ManifestError, parse_manifest, validate_manifest, write_manifest

__all__ = ["RunConfig", "build_parser", "run", "main"]


@dataclass
class RunConfig:
    """Resolved per-run parameters shared by the subcommand handlers."""

    thresholds: matching.MatchThresholds
    loss_params: embedcore.RegressionLossParams
    perturbation: embedcore.PerturbationSpec
    k: int
    histogram_edges: dict[str, list[float]]
    seed: int = 0
    threads: int = 1


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _pick(flag_value, cfg: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    return cfg.get(key, default)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = _load_config(getattr(args, "config", None))
    get = lambda name, key, default: _pick(getattr(args, name, None), cfg, key, default)
    seed = int(get("seed", "seed", 0))
    return RunConfig(
        thresholds=matching.MatchThresholds(
            max_start_diff_s=float(get("max_start_diff", "max_start_diff_s", 5.0)),
            iou_low=float(get("iou_low", "iou_low", 0.2)),
            iou_high=float(get("iou_high", "iou_high", 0.5)),
        ),
        loss_params=embedcore.RegressionLossParams(
            alpha=float(get("alpha", "alpha", 1.0)),
            beta=float(get("beta", "beta", 1.0)),
        ),
        perturbation=embedcore.PerturbationSpec(
            noise_scale=float(get("noise_scale", "noise_scale", 0.5)),
            mask_rate=float(get("mask_rate", "mask_rate", 0.25)),
            shuffle=bool(get("shuffle", "shuffle", True)),
            seed=seed,
        ),
        k=int(get("k", "k", 2)),
        histogram_edges=cfg.get("histogram_edges", {}),
        seed=seed,
        threads=int(get("threads", "threads", 1)),
    )


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_manifest(path: str) -> DatasetManifest:
    return parse_manifest(path)


def cmd_validate(args, rc: RunConfig) -> int:
    try:
        manifest = _load_manifest(args.manifest)
    except ManifestError as exc:
        _emit(
            json.dumps({"code": "parse-error", "line": exc.line, "message": str(exc)})
            + "\n",
            args.out,
        )
        _log(f"error: {args.manifest}: {exc}")
        return 1
    violations = validate_manifest(manifest)
    lines = [
        json.dumps(
            {
                "code": v.code,
                "video_id": v.video_id,
                "clip_id": v.clip_id,
                "message": v.message,
            }
        )
        for v in violations
    ]
    _emit("".join(line + "\n" for line in lines), args.out)
    _log(
        f"checked {manifest.n_videos} videos, {manifest.n_clips} clips, "
        f"{manifest.n_actions} actions: {len(violations)} violation(s)"
    )
    return 1 if violations else 0


def cmd_match(args, rc: RunConfig) -> int:
    manifest = _load_manifest(args.manifest)
    records = matching.match_dataset(manifest, rc.thresholds, threads=rc.threads)
    _emit(
        "".join(matching.format_match_record(r) + "\n" for r in records), args.out
    )
    _log(f"matched {len(records)} clip/action pairs")
    return 0


def cmd_filter(args, rc: RunConfig) -> int:
    manifest = _load_manifest(args.manifest)
    with open(args.matches, "r", encoding="utf-8") as fh:
        records = list(matching.parse_match_records(fh))
    policy = matching.FilterPolicy(args.policy)
    result = matching.filter_matched(manifest, records, policy)
    if args.out:
        write_manifest(result.manifest, args.out)
    else:
        from .manifest import dumps_manifest

        sys.stdout.write(dumps_manifest(result.manifest))
    if args.assignment:
        with open(args.assignment, "w", encoding="utf-8", newline="") as fh:
            for (video_id, clip_id), indices in result.assignment.items():
                fh.write(
                    json.dumps(
                        {
                            "video_id": video_id,
                            "clip_id": clip_id,
                            "action_indices": indices,
                        }
                    )
                    + "\n"
                )
    kept = result.manifest.n_clips
    _log(f"kept {kept} of {manifest.n_clips} clips ({policy.value} policy)")
    return 0


def _read_keyed_tokens(path: str, key_fields: tuple[str, ...]) -> dict[tuple, int]:
    table: dict[tuple, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            rec = json.loads(line)
            try:
                key = tuple(rec[f] for f in key_fields)
                table[key] = int(rec["tokens"])
            except KeyError as exc:
                raise ValueError(f"{path} line {lineno}: missing field {exc}") from exc
    return table


def cmd_stats(args, rc: RunConfig) -> int:
    manifest = _load_manifest(args.manifest)
    caption_tokens = action_tokens = None
    if args.caption_tokens:
        table = _read_keyed_tokens(args.caption_tokens, ("video_id", "clip_id"))
        caption_tokens = []
        for clip in manifest.iter_clips():
            key = (clip.video_id, clip.clip_id)
            if key not in table:
                raise ValueError(f"missing caption token count for clip {key}")
            caption_tokens.append(table[key])
    if args.action_tokens:
        table = _read_keyed_tokens(args.action_tokens, ("video_id", "action_index"))
        action_tokens = []
        for video_id, records in manifest.actions.items():
            for idx in range(len(records)):
                key = (video_id, idx)
                if key not in table:
                    raise ValueError(f"missing action token count for {key}")
                action_tokens.append(table[key])
    report = stats.dataset_report(
        manifest,
        edges=rc.histogram_edges or None,
        caption_tokens=caption_tokens,
        action_tokens=action_tokens,
    )
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    _log(f"profiled {manifest.n_videos} videos")
    return 0


def cmd_score(args, rc: RunConfig) -> int:
    if not args.tiers and not args.ratings:
        _log("score: need --tiers and/or --ratings")
        return 2
    doc = {}
    if args.tiers:
        with open(args.tiers, "r", encoding="utf-8") as fh:
            judgments = scoring.read_tier_judgments(fh)
        doc["tiers"] = scoring.aggregate_tiers(judgments).to_dict()
    if args.ratings:
        with open(args.ratings, "r", encoding="utf-8") as fh:
            ratings = scoring.read_vlm_ratings(fh)
        doc["ratings"] = scoring.aggregate_ratings(ratings).to_dict()
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_metrics(args, rc: RunConfig) -> int:
    kind = args.metric
    if kind == "frechet":
        a = embedio.read_embeddings(args.a)
        b = embedio.read_embeddings(args.b)
        jitter = args.jitter if args.jitter is not None else 1e-6
        value = embedcore.frechet_distance(
            embedcore.fit_moments(a), embedcore.fit_moments(b), jitter=jitter
        )
        _emit(repr(value) + "\n", args.out)
    elif kind == "clipt":
        text = embedio.read_embeddings(args.text)
        image = embedio.read_embeddings(args.image)
        value = embedcore.clip_t_score(text, image, scale=args.scale)
        _emit(repr(value) + "\n", args.out)
    elif kind == "regloss":
        pred = embedio.read_embeddings(args.pred)
        target = embedio.read_embeddings(args.target)
        if len(pred) != len(target):
            raise ValueError(f"pair count mismatch: {len(pred)} vs {len(target)}")
        losses = [
            embedcore.regression_loss(p, t, rc.loss_params)
            for p, t in zip(pred.vectors, target.vectors)
        ]
        n = len(losses)
        _emit(
            json.dumps(
                {
                    "total": sum(l.total for l in losses) / n,
                    "cosine_term": sum(l.cosine_term for l in losses) / n,
                    "mse_term": sum(l.mse_term for l in losses) / n,
                    "pairs": n,
                }
            )
            + "\n",
            args.out,
        )
    else:  # flowloss
        pred = embedio.read_embeddings(args.pred)
        target = embedio.read_embeddings(args.target)
        if len(pred) != len(target):
            raise ValueError(f"pair count mismatch: {len(pred)} vs {len(target)}")
        samples = [
            embedcore.FlowSample(p, t) for p, t in zip(pred.vectors, target.vectors)
        ]
        _emit(repr(embedcore.flow_matching_loss(samples)) + "\n", args.out)
    return 0


def cmd_perturb(args, rc: RunConfig) -> int:
    if not args.out:
        _log("perturb: --out is required (binary output does not go to stdout)")
        return 2
    source = embedio.read_embeddings(args.input)
    if args.population:
        basis_set = embedio.read_embeddings(args.population)
    else:
        basis_set = source
    if len(basis_set) < 2:
        raise ValueError(
            "std basis needs a population of at least 2 vectors; supply --population"
        )
    basis = embedcore.population_std(basis_set)
    result = embedcore.perturb_set(
        source,
        basis,
        rc.perturbation,
        shuffle_mode=args.shuffle_mode,
        threads=rc.threads,
    )
    written = embedio.write_embeddings(result, args.out, fmt=args.format)
    _log(
        f"perturbed {len(result)} embeddings "
        f"(noise {rc.perturbation.noise_scale}, mask {rc.perturbation.mask_rate}, "
        f"shuffle {rc.perturbation.shuffle}/{args.shuffle_mode}): {written} bytes"
    )
    return 0


def cmd_windows(args, rc: RunConfig) -> int:
    with open(args.steps, "r", encoding="utf-8") as fh:
        sequences = ctx.read_step_sequences(fh)
    lines: list[str] = []
    for sequence_id in sorted(sequences):
        seq = sequences[sequence_id]
        windows = ctx.build_windows(seq, rc.k)
        lines.extend(ctx.export_windows(seq, windows))
    _emit("".join(line + "\n" for line in lines), args.out)
    _log(f"exported {len(lines)} windows from {len(sequences)} sequences (k={rc.k})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="seed for all randomness (default 0)")
    common.add_argument("--threads", type=int, help="worker threads for perturb; ignored elsewhere (never changes output)")
    common.add_argument("--out", help="output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="narrkit",
        description="Curation and evaluation toolkit for narrative video corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser(
        "match", parents=[common], help="pair actions with clips by time interval"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--iou-low",
        type=float,
        help="IoU floor for the start-aligned rule (default 0.2; some accounts "
        "of this matching procedure quote 0.25)",
    )
    p.add_argument("--iou-high", type=float, help="IoU floor for the high-overlap rule (default 0.5)")
    p.add_argument(
        "--max-start-diff", type=float, help="start-time gap ceiling in seconds (default 5)"
    )
    p.set_defaults(handler=cmd_match)

    p = sub.add_parser("filter", parents=[common], help="apply a match policy to a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--matches", required=True)
    p.add_argument("--policy", choices=["best", "all"], default="best")
    p.add_argument("--assignment", help="also write the clip-to-action assignment here")
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("stats", parents=[common], help="profile a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--caption-tokens",
        help="JSONL {video_id, clip_id, tokens} with precomputed token counts",
    )
    p.add_argument(
        "--action-tokens",
        help="JSONL {video_id, action_index, tokens} with precomputed token counts",
    )
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("score", parents=[common], help="aggregate quality judgments")
    p.add_argument("--tiers", help="JSONL {item_id, rater_id, tier}")
    p.add_argument("--ratings", help="JSONL {item_id, rating} on the 0..6 scale")
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("metrics", help="embedding metrics")
    msub = p.add_subparsers(dest="metric", required=True)
    mp = msub.add_parser("frechet", parents=[common])
    mp.add_argument("--a", required=True)
    mp.add_argument("--b", required=True)
    mp.add_argument("--jitter", type=float, help="covariance diagonal jitter (default 1e-6)")
    mp.set_defaults(handler=cmd_metrics)
    mp = msub.add_parser("clipt", parents=[common])
    mp.add_argument("--text", required=True)
    mp.add_argument("--image", required=True)
    mp.add_argument("--scale", choices=["raw", "percent"], default="raw")
    mp.set_defaults(handler=cmd_metrics)
    mp = msub.add_parser("regloss", parents=[common])
    mp.add_argument("--pred", required=True)
    mp.add_argument("--target", required=True)
    mp.add_argument("--alpha", type=float, help="cosine term weight (default 1)")
    mp.add_argument("--beta", type=float, help="MSE term weight (default 1)")
    mp.set_defaults(handler=cmd_metrics)
    mp = msub.add_parser("flowloss", parents=[common])
    mp.add_argument("--pred", required=True)
    mp.add_argument("--target", required=True)
    mp.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("perturb", parents=[common], help="corrupt an embedding file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument(
        "--population",
        help="embedding file supplying the std basis (default: the input itself)",
    )
    p.add_argument("--noise-scale", type=float, help="noise std as a multiple of the basis (default 0.5)")
    p.add_argument("--mask-rate", type=float, help="per-coordinate zeroing probability (default 0.25)")
    p.add_argument(
        "--shuffle",
        action=argparse.BooleanOptionalAction,
        help="apply the shuffle stage (default on)",
    )
    p.add_argument(
        "--shuffle-mode",
        choices=["coords", "sequence"],
        default="coords",
        help="shuffle coordinates within vectors, or the vector order itself",
    )
    p.add_argument("--format", choices=["binary", "jsonl"], default="binary")
    p.set_defaults(handler=cmd_perturb)

    p = sub.add_parser("windows", parents=[common], help="export conditioning windows")
    p.add_argument("--steps", required=True, help="JSONL step records")
    p.add_argument("--k", type=int, help="context length, 1..3 (default 2)")
    p.set_defaults(handler=cmd_windows)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        rc = _resolve_config(args)
        return args.handler(args, rc)
    except (ManifestError, ValueError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(run())
