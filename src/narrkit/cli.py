"""Batch command-line driver.

Subcommands cover the whole pipeline: manifest validation, temporal
matching, match-based filtering, corpus statistics, annotation-quality
aggregation, embedding metrics, embedding perturbation, and conditioning
window export. Primary outputs go to --out or stdout; logs go to stderr.

Every subcommand is deterministic given its inputs, configuration and
--seed: two runs produce byte-identical primary outputs. --threads is
accepted for compatibility and has no effect. Flag values override the
optional JSON config file, which overrides built-in defaults. Primary output
files are written whole or not at all.

Exit codes: 0 success, 1 validation or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import context as ctx
from . import embedcore, embedio, matching, scoring, stats
from .jsonl import InputError, decode_object, iter_json_objects, want_int, want_number, want_str
from .manifest import ManifestError, parse_manifest, validate_manifest, write_manifest

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


# Config file keys and the JSON type of each; ``threads`` is accepted for
# compatibility and ignored.
_CONFIG_TYPES = {
    "seed": int, "threads": int, "k": int, "shuffle": bool, "histogram_edges": dict,
    "max_start_diff_s": float, "iou_low": float, "iou_high": float,
    "alpha": float, "beta": float, "noise_scale": float, "mask_rate": float,
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = decode_object(fh.read(), None, path)
    unknown = sorted(set(cfg) - set(_CONFIG_TYPES))
    if unknown:
        raise InputError(f"unknown config key(s): {', '.join(unknown)}", source=path)
    for key, value in cfg.items():
        kind = _CONFIG_TYPES[key]
        if kind is float:
            cfg[key] = want_number(cfg, key, None, path)
        elif type(value) is not kind:
            raise InputError(f"field '{key}' must be a JSON {kind.__name__}", source=path)
    edges = cfg.get("histogram_edges", {})
    for name, values in edges.items():
        if name not in stats.DEFAULT_EDGES or not isinstance(values, list):
            raise InputError(f"field 'histogram_edges' has no list for '{name}'", source=path)
        edges[name] = [want_number({name: v}, name, None, path) for v in values]
    return cfg


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = _load_config(getattr(args, "config", None))
    for key in _CONFIG_TYPES:  # a flag overrides the config key of the same name
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)

    def section(cls):  # keys are named after the fields; the fields hold the defaults
        return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg})

    return RunConfig(
        thresholds=section(matching.MatchThresholds),
        loss_params=section(embedcore.RegressionLossParams),
        perturbation=section(embedcore.PerturbationSpec),
        k=cfg.get("k", 2),
        histogram_edges=cfg.get("histogram_edges", {}),
        seed=cfg.get("seed", 0),
    )


def _log(message: str) -> None:
    print(message, file=sys.stderr)


@contextlib.contextmanager
def _outputs(*paths: str | None):
    """Yield one text sink per primary output path; None stands for stdout.

    Each file is written to a temp file beside it, and the temp files replace
    their paths only once the block has returned and all are closed: a failed
    run leaves neither output nor temp file behind. An existing path that is
    not a regular file, such as /dev/null, is written in place.
    """
    files, moves = [], []
    try:
        for path in paths:
            if path is None:
                continue
            if os.path.exists(path) and not os.path.isfile(path):
                files.append(open(path, "w", encoding="utf-8", newline=""))
                continue
            target = os.path.realpath(path)
            tmp = f"{target}.{os.getpid()}.tmp"
            try:
                files.append(open(tmp, "x", encoding="utf-8", newline=""))
            except OSError as exc:  # report the path asked for, not the temp file
                raise type(exc)(exc.errno, exc.strerror, path) from exc
            moves.append((tmp, target))
        opened = iter(files)
        yield [sys.stdout if path is None else next(opened) for path in paths]
        for fh in files:
            fh.close()
        for tmp, target in moves:
            os.replace(tmp, target)
    finally:
        for fh in files:
            fh.close()
        for tmp, _ in moves:
            if os.path.exists(tmp):
                os.remove(tmp)


def cmd_validate(args, rc: RunConfig) -> int:
    try:
        manifest = parse_manifest(args.manifest)
    except ManifestError as exc:
        with _outputs(args.out) as (out,):
            out.write(
                json.dumps({"code": "parse-error", "line": exc.line, "message": str(exc)})
                + "\n"
            )
        raise
    violations = validate_manifest(manifest)
    with _outputs(args.out) as (out,):
        out.writelines(json.dumps(asdict(v)) + "\n" for v in violations)
    _log(
        f"checked {manifest.n_videos} videos, {manifest.n_clips} clips, "
        f"{manifest.n_actions} actions: {len(violations)} violation(s)"
    )
    return 1 if violations else 0


def cmd_match(args, rc: RunConfig) -> int:
    manifest = parse_manifest(args.manifest)
    records = matching.match_dataset(manifest, rc.thresholds)
    with _outputs(args.out) as (out,):
        out.writelines(matching.format_match_record(r) + "\n" for r in records)
    _log(f"matched {len(records)} clip/action pairs")
    return 0


def cmd_filter(args, rc: RunConfig) -> int:
    manifest = parse_manifest(args.manifest)
    with open(args.matches, "r", encoding="utf-8") as fh:
        records = list(matching.parse_match_records(fh))
    policy = matching.FilterPolicy(args.policy)
    result = matching.filter_matched(manifest, records, policy)
    with _outputs(args.out, args.assignment) as (out, assignment):
        write_manifest(result.manifest, out)
        if args.assignment:
            for (video_id, clip_id), indices in result.assignment.items():
                assignment.write(
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


# Per kind of token file: the field that joins video_id in each record's key.
_TOKEN_KEYS = {"caption": ("clip_id", want_str), "action": ("action_index", want_int)}


def _read_token_counts(kind: str, path: str, keys: list[tuple]) -> list[int]:
    """The ``tokens`` count of each key, in order; every key must be present."""
    field, want_key = _TOKEN_KEYS[kind]
    table: dict[tuple, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, rec in iter_json_objects(fh, path):
            key = (want_str(rec, "video_id", lineno, path), want_key(rec, field, lineno, path))
            table[key] = want_int(rec, "tokens", lineno, path)
    for key in keys:
        if key not in table:
            raise InputError(f"missing {kind} token count for {key}", source=path)
    return [table[key] for key in keys]


def cmd_stats(args, rc: RunConfig) -> int:
    manifest = parse_manifest(args.manifest)
    caption_tokens = action_tokens = None
    if args.caption_tokens:
        clips = [(clip.video_id, clip.clip_id) for clip in manifest.iter_clips()]
        caption_tokens = _read_token_counts("caption", args.caption_tokens, clips)
    if args.action_tokens:
        actions = [(v, i) for v, records in manifest.actions.items() for i in range(len(records))]
        action_tokens = _read_token_counts("action", args.action_tokens, actions)
    report = stats.dataset_report(
        manifest,
        edges=rc.histogram_edges or None,
        caption_tokens=caption_tokens,
        action_tokens=action_tokens,
    )
    with _outputs(args.out) as (out,):
        out.write(json.dumps(report, indent=2) + "\n")
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
    with _outputs(args.out) as (out,):
        out.write(json.dumps(doc, indent=2) + "\n")
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
        output = repr(value) + "\n"
    elif kind == "clipt":
        text = embedio.read_embeddings(args.text)
        image = embedio.read_embeddings(args.image)
        output = repr(embedcore.clip_t_score(text, image, scale=args.scale)) + "\n"
    else:
        pred = embedio.read_embeddings(args.pred)
        target = embedio.read_embeddings(args.target)
        if kind == "regloss":
            loss = embedcore.regression_loss(pred, target, rc.loss_params)
            output = json.dumps({**loss.to_dict(), "pairs": len(pred)}) + "\n"
        else:  # flowloss
            output = repr(embedcore.flow_loss(pred, target)) + "\n"
    with _outputs(args.out) as (out,):
        out.write(output)
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
    )
    with _outputs(args.out) as (out,):
        # binary output goes to the byte stream under the text sink
        written = embedio.write_embeddings(result, out.buffer, fmt=args.format)
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
    with _outputs(args.out) as (out,):
        out.writelines(line + "\n" for line in lines)
    _log(f"exported {len(lines)} windows from {len(sequences)} sequences (k={rc.k})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="seed for all randomness (default 0)")
    common.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
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
        "--max-start-diff", type=float, dest="max_start_diff_s",
        help="start-time gap ceiling in seconds (default 5)",
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
    p.set_defaults(handler=cmd_metrics)
    msub = p.add_subparsers(dest="metric", required=True)
    mp = msub.add_parser("frechet", parents=[common])
    mp.add_argument("--a", required=True)
    mp.add_argument("--b", required=True)
    mp.add_argument("--jitter", type=float, help="covariance diagonal jitter (default 1e-6)")
    mp = msub.add_parser("clipt", parents=[common])
    mp.add_argument("--text", required=True)
    mp.add_argument("--image", required=True)
    mp.add_argument("--scale", choices=["raw", "percent"], default="raw")
    mp = msub.add_parser("regloss", parents=[common])
    mp.add_argument("--pred", required=True)
    mp.add_argument("--target", required=True)
    mp.add_argument("--alpha", type=float, help="cosine term weight (default 1)")
    mp.add_argument("--beta", type=float, help="MSE term weight (default 1)")
    mp = msub.add_parser("flowloss", parents=[common])
    mp.add_argument("--pred", required=True)
    mp.add_argument("--target", required=True)

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
    except InputError as exc:
        _log(f"error: {exc.source}: {exc}")
        return 1
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(run())
