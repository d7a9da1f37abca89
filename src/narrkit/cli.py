"""Batch command-line driver.

Subcommands cover the whole pipeline: manifest validation, temporal
matching, match-based filtering, corpus statistics, annotation-quality
aggregation, embedding metrics, embedding perturbation, and conditioning
window export. Primary outputs go to --out or stdout; logs go to stderr.

Every subcommand is deterministic given its inputs, configuration and
--seed: two runs produce byte-identical primary outputs. --threads N (at
least 1, default 1) lets perturb split its rows across up to N processes, at
most one per available CPU, with the same output bytes; the other commands
ignore it. Flag values override the optional JSON config file, which
overrides built-in defaults. Primary output files are written whole or not
at all.

Exit codes: 0 success, 1 validation or data error, 2 usage error, 128 plus
the signal's number for a run stopped by SIGINT (130) or SIGTERM (143).

Only ``jsonl`` and ``params`` load with this module: each handler imports the
modules its command needs when it runs, so a command pays for no other's.
"""

from __future__ import annotations

import _signal  # not signal, whose enums would raise every command's peak memory
import argparse
import contextlib
import gc
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, get_type_hints

from .jsonl import TEXT, InputError, decode_object, want_number
from .params import (DEFAULT_EDGES, MatchThresholds, PerturbationSpec, RegressionLossParams,
                     check_context_length, check_edges, check_threads)

if TYPE_CHECKING:  # it loads numpy, so the embedding handlers import it as they run
    from . import embedcore

__all__ = ["RunConfig", "build_parser", "run", "main"]


@dataclass
class RunConfig:
    """Resolved per-run parameters shared by the subcommand handlers."""

    thresholds: MatchThresholds
    loss_params: RegressionLossParams
    perturbation: PerturbationSpec
    k: int
    histogram_edges: dict[str, list[float]] | None
    threads: int
    # Each setting given by a flag or the config file, mapped to that flag or the file's path.
    sources: dict[str, str]


# The settings sections of RunConfig, in its field order. Each field is set by
# the config key of the same name and by the flag whose dest is that name.
_SECTIONS = (MatchThresholds, RegressionLossParams, PerturbationSpec)

# Config file keys and the JSON type of each.
_CONFIG_TYPES = {
    "threads": int, "k": int, "histogram_edges": dict,
    **{key: kind for cls in _SECTIONS for key, kind in get_type_hints(cls).items()},
}

# The flags whose option name is not their dest spelled with dashes.
_FLAG_NAMES = {"max_start_diff_s": "--max-start-diff", "input": "--in"}


class _FlagError(InputError):
    """A flag value out of range; ``source`` is the flag. A usage error: exit 2."""


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, **TEXT) as fh, _blame(path):
        cfg = decode_object(fh.read())
        unknown = sorted(set(cfg) - set(_CONFIG_TYPES))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        for key, value in cfg.items():
            kind = _CONFIG_TYPES[key]
            if kind is float:
                cfg[key] = want_number(cfg, key)
            elif type(value) is not kind:
                raise ValueError(f"field '{key}' must be a JSON {kind.__name__}")
        edges = cfg.get("histogram_edges", {})
        for name, values in edges.items():
            if name not in DEFAULT_EDGES or not isinstance(values, list):
                raise ValueError(f"field 'histogram_edges' has no list for '{name}'")
            edges[name] = [want_number({name: v}, name) for v in values]
            try:  # before any input is read, whether or not the command draws histograms
                check_edges(edges[name])
            except ValueError as exc:
                raise ValueError(f"field 'histogram_edges' for '{name}': {exc}") from exc
    return cfg


def _flag(key: str) -> str:
    """The option that sets the config key ``key``."""
    return _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    for key, value in vars(args).items():  # every string flag but a choice takes a path
        if value == "":
            raise _FlagError("empty path", source=_flag(key))
    path = getattr(args, "config", None)
    cfg = _load_config(path)
    sources = dict.fromkeys(cfg, path)
    for key in _CONFIG_TYPES:  # a flag overrides the config key of the same name
        if getattr(args, key, None) is not None:
            cfg[key], sources[key] = getattr(args, key), _flag(key)

    def build(make, names: list[str]):
        # make(**values) over the keys in names that are set. If that fails, drop the
        # flags one at a time, in field order, until the rest pass, and blame the last
        # one dropped; if the config's own values still fail without them, the file.
        values = {name: cfg[name] for name in names if name in cfg}
        try:
            return make(**values)
        except ValueError as exc:
            error = exc
        for name in [name for name in values if sources[name] != path]:
            del values[name]
            try:
                make(**values)  # none left: the defaults pass
            except ValueError as exc:
                error = exc
            else:
                raise _FlagError(str(error), source=sources[name]) from error
        raise InputError(str(error), source=path) from error

    sections = [build(cls, [f.name for f in fields(cls)]) for cls in _SECTIONS]  # with defaults
    return RunConfig(*sections, build(check_context_length, ["k"]), cfg.get("histogram_edges"),
                     build(check_threads, ["threads"]), sources)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


@contextlib.contextmanager
def _blame(*paths: str):
    """Report a ValueError raised in the block as bad input in the last of ``paths``, or
    in the one that its ``side`` indexes (the set that holds a zero-norm row)."""
    try:
        yield
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(str(exc), source=paths[getattr(exc, "side", -1)]) from exc


def _named(exc: OSError, name: str) -> OSError:
    """``exc`` naming ``name``: the path asked for rather than its temp file, or a stream."""
    return OSError(exc.errno, exc.strerror, name)


class _Sink(io.FileIO):
    """A primary output file whose ``name`` is ``label``, the path asked for, not its
    temp file: a failed open or write names it, as does a failed embedio._pwrite of
    perturb's rows into it, in whichever process made them (see embedio._write_rows)."""

    def __init__(self, path: str, mode: str, label: str):
        try:
            super().__init__(path, mode)
        except OSError as exc:
            raise _named(exc, label) from exc
        self.name = label

    def write(self, data):
        try:
            return super().write(data)
        except OSError as exc:
            raise _named(exc, self.name) from exc


@contextlib.contextmanager
def _outputs(*paths: str | None):
    """Yield one text sink per primary output path; None stands for stdout.

    Each file is written to a temp file beside it, and the temp files replace
    their paths only once the block has returned and all are closed: a failed
    run leaves neither output nor temp file behind. An existing path that is
    not a regular file, such as /dev/null, is written in place. A failed write
    names its output, stdout as ``<stdout>``.
    """
    files, moves = [], []
    try:
        for path in paths:
            if path is None:
                continue
            if os.path.exists(path) and not os.path.isfile(path):
                raw = _Sink(path, "w", path)
            else:
                target = os.path.realpath(path)
                tmp = f"{target}.{os.getpid()}.tmp"
                raw = _Sink(tmp, "x", path)
                moves.append((tmp, target, path))
            files.append(io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline=""))
        opened = iter(files)
        yield [sys.stdout if path is None else next(opened) for path in paths]
        if None in paths:  # while a failure can still name stdout
            sys.stdout.flush()
        for fh in files:
            fh.close()
        for tmp, target, path in moves:
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise _named(exc, path) from exc
    except OSError as exc:
        if exc.filename is not None or None not in paths:
            raise
        # Only stdout's writes name nothing. The bytes it still holds would fail again as the
        # interpreter exits, so stdout now leads to the null device, as Python's docs advise.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise _named(exc, "<stdout>") from exc
    finally:
        for fh in files:
            fh.close()
        for tmp, *_ in moves:
            if os.path.exists(tmp):
                os.remove(tmp)


def cmd_validate(args, rc: RunConfig) -> int:
    from .manifest import parse_manifest, validate_manifest

    try:
        manifest = parse_manifest(args.manifest)
    except InputError as exc:
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
    from . import matching
    from .manifest import parse_manifest

    manifest = parse_manifest(args.manifest)
    n_matches = 0
    with _outputs(args.out) as (out,):
        for n_matches, rec in enumerate(matching._iter_matches(manifest, rc.thresholds), 1):
            out.write(matching.format_match_record(rec) + "\n")
    _log(f"matched {n_matches} clip/action pairs")
    return 0


def cmd_filter(args, rc: RunConfig) -> int:
    from . import matching
    from .manifest import DatasetManifest, parse_manifest, write_manifest

    if args.out and args.assignment and os.path.realpath(args.out) == os.path.realpath(args.assignment):
        if os.path.isfile(args.out) or not os.path.exists(args.out):  # /dev/null may take both
            raise _FlagError("names the same file as --out", source="--assignment")
    manifest = parse_manifest(args.manifest)
    policy = matching.FilterPolicy(args.policy)
    with open(args.matches, **TEXT) as fh, _blame(args.matches):
        folded = matching._fold_matches(manifest, matching.parse_match_records(fh), policy)
    filtered = DatasetManifest(actions=manifest.actions)
    with _outputs(args.out, args.assignment) as (out, assignment):
        for video_id, entry, indices in matching._kept_clips(manifest, folded, policy):
            filtered.videos[video_id] = entry
            if args.assignment:
                assignment.writelines(
                    json.dumps({"video_id": video_id, "clip_id": clip.clip_id, "action_indices": ix}) + "\n"
                    for clip, ix in zip(entry.clips, indices)
                )
        write_manifest(filtered, out)
    kept = filtered.n_clips
    _log(f"kept {kept} of {manifest.n_clips} clips ({policy.value} policy)")
    return 0


def cmd_stats(args, rc: RunConfig) -> int:
    from . import stats
    from .manifest import parse_manifest

    manifest = parse_manifest(args.manifest)
    caption_tokens = action_tokens = None
    if args.caption_tokens:
        caption_tokens = stats.read_token_counts("caption", args.caption_tokens, manifest)
    if args.action_tokens:
        action_tokens = stats.read_token_counts("action", args.action_tokens, manifest)
    report = stats.dataset_report(manifest, rc.histogram_edges, caption_tokens, action_tokens)
    with _outputs(args.out) as (out,):
        out.write(json.dumps(report, indent=2) + "\n")
    _log(f"profiled {manifest.n_videos} videos")
    return 0


def cmd_score(args, rc: RunConfig) -> int:
    from . import scoring

    if not args.tiers and not args.ratings:
        raise _FlagError("required unless --ratings is given", source="--tiers")
    doc = {}
    if args.tiers:
        with open(args.tiers, **TEXT) as fh, _blame(args.tiers):
            judgments = scoring.read_tier_judgments(fh)
            doc["tiers"] = scoring.aggregate_tiers(judgments).to_dict()
    if args.ratings:
        with open(args.ratings, **TEXT) as fh, _blame(args.ratings):
            ratings = scoring.read_vlm_ratings(fh)
            doc["ratings"] = scoring.aggregate_ratings(ratings).to_dict()
    with _outputs(args.out) as (out,):
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _fit_moments(path: str, dim: int | None = None) -> embedcore.GaussianMoments:
    """Fit the set at ``path``, which must have ``dim`` columns when given."""
    from . import embedcore, embedio

    # Read block by block in two passes, and closed on return.
    with embedio.open_embeddings(path) as embeddings, _blame(path):
        if dim is not None and embeddings.dim != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {embeddings.dim}")
        return embedcore.fit_moments(embeddings)


def cmd_metrics(args, rc: RunConfig) -> int:
    from . import embedcore, embedio

    kind = args.metric
    if kind == "frechet":
        jitter = args.jitter if args.jitter is not None else 1e-6
        try:  # before any input is read
            embedcore.check_jitter(jitter)
        except ValueError as exc:
            raise _FlagError(str(exc), source="--jitter") from exc
        moments = [_fit_moments(args.a)]
        # a mismatch is the second file's fault, as below
        moments.append(_fit_moments(args.b, moments[0].dim))
        # Moments fitted to float32 sets are finite: only a large jitter takes a stage past the
        # float range. The list is consumed, so each matrix is freed after its last use.
        with _blame("--jitter"):
            output = repr(embedcore._frechet(moments, jitter)) + "\n"
    else:
        first, second = (args.text, args.image) if kind == "clipt" else (args.pred, args.target)
        # A pair that does not line up is the second file's fault; a zero-norm row, its own file's.
        with embedio.open_embeddings(first) as x, embedio.open_embeddings(second) as y, _blame(first, second):
            if kind == "clipt":
                output = repr(embedcore.clip_t_score(x, y, scale=args.scale)) + "\n"
            elif kind == "flowloss":
                output = repr(embedcore.flow_loss(x, y)) + "\n"
            else:
                loss = embedcore.regression_loss(x, y, rc.loss_params)
                if not math.isfinite(loss.total):  # blame the weight of the larger term
                    alpha = loss.cosine_term >= loss.mse_term
                    weight, term = ("alpha", "cosine") if alpha else ("beta", "MSE")
                    # Only a weight set by a flag or the config can scale a term that far.
                    raise InputError(f"{weight} {getattr(rc.loss_params, weight)!r} scales the "
                                     f"{term} term past the float range", source=rc.sources[weight])
                output = json.dumps({**loss.to_dict(), "pairs": len(x)}) + "\n"
    with _outputs(args.out) as (out,):
        out.write(output)
    return 0


def _population_std(args, source):
    from . import embedcore, embedio

    # A --population set is closed on return, before the input is perturbed.
    path = args.population or args.input
    opened = embedio.open_embeddings(path) if args.population else contextlib.nullcontext(source)
    with opened as population:
        if len(population) < 2:
            advice = "" if args.population else "; supply --population"
            raise InputError(f"std basis needs a population of at least 2 vectors{advice}", source=path)
        if population.dim != source.dim:
            raise InputError(f"dimension {population.dim} does not match --in dimension {source.dim}",
                             source=path)
        return embedcore.population_std(population)


def cmd_perturb(args, rc: RunConfig) -> int:
    from . import embedcore, embedio

    if not args.out:
        raise _FlagError("required (binary output does not go to stdout)", source="--out")
    with embedio.open_embeddings(args.input) as source:
        if args.format == "binary" and source.ids is not None:
            try:  # before any row is perturbed
                embedio._check_binary_ids(source.ids)
            except ValueError as exc:
                raise InputError(f"{exc}; use --format jsonl", source=args.input) from exc
        basis = _population_std(args, source)

        def fill(write) -> list[str] | None:
            return embedcore._perturb_into(write, source, basis, rc.perturbation, args.shuffle_mode,
                                           rc.threads)

        # Every input but the rows of --in is checked by now: a bad row names --in. What
        # else can fail is noise past float32, set by a flag or the config, or else at its
        # default and so too large for the basis file.
        noise_source = rc.sources.get("noise_scale", args.population or args.input)
        with _outputs(args.out) as (out,), _blame(noise_source):
            # each process writes its rows straight into the file under the text sink
            written = embedio._write_rows(out.buffer, args.format, (len(source), source.dim), fill)
    _log(
        f"perturbed {len(source)} embeddings "
        f"(noise {rc.perturbation.noise_scale}, mask {rc.perturbation.mask_rate}, "
        f"shuffle {rc.perturbation.shuffle}/{args.shuffle_mode}): {written} bytes"
    )
    return 0


def cmd_windows(args, rc: RunConfig) -> int:
    from . import context as ctx

    n_windows = 0
    with open(args.steps, **TEXT) as fh, _blame(args.steps):
        sequences = ctx.read_step_sequences(fh)
        with _outputs(args.out) as (out,):  # written as built; a failure leaves no file
            for sequence_id in sorted(sequences):
                seq = sequences[sequence_id]
                windows = ctx.build_windows(seq, rc.k)
                out.writelines(line + "\n" for line in ctx.export_windows(seq, windows))
                n_windows += len(windows)
    _log(f"exported {n_windows} windows from {len(sequences)} sequences (k={rc.k})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="seed for all randomness (default 0)")
    common.add_argument(
        "--threads", type=int,
        help="processes perturb may split its rows across, at most one per CPU (default 1; "
        "same output bytes); other commands ignore it",
    )
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
        return 2 if isinstance(exc, _FlagError) else 1
    except OSError as exc:
        _log(f"error: {exc}" if exc.filename is None else f"error: {exc.filename}: {exc.strerror}")
        return 1
    except ValueError as exc:
        _log(f"error: {exc}")
        return 1
    except KeyboardInterrupt as exc:
        return _interrupted(exc)


def _stop(signum, frame):
    """SIGTERM unwinds as Ctrl-C does, so that _outputs removes its temp files."""
    raise KeyboardInterrupt(signum)


def _interrupted(exc: KeyboardInterrupt) -> int:
    """Report a run stopped by SIGINT or by SIGTERM (see _stop); return 128 + its number."""
    signum = exc.args[0] if exc.args else _signal.SIGINT
    _log(f"error: interrupted ({'SIGTERM' if signum == _signal.SIGTERM else 'SIGINT'})")
    return 128 + signum


def main() -> None:
    # One run builds its records once and they hold no reference cycles, so
    # the cyclic collector would only rescan them; reference counting frees
    # everything a command drops.
    gc.disable()
    _signal.signal(_signal.SIGTERM, _stop)
    sys.exit(run())


if __name__ == "__main__":
    main()
