"""narrkit benchmark: seeded CLI workloads, timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload corpus-wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` runs every command of the workload as a fresh ``narrkit``
subprocess (closed loop, one command at a time) and reports the end-to-end
metrics listed in BENCHMARK.json. ``--trace 1`` runs the same commands in a
traced in-process pass (see ``tracer.py``) and reports the per-layer
metrics. Either way every output is checked (see ``checks.py``); an
operation fails when it exits non-zero or its check fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full report
(environment, input digests, every timing with quartiles and sample count,
and in traced runs the spans) goes to ``bench/results/``. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

CLI = "import sys; from narrkit.cli import main; sys.argv[0] = 'narrkit'; main()"
SETUP = "import narrkit.cli"
WHERE = "import narrkit.cli; print(narrkit.cli.__file__)"
# Untraced passes per run, at least; more while --seconds allows.
MIN_PASSES = 2


@dataclass
class Op:
    """One CLI command of a workload and the check on its output."""

    name: str
    argv: list[str]
    out: str
    check: Callable[[str], str | None]
    threads: int = 1  # above 1, a --threads 1 twin must give the same bytes
    assignment: str | None = None

    def command(self, threads: int, suffix: str = "") -> list[str]:
        argv = [*self.argv, "--threads", str(threads), "--out", self.out + suffix]
        if self.assignment:
            argv += ["--assignment", self.assignment + suffix]
        return argv

    def outputs(self, suffix: str = "") -> list[str]:
        return [p + suffix for p in (self.out, self.assignment) if p]


@dataclass
class Workload:
    name: str
    inputs: gen.Inputs
    ops: list[Op]
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    peak_kb: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{what}: {reason}")


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


def build(name: str, seed: int, workdir: Path, scale: float) -> Workload:
    """Generate a workload's inputs and the commands that run over them."""
    inp = gen.generate(name, seed, str(workdir), scale)
    f = inp.files
    out = lambda n: str(workdir / f"out-{n}")  # noqa: E731

    if name == "embed-eval":
        expected = checks.expected_metrics(inp)
        ops = [Op("perturb", ["perturb", "--in", f["pred"], "--seed", str(seed)], out("perturb.emb"),
                  lambda p: checks.check_perturb(p, inp), threads=2)]
        for kind, argv in (
            ("regloss", ["--pred", f["pred"], "--target", f["target"]]),
            ("flowloss", ["--pred", f["pred"], "--target", f["target"]]),
            ("frechet", ["--a", f["pred"], "--b", f["target"]]),
            ("clipt", ["--text", f["text"], "--image", f["image"]]),
        ):
            ops.append(Op(kind, ["metrics", kind, *argv], out(kind),
                          lambda p, kind=kind: checks.check_metric(p, kind, expected)))
        return Workload(name, inp, ops)

    # filter reads the oracle's match lines, so its input is a generated file
    # and its timing does not depend on the match command's output.
    expected = checks.expected_matches(inp.videos)
    f["matches"] = str(workdir / "matches.jsonl")
    _write_lines(Path(f["matches"]), expected)
    inp.records["matches"] = len(expected)
    manifest = ["--manifest", f["manifest"]]
    match = Op("match", ["match", *manifest], out("match.jsonl"),
               lambda p: checks.check_match(p, expected))
    if name == "corpus-long":
        match.threads = 2
        return Workload(name, inp, [
            match,
            Op("filter", ["filter", *manifest, "--matches", f["matches"]], out("filter.jsonl"),
               lambda p: checks.check_filter(p, None, inp, expected), threads=2),
        ])
    assignment = out("assignment.jsonl")
    return Workload(name, inp, [
        Op("validate", ["validate", *manifest], out("validate.jsonl"),
           checks.check_validate),
        match,
        Op("filter", ["filter", *manifest, "--matches", f["matches"]], out("filter.jsonl"),
           lambda p: checks.check_filter(p, assignment, inp, expected), assignment=assignment),
        Op("stats", ["stats", *manifest], out("stats.json"), lambda p: checks.check_stats(p, inp)),
        Op("windows", ["windows", "--steps", f["steps"], "--k", str(checks.K)], out("windows.jsonl"),
           lambda p: checks.check_windows(p, inp)),
        Op("score", ["score", "--tiers", f["tiers"], "--ratings", f["ratings"]], out("score.json"),
           lambda p: checks.check_score(p, inp)),
    ])


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Client of ``launcher.py``, which spawns and times every child."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], env=_child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, log: Path) -> tuple[float, int, int]:
        """Run one child to completion: (wall seconds, exit code, max RSS in KiB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        r = json.loads(reply)
        return r["seconds"], r["rc"], r["maxrss_kb"]

    def close(self) -> None:
        """End of input stops an idle launcher; a busy one is terminated."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


def _check(op: Op) -> str | None:
    try:
        return op.check(op.out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _same_bytes(a: str, b: str) -> bool:
    if not (os.path.exists(a) and os.path.exists(b)) or os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _spawn_cli(w: Workload, op: Op, threads: int, suffix: str, cwd: Path, log: Path, launcher: Launcher) -> int:
    dt, rc, rss = launcher.run([sys.executable, "-c", CLI, *op.command(threads, suffix)], cwd, log)
    w.peak_kb[op.name + suffix] = max(w.peak_kb[op.name + suffix], rss)
    w.samples[f"{op.name}{suffix.replace('.', '_')}_s"].append(dt)
    return rc


def timed_pass(w: Workload, index: int, cwd: Path, log: Path, launcher: Launcher) -> None:
    """One untraced pass: every command once, each after a set-up probe."""
    for op in w.ops:
        dt, rc, rss = launcher.run([sys.executable, "-c", SETUP], cwd, log)
        w.samples["setup_s"].append(dt)
        w.peak_kb["setup"] = max(w.peak_kb["setup"], rss)
        w.record("setup", f"exit {rc}" if rc else None)
        rc = _spawn_cli(w, op, op.threads, "", cwd, log, launcher)
        w.record(f"{op.name} pass {index}", f"exit {rc}" if rc else _check(op))


def twin_pass(w: Workload, cwd: Path, log: Path, launcher: Launcher) -> None:
    """Each --threads 2 command once more at --threads 1: the single-thread
    baseline. Its output must match the --threads 2 output byte for byte."""
    for op in w.ops:
        if op.threads > 1:
            rc = _spawn_cli(w, op, 1, ".t1", cwd, log, launcher)
            same = all(_same_bytes(a, b) for a, b in zip(op.outputs(), op.outputs(".t1")))
            w.record(f"{op.name} --threads 1 twin",
                     f"exit {rc}" if rc else None if same else "output bytes differ from --threads 2")


def layer_metrics(spans: list[dict], span_cost: float) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass.

    A span's self time is its duration minus the time its children cover.
    A command's glue is its ``cli.<cmd>`` time minus the layer calls its
    replay covers.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    glue: dict[str, float] = defaultdict(float)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        for key, value in s["counts"].items():
            out[key] += value
        if name == "cli.import":
            out["cli.import_s"] += dur
        elif name.startswith("cli."):
            glue[name[4:]] += dur
        elif name.startswith("replay."):
            glue[name[7:]] -= covered[s["id"]]
        elif name != "pass":
            out[f"{name}_s"] += dur - covered[s["id"]]
    for cmd, value in glue.items():
        out[f"cli.{cmd}.glue_s"] = value
    out["manifest.build_s"] = out["manifest.parse_s"] - out["manifest.decode_s"]
    pairs = out["matching.candidate_pairs"]
    out["matching.ns_per_candidate_pair"] = out["matching.match_s"] / pairs * 1e9 if pairs else 0.0
    out["trace.overhead_s"] = span_cost * len(spans)
    return out


def traced_pass(w: Workload, index: int, cwd: Path, log: Path, run_id: str, launcher: Launcher) -> None:
    spec_path, doc_path = cwd / "trace-spec.json", cwd / "trace-out.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": f"{run_id}/{w.name}/{index}",
                   "commands": [[op.name, op.command(op.threads)] for op in w.ops]}, fh)
    _, rc, _ = launcher.run([sys.executable, str(BENCH / "tracer.py"), str(spec_path), str(doc_path)], cwd, log)
    if rc != 0:
        raise RuntimeError(f"tracer exited {rc}; see {log}")
    with open(doc_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require_src(doc["narrkit_file"])
    for op, res in zip(w.ops, doc["commands"]):
        reason = f"exit {res['rc']}" if res["rc"] != 0 else res["replay_error"]
        w.record(f"{op.name} traced pass {index}", reason or _check(op))
    for key, value in layer_metrics(doc["spans"], doc["span_cost_s"]).items():
        w.samples[key].append(value)
    w.spans.extend(doc["spans"])


def _require_src(path: str) -> None:
    if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"children import narrkit from {path.strip()}, not from {SRC}")


def measure(step: Callable[[int], object], seconds: float, min_passes: int) -> tuple[int, float]:
    """Run passes until ``seconds`` would be exceeded by one more pass of the
    last pass's length; at least ``min_passes``. Returns (passes, seconds)."""
    start = time.perf_counter()
    passes, last = 0, 0.0
    while passes < min_passes or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        step(passes)
        last = time.perf_counter() - begin
        passes += 1
    return passes, time.perf_counter() - start


def calibrate(reps: int = 3) -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs now."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, as configured (not set here)."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "src_lines": src_lines(),
    }


def summarize(values: list[float]) -> dict:
    """Median with quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def finish(w: Workload, trace: int, env: dict, wanted: list[dict], final: dict, prefix: str) -> dict:
    """Summarise one workload's samples; put its BENCHMARK.json metrics into
    ``final`` and return its section of the report."""
    if trace:
        w.samples["env.calib_s"].append(env["calib_s"])
        w.samples["env.src_lines"].append(env["src_lines"])
    else:
        # the typical pass: each command's median, summed over the sequence
        w.samples["pipeline_s"].append(sum(statistics.median(w.samples[f"{op.name}_s"]) for op in w.ops))
        w.samples["peak_rss_mb"].append(max(w.peak_kb.values()) / 1024)
    stats = {k: summarize(v) for k, v in sorted(w.samples.items())}
    per_command = {f"{op.name}{t}_s" for op in w.ops for t in ("", "_t1")}
    unknown = set(stats) - {m["name"] for m in wanted} - per_command
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for m in wanted:
        # a layer this workload never calls has no spans: it took 0 s
        value = stats[m["name"]]["value"] if m["name"] in stats else 0.0
        final[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "attempted": w.attempted,
        "failed": len(w.failures),
        "error_rate": len(w.failures) / w.attempted,
        "failures": w.failures,
        "peak_rss_mb_by_command": {k: v / 1024 for k, v in sorted(w.peak_kb.items())},
        "timings": stats,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke test: 0.01)")
    args = parser.parse_args(argv)

    if not (SRC / "narrkit" / "cli.py").is_file():
        print(f"error: narrkit sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{run_id}-{os.getpid()}"
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    launcher = Launcher()
    try:
        workdir.mkdir(parents=True)
        log = workdir / "stderr.log"
        env = environment()
        env["calib_s"] = calibrate()
        workloads = [build(name, args.seed, workdir / name, args.scale) for name in names]
        inputs = {w.name: w.inputs.describe() for w in workloads}

        if args.trace:
            step = lambda i: [traced_pass(w, i, workdir / w.name, log, run_id, launcher) for w in workloads]  # noqa: E731
        else:
            out = subprocess.run([sys.executable, "-c", WHERE], cwd=workdir, env=_child_env(),
                                 capture_output=True, text=True, check=True).stdout
            _require_src(out)
            step = lambda i: [timed_pass(w, i, workdir / w.name, log, launcher) for w in workloads]  # noqa: E731
        passes, measured_s = measure(step, args.seconds, 1 if args.trace else MIN_PASSES)
        if not args.trace:
            for w in workloads:
                twin_pass(w, workdir / w.name, log, launcher)

        report = {"run_id": run_id, "seed": args.seed, "scale": args.scale, "passes": passes,
                  "measured_s": measured_s, "environment": env, "inputs": inputs, "workloads": {}}
        final: dict[str, dict] = {}
        for w in workloads:
            prefix = f"{w.name}." if len(workloads) > 1 else ""
            report["workloads"][w.name] = finish(w, args.trace, env, wanted, final, prefix)
            print(f"== {w.name}: {w.attempted} ops, {len(w.failures)} failed "
                  f"(error_rate {len(w.failures) / w.attempted:.4f}), {passes} pass(es)")
            for reason in w.failures[:10]:
                print(f"   FAILED {reason}")
            units = {m["name"]: m["unit"] for m in wanted}
            for key, t in report["workloads"][w.name]["timings"].items():
                print(f"   {key:34s} {t['value']:14.6f} {units.get(key, 's'):6s} "
                      f"q1 {t['q1']:.6f}  q3 {t['q3']:.6f}  n {t['n']}")
        print(f"   env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']['name']} "
              f"{env['blas']['version']} x{env['blas_threads']}, nproc {env['nproc']}, "
              f"git {env['git_sha']}, src_lines {env['src_lines']}, calib_s {env['calib_s']:.4f}")

        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / f"{run_id}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        if args.trace:
            with open(RESULTS / f"{run_id}.spans.jsonl", "w", encoding="utf-8") as fh:
                for w in workloads:
                    fh.writelines(json.dumps(s) + "\n" for s in w.spans)

        attempted = sum(w.attempted for w in workloads)
        failed = sum(len(w.failures) for w in workloads)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}))
        return 0
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
