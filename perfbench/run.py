#!/usr/bin/env python3
"""The tfloc benchmark: three seeded workloads through the CLI and the library.

    python3 perfbench/run.py --workload regular256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every metric, every workload
    python3 perfbench/run.py --smoke                           # L=16 self-check, seconds
    python3 perfbench/run.py --record-references               # rewrite references.json

Run from the root of a checkout; the program is imported from ``src/``.
Every operation runs in a fresh child process, one at a time, with the BLAS
thread variables pinned to 1 and ``TFLOC_THREADS`` unset.  With ``--trace 0``
the last stdout line holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a separate traced run.  A full record (environment,
raw samples, failed checks) goes to ``perfbench/records/``.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_VARS + ("TFLOC_THREADS",)}
# pinned before numpy loads, for this process and every child it starts
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("TFLOC_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCES = HERE / "references.json"
RECORDS = HERE / "records"
WORK = HERE / "_work"

CHILD_TIMEOUT_S = 150.0
REL_TOL = 1e-9  # certificate and reference agreement
RECONSTRUCT_TOL = 1e-10  # per streamed signal
EPSILON = 0.1

# name -> unit; BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": "s",
    "frame_s": "s",
    "frame_peak_rss_mb": "MB",
    "workflow_s": "s",
    "reconstruct_ms_p50": "ms",
    "reconstruct_ms_p95": "ms",
    "reconstruct_per_s": "1/s",
}
# Every time below is spent on every workload.  Work that only one path does
# (gabor, diagnose) is counted in the stage it belongs to; the per-function
# span totals of each traced process are kept in the record.
PER_LAYER = {
    "core.gauss_window_s": "s",
    "covers.generate_s": "s",
    "covers.validate_s": "s",
    "covers.regions": "count",
    "covers.cells": "count",
    "covers.shape_classes": "count",
    "cli.load_config_s": "s",
    "cli.main_s": "s",
    "frames.build_s": "s",
    "locop.assemble_s": "s",
    "locop.assemble_calls": "count",
    "locop.assemble_gflop": "GFLOP",
    "locop.operator_mb": "MB",
    "locop.eigendecomp_s": "s",
    "locop.eigendecomp_calls": "count",
    "frames.select_s": "s",
    "frames.atoms": "count",
    "frames.write_frame_s": "s",
    "frames.read_frame_s": "s",
    "frames.certificate_s": "s",
    "frames.reconstruct_ms": "ms",
    "trace.overhead_s": "s",
}
# operator assembly: grid operators, or Gabor multipliers on the lattice path
ASSEMBLY_SPANS = ("locop.assemble", "gabor.multiplier")
# the call that turns a cover into a frame, on either path
BUILD_SPANS = ("frames.assemble_frame", "gabor.canonical_tight", "gabor.eigenframe")


@dataclass(frozen=True)
class Shape:
    """One workload's inputs, apart from the seed."""

    L: int
    cover: str  # "regular", "irregular" or "lattice"
    box: int  # box side (regular, lattice) or target size (irregular)
    lattice_step: int = 0
    cover_seeds: tuple[int, ...] = ()  # irregular: generator seeds, picked by seed
    diagnose: bool = False
    n_signals: int = 100

    def cover_key(self, seed: int) -> str:
        return str(self.cover_seeds[seed % len(self.cover_seeds)]) if self.cover_seeds else "fixed"


# Irregular cover seeds all give 101 regions at L=128 (like seed 7), so the
# seed changes the shapes but not the number of eigensolves.
WORKLOADS = {
    "regular256": Shape(256, "regular", 16),
    "irregular128": Shape(
        128, "irregular", 16, cover_seeds=(7, 2, 18, 20, 52, 60, 63, 76), diagnose=True,
        n_signals=300,
    ),
    "lattice256_stream": Shape(256, "lattice", 32, lattice_step=4, n_signals=200),
}
# the shapes of configs/regular16.json, irregular16.json and gabor16.json
SMOKE = {
    "regular256": Shape(16, "regular", 4, n_signals=20),
    "irregular128": Shape(16, "irregular", 6, cover_seeds=(7,), diagnose=True, n_signals=20),
    "lattice256_stream": Shape(16, "lattice", 8, lattice_step=2, n_signals=20),
}


@dataclass(frozen=True)
class Plan:
    setup_reps: int = 5
    min_reps: int = 3


FULL_PLAN = Plan()
SMOKE_PLAN = Plan(setup_reps=1, min_reps=1)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def lattice_box_cover(L: int, box: int, step: int) -> dict:
    """Cover JSON of box x box tiles restricted to the lattice (step Z)^2."""
    regions = []
    for x0 in range(0, L, box):
        for xi0 in range(0, L, box):
            cells = [
                [x, xi]
                for x in range(x0, x0 + box, step)
                for xi in range(xi0, xi0 + box, step)
            ]
            regions.append({"center": [x0 + box // 2, xi0 + box // 2], "cells": cells})
    return {"L": L, "regions": regions}


@dataclass
class Inputs:
    config: Path
    out: Path
    signals: Path
    cover_key: str


def make_inputs(shape: Shape, seed: int, work: Path) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    L = shape.L
    config = {
        "L": L,
        "window": "gauss",
        "policy": {"mode": "epsilon", "epsilon": EPSILON, "n_max": L},
        "weighted": True,
    }
    key = shape.cover_key(seed)
    if shape.cover == "regular":
        config["cover"] = {"regular": {"bx": shape.box, "by": shape.box}}
    elif shape.cover == "irregular":
        config["cover"] = {
            "irregular": {"seed": int(key), "target_size": shape.box, "overlap": 0.5}
        }
    else:
        (work / "cover.json").write_text(
            json.dumps(lattice_box_cover(L, shape.box, shape.lattice_step))
        )
        config["cover"] = {"file": "cover.json"}
        config["lattice"] = {"a": shape.lattice_step, "b": shape.lattice_step}
    (work / "config.json").write_text(json.dumps(config, indent=1))
    rng = np.random.default_rng([seed, L])
    signals = rng.standard_normal((shape.n_signals, L)) + 1j * rng.standard_normal(
        (shape.n_signals, L)
    )
    np.save(work / "signals.npy", signals)
    return Inputs(work / "config.json", work / "out", work / "signals.npy", key)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str

    def result(self) -> dict | None:
        lines = [ln for ln in self.stdout.splitlines() if ln.strip()]
        if self.rc != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None

    def why(self) -> str:
        tail = (self.stderr.strip().splitlines() or ["no stderr"])[-1]
        return f"exit {self.rc}: {tail}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], work: Path) -> Proc:
    """Run one child to completion; wall time and peak RSS from wait4."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=work)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out_path.read_text(), err_path.read_text())


def py(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


# ---------------------------------------------------------------------------
# Correctness gate: every operation is checked against its artifacts
# ---------------------------------------------------------------------------

def close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(b), scale)


def read_frame_files(out: Path) -> tuple[dict, np.ndarray]:
    """(manifest, L x n matrix of unit atoms), read without tfloc."""
    manifest = json.loads((out / "frame.json").read_text())
    blob = (out / "frame_atoms.tfat").read_bytes()
    L = int(manifest["L"])
    if blob[:4] != b"TFAT":
        raise ValueError("bad atoms magic")
    cols = [
        np.frombuffer(blob, dtype="<f8", count=2 * L, offset=int(e["offset"])).view("<c16")
        for e in manifest["atoms"]
    ]
    return manifest, np.stack(cols, axis=1)


def check_frame(out: Path, ref: dict) -> list[str]:
    """Certificate recomputed from the stored atoms, and A, B, atoms vs reference."""
    try:
        cert = json.loads((out / "certificate.json").read_text())
        manifest, V = read_frame_files(out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"frame artifacts unreadable: {exc}"]
    w = np.array([float(e["weight"]) for e in manifest["atoms"]])
    G = V * w[None, :]
    ev = np.linalg.eigvalsh(G @ G.conj().T)
    bad = []
    if not (close(float(ev[0]), cert["A"]) and close(float(ev[-1]), cert["B"])):
        bad.append(f"certificate A,B {cert['A']!r},{cert['B']!r} != recomputed {ev[0]!r},{ev[-1]!r}")
    if not cert.get("is_frame"):
        bad.append("certificate says not a frame")
    if len(manifest["atoms"]) != ref["atoms"]:
        bad.append(f"{len(manifest['atoms'])} atoms, reference {ref['atoms']}")
    if not (close(cert["A"], ref["A"]) and close(cert["B"], ref["B"])):
        bad.append(f"A,B {cert['A']!r},{cert['B']!r} != reference {ref['A']!r},{ref['B']!r}")
    return bad


def diagnose_summary(out: Path) -> dict:
    d = json.loads((out / "diagnostics.json").read_text())
    return {
        "plain": [d["plain"]["c"], d["plain"]["C"]],
        "squared": [d["squared"]["c"], d["squared"]["C"]],
        "thresholded": [d["thresholded"]["c"], d["thresholded"]["C"]],
        "sweep": [[r["epsilon"], r["c"], r["C"]] for r in d["epsilon_sweep"]],
        "largest_epsilon_with_positive_c": d["largest_epsilon_with_positive_c"],
    }


def check_diagnose(out: Path, ref: dict) -> list[str]:
    try:
        got = diagnose_summary(out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"diagnostics unreadable: {exc}"]
    want = ref["diagnose"]
    scale = want["plain"][1]  # constants near 0 are compared on the scale of C_plain
    pairs = [(k, got[k], want[k]) for k in ("plain", "squared", "thresholded")]
    pairs += [(f"sweep[{i}]", g, w) for i, (g, w) in enumerate(zip(got["sweep"], want["sweep"]))]
    bad = [
        f"diagnose {name} {g!r} != reference {w!r}"
        for name, g, w in pairs
        if len(g) != len(w) or not all(close(a, b, scale) for a, b in zip(g, w))
    ]
    if len(got["sweep"]) != len(want["sweep"]):
        bad.append("diagnose sweep length differs from reference")
    if got["largest_epsilon_with_positive_c"] != want["largest_epsilon_with_positive_c"]:
        bad.append("diagnose largest feasible epsilon differs from reference")
    return bad


def check_stream(result: dict, out: Path) -> int:
    """Number of streamed signals that fail the gate."""
    try:
        cert = json.loads((out / "certificate.json").read_text())
    except (OSError, ValueError):
        return len(result["rel_errors"])
    if not (close(result["A"], cert["A"]) and close(result["B"], cert["B"])):
        return len(result["rel_errors"])
    return sum(1 for r in result["rel_errors"] if not r <= RECONSTRUCT_TOL)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, what: str, problems: list[str], n: int = 1, n_failed: int | None = None):
        self.attempted += n
        failed = (n if problems else 0) if n_failed is None else n_failed
        self.failed += failed
        if failed and len(self.problems) < 50:
            self.problems.append(f"{what}: " + ("; ".join(problems) or f"{failed} of {n} failed"))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Context:
    shape: Shape
    inputs: Inputs
    ref: dict
    work: Path
    tally: Tally
    blas_threads: int | None = None


def op_setup(ctx: Context) -> float | None:
    p = spawn(py(CHILD, "setup", "--config", ctx.inputs.config), ctx.work)
    res = p.result()
    if res is None:
        ctx.tally.op("setup", [p.why()])
        return None
    problems = []
    if res["regions"] != ctx.ref["regions"]:
        problems.append(f"{res['regions']} regions, reference {ctx.ref['regions']}")
    if ctx.shape.cover != "lattice" and not res["covers_grid"]:
        problems.append("cover does not cover the grid")
    ctx.tally.op("setup", problems)
    ctx.blas_threads = res["blas_threads"]
    if res["blas_threads"] not in (None, 1):
        raise BenchError(f"BLAS runs {res['blas_threads']} threads; the benchmark needs 1")
    return res["setup_s"]


def cli_argv(command: str, ctx: Context, spans: Path | None) -> list[str]:
    args = [command, "--config", ctx.inputs.config, "--out", ctx.inputs.out]
    if spans is None:
        return py("-m", "tfloc.cli", *args)
    return py(CHILD, "cli", "--spans", spans, "--", *args)


def op_frame(ctx: Context, spans: Path | None = None) -> Proc:
    p = spawn(cli_argv("frame", ctx, spans), ctx.work)
    ctx.tally.op("frame", [p.why()] if p.rc else check_frame(ctx.inputs.out, ctx.ref))
    return p


def op_diagnose(ctx: Context, spans: Path | None = None) -> Proc:
    p = spawn(cli_argv("diagnose", ctx, spans), ctx.work)
    ctx.tally.op("diagnose", [p.why()] if p.rc else check_diagnose(ctx.inputs.out, ctx.ref))
    return p


def op_stream(ctx: Context, spans: Path | None = None) -> tuple[Proc, dict | None]:
    argv = py(CHILD, "stream", "--out", ctx.inputs.out, "--signals", ctx.inputs.signals)
    if spans is not None:
        argv += ["--spans", str(spans)]
    p = spawn(argv, ctx.work)
    res = p.result()
    n = ctx.shape.n_signals
    if res is None or len(res["rel_errors"]) != n:
        ctx.tally.op("stream", [p.why()], n=n)
        return p, None
    ctx.tally.op("stream", [], n=n, n_failed=check_stream(res, ctx.inputs.out))
    return p, res


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def median(xs) -> float:
    xs = [x for x in xs if x is not None and not math.isnan(x)]
    return float(statistics.median(xs)) if xs else math.nan


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    xs = sorted(xs)
    if not xs:
        return math.nan
    return float(xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)])


def keep_going(done: int, min_reps: int, t0: float, seconds: float) -> bool:
    """Another repetition, if it brings the run's length closer to ``seconds``."""
    if done < min_reps:
        return True
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / done / 2 < seconds


def measure(ctx: Context, seconds: float, plan: Plan) -> tuple[dict, dict]:
    """End-to-end metrics: set-up, then repetitions for ``seconds`` (at least min_reps)."""
    setup = [op_setup(ctx) for _ in range(plan.setup_reps)]
    reps = []
    t0 = time.perf_counter()
    while keep_going(len(reps), plan.min_reps, t0, seconds):
        frame = op_frame(ctx)
        diag = op_diagnose(ctx) if ctx.shape.diagnose else None
        stream, res = op_stream(ctx)
        calls = res["call_ms"] if res else []
        reps.append({
            "frame_s": frame.wall_s,
            "frame_peak_rss_mb": frame.rss_mb,
            "diagnose_s": diag.wall_s if diag else None,
            "stream_s": stream.wall_s,
            "workflow_s": frame.wall_s + (diag.wall_s if diag else 0.0) + stream.wall_s,
            "reconstruct_ms_p50": percentile(calls, 50),
            "reconstruct_ms_p95": percentile(calls, 95),
            "reconstruct_per_s": len(calls) / (sum(calls) / 1e3) if calls else math.nan,
        })
    # every metric per repetition, then the median over repetitions
    metrics = {"setup_s": median(setup)}
    metrics.update({k: median(r[k] for r in reps) for k in END_TO_END if k != "setup_s"})
    raw = {
        "setup_s": setup,
        "reps": reps,
        "diagnose_s_median": median(r["diagnose_s"] for r in reps) if ctx.shape.diagnose else None,
    }
    return metrics, raw


def span_totals(path: Path) -> dict[str, dict]:
    """Per span name: outermost inclusive seconds, call count and summed work."""
    try:
        spans = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    out: dict[str, dict] = {}
    for name, start, end, parent, work in spans:
        if end is None:
            continue
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        agg = out.setdefault(name, {"s": 0.0, "n": 0, "work": 0.0})
        agg["n"] += 1
        agg["work"] += work or 0.0
        if p < 0:
            agg["s"] += end - start
    return out


def cover_counts(path: Path) -> dict:
    """Regions, support cells, and classes of regions equal relative to their center."""
    try:
        cover = json.loads(path.read_text())
    except (OSError, ValueError):
        return dict.fromkeys(("covers.regions", "covers.cells", "covers.shape_classes"), math.nan)
    L = int(cover["L"])
    shapes = set()
    cells_total = 0
    for r in cover["regions"]:
        cells = np.asarray(r["cells"], dtype=np.int64).reshape(-1, 2)
        values = np.asarray(r.get("values", np.ones(len(cells))), dtype=np.float64)
        rel = (cells - np.asarray(r["center"])) % L
        order = np.lexsort((rel[:, 1], rel[:, 0]))
        shapes.add((rel[order].tobytes(), values[order].tobytes()))
        cells_total += len(cells)
    return {
        "covers.regions": len(cover["regions"]),
        "covers.cells": cells_total,
        "covers.shape_classes": len(shapes),
    }


def trace_layers(ctx: Context, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from traced children, plus an untraced frame for the overhead."""
    op_setup(ctx)
    reps = []
    t0 = time.perf_counter()
    while keep_going(len(reps), 1, t0, seconds):
        for stale in ctx.work.glob("spans_*.json"):
            stale.unlink()
        plain = op_frame(ctx)
        traced = op_frame(ctx, spans=ctx.work / "spans_frame.json")
        F = span_totals(ctx.work / "spans_frame.json")
        D = {}
        if ctx.shape.diagnose:
            op_diagnose(ctx, spans=ctx.work / "spans_diagnose.json")
            D = span_totals(ctx.work / "spans_diagnose.json")
        _, res = op_stream(ctx, spans=ctx.work / "spans_stream.json")
        S = span_totals(ctx.work / "spans_stream.json")
        spans = {"frame": F, "diagnose": D, "stream": S}

        def total(key, names, *procs):
            return sum(p.get(n, {}).get(key, 0.0) for p in procs for n in names)

        L = ctx.shape.L
        reps.append({
            "core.gauss_window_s": total("s", ["core.gauss_window"], F),
            "covers.generate_s": total("s", ["covers.generate"], F),
            "covers.validate_s": total("s", ["covers.validate"], F),
            "cli.load_config_s": total("s", ["cli.load_config"], F),
            "cli.main_s": total("s", ["cli.main"], F),
            "frames.build_s": total("s", BUILD_SPANS, F),
            # locop work is counted over frame and diagnose, which rebuilds it
            "locop.assemble_s": total("s", ASSEMBLY_SPANS, F, D),
            "locop.assemble_calls": int(total("n", ASSEMBLY_SPANS, F, D)),
            "locop.assemble_gflop": total("work", ASSEMBLY_SPANS, F, D) / 1e9,
            "locop.operator_mb": total("n", ASSEMBLY_SPANS, F) * L * L * 16 / 1e6,
            "locop.eigendecomp_s": total("s", ["locop.eigendecomp"], F, D),
            "locop.eigendecomp_calls": int(total("n", ["locop.eigendecomp"], F, D)),
            "frames.select_s": total("s", ["frames.select"], F),
            "frames.write_frame_s": total("s", ["frames.write_frame"], F),
            "frames.read_frame_s": total("s", ["frames.read_frame"], S),
            "frames.certificate_s": total("s", ["frames.certificate"], S),
            "frames.reconstruct_ms": median(res["call_ms"]) if res else math.nan,
            "frame_untraced_s": plain.wall_s,
            "frame_traced_s": traced.wall_s,
        })
    metrics = {name: median(r[name] for r in reps) for name in reps[0]}
    metrics["trace.overhead_s"] = metrics.pop("frame_traced_s") - metrics.pop("frame_untraced_s")
    cover_file = ctx.inputs.out / "cover.json"
    if not cover_file.exists():
        cover_file = ctx.inputs.config.parent / "cover.json"
    metrics.update(cover_counts(cover_file))
    try:
        metrics["frames.atoms"] = len(json.loads((ctx.inputs.out / "frame.json").read_text())["atoms"])
    except (OSError, ValueError, KeyError):
        metrics["frames.atoms"] = math.nan
    return metrics, {"reps": reps, "spans_last_rep": spans}


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tfloc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(blas_threads: int | None) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS + ("TFLOC_THREADS",)},
        "caller_thread_env": CALLER_THREAD_ENV,
        "blas_threads": blas_threads,
        "blas_threads_verified": blas_threads == 1,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "concurrency": "closed loop, 1 client, 1 child process at a time",
    }


def load_references(suite: str) -> dict:
    try:
        return json.loads(REFERENCES.read_text())[suite]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {suite} references from {REFERENCES}: {exc}") from None


def run_workload(name: str, shape: Shape, seed: int, seconds: float, trace: bool,
                 plan: Plan, refs: dict, record: bool = True) -> dict:
    work = WORK / f"{name}-L{shape.L}-s{seed}-t{int(trace)}-{os.getpid()}"
    try:
        inputs = make_inputs(shape, seed, work)
        try:
            ref = refs[name][inputs.cover_key]
        except KeyError:
            raise BenchError(f"no reference for {name} cover {inputs.cover_key}") from None
        ctx = Context(shape, inputs, ref, work, Tally())
        if trace:
            metrics, raw = trace_layers(ctx, seconds)
            units = PER_LAYER
        else:
            metrics, raw = measure(ctx, seconds, plan)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    tally = ctx.tally
    result = {
        "correct": tally.failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            k: {"value": metrics[k] if math.isfinite(metrics[k]) else None, "unit": u}
            for k, u in units.items()
        },
    }
    if record:
        RECORDS.mkdir(exist_ok=True)
        (RECORDS / f"{name}-L{shape.L}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
            "workload": name,
            "shape": asdict(shape),
            "cover_key": inputs.cover_key,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "environment": environment(ctx.blas_threads),
            "fail_rate": tally.failed / tally.attempted if tally.attempted else None,
            "problems": tally.problems,
            "result": result,
            "raw": raw,
        }, indent=1))
    return result


def print_table(rows: list[tuple[str, dict]]) -> None:
    for name, res in rows:
        rate = res["failed"] / res["attempted"] if res["attempted"] else math.nan
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"fail_rate={rate:.4g} correct={res['correct']}")
        for metric, m in res["metrics"].items():
            value = "missing" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {metric:28s} {value:>14s} {m['unit']}")


# ---------------------------------------------------------------------------
# References and smoke check
# ---------------------------------------------------------------------------

def record_references() -> None:
    """Run each workload shape once and store what the program outputs now."""
    refs: dict = {}
    for suite, shapes in (("full", WORKLOADS), ("smoke", SMOKE)):
        for name, shape in shapes.items():
            seeds = range(len(shape.cover_seeds)) if shape.cover_seeds else [0]
            for seed in seeds:
                work = WORK / f"ref-{suite}-{name}-{seed}"
                try:
                    inputs = make_inputs(shape, seed, work)
                    p = spawn(py("-m", "tfloc.cli", "frame", "--config", inputs.config,
                                 "--out", inputs.out), work)
                    if p.rc:
                        raise BenchError(f"{suite} {name}: frame failed, {p.why()}")
                    cert = json.loads((inputs.out / "certificate.json").read_text())
                    manifest, _ = read_frame_files(inputs.out)
                    ref = {"atoms": len(manifest["atoms"]), "A": cert["A"], "B": cert["B"]}
                    setup = spawn(py(CHILD, "setup", "--config", inputs.config), work).result()
                    ref["regions"] = setup["regions"]
                    if shape.diagnose:
                        p = spawn(py("-m", "tfloc.cli", "diagnose", "--config", inputs.config,
                                     "--out", inputs.out), work)
                        if p.rc:
                            raise BenchError(f"{suite} {name}: diagnose failed, {p.why()}")
                        ref["diagnose"] = diagnose_summary(inputs.out)
                    bad = check_frame(inputs.out, ref)
                    if bad:
                        raise BenchError(f"{suite} {name}: {bad}")
                    refs.setdefault(suite, {}).setdefault(name, {})[inputs.cover_key] = ref
                finally:
                    shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFERENCES}")


def check_schema(res: dict, trace: bool, declared: dict) -> list[str]:
    bad = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"result keys {sorted(res)}")
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        bad.append(f"metrics {got} != BENCHMARK.json {want}")
    for k, v in res["metrics"].items():
        if set(v) != {"value", "unit"} or not isinstance(v["value"], (int, float)):
            bad.append(f"metric {k} malformed: {v}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        bad.append("attempted must be a whole number >= 1")
    if not res["correct"] or res["failed"]:
        bad.append(f"correct={res['correct']} failed={res['failed']}")
    return bad


def tamper_checks(refs: dict) -> list[str]:
    """The gate must reject altered artifacts; returns the checks that let one pass."""
    shape, name = SMOKE["irregular128"], "irregular128"
    work = WORK / f"tamper-{os.getpid()}"
    missed = []
    try:
        inputs = make_inputs(shape, 0, work)
        ref = refs[name][inputs.cover_key]
        for cmd in ("frame", "diagnose"):
            p = spawn(py("-m", "tfloc.cli", cmd, "--config", inputs.config, "--out", inputs.out), work)
            if p.rc:
                return [f"{cmd} failed: {p.why()}"]
        if check_frame(inputs.out, ref) or check_diagnose(inputs.out, ref):
            return ["gate rejects untouched artifacts"]
        manifest_path = inputs.out / "frame.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["atoms"][0]["weight"] *= 1.5
        manifest_path.write_text(json.dumps(manifest))
        if not check_frame(inputs.out, ref):
            missed.append("altered atom weight passed")
        if not check_frame(inputs.out, {**ref, "atoms": ref["atoms"] + 1}):
            missed.append("wrong atom count passed")
        diag = dict(ref["diagnose"], plain=[ref["diagnose"]["plain"][0] * 1.001, ref["diagnose"]["plain"][1]])
        if not check_diagnose(inputs.out, {"diagnose": diag}):
            missed.append("altered diagnose constant passed")
        cert = json.loads((inputs.out / "certificate.json").read_text())
        if check_stream({"A": cert["A"], "B": cert["B"], "rel_errors": [1e-9]}, inputs.out) != 1:
            missed.append("reconstruction error 1e-9 passed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return missed


def smoke() -> int:
    refs = load_references("smoke")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for name, shape in SMOKE.items():
        for trace in (False, True):
            res = run_workload(name, shape, 0, 0.0, trace, SMOKE_PLAN, refs, record=False)
            failures += [f"{name} trace={int(trace)}: {b}" for b in check_schema(res, trace, declared)]
    failures += [f"gate: {m}" for m in tamper_checks(refs)]
    for f in failures:
        print(f, file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tfloc benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="L=16 self-check of schema and gate")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, stop and reap the running child (see spawn) before exiting
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (SRC / "tfloc" / "__init__.py").is_file():
            raise BenchError(f"no tfloc sources under {SRC}")
        if args.record_references:
            record_references()
            return 0
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        refs = load_references("full")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        rows = [(n, run_workload(n, WORKLOADS[n], args.seed, args.seconds, bool(args.trace),
                                 FULL_PLAN, refs)) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_table(rows)
    if len(rows) == 1:
        print(json.dumps(rows[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in rows),
            "attempted": sum(r["attempted"] for _, r in rows),
            "failed": sum(r["failed"] for _, r in rows),
            "metrics": {f"{n}.{k}": v for n, r in rows for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
