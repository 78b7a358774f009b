"""Fresh-interpreter jobs started by ``run.py``; one job per process.

    python3 child.py setup  --config CFG
    python3 child.py stream --out DIR --signals NPY [--spans FILE]
    python3 child.py cli    --spans FILE -- <tfloc CLI arguments>

``setup`` times the set-up path in a fresh interpreter (import, config,
window, cover, validation).  ``stream`` loads a stored frame, certifies it
and reconstructs every signal of an ``.npy`` array, timing each call.  ``cli``
runs ``tfloc.cli.main`` in-process with spans recorded around the public
functions of every module.  Each job prints one JSON object as its last
stdout line; ``--spans`` writes the recorded spans to a file at exit.

The parent sets ``PYTHONPATH`` to the checkout's ``src`` and pins the BLAS
thread variables before starting a job.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import os
import sys
import time


class Tracer:
    """In-memory span recorder: [name, start, end, parent index, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            amount = work(*args, **kwargs) if work is not None else None
            self.spans.append([name, time.perf_counter(), None, parent, amount])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()

        return traced

    def install(self):
        """Replace each traced function in every tfloc namespace that binds it."""
        import numpy as np
        import tfloc
        from tfloc import cli, core, covers, frames, gabor, locop

        # both build an operator as A A* for an L x n complex block of
        # shifted windows: 8 L^2 n real flops, n = support size
        def assemble_flops(eta, phi):
            return 8.0 * eta.L * eta.L * eta.cells.shape[0]

        def multiplier_flops(m, system):
            L = system.lattice.L
            return 8.0 * L * L * int((np.asarray(m) > 0).sum())

        targets = [
            ("core.gauss_window", core.gauss_window, None),
            ("covers.generate", covers.gen_regular_boxes, None),
            ("covers.generate", covers.gen_random_irregular, None),
            ("covers.generate", covers.read_cover_json, None),
            ("covers.validate", covers.validate_cover, None),
            ("cli.load_config", cli.load_config, None),
            ("cli.main", cli.main, None),
            ("locop.assemble", locop.assemble_locop, assemble_flops),
            ("locop.eigendecomp", locop.eigendecomp, None),
            ("frames.assemble_frame", frames.assemble_frame, None),
            ("frames.select", frames.select_eigenfunctions, None),
            ("frames.certificate", frames.frame_certificate, None),
            ("frames.reconstruct", frames.reconstruct, None),
            ("frames.read_frame", frames.read_frame, None),
            ("frames.write_frame", frames.write_frame, None),
            ("frames.norm_equivalence", frames.norm_equivalence_constants, None),
            ("frames.epsilon_sweep", frames.epsilon_sweep, None),
            ("gabor.canonical_tight", gabor.canonical_tight, None),
            ("gabor.multiplier", gabor.gabor_multiplier, multiplier_flops),
            ("gabor.eigenframe", gabor.gabor_eigenframe, None),
        ]
        wrapped = {id(fn): self.wrap(name, fn, work) for name, fn, work in targets}
        for mod in (tfloc, cli, core, covers, frames, gabor, locop):
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def job_setup(args) -> dict:
    t0 = time.perf_counter()
    from tfloc.cli import load_config, resolve_cover, resolve_window
    from tfloc.covers import validate_cover

    cfg = load_config(args.config)
    resolve_window(cfg)
    cover = resolve_cover(cfg)
    adm = cfg.admissibility
    report = validate_cover(
        cover, R=int(adm.get("R", cfg.L // 2)), r=adm.get("r"), w=int(adm.get("w", 1))
    )
    setup_s = time.perf_counter() - t0
    return {
        "setup_s": setup_s,
        "regions": len(cover.regions),
        "covers_grid": report.covers_grid,
        "blas_threads": blas_threads(),
    }


def job_stream(args) -> dict:
    import numpy as np

    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
    from tfloc import frames
    from tfloc.core import Signal

    signals = np.load(args.signals)
    frame = frames.read_frame(
        os.path.join(args.out, "frame.json"), os.path.join(args.out, "frame_atoms.tfat")
    )
    cert = frames.frame_certificate(frame)
    call_ms, rel_errors = [], []
    for x in signals:
        t = time.perf_counter()
        _, rel = frames.reconstruct(frame, Signal(x), cert)
        call_ms.append((time.perf_counter() - t) * 1e3)
        rel_errors.append(rel)
    if tracer:
        tracer.dump(args.spans)
    return {
        "A": cert.A,
        "B": cert.B,
        "call_ms": call_ms,
        "rel_errors": rel_errors,
    }


def job_cli(args) -> int:
    tracer = Tracer()
    tracer.install()
    import tfloc.cli

    try:
        return tfloc.cli.main(args.cli_args)
    finally:
        tracer.dump(args.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="job", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p = sub.add_parser("stream")
    p.add_argument("--out", required=True)
    p.add_argument("--signals", required=True)
    p.add_argument("--spans", default=None)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.job == "cli":
        if args.cli_args[:1] == ["--"]:
            args.cli_args = args.cli_args[1:]
        return job_cli(args)
    result = job_setup(args) if args.job == "setup" else job_stream(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
