"""Command-line front end: spectrogram, frame, reconstruct, diagnose.

All structured output is JSON with shortest round-trip float printing;
images are binary PGM.  tfloc starts no threads of its own, and the
output bytes are reproducible for a fixed config, fixed inputs, a fixed
BLAS build and a fixed BLAS thread setting.  Wall-clock timings are therefore opt-in
(``--timings``); without the flag the ``timings`` field of ``report.json``
is null.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from . import __version__
from .core import Signal, Window, gauss_window, read_json, read_signal_csv, stft, write_json
from .covers import (
    Cover,
    gen_random_irregular,
    gen_regular_boxes,
    gen_wedge_cover,
    read_cover_json,
    validate_cover,
    write_cover_json,
)
from .errors import (
    InternalError,
    InvalidArgumentError,
    PreconditionViolation,
    TflocError,
)
from .frames import (
    LOWER_BOUND_RTOL,
    EigenFrame,
    SelectionPolicy,
    assemble_frame,
    frame_certificate,
    norm_equivalence_constants,
    read_frame,
    reconstruct,
    region_classes,
    write_certificate_json,
    write_frame,
)

# tfloc.gabor is imported in the lattice branches only, so a grid config never loads it
if TYPE_CHECKING:
    from .gabor import Lattice, LatticeGaborSystem

SWEEP_EPSILONS = [round(0.1 * i, 1) for i in range(10)]
# the largest grid a config may ask for; one L x L complex matrix is then 268 MB
MAX_L = 4096
INT64_RANGE = (-(2**63), 2**63 - 1)


@dataclass
class RunConfig:
    L: int
    window_source: str | Path  # "gauss" or a CSV path
    cover_source: tuple[str, dict] | Path  # (generator name, params) or a JSON path
    policy: SelectionPolicy
    weighted: bool
    lattice: Lattice | None
    admissibility: dict  # validate_cover keywords R, r, w
    reconstruct_tol: float
    output_dir: Path | None


def _number(section: dict, key: str, default=None, integer: bool = False,
            required: bool = False, bounds: tuple[int, int] = INT64_RANGE):
    """A finite JSON number (an integer in ``bounds``, inclusive, if ``integer``) from the config.

    An absent or null key gives ``default``, or an error when ``required``.
    """
    value = section.get(key)
    if value is None:
        if required:
            raise InvalidArgumentError(f"config is missing {key!r}")
        return default
    number = not isinstance(value, bool) and isinstance(value, int if integer else (int, float))
    # NaN fails the comparison, and so do +-Infinity and an int past the float range
    if not number or not (integer or abs(value) <= sys.float_info.max):
        kind = "an integer" if integer else "a finite number"
        raise InvalidArgumentError(f"config {key!r} must be {kind}, not {value!r}")
    if integer and not bounds[0] <= value <= bounds[1]:
        raise InvalidArgumentError(
            f"config {key!r} must be an integer in [{bounds[0]}, {bounds[1]}], not {value!r}"
        )
    return value


def _object(section: dict, key: str) -> dict:
    """A JSON object from the config; ``{}`` when the key is absent or null."""
    value = section.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise InvalidArgumentError(f"config {key!r} must be an object, not {value!r}")
    return value


def _cover_params(kind: str, spec: dict) -> dict:
    """Checked generator parameters of a "regular", "wedge" or "irregular" cover."""
    if kind == "regular":
        return {k: _number(spec, k, integer=True, required=True) for k in ("bx", "by")}
    if kind == "irregular":
        return {
            "seed": _number(spec, "seed", integer=True, required=True, bounds=(0, INT64_RANGE[1])),
            "target_size": _number(spec, "target_size", integer=True, required=True),
            "overlap": float(_number(spec, "overlap", 0.5)),
        }
    bands = spec.get("bands")
    if not isinstance(bands, list) or not all(
        isinstance(b, list) and len(b) == 3
        and all(isinstance(v, int) and not isinstance(v, bool) for v in b)
        for b in bands
    ):
        raise InvalidArgumentError(
            'config "bands" must be a list of [xi_lo, xi_hi, time_step] integer triples'
        )
    return {"bands": [tuple(b) for b in bands]}


def load_config(path) -> RunConfig:
    """Read and check a run config; every config error carries its path."""
    path = Path(path)
    raw = read_json(path, "config")
    try:
        return _parse_config(raw, path)
    except InvalidArgumentError as exc:
        exc.context.setdefault("path", str(path))
        raise


def _parse_config(raw, path: Path) -> RunConfig:
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"config must be a JSON object, not {type(raw).__name__}")
    L = _number(raw, "L", integer=True, required=True, bounds=(1, MAX_L))

    window = raw.get("window")
    if window is None or window == "gauss":
        window_source: str | Path = "gauss"
    elif isinstance(window, dict) and set(window) == {"file"} and isinstance(window["file"], str):
        window_source = path.parent / window["file"]
    else:
        raise InvalidArgumentError(f'config "window" must be "gauss" or {{"file": path}}, not {window!r}')

    cover = _object(raw, "cover")
    known = [k for k in ("regular", "wedge", "irregular", "file") if k in cover]
    if len(known) != 1:
        raise InvalidArgumentError(f"config needs exactly one cover source, got {known or 'none'}")
    kind = known[0]
    cover_source: tuple[str, dict] | Path
    if kind == "file":
        if not isinstance(cover["file"], str):
            raise InvalidArgumentError('config cover "file" must be a path')
        cover_source = path.parent / cover["file"]
    else:
        cover_source = (kind, _cover_params(kind, _object(cover, kind)))

    pol = _object(raw, "policy")
    policy = SelectionPolicy(
        mode=pol.get("mode", "epsilon"),
        alpha=_number(pol, "alpha"),
        epsilon=_number(pol, "epsilon"),
        n_max=_number(pol, "n_max", L, integer=True),
    )

    lattice = None
    if raw.get("lattice") is not None:
        from .gabor import Lattice

        lat = _object(raw, "lattice")
        lattice = Lattice(L, *(_number(lat, k, integer=True, required=True) for k in ("a", "b")))

    weighted = True if raw.get("weighted") is None else raw["weighted"]
    if not isinstance(weighted, bool):
        raise InvalidArgumentError(f'config "weighted" must be true or false, not {weighted!r}')

    adm = _object(raw, "admissibility")
    reconstruct_tol = float(_number(raw, "reconstruct_tol", 1e-8))
    if reconstruct_tol < 0.0:
        raise InvalidArgumentError(f"config 'reconstruct_tol' must be >= 0, not {reconstruct_tol!r}")
    out = raw.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise InvalidArgumentError(f'config "output_dir" must be a path, not {out!r}')
    return RunConfig(
        L=L,
        window_source=window_source,
        cover_source=cover_source,
        policy=policy,
        weighted=weighted,
        lattice=lattice,
        admissibility={
            "R": _number(adm, "R", L // 2, integer=True),
            "r": _number(adm, "r", integer=True),
            "w": _number(adm, "w", 1, integer=True),
        },
        reconstruct_tol=reconstruct_tol,
        output_dir=path.parent / out if out else None,
    )


def _read_signal(cfg: RunConfig, path) -> Signal:
    """A signal or window CSV of the config's length L."""
    sig = read_signal_csv(path)
    if sig.length != cfg.L:
        raise InvalidArgumentError(f"signal length {sig.length} does not match config L={cfg.L}",
                                   path=str(path))
    return sig


def resolve_window(cfg: RunConfig) -> Window:
    if cfg.window_source == "gauss":
        return gauss_window(cfg.L)
    return Window.unit(_read_signal(cfg, cfg.window_source).samples)


def resolve_cover(cfg: RunConfig) -> Cover:
    if isinstance(cfg.cover_source, Path):
        cover = read_cover_json(cfg.cover_source)
        if cover.L != cfg.L:
            raise InvalidArgumentError(
                f"cover file has L={cover.L}, config L={cfg.L}",
                path=str(cfg.cover_source),
            )
        return cover
    kind, params = cfg.cover_source
    if kind == "regular":
        return gen_regular_boxes(cfg.L, params["bx"], params["by"])
    if kind == "wedge":
        return gen_wedge_cover(cfg.L, params["bands"])
    return gen_random_irregular(cfg.L, params["seed"], params["target_size"], params["overlap"])


def write_pgm(path: Path, values: np.ndarray) -> None:
    """8-bit PGM of a phase-plane magnitude array indexed [x, xi].

    Rows run over xi descending, columns over x ascending; values are mapped
    linearly from [0, max] to [0, 255] (an all-zero array stays zero).
    """
    L = values.shape[0]
    vmax = float(values.max())
    img = values.T[::-1, :]
    if vmax > 0.0:
        pix = np.floor(img * (255.0 / vmax) + 0.5).astype(np.uint8)
    else:
        pix = np.zeros((L, L), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{L} {L}\n255\n".encode())
        fh.write(pix.tobytes())


def _region_rows(frame: EigenFrame, cover: Cover) -> list[dict]:
    """Each region's atom count, extreme eigenvalues and mass.  A built frame holds its
    atoms in region order, a region's eigenvalues descending, so its extremes are the
    first and last of its run."""
    counts = np.bincount(frame.gammas, minlength=len(cover.regions))
    lams = frame.lams.tolist()
    return [
        {
            "gamma": gamma,
            "count": count,
            "lambda_max": lams[end - count] if count else None,
            "lambda_min": lams[end - 1] if count else None,
            "mass": s.mass,
        }
        for gamma, (count, end, s) in enumerate(zip(counts.tolist(), np.cumsum(counts).tolist(), cover.regions))
    ]


def _inputs(cfg: RunConfig, out_dir: Path) -> tuple[Window, Cover, LatticeGaborSystem | None]:
    """(window, cover, tight system or None for a grid config) of every command that reads the cover.

    The cover is validated, ``admissibility.json`` written and an outer radius
    above R refused; a lattice cover then passes ``require_lattice_cover``
    before the canonical tight window is built."""
    phi = resolve_window(cfg)
    cover = resolve_cover(cfg)
    adm = asdict(validate_cover(cover, **cfg.admissibility))
    if cfg.lattice is not None:
        from .gabor import canonical_tight, lattice_coverage_min, require_lattice_cover

        # symbols are restricted to the lattice: coverage is judged there,
        # outer radius stays a full-grid notion
        lat_min = lattice_coverage_min(cover, cfg.lattice)
        adm.update(lattice_sum_min=lat_min, covers_lattice=lat_min > 0.0)
    write_json(out_dir / "admissibility.json", adm)
    if not adm["outer_radius_ok"]:
        raise PreconditionViolation(
            f"outer radius {adm['max_outer_radius']} exceeds configured R={cfg.admissibility['R']}"
        )
    if cfg.lattice is None:
        return phi, cover, None
    require_lattice_cover(cover, cfg.lattice)
    return phi, cover, canonical_tight(phi, cfg.lattice)


def _build_frame(cfg: RunConfig, cover: Cover, phi: Window,
                 system: LatticeGaborSystem | None) -> tuple[EigenFrame, dict]:
    """Grid pipeline, or lattice pipeline when there is a ``system``; returns (frame, extras-for-report)."""
    if system is None:
        frame = assemble_frame(cover, phi, cfg.policy, cfg.weighted)
        return frame, {"lattice": None, "measure": "l1_mass / L (operator trace)"}
    from .gabor import gabor_eigenframe

    frame = gabor_eigenframe(cover, system, cfg.policy, cfg.weighted)
    return frame, {
        "lattice": {"a": system.lattice.a, "b": system.lattice.b},
        "tight_constant": system.tight_constant,
        "measure": "tight_constant * lattice l1_mass (multiplier trace)",
    }


def _frame_source(cfg: RunConfig, cover: Cover, phi: Window) -> str:
    """SHA-256 of what a frame is built from: L, window, cover, policy, weighting, lattice."""
    # hashlib loads OpenSSL (about 3.4 MB resident); importing it here, after
    # the frame is built, keeps that out of the build's peak and out of the
    # commands that never fingerprint a frame
    from hashlib import sha256

    h = sha256()
    lattice = None if cfg.lattice is None else (cfg.lattice.a, cfg.lattice.b)
    h.update(repr((cfg.L, asdict(cfg.policy), cfg.weighted, lattice)).encode())
    h.update(np.ascontiguousarray(phi.samples))
    for s in cover.regions:
        h.update(repr((s.center, s.cells.shape[0])).encode())
        h.update(np.ascontiguousarray(s.cells))
        h.update(np.ascontiguousarray(s.values))
    return h.hexdigest()


def cmd_spectrogram(cfg: RunConfig, signal_path, out_dir: Path) -> int:
    f = _read_signal(cfg, signal_path)
    phi = resolve_window(cfg)
    power = np.abs(stft(f, phi)) ** 2
    # one x row at a time: the formatted file is never held whole
    with open(out_dir / "spectrogram.csv", "w", newline="") as fh:
        fh.write("x,xi,value\n")
        for x in range(cfg.L):
            fh.write("".join(f"{x},{xi},{v!r}\n" for xi, v in enumerate(power[x].tolist())))
    write_pgm(out_dir / "spectrogram.pgm", power)
    return 0


def cmd_frame(cfg: RunConfig, out_dir: Path, timings: bool = False) -> int:
    from .locop import RANK_RTOL

    t0 = time.perf_counter()
    phi, cover, system = _inputs(cfg, out_dir)
    t1 = time.perf_counter()
    frame, extras = _build_frame(cfg, cover, phi, system)
    t2 = time.perf_counter()
    cert = frame_certificate(frame)
    t3 = time.perf_counter()
    write_frame(out_dir / "frame.json", out_dir / "frame_atoms.tfat", frame, _frame_source(cfg, cover, phi))
    write_certificate_json(out_dir / "certificate.json", cert)
    if isinstance(cfg.cover_source, tuple):
        write_cover_json(out_dir / "cover.json", cover)

    report_payload = {
        "L": cfg.L,
        "weighted": cfg.weighted,
        "policy": asdict(cfg.policy),
        "implied_alpha": cfg.policy.implied_alpha,
        "atom_count": frame.lams.size,
        "regions": _region_rows(frame, cover),
        "A": cert.A,
        "B": cert.B,
        "condition": cert.condition,
        "is_frame": cert.is_frame,
        "frequency_period": frame.frequency_period,
        "rank_rtol": RANK_RTOL,
        **extras,
        "timings": None,
    }
    if timings:
        report_payload["timings"] = {
            "setup_s": t1 - t0,
            "build_s": t2 - t1,
            "certificate_s": t3 - t2,
            "total_s": time.perf_counter() - t0,
        }
    write_json(out_dir / "report.json", report_payload)
    return 0 if cert.is_frame else 1


def _load_or_build_frame(cfg: RunConfig, out_dir: Path) -> EigenFrame:
    """The frame stored in ``out_dir`` if it was built from this config's inputs, else a new one."""
    manifest = out_dir / "frame.json"
    atoms = out_dir / "frame_atoms.tfat"
    stored = read_frame(manifest, atoms) if manifest.exists() and atoms.exists() else None
    phi, cover, system = _inputs(cfg, out_dir)
    if stored is not None and stored.source == _frame_source(cfg, cover, phi):
        return stored
    return _build_frame(cfg, cover, phi, system)[0]


def cmd_reconstruct(cfg: RunConfig, signal_path, out_dir: Path) -> int:
    f = _read_signal(cfg, signal_path)
    _, rel_error = reconstruct(_load_or_build_frame(cfg, out_dir), f)
    ok = rel_error <= cfg.reconstruct_tol
    write_json(
        out_dir / "reconstruction.json",
        {"rel_error": rel_error, "tol": cfg.reconstruct_tol, "ok": ok},
    )
    print(f"rel_error = {rel_error!r}")
    return 0 if ok else 1


def cmd_diagnose(cfg: RunConfig, out_dir: Path) -> int:
    phi, cover, system = _inputs(cfg, out_dir)
    if system is None:
        classes = region_classes(cover, phi)
    else:
        from .gabor import multiplier_classes

        classes = multiplier_classes(cover, system)
    eps = cfg.policy.epsilon if cfg.policy.mode == "epsilon" else 1.0 / cfg.policy.alpha
    (c_plain, C_plain), (c_sq, C_sq), [(c_th, C_th), *rows] = norm_equivalence_constants(
        classes, [eps, *SWEEP_EPSILONS], cover.frequency_period)

    # the constants scale with the square of the symbol values, and so does this tolerance
    a_tol = LOWER_BOUND_RTOL * C_plain
    for (prev, _), (nxt, _) in zip(rows, rows[1:]):
        if nxt > prev + a_tol:
            raise InternalError(
                f"thresholded lower constant increased along the sweep: {prev!r} -> {nxt!r}"
            )
    feasible = [e for e, (c, _) in zip(SWEEP_EPSILONS, rows) if c > a_tol]

    def pair(c: float, C: float) -> dict:  # a constant within a_tol of 0 is rounding noise, written as 0.0
        return {"c": c if abs(c) > a_tol else 0.0, "C": C if abs(C) > a_tol else 0.0}

    payload = {
        "plain": pair(c_plain, C_plain),
        "squared": pair(c_sq, C_sq),
        "thresholded": {"epsilon": eps, **pair(c_th, C_th)},
        "epsilon_sweep": [{"epsilon": e, **pair(c, C)} for e, (c, C) in zip(SWEEP_EPSILONS, rows)],
        "largest_epsilon_with_positive_c": max(feasible) if feasible else None,
        "atol": a_tol,
    }
    write_json(out_dir / "diagnostics.json", payload)
    return 0


def _error_payload(exc: TflocError | OSError) -> dict:
    if isinstance(exc, TflocError):
        return {"code": exc.code, "message": str(exc), "context": exc.context}
    ctx = {"path": exc.filename} if exc.filename else {}
    return {"code": "io-error", "message": str(exc), "context": ctx}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfloc",
        description="Construct and certify eigenfunction frames adapted to "
        "covers of the finite time-frequency plane.",
    )
    parser.add_argument("--version", action="version", version=f"tfloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, signal=False):
        p.add_argument("--config", required=True, help="run configuration JSON")
        if signal:
            p.add_argument("--signal", required=True, help="signal CSV (t,re,im)")
        p.add_argument("--out", default=None, help="output directory")

    common(sub.add_parser("spectrogram", help="export |STFT|^2 as CSV and PGM"), signal=True)
    p_frame = sub.add_parser("frame", help="build a frame, certificate and report")
    common(p_frame)
    p_frame.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in report.json"
    )
    common(sub.add_parser("reconstruct", help="dual-frame reconstruction error"), signal=True)
    common(sub.add_parser("diagnose", help="norm-equivalence constants and epsilon sweep"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir: Path | None = Path(args.out) if args.out else None
    try:
        cfg = load_config(args.config)
        if out_dir is None:
            out_dir = cfg.output_dir or Path.cwd()
        out_dir.mkdir(parents=True, exist_ok=True)
        # an error.json left by an earlier failed run would sit beside this run's outputs
        (out_dir / "error.json").unlink(missing_ok=True)
        if args.command == "spectrogram":
            return cmd_spectrogram(cfg, args.signal, out_dir)
        if args.command == "frame":
            return cmd_frame(cfg, out_dir, timings=args.timings)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.signal, out_dir)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, out_dir)
        raise InternalError(f"unhandled command {args.command!r}")
    except (TflocError, OSError) as exc:
        payload = _error_payload(exc)
        if out_dir is not None:
            # an --out that names a file, or a path under one, gets no error.json
            with contextlib.suppress(OSError):
                out_dir.mkdir(parents=True, exist_ok=True)
                write_json(out_dir / "error.json", payload)
        print(f"error [{payload['code']}]: {payload['message']}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Process entry of ``python -m tfloc.cli`` and the ``tfloc`` script: ``main``, then exit.

    Every output file is written and closed when ``main`` returns.  Freezing
    the collector then moves every live object out of its reach, so the
    interpreter's shutdown collections do not walk the objects that numpy and
    tfloc made at import; the OS reclaims that memory with the process.
    ``main`` and importing tfloc leave the collector alone, since a long-lived
    process that calls them would keep cyclic garbage alive under a freeze.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
