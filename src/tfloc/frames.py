"""Eigenfunction frames adapted to a cover.

For each region, the top eigenvectors of its localization operator are
selected (by an eigenvalue threshold or by a count proportional to the
region's trace measure) and collected, weighted by their eigenvalues or left
unweighted.  The frame operator S = sum w^2 |v><v| certifies the frame bounds
A = lambda_min(S), B = lambda_max(S), and the canonical dual atoms S^{-1} g_i
reconstruct f = sum_i <f, g_i> S^{-1} g_i.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import Signal, Window, read_json, write_json
from .covers import _INT64_MAX, Cover, sum_symbols, validate_cover
from .errors import (
    EmptyFrameError,
    InvalidArgumentError,
    NotAFrameError,
    PreconditionViolation,
)
from .locop import ClassSpectrum, Spectrum, class_spectra

_DEGENERATE_TOL = 1e-14
_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SelectionPolicy:
    """How many eigenfunctions to keep per region.

    ``alpha`` mode keeps ceil(alpha * measure) where ``measure`` is the trace
    of the region operator (the grid analogue of the region's area); the
    implied threshold is epsilon = 1/alpha.  ``epsilon`` mode keeps the
    eigenvalues strictly above ``epsilon``.  Both are capped at ``n_max`` and
    at the numerical rank (``Spectrum.numerical_rank``), so no eigenvector of
    a numerically zero eigenvalue is selected; epsilon = 0 keeps the rank.
    """

    mode: str
    alpha: float | None = None
    epsilon: float | None = None
    n_max: int = 1_000_000

    def __post_init__(self):
        if self.mode not in ("alpha", "epsilon"):
            raise InvalidArgumentError(f"unknown selection mode {self.mode!r}")
        if self.n_max < 1:
            raise InvalidArgumentError(f"n_max must be >= 1, got {self.n_max}")
        if self.mode == "alpha":
            if self.alpha is None or self.alpha <= 0 or self.epsilon is not None:
                raise InvalidArgumentError("alpha mode requires alpha > 0 and no epsilon")
        else:
            if self.epsilon is None or self.epsilon < 0 or self.alpha is not None:
                raise InvalidArgumentError("epsilon mode requires epsilon >= 0 and no alpha")

    @property
    def implied_alpha(self) -> float:
        if self.mode == "alpha":
            return self.alpha
        return math.inf if self.epsilon == 0.0 else 1.0 / self.epsilon


def select_eigenfunctions(spec: Spectrum, measure: float, policy: SelectionPolicy) -> int:
    """N_gamma for one region's spectrum and trace measure."""
    if policy.mode == "alpha":
        n = math.ceil(policy.alpha * measure)
    else:
        n = int(np.sum(spec.eigenvalues > policy.epsilon))
    return max(min(n, policy.n_max, spec.numerical_rank()), 0)


@dataclass(frozen=True)
class EigenFrame:
    """The atoms v_i as columns, in region order, with one array entry per atom.

    ``vectors`` holds the unit vectors v_i as the columns of its L x n_j
    blocks, kept as they were built (one block per region, or one block for
    a stored frame).  ``weights`` holds w_i, ``gammas`` the region index,
    ``ks`` the 1-based eigenvalue index within the region and ``lams`` the
    eigenvalue.
    """

    L: int
    vectors: tuple[np.ndarray, ...]
    weights: np.ndarray
    gammas: np.ndarray
    ks: np.ndarray
    lams: np.ndarray
    weighted: bool
    source: str | None = None  # fingerprint of the inputs the frame was built from

    def __post_init__(self):
        if not self.lams.size:
            raise EmptyFrameError("frame has no atoms")

    def atom_matrix(self) -> np.ndarray:
        """The C-contiguous L x n matrix whose columns are the weighted atoms w_i v_i."""
        G = np.empty((self.L, self.lams.size), dtype=np.complex128)
        np.concatenate(self.vectors, axis=1, out=G)
        G *= self.weights
        return G


@dataclass(frozen=True)
class FrameCertificate:
    A: float
    B: float
    condition: float
    frame_operator: np.ndarray
    is_frame: bool
    a_tol: float
    # [frame, G*, S^{-1} G] of the last frame reconstructed with this certificate
    _dual: list = field(default_factory=list, init=False, repr=False, compare=False)

    def dual_frame(self, frame: EigenFrame) -> tuple[np.ndarray, np.ndarray]:
        """(G*, S^{-1} G) of ``frame``: its analysis operator and its canonical dual atoms.

        G is the L x n matrix of the weighted atoms.  One solve of S against G,
        on first use, and the pair is kept with ``frame``, so a later call with
        another frame solves again and never reuses this one.
        ``frame_certificate`` alone never solves.
        """
        if not self._dual or self._dual[0] is not frame:
            G = frame.atom_matrix()
            dual = np.linalg.solve(self.frame_operator, G)
            analysis = G.conj().T
            analysis.flags.writeable = dual.flags.writeable = False
            self._dual[:] = [frame, analysis, dual]
        return self._dual[1], self._dual[2]


def region_classes(cover: Cover, phi: Window) -> Iterator[ClassSpectrum]:
    """The grid stream: the region operators' spectra, one per shape class (``class_spectra``).

    The cover must cover the grid; that is checked here, before the first
    operator is built.
    """
    _, sum_min, _ = sum_symbols(cover)
    if sum_min <= 0.0:
        raise PreconditionViolation(
            f"cover does not cover the grid (min symbol sum {sum_min!r})"
        )
    return class_spectra(cover.regions, phi)


def eigenframe_from_classes(L: int, classes: Iterable[ClassSpectrum], policy: SelectionPolicy,
                            weighted: bool) -> EigenFrame:
    """Frame of the selected eigenpairs of each region; its class trace is the measure.

    ``classes`` is a shape-class stream (``class_spectra``), consumed in a
    single pass.  The count is selected once per class; each member region
    gets the selected columns translated to it (``Spectrum.translated``), and
    the class spectrum is dropped before the next class is solved.  Each
    region's block of columns is kept as ``translated`` returns it, in region
    order: copying the blocks into one matrix here would leave the freed
    blocks resident and raise the peak memory of a build.
    """
    by_region: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for spec, trace, members in classes:
        n = select_eigenfunctions(spec, trace, policy)
        if spec.eigenvalues[0] <= _DEGENERATE_TOL:
            for gamma, _ in members:
                warnings.warn(
                    f"region {gamma} has a numerically zero operator; contributing no atoms",
                    stacklevel=3,
                )
            n = 0
        lams = spec.eigenvalues[:n].copy()
        for gamma, z in members:
            by_region[gamma] = (spec.translated(z, n), lams)
        del spec
    gammas = sorted(by_region)
    counts = [by_region[gamma][1].size for gamma in gammas]
    if not sum(counts):
        raise EmptyFrameError("selection produced no atoms")
    lams = np.concatenate([by_region[gamma][1] for gamma in gammas])
    return EigenFrame(
        L,
        tuple(by_region[gamma][0] for gamma in gammas),
        lams if weighted else np.ones_like(lams),
        np.repeat(gammas, counts),
        np.concatenate([np.arange(1, c + 1) for c in counts]),
        lams,
        weighted,
    )


def assemble_frame(
    cover: Cover,
    phi: Window,
    policy: SelectionPolicy,
    weighted: bool = True,
) -> EigenFrame:
    """Build the eigenfunction frame of a cover.

    Requires the cover to actually cover the grid; the unweighted variant
    additionally requires inner regularity (each center's radius-1 wrapped
    ball inside its region's support), which is what keeps the selected
    eigenvalues bounded away from zero.
    """
    classes = region_classes(cover, phi)
    if not weighted:
        report = validate_cover(cover, R=cover.L // 2, r=1)
        if not report.inner_radius_ok:
            raise PreconditionViolation(
                "unweighted frames need inner regularity: every center's "
                "radius-1 ball must lie inside its region's support "
                f"(measured min inner radius {report.min_inner_radius})"
            )
    return eigenframe_from_classes(cover.L, classes, policy, weighted)


def frame_operator(frame: EigenFrame) -> np.ndarray:
    G = frame.atom_matrix()
    return G @ G.conj().T


def frame_certificate(frame: EigenFrame) -> FrameCertificate:
    """Frame bounds as the extreme eigenvalues of S = sum w^2 |v><v|; a frame iff A > 1e-9 B."""
    S = frame_operator(frame)
    ev = np.linalg.eigvalsh(S)
    A, B = float(ev[0]), float(ev[-1])
    a_tol = 1e-9 * B
    condition = B / A if A > 0.0 else math.inf
    return FrameCertificate(A, B, condition, S, A > a_tol, a_tol)


def reconstruct(
    frame: EigenFrame, f: Signal, certificate: FrameCertificate | None = None
) -> tuple[Signal, float]:
    """Canonical dual reconstruction f_rec = sum_i <f, g_i> S^{-1} g_i, g_i = w_i v_i.

    Each call computes the analysis coefficients c = G* f and synthesizes
    f_rec = (S^{-1} G) c from the dual atoms, two O(L n) products; the dual
    atoms are solved once per (frame, certificate) pair
    (``FrameCertificate.dual_frame``).  Returns (f_rec, relative error); the
    zero signal reconstructs to zero with error 0 by convention.
    """
    cert = certificate if certificate is not None else frame_certificate(frame)
    if not cert.is_frame:
        raise NotAFrameError(
            f"lower frame bound {cert.A!r} is below tolerance {cert.a_tol!r}"
        )
    if f.length != frame.L:
        raise InvalidArgumentError(f"signal length {f.length} != frame length {frame.L}")
    if f.norm == 0.0:
        return Signal(np.zeros(frame.L, dtype=np.complex128)), 0.0
    analysis, dual = cert.dual_frame(frame)
    f_rec = dual @ (analysis @ f.samples)
    rel = float(np.linalg.norm(f_rec - f.samples) / f.norm)
    return Signal(f_rec), rel


# ---------------------------------------------------------------------------
# Norm-equivalence diagnostics: extreme eigenvalues of G = sum_gamma K'K with
# K per region being H (plain), H^2 (squared), or the thresholded H^eps
# (thresholded); the equivalence constants are their square roots.
# ---------------------------------------------------------------------------

_GRAM_POWER = {"plain": 2.0, "squared": 4.0, "thresholded": 2.0}


def norm_equivalence(
    classes: Iterable[ClassSpectrum], terms: list[tuple[str, float | None]]
) -> list[tuple[float, float]]:
    """(c, C) for each (variant, epsilon) term, from one pass over a shape-class stream.

    A term's Gram sum is sum_gamma Q diag(lam^power) Q* over each region's
    eigenpairs (lam, Q) with lam > epsilon (0 for plain and squared): power 2
    for the plain (K = H) and thresholded variants, 4 for squared (K = H^2).
    Only the first ``numerical_rank()`` eigenpairs, all positive, enter: the
    dropped terms have lam^2 <= RANK_RTOL^2 lam_1^2.  Equal sums are kept
    once.  A member region's Q is its class spectrum translated to it, and
    each class spectrum is dropped once all its members are added.
    """
    keys = []
    for variant, eps in terms:
        if variant not in _GRAM_POWER:
            raise InvalidArgumentError(f"unknown variant {variant!r}")
        if variant == "thresholded" and (eps is None or eps < 0.0):
            raise InvalidArgumentError("thresholded variant requires epsilon >= 0")
        keys.append((_GRAM_POWER[variant], eps if variant == "thresholded" else 0.0))
    grams = dict.fromkeys(keys, 0.0)
    for spec, _, members in classes:
        r = spec.numerical_rank()
        lam = spec.eigenvalues[:r]
        for _, z in members:
            Q = spec.translated(z, r)
            for power, eps in list(grams):
                keep = lam > eps
                grams[power, eps] += (Q[:, keep] * lam[keep] ** power) @ Q[:, keep].conj().T
        del spec, Q
    extremes = {key: np.linalg.eigvalsh(G)[[0, -1]] for key, G in grams.items()}
    return [(float(extremes[k][0]), float(extremes[k][1])) for k in keys]


def norm_equivalence_constants(
    cover: Cover,
    phi: Window,
    variant: str = "plain",
    epsilon: float | None = None,
) -> tuple[float, float]:
    """(c, C) of one variant: the plain, squared or thresholded operator sum."""
    return norm_equivalence(region_classes(cover, phi), [(variant, epsilon)])[0]


def epsilon_sweep(cover: Cover, phi: Window, epsilons) -> list[tuple[float, float, float]]:
    """(epsilon, c, C) rows of the thresholded constants; one eigensolve per shape class."""
    eps = [float(e) for e in epsilons]
    rows = norm_equivalence(region_classes(cover, phi), [("thresholded", e) for e in eps])
    return [(e, c, C) for e, (c, C) in zip(eps, rows)]


# ---------------------------------------------------------------------------
# Frame files: JSON manifest + binary atom sidecar (magic b"TFAT", then
# consecutive length-L complex f64 records at the byte offsets recorded in
# the manifest).  Certificate JSON uses the fixed key set below.
# ---------------------------------------------------------------------------

def write_frame(manifest_path, atoms_path, frame: EigenFrame) -> None:
    with open(atoms_path, "wb") as fh:
        fh.write(b"TFAT")
        for V in frame.vectors:
            fh.write(np.ascontiguousarray(V.T, dtype="<c16").tobytes())
    record_len = frame.L * 16
    columns = zip(frame.gammas.tolist(), frame.ks.tolist(), frame.lams.tolist(), frame.weights.tolist())
    manifest = {"L": frame.L, "weighted": frame.weighted}
    if frame.source is not None:
        manifest["source"] = frame.source
    manifest["atoms"] = [
        {"gamma": gamma, "k": k, "lambda": lam, "weight": w, "offset": 4 + i * record_len}
        for i, (gamma, k, lam, w) in enumerate(columns)
    ]
    write_json(manifest_path, manifest)


def _manifest_columns(entries) -> list[np.ndarray]:
    """The offset, weight, gamma, k and lambda columns of the manifest's atom entries.

    ValueError if an entry is malformed: the integers must be JSON integers
    in the 64-bit range (offset, gamma >= 0, k >= 1), the weight a finite
    number >= 0 and lambda a finite number; a JSON boolean is neither.
    """
    cols = {key: [e[key] for e in entries] for key in ("offset", "weight", "gamma", "k", "lambda")}
    for key, low in (("offset", 0), ("gamma", 0), ("k", 1)):
        bad = [v for v in cols[key] if type(v) is not int or not low <= v <= _INT64_MAX]
        if bad:
            raise ValueError(f"{key} must be an integer in [{low}, {_INT64_MAX}], not {bad[0]!r}")
    for key in ("weight", "lambda"):
        # NaN fails the comparison, and so does an int past the float range
        bad = [v for v in cols[key] if type(v) not in (int, float) or not abs(v) <= sys.float_info.max]
        if bad:
            raise ValueError(f"{key} must be a finite number, not {bad[0]!r}")
    bad = [v for v in cols["weight"] if v < 0]
    if bad:
        raise ValueError(f"weight must be >= 0, not {bad[0]!r}")
    return [np.array(v, dtype=np.float64 if key in ("weight", "lambda") else np.int64)
            for key, v in cols.items()]


def read_frame(manifest_path, atoms_path) -> EigenFrame:
    manifest = read_json(manifest_path, "frame manifest")
    try:
        L, weighted, source = manifest["L"], manifest["weighted"], manifest.get("source")
        if isinstance(L, bool) or not isinstance(L, int) or L < 1:
            raise ValueError(f"L must be a positive integer, not {L!r}")
        if not isinstance(weighted, bool):
            raise ValueError(f"weighted must be true or false, not {weighted!r}")
        if source is not None and not isinstance(source, str):
            raise ValueError(f"source must be a string, not {source!r}")
        offsets, weights, gammas, ks, lams = _manifest_columns(manifest["atoms"])
        if not offsets.size:
            raise ValueError("the manifest lists no atoms")
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(
            f"malformed frame manifest ({type(exc).__name__}: {exc})", path=str(manifest_path)
        ) from None
    with open(atoms_path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"TFAT":
        raise InvalidArgumentError(f"bad atoms magic {blob[:4]!r}", path=str(atoms_path))
    record_len = 16 * L
    # as Python ints: record_len can be past the 64-bit range
    for off in offsets.tolist():
        if off < 4 or off + record_len > len(blob):
            raise InvalidArgumentError(
                f"atom record at offset {off} overruns the atoms file", path=str(atoms_path)
            )
    # every record in one gather: row i holds the record_len bytes at offsets[i]
    records = np.lib.stride_tricks.sliding_window_view(np.frombuffer(blob, np.uint8), record_len)
    data = records[offsets].view("<f8").reshape(-1, L, 2)
    # a NaN or infinite entry fails this too, and so does one whose square overflows
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(data.reshape(-1, 2 * L), axis=1)
    bad = ~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL)
    if bad.any():
        raise InvalidArgumentError(
            f"atom record at offset {offsets[int(np.argmax(bad))]} is not a finite unit vector",
            path=str(atoms_path),
        )
    vectors = data[:, :, 0] + 1j * data[:, :, 1]
    return EigenFrame(L, (vectors.T,), weights, gammas, ks, lams, weighted, source)


def write_certificate_json(path, cert: FrameCertificate) -> None:
    payload = {
        "A": cert.A,
        "B": cert.B,
        "condition": cert.condition,
        "is_frame": cert.is_frame,
        "atol": cert.a_tol,
    }
    write_json(path, payload)
