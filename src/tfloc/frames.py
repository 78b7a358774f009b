"""Eigenfunction frames adapted to a cover.

For each region, the top eigenvectors of its localization operator are selected
(by an eigenvalue threshold or by a count proportional to the region's trace
measure) and collected as the rows of one atom array, the layout of the frame
file's records, weighted by their eigenvalues or left unweighted.  A frame stores
those eigenpairs and their regions; each weight and each index within a region
follow from them.  The frame operator S = sum w^2 |v><v| certifies the bounds
A = lambda_min(S), B = lambda_max(S), and the canonical dual frame reconstructs
f = sum_i <f, g_i> S^{-1} g_i = S^{-1} S f, g_i = w_i v_i (``reconstruct``).

The atoms of a region are its class's selected eigenvectors translated by
the region's shift z, so S = sum_z pi(z) K pi(z)* class by class.  When every
class's shifts are invariant under (0, p) (``Cover.frequency_period``), S
commutes with the modulation pi(0, p) and vanishes unless t = t' mod L/p: it
is L/p Walnut blocks of order p (Walnut 1992; Groechenig, Foundations of
Time-Frequency Analysis, 6.3), block r acting on the samples r + j L/p,
j < p (``core._residue_rows``).  The certificate, S^{-1} in reconstruction
and the ``norm_equivalence_constants`` sums all work on those blocks; p = L
is one block, the dense operator.  A stored frame keeps its p
(``write_frame``), and every frame, built, read or replaced, checks it as
that commutation, S pi(0, p) = pi(0, p) S (``EigenFrame``).
"""

from __future__ import annotations

import json
import math
import operator
import sys
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import TYPE_CHECKING

import numpy as np

from .core import (_INT64_MAX, Signal, _from_residue_rows, _gram_blocks, _json_array, _residue_rows, read_json,
                   write_json)
from .errors import EmptyFrameError, InvalidArgumentError, NotAFrameError, NumericError, PreconditionViolation

if TYPE_CHECKING:  # a stored frame is read, certified and reconstructed without these modules
    from .core import Window
    from .covers import Cover, ShapeClass
    from .locop import ClassSpectrum, Spectrum

_UNIT_NORM_TOL = 1e-9
LOWER_BOUND_RTOL = 1e-9  # a lower frame bound or constant is positive above this share of the upper
# atoms are translated and weighted at most this many entries at a time, which keeps the
# temporaries small; every bench input's and configs/* frame is one certificate batch
_BATCH_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SelectionPolicy:
    """How many eigenfunctions to keep per region.

    ``alpha`` mode keeps ceil(alpha * measure) where ``measure`` is
    ||eta||_1 / L, the trace of the region operator for a unit window (the
    grid analogue of the region's area); the implied threshold is
    epsilon = 1/alpha, which must be finite.  ``epsilon`` mode keeps the
    eigenvalues strictly above ``epsilon``.  Both are capped at ``n_max`` and
    at the size of the spectrum, which holds no numerically zero eigenvalue
    (``Spectrum``); epsilon = 0 keeps them all.
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
        # NaN fails the comparisons, and so does an int past the float range
        if self.mode == "alpha":
            if self.alpha is None or not 0 < self.alpha <= sys.float_info.max or self.epsilon is not None:
                raise InvalidArgumentError("alpha mode requires a finite alpha > 0 and no epsilon")
            if not math.isfinite(1.0 / self.alpha):
                raise InvalidArgumentError(f"alpha {self.alpha!r} is so small that 1/alpha overflows")
        else:
            if self.epsilon is None or not 0 <= self.epsilon < math.inf or self.alpha is not None:
                raise InvalidArgumentError("epsilon mode requires a finite epsilon >= 0 and no alpha")

    @property
    def implied_alpha(self) -> float | None:
        """alpha, or 1/epsilon; None where that is infinite (epsilon = 0, or subnormal)."""
        alpha = self.alpha if self.mode == "alpha" else (1.0 / self.epsilon if self.epsilon else math.inf)
        return alpha if alpha < math.inf else None


def select_eigenfunctions(spec: Spectrum, measure: float, policy: SelectionPolicy) -> int:
    """N_gamma for one region's spectrum and trace measure."""
    if policy.mode == "alpha":
        # capped before the ceiling, which an overflowing product would fail
        n = math.ceil(min(policy.alpha * measure, policy.n_max))
    else:
        n = int(np.sum(spec.eigenvalues > policy.epsilon))
    return min(n, policy.n_max, spec.eigenvalues.size)


def _apply_S(atoms: np.ndarray, w2: np.ndarray, X: np.ndarray) -> np.ndarray:
    """S X = sum_i w2_i <X, v_i> v_i for an L x k ``X``, in two products over the atom rows, which copy no atom."""
    return atoms.T @ (w2[:, None] * np.conj(atoms @ np.conj(X)))


def _ranks(gammas: np.ndarray) -> np.ndarray:
    """Each atom's k: its 1-based rank among the atoms of its region gamma, in atom order."""
    order = np.argsort(gammas, kind="stable")
    ranks, grouped = np.empty_like(gammas), gammas[order]
    ranks[order] = np.arange(1, gammas.size + 1) - np.searchsorted(grouped, grouped)
    return ranks


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """The atoms v_i as rows, in region order, with one array entry per atom.

    ``atoms`` is the one C-contiguous n x L complex array whose row i is the unit vector
    v_i, the layout of the atoms file's records, however the frame was made, ``lams`` the
    eigenvalue and ``gammas`` the region; L, the weight w_i (lambda_i if ``weighted``, else
    1) and k_i, the 1-based index of lambda_i in its region (``_ranks``), follow from them.
    ``frequency_period`` is the p of the cover the frame was built from (``Cover.frequency_period``),
    which sets the Walnut blocks of its frame operator; a stored frame keeps it (``write_frame``).
    A p < L is checked on construction: the atoms must have it.  A frame has at least one atom.
    """

    atoms: np.ndarray
    lams: np.ndarray
    gammas: np.ndarray
    weighted: bool
    frequency_period: int
    source: str | None = None  # a stored frame's fingerprint of the inputs it was built from

    def __post_init__(self):
        n, shape = self.lams.size, self.atoms.shape
        if not n:
            raise EmptyFrameError("frame has no atoms")
        if self.atoms.dtype != np.complex128 or len(shape) != 2 or shape[0] != n or shape[1] < 1:
            raise InvalidArgumentError(f"atoms must be a complex {n} x L array, L >= 1, "
                                       f"not {self.atoms.dtype} of shape {shape}")
        if self.lams.shape != (n,) or self.gammas.shape != (n,):
            raise InvalidArgumentError(f"lams and gammas must hold one entry per atom ({n}), "
                                       f"not shapes {self.lams.shape} and {self.gammas.shape}")
        p, L = self.frequency_period, self.L
        if p < 1 or L % p:
            raise InvalidArgumentError(f"frequency period {p} must divide L={L}")
        if p < L:
            # S keeps to its Walnut blocks iff S M u = M S u, M = pi(0, p), u a fixed probe; NaN weights pass here
            t = np.arange(L, dtype=np.float64)
            u, M = np.exp(1j * t**2), np.exp(2j * np.pi * p * t / L)
            SU = _apply_S(self.atoms, (self.weights / (self.weights.max() or 1.0)) ** 2, np.column_stack([u, M * u]))
            if np.linalg.norm(SU[:, 1] - M * SU[:, 0]) > 1e-10 * np.linalg.norm(SU[:, 0]):
                raise InvalidArgumentError(f"the atoms lack frequency period {p}")

    @property
    def L(self) -> int:
        return self.atoms.shape[1]

    @cached_property
    def weights(self) -> np.ndarray:
        return self.lams if self.weighted else np.ones_like(self.lams)

    @cached_property
    def ks(self) -> np.ndarray:
        return _ranks(self.gammas)


@dataclass(frozen=True, eq=False)
class FrameCertificate:
    """The frame bounds of ``frame``, the frame object it certified (``frame_certificate``), and its S as
    (L/p, p, p) Walnut blocks, blocks[r, j, k] = S[r + j L/p, r + k L/p]; the rest follows from A and B,
    but ``inverse``: a stream's G and inverted blocks, which one signal's ``reconstruct`` does without."""

    A: float
    B: float
    blocks: np.ndarray
    frame: EigenFrame = field(repr=False)

    @property
    def a_tol(self) -> float:
        return LOWER_BOUND_RTOL * self.B

    @property
    def is_frame(self) -> bool:
        return self.A > self.a_tol

    @property
    def condition(self) -> float | None:  # None where B / A is not finite
        return self.B / self.A if self.A > 0.0 and self.B / self.A < math.inf else None

    @cached_property
    def inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, S^{-1}): the weighted atoms w_i v_i as the columns of a C-contiguous L x n G, and
        S's inverted Walnut blocks, read-only."""
        G, inverse = np.multiply(self.frame.atoms.T, self.frame.weights, order="C"), np.linalg.inv(self.blocks)
        G.flags.writeable = inverse.flags.writeable = False
        return G, inverse


def region_classes(cover: Cover, phi: Window) -> Iterator[ClassSpectrum]:
    """The grid stream: the region operators' spectra, one per shape class (``class_spectra``).

    The cover must cover the grid; that is checked here, before the first
    operator is built.
    """
    sum_min = cover.coverage[1]
    if sum_min <= 0.0:
        raise PreconditionViolation(f"cover does not cover the grid (min symbol sum {sum_min!r})")
    from .locop import class_spectra

    return class_spectra(cover.classes, phi)


def _member_batches(spec: Spectrum, cls: ShapeClass) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(members, vectors): ``spec`` translated to each batch of the class's members, (m, L, r) with
    at most min(_BATCH_ENTRIES, L^2) / 2 entries, so that with its conjugate it is one L x L at most."""
    L, r = spec.eigenvectors.shape
    step = max(1, min(_BATCH_ENTRIES, L * L) // max(2 * L * r, 1))
    for lo in range(0, cls.members.size, step):
        yield cls.members[lo:lo + step], spec.translated(cls.shifts[lo:lo + step])


def eigenframe_from_classes(L: int, classes: Iterable[ClassSpectrum], policy: SelectionPolicy,
                            weighted: bool, frequency_period: int) -> EigenFrame:
    """Frame of the selected eigenpairs of each region, counted with its class measure ||eta||_1 / L.

    ``classes`` is a shape-class stream (``class_spectra``), consumed in a
    single pass.  The count is selected once per class, and only the selected
    eigenpairs, their eigenvectors copied, outlive the class spectrum; an
    empty spectrum, a numerically zero operator, gives a warning and no atoms.
    Then the atoms array is allocated once, and each class's selected vectors
    are translated to its members in a few gathers (``_member_batches``)
    and written to their rows.  The frame records ``frequency_period``, the cover's.
    """
    from .locop import Spectrum

    selected = []  # each class's selected eigenpairs
    for spec, measure, cls in classes:
        if not spec.eigenvalues.size:
            for gamma in cls.members.tolist():
                warnings.warn(f"region {gamma} has a numerically zero operator; contributing no atoms",
                              stacklevel=3)
        n = select_eigenfunctions(spec, measure, policy)
        selected.append((Spectrum(spec.eigenvalues[:n], spec.eigenvectors[:, :n].copy()), cls))
        del spec
    sizes = np.empty(sum(cls.members.size for _, cls in selected), dtype=np.int64)  # each region's atom count
    for kept, cls in selected:  # the classes partition the regions, so each count is set once
        sizes[cls.members] = kept.eigenvalues.size
    start = np.cumsum(sizes) - sizes  # each region's first atom
    atoms, lams = np.empty((int(sizes.sum()), L), dtype=np.complex128), np.empty(int(sizes.sum()))
    for kept, cls in selected:
        for members, vectors in _member_batches(kept, cls):
            rows = start[members][:, None] + np.arange(kept.eigenvalues.size)
            atoms[rows] = vectors.transpose(0, 2, 1)
            lams[rows] = kept.eigenvalues
    return EigenFrame(atoms, lams, np.repeat(np.arange(sizes.size), sizes), weighted, frequency_period)


def assemble_frame(cover: Cover, phi: Window, policy: SelectionPolicy, weighted: bool = True) -> EigenFrame:
    """Build the eigenfunction frame of a cover.

    Requires the cover to actually cover the grid; the unweighted variant
    additionally requires inner regularity (each center's radius-1 wrapped
    ball inside its region's support, ``Cover.radii``), which is what keeps
    the selected eigenvalues bounded away from zero.
    """
    classes = region_classes(cover, phi)
    inner = int(cover.radii[:, 1].min())
    if not weighted and inner < 1:
        raise PreconditionViolation("unweighted frames need inner regularity: every center's radius-1 ball "
                                    f"must lie inside its region's support (measured min inner radius {inner})")
    return eigenframe_from_classes(cover.L, classes, policy, weighted, cover.frequency_period)


def _block_extremes(blocks: np.ndarray, overflow: str) -> tuple[float, float]:
    """(min, max) eigenvalue of stacked Hermitian blocks; NumericError(overflow) on a non-finite entry."""
    if not np.isfinite(blocks).all():
        raise NumericError(overflow)
    ev = np.linalg.eigvalsh(blocks)
    return float(ev[:, 0].min()), float(ev[:, -1].max())


def frame_certificate(frame: EigenFrame) -> FrameCertificate:
    """Frame bounds as the extreme eigenvalues of S = sum w^2 |v><v|; a frame iff A > LOWER_BOUND_RTOL B.

    S is formed as its Walnut blocks of order p = ``frame.frequency_period``,
    summed over batches of at most _BATCH_ENTRIES weighted atoms w_i v_i, so
    only one batch is copied at a time; A and B are the extremes of the blocks' eigenvalues.
    """
    p, step = frame.frequency_period, max(1, _BATCH_ENTRIES // frame.L)
    batches = (np.multiply(frame.atoms[lo:lo + step].T, frame.weights[lo:lo + step], order="C")
               for lo in range(0, frame.lams.size, step))  # each the L x m columns w_i v_i
    S = reduce(operator.iadd, (_gram_blocks(G, p) for G in batches))  # summed in place
    A, B = _block_extremes(S, "frame operator has non-finite entries; the atom weights overflow it")
    return FrameCertificate(A, B, S, frame)


def reconstruct(frame: EigenFrame, f: Signal, certificate: FrameCertificate | None = None) -> tuple[Signal, float]:
    """Canonical dual reconstruction f_rec = sum_i <f, g_i> S^{-1} g_i, g_i = w_i v_i.

    A certificate must be of this frame object (``FrameCertificate.frame``);
    another frame's, even one with the same atoms, is an InvalidArgumentError.
    Each call forms y = S f, then S^{-1} y in S's Walnut blocks.  Without a certificate, the
    frame is certified here, y is formed over the atom rows as the period check forms S u
    (``EigenFrame``) and the blocks are solved against y alone: no copy of the atoms, and no
    O(L p^2) inverse.  A stream passes a certificate, whose ``inverse`` keeps G, the weighted atoms
    as columns, and the inverted blocks: y = G conj(G^T conj(f)), faster per signal.  Returns
    (f_rec, relative error).  The error is ||d|| / ||x|| for d = s (f_rec - f) and x = s f, s a
    power of two near 1 / peak sample, so that neither overflows nor underflows; the zero signal
    gives zero with error 0, and a reconstruction that overflows is a NumericError.  A finite error
    proves every sample of f_rec finite, so the returned Signal is not checked again.
    """
    cert = certificate if certificate is not None else frame_certificate(frame)
    if cert.frame is not frame:
        raise InvalidArgumentError("the certificate was made for another frame; certify this one")
    if not cert.is_frame:
        raise NotAFrameError(f"lower frame bound {cert.A!r} is below tolerance {cert.a_tol!r}")
    if f.length != frame.L:
        raise InvalidArgumentError(f"signal length {f.length} != frame length {frame.L}")
    peak = np.abs(f.samples).max()
    if peak == 0.0:
        return Signal(np.zeros(frame.L, dtype=np.complex128)), 0.0
    if certificate is None:
        y = _apply_S(frame.atoms, frame.weights**2, f.samples[:, None])
        f_rec = _from_residue_rows(np.linalg.solve(cert.blocks, _residue_rows(y, frame.frequency_period)))[:, 0]
    else:
        G, inverse = cert.inverse
        y = G @ np.conj(G.T @ np.conj(f.samples))
        f_rec = _from_residue_rows((inverse @ _residue_rows(y, inverse.shape[1])[:, :, None])[:, :, 0])
    # exact for every sample that stays normal, so an ordinary signal's error keeps its bits
    scale = math.ldexp(1.0, min(-math.frexp(peak)[1], 1023))
    d = f_rec - f.samples
    d *= scale
    x = scale * f.samples
    rel = math.sqrt(np.vdot(d, d).real / np.vdot(x, x).real)
    if not math.isfinite(rel):
        raise NumericError("the reconstruction overflows; the signal's samples are too large for this frame")
    rec = object.__new__(Signal)  # a finite error has every sample finite, so Signal's check is skipped
    rec.__dict__.update(samples=f_rec)
    return rec, rel


# ---------------------------------------------------------------------------
# Norm-equivalence diagnostics: extreme eigenvalues of G = sum_gamma K'K with
# K per region being H (plain), H^2 (squared), or the thresholded H^eps
# (thresholded); the equivalence constants are their square roots.
# ---------------------------------------------------------------------------

def norm_equivalence_constants(
    classes: Iterable[ClassSpectrum], epsilons: list[float], frequency_period: int
) -> tuple[tuple[float, float], tuple[float, float], list[tuple[float, float]]]:
    """(c, C) of the plain sum, the squared sum and the sum thresholded at each
    of ``epsilons``, from one pass over a shape-class stream.

    The sum thresholded at epsilon is sum_gamma Q diag(lam^2) Q* over each
    region's eigenpairs (lam, Q) with lam > epsilon; plain (K = H) is the one
    at epsilon = 0, and squared (K = H^2) sums Q diag(lam^4) Q* over them all.
    A spectrum holds only the eigenpairs above RANK_RTOL lam_1 (``Spectrum``),
    so the terms left out have lam^2 <= RANK_RTOL^2 lam_1^2.  The distinct
    thresholds and 0, sorted, cut the descending eigenvalues into disjoint
    bands (e_j, e_{j-1}]; a threshold's sum is the bands above it, cumulated
    from the top.  A batch of a class's members (``_member_batches``), weighted
    once into the columns lam_k v_k, adds one product to each band's sum and
    one to the squared sum.  Every sum has the form sum_z pi(z) K pi(z)*, so it is
    formed (``core._gram_blocks``) and eigensolved as Walnut blocks of order
    ``frequency_period``, the cover's, like the frame operator.
    """
    cuts = sorted({0.0, *epsilons}, reverse=True)
    sums = [0] * (len(cuts) + 1)  # the band sums, then the squared sum; each is blocks from its first add
    for spec, _, cls in classes:
        lam = spec.eigenvalues
        # band j is lam[ends[j]:ends[j + 1]], the eigenvalues in (cuts[j], cuts[j - 1]]
        ends = [0, *(int(np.sum(lam > eps)) for eps in cuts)]
        for _, vectors in _member_batches(spec, cls):
            # G[:, k] holds lam_k v_k of every member, so a band's columns are one slice of G
            G = np.multiply(vectors.transpose(1, 2, 0), lam[:, None], order="C")
            del vectors  # the batch is dropped before the products
            for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
                if hi > lo or not np.ndim(sums[i]):  # an empty band adds its zeros once, to be blocks
                    sums[i] += _gram_blocks(G[:, lo:hi].reshape(len(G), -1), frequency_period)
            G *= lam[:, None]
            sums[-1] += _gram_blocks(G.reshape(len(G), -1), frequency_period)
        del spec, G
    for j in range(1, len(cuts)):
        sums[j] += sums[j - 1]
    extremes = [_block_extremes(gram, "a Gram sum has non-finite entries; the symbol values overflow it")
                for gram in sums]
    thresholded = dict(zip(cuts, extremes))
    return thresholded[0.0], extremes[-1], [thresholded[eps] for eps in epsilons]


def epsilon_sweep(cover: Cover, phi: Window, epsilons) -> list[tuple[float, float, float]]:
    """(epsilon, c, C) rows of the thresholded constants; one eigensolve per shape class."""
    eps = [float(e) for e in epsilons]
    rows = norm_equivalence_constants(region_classes(cover, phi), eps, cover.frequency_period)[2]
    return [(e, c, C) for e, (c, C) in zip(eps, rows)]


# ---------------------------------------------------------------------------
# Frame files: JSON manifest + binary atom sidecar (magic b"TFAT", then the
# n consecutive length-L complex f64 records, record i at the byte offset
# 4 + 16 L i the manifest records).  Certificate JSON uses the fixed key set below.
# ---------------------------------------------------------------------------

# one manifest atom entry as json.dump(..., indent=1) writes it: integers as
# %d, floats as repr(float), which is how the json encoder writes them
_ATOM_JSON = '  {\n   "gamma": %d,\n   "k": %d,\n   "lambda": %r,\n   "weight": %r,\n   "offset": %d\n  }'


def write_frame(manifest_path, atoms_path, frame: EigenFrame, source: str | None = None) -> None:
    """The atoms file, ``frame.atoms`` written whole as its records, and the manifest in ``write_json``'s bytes,
    with the fingerprint of the frame's inputs, ``source`` or else a read frame's ``frame.source``, if any."""
    source = frame.source if source is None else source
    with open(atoms_path, "wb") as fh:
        fh.write(b"TFAT")
        fh.write(np.ascontiguousarray(frame.atoms, dtype="<c16").data)
    offsets = range(4, 4 + frame.lams.size * frame.L * 16, frame.L * 16)
    columns = zip(frame.gammas.tolist(), frame.ks.tolist(), frame.lams.tolist(), frame.weights.tolist(), offsets)
    head = f'{{\n "L": {frame.L},\n "weighted": {"true" if frame.weighted else "false"},\n'
    if source is not None:
        head += f' "source": {json.dumps(source)},\n'
    with open(manifest_path, "w", newline="") as fh:
        fh.write(head + f' "frequency_period": {frame.frequency_period},\n "atoms": [\n')
        fh.write(",\n".join([_ATOM_JSON % row for row in columns]))
        fh.write("\n ]\n}\n")


def _manifest_columns(entries) -> list[np.ndarray]:
    """The offset, weight, gamma, k and lambda columns of the manifest's atom entries.

    ValueError unless each is a JSON number array (``core._json_array``: no boolean) in range: the
    integers in the 64-bit range (offset, gamma >= 0, k >= 1), the weight finite and >= 0, lambda finite.
    """
    columns = []
    # key, the dtype kinds its array may have, its range (NaN is outside), the range in words, the column's dtype
    for key, kinds, low, high, what, dtype in (
            ("offset", "iu", 0, _INT64_MAX, f"an integer in [0, {_INT64_MAX}]", np.int64),
            ("weight", "iuf", 0.0, sys.float_info.max, "a finite number >= 0", np.float64),
            ("gamma", "iu", 0, _INT64_MAX, f"an integer in [0, {_INT64_MAX}]", np.int64),
            ("k", "iu", 1, _INT64_MAX, f"an integer in [1, {_INT64_MAX}]", np.int64),
            ("lambda", "iuf", -sys.float_info.max, sys.float_info.max, "a finite number", np.float64)):
        column = _json_array([e[key] for e in entries], kinds)
        if column is None or column.ndim != 1 or not ((column >= low) & (column <= high)).all():
            raise ValueError(f"{key} must be {what} in every atom entry")
        columns.append(column.astype(dtype))
    return columns


def read_frame(manifest_path, atoms_path) -> EigenFrame:
    """The frame ``write_frame`` wrote: no other weight, k or offset columns, and an atoms file of exactly
    4 + 16 L n bytes, a size checked before the atoms are allocated and read in one ``readinto``."""
    manifest = read_json(manifest_path, "frame manifest")
    try:
        L, weighted, source = manifest["L"], manifest["weighted"], manifest.get("source")
        if isinstance(L, bool) or not isinstance(L, int) or L < 1:
            raise ValueError(f"L must be a positive integer, not {L!r}")
        if not isinstance(weighted, bool):
            raise ValueError(f"weighted must be true or false, not {weighted!r}")
        if source is not None and not isinstance(source, str):
            raise ValueError(f"source must be a string, not {source!r}")
        p = manifest["frequency_period"]
        if type(p) is not int or p < 1 or L % p:
            raise ValueError(f"frequency_period must be an integer >= 1 dividing L={L}, not {p!r}")
        if not manifest["atoms"]:
            raise ValueError("the manifest lists no atoms")
        offsets, weights, gammas, ks, lams = _manifest_columns(manifest["atoms"])
        n, record = lams.size, 16 * L  # as Python ints: the file's size can be past the 64-bit range
        if 4 + n * record > _INT64_MAX:
            raise ValueError(f"n = {n} atoms of length L = {L} are past the 64-bit range of a file's size")
        for key, column, written in (("weight", weights, lams if weighted else np.ones_like(lams)),
                                     ("k", ks, _ranks(gammas)),
                                     ("offset", offsets, np.arange(4, 4 + n * record, record))):
            bad = np.flatnonzero(column != written)
            if bad.size:
                raise ValueError(f"atom {bad[0]} has {key} {column[bad[0]].item()!r}, not {written[bad[0]].item()!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed frame manifest ({type(exc).__name__}: {exc})",
                                   path=str(manifest_path)) from None
    del manifest  # its parsed entries are not held beside the atoms
    with open(atoms_path, "rb") as fh:
        magic, size = fh.read(4), fh.seek(0, 2)  # the file's size is the offset of its end
        if magic != b"TFAT":
            raise InvalidArgumentError(f"bad atoms magic {magic!r}", path=str(atoms_path))
        if size != 4 + n * record:
            raise InvalidArgumentError(f"the atoms file has {size} bytes, not the 4 + 16 L n = {4 + n * record} "
                                       f"of n = {n} atoms of length L = {L}", path=str(atoms_path))
        atoms = np.empty((n, L), "<c16")
        fh.seek(4)
        fh.readinto(atoms)
    # NaN, infinite and overflowing entries fail this too; a row of floats is an atom's parts
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", atoms.view("<f8"), atoms.view("<f8")))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL))
    if bad.size:
        raise InvalidArgumentError(f"atom record at offset {offsets[bad[0]]} is not a finite unit vector",
                                   path=str(atoms_path))
    try:  # the atoms are checked for the period p on construction
        return EigenFrame(atoms, lams, gammas, weighted, p, source)
    except InvalidArgumentError as exc:
        exc.context.setdefault("path", str(manifest_path))
        raise


def write_certificate_json(path, cert: FrameCertificate) -> None:
    write_json(path, {"A": cert.A, "B": cert.B, "condition": cert.condition, "is_frame": cert.is_frame,
                      "atol": cert.a_tol})
