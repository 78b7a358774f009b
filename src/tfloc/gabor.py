"""Separable lattice Gabor systems on Z_L and their multipliers.

For a lattice Lambda = aZ_{L/a} x bZ_{L/b} the frame operator is
S = sum_{lam in Lambda} |pi(lam) phi><pi(lam) phi| (no 1/L factor); the
canonical tight window S^{-1/2} phi turns the system into a tight frame with
expansion constant A = L / |Lambda| once renormalized to unit norm.  A Gabor
multiplier masks the tight expansion:

    GM_m = A sum_{lam} m(lam) |pi(lam) phi><pi(lam) phi|,

so GM_1 is the identity and trace(GM_m) = A ||phi||^2 sum m.  GM_m is
assembled as the localization operator of the lattice symbol eta = A L m.

S is never formed densely.  Summing the modulations over bZ_{L/b} leaves
S[t, t'] = 0 unless t = t' mod L/b, where

    S[t, t'] = (L/b) sum_j phi(t - ja) conj(phi(t' - ja))

(the Walnut representation; Groechenig, Foundations of Time-Frequency
Analysis, 6.3).  So S is an (L/b, b, b) stack of blocks, block r acting on
the samples t = r + p L/b, p < b, built from one gather of L * L/a window
samples.  The frame bounds are the extremes of the block eigenvalues, and
S^{-1/2} acts block by block: O(L^2 b / a + L b^2) work and O(L^2 / a)
memory, in place of the O(L^2 |Lambda| + L^3) work and the L x |Lambda|
matrix of shifted windows that the dense S costs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import Window, _as_complex_vector, _from_residue_rows, _gram_blocks, _residue_rows
from .covers import Cover, Symbol
from .errors import (
    InvalidArgumentError,
    NotAFrameError,
    PreconditionViolation,
)
from .frames import LOWER_BOUND_RTOL, EigenFrame, SelectionPolicy, eigenframe_from_classes
from .locop import ClassSpectrum, assemble_locop, class_spectra

_TIGHT_CONDITION_TOL = 1e-8


@dataclass(frozen=True)
class Lattice:
    """The separable lattice {(ja, kb)} in Z_L x Z_L; a and b must divide L."""

    L: int
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or self.L % self.a or self.L % self.b:
            raise InvalidArgumentError(
                f"lattice steps ({self.a}, {self.b}) must divide L={self.L}"
            )

    @property
    def n_points(self) -> int:
        return (self.L // self.a) * (self.L // self.b)

    def points(self) -> np.ndarray:
        """(n, 2) array of lattice points, time-major order."""
        js = np.arange(self.L // self.a) * self.a
        ks = np.arange(self.L // self.b) * self.b
        return np.stack(np.meshgrid(js, ks, indexing="ij"), axis=-1).reshape(-1, 2)


def _walnut_blocks(phi: Window, lattice: Lattice) -> np.ndarray:
    """S = (L/b) T T* as its (L/b, b, b) Walnut blocks, column j of T the window translated by j a."""
    L = lattice.L
    w = _as_complex_vector(phi.samples, L)
    T = w[(np.arange(L)[:, None] - lattice.a * np.arange(L // lattice.a)) % L]
    return (L // lattice.b) * _gram_blocks(T, lattice.b)


@dataclass(frozen=True)
class LatticeGaborSystem:
    """A tight window on a lattice, as only ``canonical_tight`` makes it.

    ``tight_constant`` is A of the tight expansion f = A sum <f, pi phi> pi phi:
    L / trace(S), the inverse mean eigenvalue of S, which is 1/lambda(S).
    """

    window: Window
    lattice: Lattice
    tight_constant: float


def canonical_tight(phi: Window, lattice: Lattice) -> LatticeGaborSystem:
    """The tight system of the unit-norm canonical tight window S^{-1/2} phi, block by block.

    Rejects systems whose frame operator is numerically singular
    (lambda_min <= LOWER_BOUND_RTOL * lambda_max), and a tight window whose own Walnut
    blocks have condition above 1 + 1e-8, which an ill-conditioned S leaves.
    """
    w, Q = np.linalg.eigh(_walnut_blocks(phi, lattice))
    A_gab, B_gab = float(w.min()), float(w.max())
    if A_gab <= LOWER_BOUND_RTOL * max(B_gab, 1.0):
        raise NotAFrameError(
            f"Gabor system is not a frame (A_gab={A_gab!r}, B_gab={B_gab!r})",
            n_points=lattice.n_points,
            L=lattice.L,
        )
    f = _residue_rows(_as_complex_vector(phi.samples, lattice.L), lattice.b)[:, :, None]
    g = Q @ ((Q.conj().transpose(0, 2, 1) @ f) / np.sqrt(w)[:, :, None])
    phit = _from_residue_rows(g[:, :, 0])
    window = Window(phit / np.linalg.norm(phit))
    ev = np.linalg.eigvalsh(_walnut_blocks(window, lattice))
    condition = float(ev.max() / ev.min()) if ev.min() > 0.0 else float("inf")
    if condition > 1.0 + _TIGHT_CONDITION_TOL:
        raise PreconditionViolation(
            f"canonical tight window is not tight: its Walnut blocks have condition {condition!r} "
            f"> 1 + {_TIGHT_CONDITION_TOL!r}, left by a window system of condition {B_gab / A_gab!r}"
        )
    return LatticeGaborSystem(window, lattice, lattice.L / float(ev.sum()))


def _multiplier_symbol(symbol: Symbol, sys: LatticeGaborSystem) -> Symbol:
    """The grid symbol A L eta of a lattice symbol eta, so that H_{A L eta} = GM_eta.

    Its support is eta's cells with eta > 0, in lattice.points() order; an
    all-zero eta keeps one zero-weight cell, which gives the zero operator.
    """
    order = np.lexsort((symbol.cells[:, 1], symbol.cells[:, 0]))
    values = symbol.values[order]
    keep = values > 0.0
    keep[0] |= not keep.any()
    L = sys.lattice.L
    return Symbol(L, symbol.center, symbol.cells[order][keep], sys.tight_constant * L * values[keep])


def gabor_multiplier(m, sys: LatticeGaborSystem) -> np.ndarray:
    """GM_m = A sum m(lam) |pi(lam) phi><pi(lam) phi| as an L x L matrix.

    ``m`` is an (L/a, L/b) nonnegative array over the lattice index grid.
    """
    lat = sys.lattice
    shape = (lat.L // lat.a, lat.L // lat.b)
    m = np.asarray(m, dtype=np.float64)
    if m.shape != shape:
        raise InvalidArgumentError(f"multiplier mask must have shape {shape}, got {m.shape}")
    symbol = Symbol(lat.L, (0, 0), lat.points(), m.reshape(-1))  # values must be finite and >= 0
    return assemble_locop(_multiplier_symbol(symbol, sys), sys.window)


def lattice_coverage_min(cover: Cover, lattice: Lattice) -> float:
    """Min over lattice points of the pointwise symbol sum; an off-lattice cell is an error."""
    a, b = cover.cell_steps
    for i, s in enumerate(cover.regions) if a % lattice.a or b % lattice.b else ():
        off = np.flatnonzero((s.cells % [lattice.a, lattice.b]).any(axis=1))
        if off.size:
            x, xi = s.cells[off[0]]
            raise InvalidArgumentError(f"cell ({x}, {xi}) of region {i} is not a lattice point",
                                       region=i, cell_index=int(off[0]))
    return float(cover.coverage[0][:: lattice.a, :: lattice.b].min())


def require_lattice_cover(cover: Cover, lattice: Lattice) -> None:
    """The lattice stream's cover checks: every cell and center is a lattice
    point, and the symbol sum is strictly positive at every lattice point.
    They need no Gabor system, so they can run before ``canonical_tight``.
    """
    lat_min = lattice_coverage_min(cover, lattice)
    if lat_min <= 0.0:
        raise PreconditionViolation(f"cover does not cover the lattice (min symbol sum {lat_min!r})")
    for i, s in enumerate(cover.regions):
        if s.center[0] % lattice.a or s.center[1] % lattice.b:
            raise InvalidArgumentError(f"region {i} center {s.center} is not a lattice point")


def multiplier_classes(cover: Cover, sys: LatticeGaborSystem) -> Iterator[ClassSpectrum]:
    """The lattice stream: the Gabor multipliers' spectra, one per shape class.

    A region's multiplier is the localization operator of its lattice symbol
    scaled by A L, so the stream is ``class_spectra`` of the cover's classes,
    each representative's symbol scaled so.  The cover must pass
    ``require_lattice_cover``, which is checked before the first multiplier is built.
    """
    require_lattice_cover(cover, sys.lattice)
    scaled = (c._replace(representative=_multiplier_symbol(c.representative, sys)) for c in cover.classes)
    return class_spectra(scaled, sys.window)


def gabor_eigenframe(
    cover: Cover,
    sys: LatticeGaborSystem,
    policy: SelectionPolicy,
    weighted: bool = True,
) -> EigenFrame:
    """Eigenfunction frame from per-region Gabor multipliers.

    Selection runs through the grid pipeline's back end with the multiplier
    trace as the region measure; ``frame_certificate`` certifies the frame.
    """
    return eigenframe_from_classes(cover.L, multiplier_classes(cover, sys), policy, weighted,
                                   cover.frequency_period)
