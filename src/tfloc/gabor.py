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

from .core import Window, _as_complex_vector
from .covers import Cover, Symbol, sum_symbols
from .errors import (
    InvalidArgumentError,
    NotAFrameError,
    PreconditionViolation,
)
from .frames import EigenFrame, SelectionPolicy, eigenframe_from_classes
from .locop import ClassSpectrum, assemble_locop, class_spectra

_FRAME_FLOOR_RTOL = 1e-9
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


def _residue_rows(v: np.ndarray, lattice: Lattice) -> np.ndarray:
    """``v`` as (L/b, b): row r holds v[r + p L/b], p < b."""
    return v.reshape(lattice.b, lattice.L // lattice.b).T


def _walnut_blocks(phi: Window, lattice: Lattice) -> np.ndarray:
    """S as its (L/b, b, b) Walnut blocks: blocks[r, p, q] = S[r + p L/b, r + q L/b]."""
    L, M = lattice.L, lattice.L // lattice.b
    w = _as_complex_vector(phi.samples, L)
    t = _residue_rows(np.arange(L), lattice)[:, :, None]
    G = w[(t - lattice.a * np.arange(L // lattice.a)) % L]  # (L/b, b, L/a)
    return M * (G @ G.conj().transpose(0, 2, 1))


@dataclass(frozen=True)
class LatticeGaborSystem:
    """A window on a lattice with the spectrum of its frame operator S.

    ``block_eigenvalues`` is (L/b, b): row r holds the ascending eigenvalues
    of S's Walnut block r.
    """

    window: Window
    lattice: Lattice
    block_eigenvalues: np.ndarray

    @property
    def A_gab(self) -> float:
        return float(self.block_eigenvalues.min())

    @property
    def B_gab(self) -> float:
        return float(self.block_eigenvalues.max())

    @property
    def tight(self) -> bool:
        return self.A_gab > 0.0 and self.B_gab / self.A_gab <= 1.0 + _TIGHT_CONDITION_TOL

    @property
    def tight_constant(self) -> float:
        """A of the tight expansion f = A sum <f, pi phi> pi phi.

        Computed as L / trace(S) = 1 / (mean eigenvalue); for a tight system
        this equals 1/lambda(S).
        """
        return self.lattice.L / float(self.block_eigenvalues.sum())

    @staticmethod
    def build(phi: Window, lattice: Lattice) -> "LatticeGaborSystem":
        return LatticeGaborSystem(phi, lattice, np.linalg.eigvalsh(_walnut_blocks(phi, lattice)))


def canonical_tight(phi: Window, lattice: Lattice) -> Window:
    """The unit-norm canonical tight window S^{-1/2} phi, block by block.

    Rejects systems whose frame operator is numerically singular
    (lambda_min <= 1e-9 * lambda_max).
    """
    w, Q = np.linalg.eigh(_walnut_blocks(phi, lattice))
    A_gab, B_gab = float(w.min()), float(w.max())
    if A_gab <= _FRAME_FLOOR_RTOL * max(B_gab, 1.0):
        raise NotAFrameError(
            f"Gabor system is not a frame (A_gab={A_gab!r}, B_gab={B_gab!r})",
            n_points=lattice.n_points,
            L=lattice.L,
        )
    f = _residue_rows(_as_complex_vector(phi.samples, lattice.L), lattice)[:, :, None]
    g = Q @ ((Q.conj().transpose(0, 2, 1) @ f) / np.sqrt(w)[:, :, None])
    phit = g[:, :, 0].T.reshape(-1)
    phit = phit / np.linalg.norm(phit)
    return Window(phit, normalized=True)


def _require_tight(sys: LatticeGaborSystem) -> None:
    if not sys.tight:
        raise PreconditionViolation(
            "Gabor multipliers need a tight system; run canonical_tight first "
            f"(condition {sys.B_gab / sys.A_gab if sys.A_gab > 0 else float('inf')!r})"
        )


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
    """GM_m = A sum m(lam) |pi(lam) phi><pi(lam) phi| for a tight system, as an L x L matrix.

    ``m`` is an (L/a, L/b) nonnegative array over the lattice index grid.
    """
    _require_tight(sys)
    lat = sys.lattice
    shape = (lat.L // lat.a, lat.L // lat.b)
    m = np.asarray(m, dtype=np.float64)
    if m.shape != shape:
        raise InvalidArgumentError(f"multiplier mask must have shape {shape}, got {m.shape}")
    symbol = Symbol(lat.L, (0, 0), lat.points(), m.reshape(-1))  # values must be finite and >= 0
    return assemble_locop(_multiplier_symbol(symbol, sys), sys.window)


def lattice_coverage_min(cover: Cover, lattice: Lattice) -> float:
    """Min over lattice points of the pointwise symbol sum; an off-lattice cell is an error."""
    for s in cover.regions:
        x, xi = s.cells[:, 0], s.cells[:, 1]
        off = np.flatnonzero((x % lattice.a != 0) | (xi % lattice.b != 0))
        if off.size:
            i = int(off[0])
            raise InvalidArgumentError(
                f"cell ({x[i]}, {xi[i]}) is not a lattice point", cell_index=i
            )
    return float(sum_symbols(cover)[0][:: lattice.a, :: lattice.b].min())


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
            raise InvalidArgumentError(
                f"region {i} center {s.center} is not a lattice point"
            )


def multiplier_classes(cover: Cover, sys: LatticeGaborSystem) -> Iterator[ClassSpectrum]:
    """The lattice stream: the Gabor multipliers' spectra, one per shape class.

    A region's multiplier is the localization operator of its lattice symbol
    scaled by A L, so the stream is ``class_spectra`` of those symbols.  The
    system must be tight and the cover must pass ``require_lattice_cover``;
    both are checked before the first multiplier is built.
    """
    _require_tight(sys)
    require_lattice_cover(cover, sys.lattice)
    return class_spectra([_multiplier_symbol(s, sys) for s in cover.regions], sys.window)


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
    return eigenframe_from_classes(cover.L, multiplier_classes(cover, sys), policy, weighted)
