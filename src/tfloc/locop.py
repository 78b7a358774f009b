"""Time-frequency localization operators on Z_L.

The operator attached to a nonnegative mask ``eta`` and a unit-norm window
``phi`` is the Hermitian L x L matrix

    H[t, t'] = (1/L) sum_z eta(z) (pi(z) phi)(t) conj((pi(z) phi)(t')),

i.e. mask the STFT coefficients by ``eta``, then synthesize.  With the 1/L
normalization the unit mask gives exactly the identity, trace(H) = ||eta||_1/L,
and eta >= 0 makes H positive semidefinite.

``assemble_locop`` builds H densely.  The class stream solves each class on
its time support instead: the indices J where the diagonal
d[t] = (1/L) sum_x m(x) |phi(t - x)|^2, m(x) = sum_xi eta(x, xi), exceeds
1e-32 trace(H).  Only the block H[J, J] is assembled and eigensolved, and its
kept eigenvectors (``eigendecomp``) are zero-padded to length L.  H is PSD,
so the dropped rows and columns move H by at most delta + 2 sqrt(lambda_1
delta) in operator norm, delta = sum of d off J <= L 1e-32 trace(H): about
1e-16 trace(H).  By Weyl and Davis-Kahan the eigenvalues and the selected
subspaces move by that much (over the cutoff gap, for the subspaces).

For a real window, conjugation gives conj(H_eta) = H_{eta(x, -xi)}.  So when
eta is symmetric in frequency about an axis c2, eta(x, (c2 - xi) mod L) =
eta(x, xi) on every cell, as a box, a wedge box and a lattice box are, then
D* H D is real symmetric, D = diag(e^{i pi c2 t / L}).  The class stream tests
this exactly (``_frequency_axis``: one candidate axis, then an equality of
mirrored cells and values in each time group) and, when it holds and the
window is real, assembles and eigensolves the block of D* H D in real
arithmetic; the eigenvectors u map back to D u.  Any other symbol or window
gets the complex block from the same assembly (``_block_operator``).

Phase convention: ``eigendecomp`` scales each solved eigenvector so that its
anchor entry is real and positive.  The anchor is the lowest index whose
magnitude is within 1e-12 of the column's largest, so exact and
rounding-level ties (a mirror symmetric region has exact ones) do not let
rounding pick it.  On the real path the atom is D u, and a class member's
eigenvectors are exactly pi(z) of its representative's.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .core import Window, _as_complex_vector
from .covers import ShapeClass, Symbol
from .errors import NumericError

# eigenvalues <= RANK_RTOL * lambda_1 are numerically zero, and a spectrum drops them
RANK_RTOL = 1e-12

# a class is solved on the time indices whose diagonal entry of H exceeds
# this fraction of its trace
_SUPPORT_RTOL = 1e-32

# entries within this fraction of a column's largest magnitude tie for its
# phase anchor, and the lowest index wins
_ANCHOR_TIE_RTOL = 1e-12


def _unit_roots(L: int) -> np.ndarray:
    """exp(2 pi i k / L) for k < L; the phase e^{2 pi i t xi / L} is entry (t xi) mod L."""
    return np.exp((2j * np.pi / L) * np.arange(L))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The r eigenpairs with lambda > RANK_RTOL lambda_1 of a Hermitian operator, descending.

    r is the numerical rank; a numerically zero operator has no eigenpairs.
    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``; ``eigendecomp``
    scales it so its anchor entry is real and positive.  Within a degenerate
    cluster only the spanned subspace is meaningful.  A class spectrum
    (``class_spectra``) holds its L x r eigenvectors zero-padded from the
    block on its time support J, mapped back to D u on the real path.

    By covariance, pi(z) H pi(z)* has the same eigenvalues and the
    eigenvectors pi(z) v_k, exactly, with no further phase (``translated``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def translated(self, shifts: np.ndarray) -> np.ndarray:
        """The eigenvectors pi(z) V of pi(z) H pi(z)* for each row z = (x, xi)
        of the (m, 2) ``shifts``: an (m, L, r) array, one gather.

        Block j is V[(t - x) mod L] e^{2 pi i xi t / L}; for z = (0, 0) it is
        a copy of V.
        """
        V = self.eigenvectors
        L = V.shape[0]
        x, xi = shifts[:, 0, None], shifts[:, 1, None]
        t = np.arange(L)
        out = V[(t - x) % L]
        out *= _unit_roots(L)[(xi * t) % L][:, :, None]
        out[~shifts.any(axis=1)] = V
        return out


def _time_groups(eta: Symbol) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(xs, xis, values): eta's distinct time shifts grouped by equal (xi, value) rows.

    Each group is the time shifts ``xs`` whose cells are exactly (x, xis[k]),
    xis ascending, with the values ``values[k]``; a box is one group, and
    the first group holds eta's least x.
    """
    order = np.lexsort((eta.cells[:, 1], eta.cells[:, 0]))
    cells, values = eta.cells[order], eta.values[order]
    xs, starts = np.unique(cells[:, 0], return_index=True)
    groups: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray, list[int]]] = {}
    for x, lo, hi in zip(xs.tolist(), starts, [*starts[1:], cells.shape[0]]):
        xis, vals = cells[lo:hi, 1], values[lo:hi]
        groups.setdefault((xis.tobytes(), vals.tobytes()), (xis, vals, []))[2].append(x)
    return [(np.array(g), xis, vals) for xis, vals, g in groups.values()]


def _frequency_axis(groups: list, L: int) -> int | None:
    """A c2 with eta(x, (c2 - xi) mod L) = eta(x, xi) on every cell, or None, from eta's time groups.

    The one candidate mirrors the arc of the first time column: the xi of
    its cells, read around the circle from past its widest gap.  The test is
    exact: in each group, the mirrored xis, sorted, are its xis, with their values.
    """
    col = groups[0][1]
    gaps = np.diff(col, append=col[0] + L)
    i = int(np.argmax(gaps))
    c2 = int(col[i] + col[(i + 1) % col.size]) + (L if i + 1 < col.size else 0)
    for _, xis, vals in groups:
        mirrored = (c2 - xis) % L
        order = np.argsort(mirrored)
        if not (np.array_equal(mirrored[order], xis) and np.array_equal(vals[order], vals)):
            return None
    return c2 % (2 * L)


def _block_operator(groups: list, w: np.ndarray, rows: np.ndarray, axis: int | None = None) -> np.ndarray:
    """The principal block H_eta[rows, rows] from eta's time groups, or its real form given a frequency axis.

    Summing the modulations of one time group g (``_time_groups``) leaves
    a Toeplitz factor: H[t, t'] = (1/L) sum_g (sum_{x in g} w(t - x)
    conj(w(t' - x))) k_g(t - t'), k_g(s) = sum_xi eta(x, xi) e^{2 pi i xi s / L}, L = |w|.
    Given ``axis`` c2 (``_frequency_axis``) and a real window, the block
    returned is D* H[rows, rows] D, D = diag(e^{i pi c2 t / L}), assembled in
    real arithmetic: its kernel is d_g(s) = sum_xi eta cos(pi (2 xi - c2) s / L),
    which the mirror xi -> c2 - xi makes real.  Every phase is read from
    the 2L-th roots of unity at an exact integer index.  O(|rows|^2 |supp eta|)
    at worst; a box costs one |rows| x |rows| product over its time shifts.
    """
    L = w.size
    roots = _unit_roots(2 * L)
    if axis is None:
        axis = 0
    else:
        roots, w = roots.real, w.real
    lags = np.arange(1 - L, L)[:, None]
    at = rows[:, None] - rows[None, :] + (L - 1)
    M = np.zeros((rows.size, rows.size), dtype=roots.dtype)
    for xs, xis, vals in groups:
        kernel = roots[(lags * (2 * xis - axis)[None, :]) % (2 * L)] @ vals
        W = w[(rows[:, None] - xs[None, :]) % L]
        M += (W @ W.conj().T) * kernel[at]
    return M / L


def assemble_locop(eta: Symbol, phi: Window) -> np.ndarray:
    """H_eta as a dense L x L matrix (``_block_operator`` on all rows)."""
    return _block_operator(_time_groups(eta), _as_complex_vector(phi.samples, eta.L), np.arange(eta.L))


def _time_support(eta: Symbol, w: np.ndarray) -> np.ndarray:
    """J, the ascending time indices where H_eta's diagonal exceeds _SUPPORT_RTOL times its trace.

    L times the diagonal, sum_x m(x) |w(t - x)|^2 over the symbol's distinct
    x, is one gather and matvec of nonnegative terms, so every entry is
    accurate relative to itself (an FFT convolution would leave noise near
    1e-16 of the largest entry everywhere).  A zero symbol keeps index 0, so
    it still has a block to solve, with an empty spectrum.  A diagonal sum
    that is not finite is a NumericError.
    """
    L = eta.L
    xs, inv = np.unique(eta.cells[:, 0], return_inverse=True)
    m = np.bincount(inv, weights=eta.values)
    d = (np.abs(w) ** 2)[(np.arange(L)[:, None] - xs[None, :]) % L] @ m
    total = d.sum()
    if not np.isfinite(total):
        raise NumericError("operator trace overflows; the symbol values are too large")
    J = np.flatnonzero(d > _SUPPORT_RTOL * total)
    return J if J.size else np.zeros(1, dtype=np.int64)


def eigendecomp(H: np.ndarray) -> Spectrum:
    """The Spectrum of Hermitian H: its eigenpairs with lambda > RANK_RTOL lambda_1."""
    if not np.isfinite(H).all():
        raise NumericError("operator has non-finite entries; the symbol values overflow it")
    try:
        w, Q = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    r = int(np.sum(w > RANK_RTOL * w[-1]))
    w = w[::-1][:r].copy()
    Q = Q[:, ::-1][:, :r]
    size = np.abs(Q)
    lead = np.argmax(size >= (1.0 - _ANCHOR_TIE_RTOL) * size.max(axis=0), axis=0)
    # each anchor entry is its unit column's largest, so it is nonzero
    ph = Q[lead, np.arange(Q.shape[1])]
    return Spectrum(w, Q * (np.conj(ph) / np.abs(ph))[None, :])


# one shape class: the representative's spectrum, and the class
ClassSpectrum = tuple[Spectrum, ShapeClass]


def class_spectra(classes: Iterable[ShapeClass], phi: Window) -> Iterator[ClassSpectrum]:
    """The spectra of a cover's shape classes (``Cover.classes``), one eigensolve per class.

    A member is its representative translated by z, so by covariance
    H_{eta(. - z)} = pi(z) H_eta pi(z)* shares its eigenvalues and has the
    eigenvectors pi(z) v (``Spectrum.translated``).  Each class is
    assembled and solved from its representative only when the stream
    reaches it: the block H[J, J] on the representative's time support J
    (``_time_support``) is eigensolved, as the real D* H[J, J] D when the
    representative has a frequency axis and the window is real, so a
    spectrum has at most |J| eigenpairs and its eigenvectors are zero off J.
    """
    # a generator expression keeps no class spectrum alive once it is handed out
    return (_class_spectrum(cls, phi) for cls in classes)


def _class_spectrum(cls: ShapeClass, phi: Window) -> ClassSpectrum:
    rep = cls.representative
    L = rep.L
    w = _as_complex_vector(phi.samples, L)
    J = _time_support(rep, w)
    groups = _time_groups(rep)
    axis = None if w.imag.any() else _frequency_axis(groups, L)
    block = eigendecomp(_block_operator(groups, w, J, axis))
    V = np.zeros((L, block.eigenvalues.size), dtype=np.complex128)
    V[J] = block.eigenvectors
    if axis is not None:
        V[J] *= _unit_roots(2 * L)[(axis * J[:, None]) % (2 * L)]  # D u
    return Spectrum(block.eigenvalues, V), cls
