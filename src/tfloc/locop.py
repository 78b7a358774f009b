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
eigenvectors are zero-padded back to length L.  H is PSD, so the dropped rows
and columns move H by at most delta + 2 sqrt(lambda_1 delta) in operator
norm, delta = sum of d off J <= L 1e-32 trace(H): about 1e-16 trace(H).  By
Weyl and Davis-Kahan the eigenvalues and the selected subspaces move by that
much (over the cutoff gap, for the subspaces).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import Window, _require_window
from .covers import Symbol
from .errors import NumericError

# columns of shifted windows are materialized in fixed chunks; keeps memory
# bounded and the accumulation order deterministic
_ASSEMBLY_CHUNK = 4096

# eigenvalues <= RANK_RTOL * lambda_1 count as numerically zero in rank reports
RANK_RTOL = 1e-12

# a class is solved on the time indices whose diagonal entry of H exceeds
# this fraction of its trace
_SUPPORT_RTOL = 1e-32


def _unit_roots(L: int) -> np.ndarray:
    """exp(2 pi i k / L) for k < L; the phase e^{2 pi i t xi / L} is entry (t xi) mod L."""
    return np.exp((2j * np.pi / L) * np.arange(L))


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenpairs of a Hermitian operator.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``.  Each column is
    scaled so its entry at ``anchors[k]``, its largest-magnitude entry (lowest
    index on ties), is real and positive; within a degenerate cluster only the
    spanned subspace is meaningful.  A class spectrum (``class_spectra``)
    holds only the |J| eigenpairs of the block on its time support J, as
    L x |J| eigenvectors; H's other eigenvalues are numerically zero.

    By covariance, pi(z) H pi(z)* has the same eigenvalues and the
    eigenvectors pi(z) v_k; ``translated`` carries the phase convention
    along with them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    anchors: np.ndarray

    def numerical_rank(self) -> int:
        if self.eigenvalues.size == 0 or self.eigenvalues[0] <= 0.0:
            return 0
        return int(np.sum(self.eigenvalues > RANK_RTOL * self.eigenvalues[0]))

    def translated(self, z: tuple[int, int], n: int | None = None) -> np.ndarray:
        """The first ``n`` (default all) eigenvectors of pi(z) H pi(z)*, in O(L n).

        Column k is pi(z) v_k times the unimodular constant that makes its
        entry at the translated anchor (anchors[k] + x) mod L real and
        positive, z = (x, xi).  For z = (0, 0) the columns are copied
        unchanged.
        """
        V = self.eigenvectors[:, :n]
        x, xi = z
        if x == 0 and xi == 0:
            return V.copy()
        L = V.shape[0]
        turns = (xi * (np.arange(L)[:, None] - x - self.anchors[None, :n])) % L
        return np.roll(V, x, axis=0) * _unit_roots(L)[turns]


def shifted_window_columns(L: int, w: np.ndarray, cells: np.ndarray,
                           rows: np.ndarray | None = None) -> np.ndarray:
    """Matrix whose column i is pi(cells[i]) w, at the time indices ``rows`` (default all)."""
    t = np.arange(L)[:, None] if rows is None else rows[:, None]
    return _unit_roots(L)[(t * cells[None, :, 1]) % L] * w[(t - cells[None, :, 0]) % L]


def _block_operator(eta: Symbol, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The principal block H_eta[rows, rows]; O(|rows|^2 |supp eta|) in fixed chunks."""
    L = eta.L
    M = np.zeros((rows.size, rows.size), dtype=np.complex128)
    scale = np.sqrt(eta.values / L)
    for lo in range(0, eta.cells.shape[0], _ASSEMBLY_CHUNK):
        hi = lo + _ASSEMBLY_CHUNK
        A = shifted_window_columns(L, w, eta.cells[lo:hi], rows) * scale[lo:hi][None, :]
        M += A @ A.conj().T
    return M


def assemble_locop(eta: Symbol, phi: Window) -> np.ndarray:
    """H_eta as a dense L x L matrix; O(L^2 |supp eta|) in fixed chunks."""
    return _block_operator(eta, _require_window(phi, eta.L), np.arange(eta.L))


def _time_support(eta: Symbol, w: np.ndarray) -> np.ndarray:
    """J, the ascending time indices where H_eta's diagonal exceeds _SUPPORT_RTOL times its trace.

    L times the diagonal, sum_x m(x) |w(t - x)|^2 over the symbol's distinct
    x, is one gather and matvec of nonnegative terms, so every entry is
    accurate relative to itself (an FFT convolution would leave noise near
    1e-16 of the largest entry everywhere).  A zero symbol keeps index 0, so
    its 1 x 1 block still reports the zero eigenvalue.
    """
    L = eta.L
    xs, inv = np.unique(eta.cells[:, 0], return_inverse=True)
    m = np.bincount(inv, weights=eta.values)
    d = (np.abs(w) ** 2)[(np.arange(L)[:, None] - xs[None, :]) % L] @ m
    J = np.flatnonzero(d > _SUPPORT_RTOL * d.sum())
    return J if J.size else np.zeros(1, dtype=np.int64)


def eigendecomp(H: np.ndarray) -> Spectrum:
    """Descending eigendecomposition of Hermitian H with the deterministic phase convention."""
    try:
        w, Q = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    w = w[::-1].copy()
    Q = Q[:, ::-1].copy()
    lead = np.argmax(np.abs(Q), axis=0)
    ph = Q[lead, np.arange(Q.shape[1])]
    mag = np.abs(ph)
    safe = mag > 0.0
    factors = np.ones_like(ph)
    factors[safe] = np.conj(ph[safe]) / mag[safe]
    return Spectrum(w, Q * factors[None, :], lead)


# one shape class: the representative's spectrum and trace measure
# ||eta||_1 / L, and each member region gamma with its translation z from the
# representative
ClassSpectrum = tuple[Spectrum, float, list[tuple[int, tuple[int, int]]]]


def class_spectra(symbols: Sequence[Symbol], phi: Window) -> Iterator[ClassSpectrum]:
    """The spectra of a family of symbols, one eigensolve per shape class.

    Two symbols are in one class when their cells relative to their centers
    (mod L) and their values are byte-equal.  Then one is the other
    translated by z, the difference of their centers, and by covariance
    H_{eta(. - z)} = pi(z) H_eta pi(z)* shares its eigenvalues and has the
    eigenvectors pi(z) v (``Spectrum.translated``).  The classes are grouped
    here; each is then assembled and solved from its representative, its
    first symbol, only when the stream reaches it: the block H[J, J] on the
    representative's time support J (``_time_support``) is eigensolved, so
    a spectrum has |J| eigenpairs and its eigenvectors are zero off J.
    Classes come in the order of their representatives, each with its
    members in index order.
    """
    classes: dict[tuple[bytes, bytes], list[int]] = {}
    for gamma, s in enumerate(symbols):
        rel = (s.cells - np.asarray(s.center)) % s.L
        order = np.lexsort((rel[:, 1], rel[:, 0]))
        classes.setdefault((rel[order].tobytes(), s.values[order].tobytes()), []).append(gamma)
    # a generator expression keeps no class alive once it is handed out
    return (_class_spectrum(symbols, members, phi) for members in classes.values())


def _class_spectrum(symbols: Sequence[Symbol], members: list[int], phi: Window) -> ClassSpectrum:
    rep = symbols[members[0]]
    (rx, rxi), L = rep.center, rep.L
    w = _require_window(phi, L)
    J = _time_support(rep, w)
    block = eigendecomp(_block_operator(rep, w, J))
    V = np.zeros((L, J.size), dtype=np.complex128)
    V[J] = block.eigenvectors
    shifts = []
    for gamma in members:
        x, xi = symbols[gamma].center
        shifts.append((gamma, ((x - rx) % L, (xi - rxi) % L)))
    return Spectrum(block.eigenvalues, V, J[block.anchors]), rep.mass / L, shifts
