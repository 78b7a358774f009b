"""Time-frequency localization operators on Z_L.

The operator attached to a nonnegative mask ``eta`` and a unit-norm window
``phi`` is the dense Hermitian L x L matrix

    H[t, t'] = (1/L) sum_z eta(z) (pi(z) phi)(t) conj((pi(z) phi)(t')),

i.e. mask the STFT coefficients by ``eta``, then synthesize.  With the 1/L
normalization the unit mask gives exactly the identity, trace(H) = ||eta||_1/L,
and eta >= 0 makes H positive semidefinite.
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


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenpairs of a Hermitian operator.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``.  Each column is
    scaled so its entry at ``anchors[k]``, its largest-magnitude entry (lowest
    index on ties), is real and positive; within a degenerate cluster only the
    spanned subspace is meaningful.

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
        return np.roll(V, x, axis=0) * np.exp((2j * np.pi / L) * np.arange(L))[turns]


def shifted_window_columns(L: int, w: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Matrix whose column i is pi(cells[i]) w."""
    t = np.arange(L)[:, None]
    phase = np.exp((2j * np.pi / L) * (t * cells[None, :, 1]))
    return phase * w[(t - cells[None, :, 0]) % L]


def assemble_locop(eta: Symbol, phi: Window) -> np.ndarray:
    """H_eta as a dense L x L matrix; O(L^2 |supp eta|) in fixed chunks."""
    w = _require_window(phi, eta.L)
    L = eta.L
    M = np.zeros((L, L), dtype=np.complex128)
    scale = np.sqrt(eta.values / L)
    for lo in range(0, eta.cells.shape[0], _ASSEMBLY_CHUNK):
        hi = lo + _ASSEMBLY_CHUNK
        A = shifted_window_columns(L, w, eta.cells[lo:hi]) * scale[lo:hi][None, :]
        M += A @ A.conj().T
    return M


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


# one shape class: the representative's spectrum and trace, and each member
# region gamma with its translation z from the representative
ClassSpectrum = tuple[Spectrum, float, list[tuple[int, tuple[int, int]]]]


def class_spectra(symbols: Sequence[Symbol], phi: Window) -> Iterator[ClassSpectrum]:
    """The spectra of a family of symbols, one eigensolve per shape class.

    Two symbols are in one class when their cells relative to their centers
    (mod L) and their values are byte-equal.  Then one is the other
    translated by z, the difference of their centers, and by covariance
    H_{eta(. - z)} = pi(z) H_eta pi(z)* shares its eigenvalues and has the
    eigenvectors pi(z) v (``Spectrum.translated``).  The classes are grouped
    here; each is then assembled and solved from its representative, its
    first symbol, only when the stream reaches it.  Classes come in the order
    of their representatives, each with its members in index order.
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
    H = assemble_locop(rep, phi)
    (rx, rxi), L = rep.center, rep.L
    shifts = []
    for gamma in members:
        x, xi = symbols[gamma].center
        shifts.append((gamma, ((x - rx) % L, (xi - rxi) % L)))
    return eigendecomp(H), float(np.trace(H).real), shifts
