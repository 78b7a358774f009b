"""Finite time-frequency model on the cyclic group Z_L.

Signals live on Z_L, phase space is the grid Z_L x Z_L with the wrapped
sup metric, and the short-time Fourier transform with respect to a unit-norm
window ``phi`` is

    V f(x, xi) = sum_t f(t) conj(phi((t - x) mod L)) exp(-2 pi i xi t / L)
               = <f, pi(x, xi) phi>,

where ``pi(x, xi)`` modulates by ``xi`` and translates by ``x``.  The
synthesis (adjoint) carries a factor 1/L, which inverts the STFT and makes the
localization operator with unit symbol the identity.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidArgumentError, NumericError

GAUSS_PERIODIZATION_TERMS = 6  # |n| <= 6; tail below double precision for L >= 2
_INT64_MAX = 2**63 - 1
# the one working-set bound: a cover's cells are summed, and a frame's atoms translated and weighted,
# at most this many entries at a time; every bench input's and configs/* frame is one certificate batch
_BATCH_ENTRIES = 1 << 18


def _as_complex_vector(samples, L: int | None = None) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.complex128)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"expected a 1-d sample vector, got shape {arr.shape}")
    if L is not None and arr.shape[0] != L:
        raise InvalidArgumentError(f"expected length {L}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("samples contain NaN or Inf entries")
    return arr


def _residue_rows(v: np.ndarray, p: int) -> np.ndarray:
    """``v``, of length L along its first axis, as an (L/p, p, ...) view:
    row r holds v[r + j L/p], j < p.

    An operator that commutes with the modulation pi(0, p) vanishes off
    t = t' mod L/p, so it acts on each row on its own (the Walnut blocks).
    """
    return v.reshape(p, v.shape[0] // p, *v.shape[1:]).swapaxes(0, 1)


def _from_residue_rows(rows: np.ndarray) -> np.ndarray:
    """The inverse of ``_residue_rows``: (L/p, p, ...) back to (L, ...)."""
    return rows.swapaxes(0, 1).reshape(-1, *rows.shape[2:])


def _gram_blocks(G: np.ndarray, p: int) -> np.ndarray:
    """The (L/p, p, p) Walnut blocks G_r G_r* of G G*, G_r the rows r + j L/p of an L x n ``G``."""
    return _residue_rows(G, p) @ _residue_rows(G.conj(), p).transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class Signal:
    """A complex vector on Z_L."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_complex_vector(self.samples))
        if self.length == 0:
            raise InvalidArgumentError("empty signal")

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))


@dataclass(frozen=True, eq=False)
class Window(Signal):
    """A unit-norm window on Z_L: ||phi||_2 = 1 to 1e-12, checked on construction."""

    def __post_init__(self):
        super().__post_init__()
        if abs(self.norm - 1.0) > 1e-12:
            raise InvalidArgumentError(f"window must be unit-norm, got ||phi||_2 = {self.norm!r}")

    @staticmethod
    def unit(samples) -> "Window":
        """The window ``samples / ||samples||_2``, normed after dividing by the
        largest magnitude so that the norm neither overflows nor underflows."""
        sig = Signal(samples)
        peak = np.abs(sig.samples).max()
        if peak == 0.0:
            raise InvalidArgumentError("cannot normalize the zero window")
        scaled = sig.samples / peak
        return Window(scaled / np.linalg.norm(scaled))


def gauss_window(L: int) -> Window:
    """Unit-norm periodized Gaussian phi(t) = c sum_n exp(-pi (t + nL)^2 / L).

    The periodization is truncated at |n| <= 6 (relative error < 1e-40 for
    L >= 2) and evaluated on 0 <= t <= L//2 then mirrored, so the symmetry
    phi(t) = phi((L - t) mod L) holds exactly in floating point.
    """
    if L < 2:
        raise InvalidArgumentError(f"gauss_window requires L >= 2, got {L}")
    half = np.arange(L // 2 + 1, dtype=np.float64)
    terms = np.arange(-GAUSS_PERIODIZATION_TERMS, GAUSS_PERIODIZATION_TERMS + 1)
    vals = np.exp(-np.pi * (half[:, None] + terms[None, :] * L) ** 2 / L).sum(axis=1)
    phi = np.empty(L, dtype=np.float64)
    phi[: L // 2 + 1] = vals
    phi[L // 2 + 1 :] = vals[(L - 1) // 2 : 0 : -1]
    phi /= np.sqrt(np.sum(phi * phi))
    return Window(phi.astype(np.complex128))


def stft(f: Signal, phi: Window) -> np.ndarray:
    """Full STFT on the grid as an (L, L) array; V[x, xi] = <f, pi(x, xi) phi>.

    Row x is f conj(w(. - x)), read from a sliding view of conj(w) repeated twice,
    and one batched FFT over the rows transforms them in place; it agrees with the
    direct double sum to ~1e-15 per entry.  Plancherel: sum |V|^2 = L ||f||^2.
    """
    L = f.length
    c = np.conj(_as_complex_vector(phi.samples, L))
    V = f.samples * np.lib.stride_tricks.sliding_window_view(np.concatenate([c, c]), L)[L:0:-1]
    return np.fft.fft(V, axis=1, out=V)


@contextmanager
def _naming(path):
    """Adds ``path`` to the context of an InvalidArgumentError raised inside that names no path yet."""
    try:
        yield
    except InvalidArgumentError as exc:
        exc.context.setdefault("path", str(path))
        raise


# ---------------------------------------------------------------------------
# Signal CSV format: `t,re,im`, one row per sample t = 0 .. L-1.
# Floats are printed with repr() (shortest round-trip form).
# ---------------------------------------------------------------------------

def read_signal_csv(path) -> Signal:
    """The signal in the CSV file at ``path``; a file that is not UTF-8 text
    in this format, or holds no finite samples, is an InvalidArgumentError
    with the path."""
    with _naming(path), open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
            rows = [line.strip() for line in fh if line.strip()]
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"signal CSV is not UTF-8 text: {exc}") from None
        if header != "t,re,im":
            raise InvalidArgumentError(f"bad signal CSV header {header!r}")
        samples = np.empty(len(rows), dtype=np.complex128)
        for i, row in enumerate(rows):
            try:
                t_s, re_s, im_s = row.split(",")
                t, value = int(t_s), complex(float(re_s), float(im_s))
            except ValueError:
                raise InvalidArgumentError(f"malformed signal CSV row {row!r}") from None
            if t != i:
                raise InvalidArgumentError(f"non-contiguous sample index {t_s}")
            samples[i] = value
        return Signal(samples)


def _json_array(value, kinds: str) -> np.ndarray | None:
    """``value`` as an array if every entry has a dtype kind in ``kinds``, else None.

    A JSON boolean is no number here, although numpy reads [true, 1] as [1, 1].
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    if arr.dtype.kind not in kinds:
        return None
    entries = value
    for _ in range(arr.ndim - 1):
        entries = chain.from_iterable(entries)
    return None if arr.ndim and bool in set(map(type, entries)) else arr


def _json_keys(obj: dict, known, what: str) -> None:
    """InvalidArgumentError naming ``what`` and the first key of the JSON object ``obj`` that is not in ``known``."""
    for key in obj:
        if key not in known:
            raise InvalidArgumentError(f"{what} has unknown key {key!r}, not one of {', '.join(known)}")


def read_json(path, what: str):
    """The parsed JSON file at ``path``.

    Text that is not JSON, or JSON nested deeper than the parser's recursion
    limit, is an InvalidArgumentError naming ``what`` and the path.
    """
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidArgumentError(f"{what} is not valid JSON: {exc}", path=str(path)) from None


def write_json(path, payload) -> None:
    """``payload`` as strict JSON with indent 1 and a final newline; NaN or inf is a NumericError."""
    try:
        text = json.dumps(payload, indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"cannot write {path}: {exc}", path=str(path)) from None
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")
