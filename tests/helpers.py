"""Direct-definition oracles, deliberately independent of the library paths.

Everything here is written from its defining formula, mostly as plain
double/triple loops, or from the file format it describes; the test suite
compares library outputs against these.  The Hypothesis strategies that
more than one test module draws from are kept here too.
"""

import numpy as np
from hypothesis import strategies as st

from tfloc.covers import Symbol
from tfloc.locop import assemble_locop

# integers past the 64-bit range, which no integer config or manifest field accepts
HUGE_INTEGERS = st.integers(min_value=2**63) | st.integers(max_value=-(2**63) - 1)


def direct_shift(L, x, xi, v):
    out = np.zeros(L, complex)
    for t in range(L):
        out[t] = np.exp(2j * np.pi * xi * t / L) * v[(t - x) % L]
    return out


def shift_matrix(L, x, xi):
    """The unitary matrix of pi(x, xi) on C^L: column t is pi(x, xi) applied to delta_t."""
    return np.column_stack([direct_shift(L, x, xi, e) for e in np.eye(L)])


def shifted_symbol(eta, z):
    """The translated symbol eta(. - z): support and center moved by z, mod L."""
    L = eta.L
    return Symbol(L, ((eta.center[0] + z[0]) % L, (eta.center[1] + z[1]) % L),
                  (eta.cells + np.asarray(z)) % L, eta.values)


def wrapped_sup_distance(L, z, w):
    """The wrapped sup metric on Z_L x Z_L: the larger over the two axes of the
    distance on the cycle, the least |a - b + kL| over k."""
    return max(min(abs(a - b + k * L) for k in (-1, 0, 1)) for a, b in zip(z, w))


def ball(L, center, r):
    """The cells within wrapped sup distance r of ``center``, testing every cell."""
    return {(x, xi) for x in range(L) for xi in range(L)
            if wrapped_sup_distance(L, (x, xi), center) <= r}


def direct_radii(symbol):
    """(outer, inner) radius of a symbol's support around its center.

    Outer: the largest distance of a support cell from the center.  Inner:
    the largest r <= L // 2 whose whole ball B_r(center) lies in the
    support, -1 if there is none (the center is outside the support).
    """
    L, center = symbol.L, symbol.center
    support = set(map(tuple, symbol.cells.tolist()))
    outer = max(wrapped_sup_distance(L, z, center) for z in support)
    inner = max((r for r in range(L // 2 + 1) if ball(L, center, r) <= support), default=-1)
    return outer, inner


def shape_classes(cover):
    """The shape classes of a cover's regions, from the definition: two
    regions are one class when their sets of (cell relative to the center mod
    L, value) pairs are equal, so one is the other translated by the
    difference of their centers.  Each class as (members, shifts): the region
    indices ascending, and each member's center minus the first member's,
    mod L; classes in the order of their first members."""
    L = cover.L
    classes = {}
    for gamma, s in enumerate(cover.regions):
        cx, cxi = s.center
        key = frozenset(((x - cx) % L, (xi - cxi) % L, v)
                        for (x, xi), v in zip(s.cells.tolist(), s.values.tolist()))
        classes.setdefault(key, []).append(gamma)
    out = []
    for members in classes.values():
        rx, rxi = cover.regions[members[0]].center
        shifts = [[(cover.regions[g].center[0] - rx) % L, (cover.regions[g].center[1] - rxi) % L]
                  for g in members]
        out.append((members, shifts))
    return out


def direct_frequency_period(cover):
    """The least p dividing L for which adding (0, p) to every shift of a shape class
    (``shape_classes``) gives the same shifts, counted with multiplicity, in every
    class; L if none smaller does."""
    L = cover.L
    classes = shape_classes(cover)
    for p in range(1, L):
        if L % p == 0 and all(
            sorted(map(tuple, shifts)) == sorted((x, (xi + p) % L) for x, xi in shifts)
            for _, shifts in classes
        ):
            return p
    return L


def direct_coverage(cover):
    """The pointwise sum of a cover's symbols, added cell by cell in region order."""
    total = np.zeros((cover.L, cover.L))
    for s in cover.regions:
        for (x, xi), v in zip(s.cells.tolist(), s.values.tolist()):
            total[x, xi] += v
    return total


def direct_spreadness(cover, w):
    """The most centers in any wrapped half-open w x w window [a, a + w) x [b, b + w),
    counting the centers of each window one by one."""
    L = cover.L
    centers = [s.center for s in cover.regions]
    return max(sum((cx - a) % L < w and (cxi - b) % L < w for cx, cxi in centers)
               for a in range(L) for b in range(L))


def direct_stft(f, phi):
    L = len(f)
    V = np.zeros((L, L), complex)
    for x in range(L):
        for xi in range(L):
            acc = 0.0 + 0.0j
            for t in range(L):
                acc += f[t] * np.conj(phi[(t - x) % L]) * np.exp(-2j * np.pi * xi * t / L)
            V[x, xi] = acc
    return V


def direct_istft(V, phi):
    L = V.shape[0]
    f = np.zeros(L, complex)
    for t in range(L):
        acc = 0.0 + 0.0j
        for x in range(L):
            for xi in range(L):
                acc += V[x, xi] * np.exp(2j * np.pi * xi * t / L) * phi[(t - x) % L]
        f[t] = acc / L
    return f


def direct_concentration(f, cells, values, phi):
    """(1/L) sum_z eta(z) |Vf(z)|^2, the time-frequency mass of f inside eta."""
    L = len(f)
    V = direct_stft(f, phi)
    return sum(v * abs(V[x, xi]) ** 2 for (x, xi), v in zip(cells, values)) / L


def thresholded(H, eps):
    """H^eps = sum_{lam_k > eps} lam_k |v_k><v_k| over the eigenpairs of Hermitian H."""
    lam, Q = np.linalg.eigh(H)
    keep = lam > eps
    return (Q[:, keep] * lam[keep]) @ Q[:, keep].conj().T


def direct_assemble(L, cells, values, phi):
    """H = (1/L) sum_z eta(z) |pi(z)phi><pi(z)phi| via explicit outer products."""
    M = np.zeros((L, L), complex)
    for (x, xi), v in zip(cells, values):
        w = direct_shift(L, int(x), int(xi), phi)
        M += (v / L) * np.outer(w, w.conj())
    return M


def ball_operator_spectrum(L, phi, radius):
    """Descending spectrum of the indicator operator of the wrapped sup-metric
    ball of ``radius`` around (0, 0); by covariance every center gives it."""
    offs = range(-radius, radius + 1)
    cells = sorted({(x % L, xi % L) for x in offs for xi in offs})
    return np.linalg.eigvalsh(direct_assemble(L, cells, np.ones(len(cells)), phi))[::-1]


def region_operators(cover, phi):
    """Each region's localization operator matrix, assembled on its own.

    The direct per-region path that the library's one-eigensolve-per-shape-
    class stream must reproduce.
    """
    return (assemble_locop(s, phi) for s in cover.regions)


def direct_gabor_multiplier(L, a, b, phi, m):
    """A sum_lam m(lam) |pi(lam)phi><pi(lam)phi| over the lattice aZ x bZ.

    ``phi`` is the unit-norm tight window, so the expansion constant is
    A = L / |Lambda| = a b / L; ``m`` is indexed by lattice index (j, k).
    """
    A = a * b / L
    M = np.zeros((L, L), complex)
    for j in range(L // a):
        for k in range(L // b):
            if m[j, k] != 0.0:
                w = direct_shift(L, j * a, k * b, phi)
                M += (A * m[j, k]) * np.outer(w, w.conj())
    return M


def lattice_mask(symbol, lattice):
    """A grid symbol on the lattice index grid, set cell by cell: entry (j, k)
    is the symbol's value at the lattice point (ja, kb), 0 off its support."""
    m = np.zeros((lattice.L // lattice.a, lattice.L // lattice.b))
    for (x, xi), v in zip(symbol.cells.tolist(), symbol.values.tolist()):
        assert x % lattice.a == 0 and xi % lattice.b == 0, f"({x}, {xi}) is off the lattice"
        m[x // lattice.a, xi // lattice.b] = v
    return m


def dense_gabor_frame_operator(L, a, b, phi):
    """S = W W* over the lattice aZ x bZ, W the L x |Lambda| matrix whose
    columns are the shifted windows pi(ja, kb) phi, each from its definition.

    The dense counterpart of the library's Walnut blocks: O(L^2 |Lambda|).
    """
    t = np.arange(L)[:, None]
    x = np.repeat(np.arange(0, L, a), L // b)
    xi = np.tile(np.arange(0, L, b), L // a)
    W = np.exp(2j * np.pi * xi * t / L) * np.asarray(phi)[(t - x) % L]
    return W @ W.conj().T


def atom_columns(frame):
    """The weighted atoms g_i = w_i v_i of a frame as columns, scaled one by one."""
    return np.column_stack([w * frame.atoms[i] for i, w in enumerate(frame.weights)])


def frame_operator(frame):
    """The dense frame operator S = G G*, G the weighted atoms as columns (``atom_columns``)."""
    G = atom_columns(frame)
    return G @ G.conj().T


def dense_from_blocks(blocks):
    """The L x L operator of its (L/p, p, p) Walnut blocks, set entry by entry:
    S[r + j L/p, r + k L/p] = blocks[r, j, k], and 0 off the blocks."""
    M, p, _ = blocks.shape
    S = np.zeros((M * p, M * p), complex)
    for r in range(M):
        for j in range(p):
            for k in range(p):
                S[r + j * M, r + k * M] = blocks[r, j, k]
    return S


def canonical_dual(frame):
    """(S, S^{-1} G) of a frame: S = sum_i g_i g_i* summed over its weighted
    atoms g_i = w_i v_i, and the canonical dual atoms as columns, solved from S."""
    G = atom_columns(frame)
    S = np.zeros((frame.L, frame.L), complex)
    for g in G.T:
        S += np.outer(g, g.conj())
    return S, np.linalg.solve(S, G)


def random_signal(rng, L, unit=False):
    v = rng.normal(size=L) + 1j * rng.normal(size=L)
    if unit:
        v = v / np.linalg.norm(v)
    return v


def ill_conditioned_window():
    """16 window samples whose system on the lattice a = b = 4 has condition
    between 1e8 and 1e9: the samples at t = 0 mod 4 are (1, 1, 1, 1) plus a
    3.16e-4 perturbation, so the Walnut block of those samples is nearly the
    rank-one all-ones matrix; the rest are random (seed 1)."""
    rng = np.random.default_rng(1)
    v = np.empty(16, complex)
    v[::4] = 1.0 + 3.16e-4 * np.array([1.0, 2j, -1.0, 0.5])
    v[np.arange(16) % 4 != 0] = random_signal(rng, 12)
    return v


def random_symbol_values(rng, L):
    """Nonnegative random mask over the full grid, as (cells, values)."""
    cells = [(x, xi) for x in range(L) for xi in range(L)]
    values = rng.random(L * L)
    return np.asarray(cells), values


def orthonormal_set(rng, L, n):
    A = rng.normal(size=(L, n)) + 1j * rng.normal(size=(L, n))
    Q, _ = np.linalg.qr(A)
    return Q[:, :n]


def cover_dict(cover):
    """A cover as the cover JSON layout: {"L", "regions": [{"center", "cells",
    "values"}]}, with "values" left out when every value is 1.0."""
    regions = []
    for s in cover.regions:
        entry = {"center": list(s.center), "cells": s.cells.tolist()}
        if not np.all(s.values == 1.0):
            entry["values"] = [float(v) for v in s.values]
        regions.append(entry)
    return {"L": cover.L, "regions": regions}


def write_signal_csv(path, samples):
    """The signal CSV format: a `t,re,im` header, then one row per sample with
    the floats in repr() (shortest round-trip) form."""
    lines = ["t,re,im"]
    for t, v in enumerate(np.asarray(samples, dtype=complex)):
        lines.append(f"{t},{float(v.real)!r},{float(v.imag)!r}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
