"""Covers of the phase-space grid: symbol families, admissibility, generators.

A cover is an indexed family of nonnegative masks ("symbols") on Z_L x Z_L,
each with a designated center.  Admissibility is checked in exact integer
arithmetic on supports: bounded outer radius, optional inner regularity
(a full ball around each center inside the support), and a spreadness count
of centers per window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import read_json
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Symbol:
    """One nonnegative mask eta on the grid, stored sparsely.

    ``cells`` is an (n, 2) integer array of (x, xi) support points, ``values``
    the matching positive weights.
    """

    L: int
    center: tuple[int, int]
    cells: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int64).reshape(-1, 2)
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if cells.shape[0] == 0:
            raise InvalidArgumentError("symbol support is empty")
        if cells.shape[0] != values.shape[0]:
            raise InvalidArgumentError(
                f"{cells.shape[0]} cells but {values.shape[0]} values"
            )
        if cells.min() < 0 or cells.max() >= self.L:
            raise InvalidArgumentError("cell indices outside [0, L)")
        if not np.all(np.isfinite(values)) or values.min() < 0.0:
            raise InvalidArgumentError("symbol values must be finite and >= 0")
        flat = cells[:, 0] * self.L + cells[:, 1]
        if np.unique(flat).size != flat.size:
            raise InvalidArgumentError("duplicate cells in symbol support")
        cx, cxi = int(self.center[0]), int(self.center[1])
        if not (0 <= cx < self.L and 0 <= cxi < self.L):
            raise InvalidArgumentError(f"center {self.center} outside the grid")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "center", (cx, cxi))

    @property
    def mass(self) -> float:
        """||eta||_1 = sum of values."""
        return float(self.values.sum())

    @staticmethod
    def indicator(L: int, center: tuple[int, int], cells) -> "Symbol":
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
        return Symbol(L, center, cells, np.ones(cells.shape[0]))


@dataclass(frozen=True)
class Cover:
    """An indexed family of Symbols on a common grid."""

    L: int
    regions: tuple[Symbol, ...]

    def __post_init__(self):
        regions = tuple(self.regions)
        if not regions:
            raise InvalidArgumentError("cover has no regions")
        for s in regions:
            if s.L != self.L:
                raise InvalidArgumentError(
                    f"region grid {s.L} does not match cover grid {self.L}"
                )
        object.__setattr__(self, "regions", regions)

    @property
    def centers(self) -> list[tuple[int, int]]:
        return [s.center for s in self.regions]


@dataclass(frozen=True)
class AdmissibilityReport:
    """Exact admissibility measurements for a cover.

    ``spreadness`` is the largest number of centers falling in any wrapped
    w x w window (w = ``window``), so an exact partition into boxes of side
    >= w has spreadness 1.
    """

    covers_grid: bool
    outer_radius_ok: bool
    max_outer_radius: int
    inner_radius_ok: bool | None
    min_inner_radius: int | None
    spreadness: int
    window: int
    sum_min: float
    sum_max: float
    duplicate_centers: bool


def sum_symbols(cover: Cover) -> tuple[np.ndarray, float, float]:
    """Pointwise sum of all symbols and its extremes over the grid."""
    total = np.zeros((cover.L, cover.L))
    for s in cover.regions:
        np.add.at(total, (s.cells[:, 0], s.cells[:, 1]), s.values)
    return total, float(total.min()), float(total.max())


def _circdist(a: np.ndarray, b: int, L: int) -> np.ndarray:
    """The wrapped distance min(|a - b|, L - |a - b|) on Z_L of entries a, b in [0, L)."""
    d = np.abs(a - b)
    return np.minimum(d, L - d)


def _inner_radius(d: np.ndarray, L: int) -> int:
    """Largest r with the full wrapped ball B_r(center) inside the support; -1 if none.

    ``d``: the distinct support cells' wrapped sup distances from the center.
    B_r has min(2r + 1, L)^2 cells, so it is inside iff that many are within r.
    """
    radii = np.arange(L // 2 + 1)
    within = np.bincount(d, minlength=radii.size).cumsum()
    full = within == np.minimum(2 * radii + 1, L) ** 2
    return L // 2 if full.all() else int(np.argmin(full)) - 1


def validate_cover(cover: Cover, R: int, r: int | None = None, w: int = 1) -> AdmissibilityReport:
    """Admissibility report for a cover; pure, never raises on well-formed input.

    Outer radius and inner radius are exact integer computations on supports,
    in the wrapped sup metric; coverage is sum_min > 0; spreadness is the max
    number of centers in any wrapped half-open ``w`` x ``w`` window.
    """
    if R < 0 or w < 1 or (r is not None and r < 0):
        raise InvalidArgumentError(f"bad radii R={R}, r={r}, w={w}")
    L = cover.L
    _, sum_min, sum_max = sum_symbols(cover)

    max_outer = 0
    min_inner: int | None = None if r is None else L
    for s in cover.regions:
        d = np.maximum(_circdist(s.cells[:, 0], s.center[0], L),
                       _circdist(s.cells[:, 1], s.center[1], L))
        max_outer = max(max_outer, int(d.max()))
        if r is not None:
            min_inner = min(min_inner, _inner_radius(d, L))

    # splat each center onto every window anchor that sees it: anchors in
    # [c - w + 1, c] per axis for half-open w x w windows
    counts = np.zeros((cover.L, cover.L), dtype=np.int64)
    if w >= cover.L:
        counts[:] = len(cover.centers)
    else:
        offs = np.arange(w)
        for cx, cxi in cover.centers:
            anchors_x = (cx - offs) % cover.L
            anchors_xi = (cxi - offs) % cover.L
            counts[np.ix_(anchors_x, anchors_xi)] += 1
    spreadness = int(counts.max())

    centers = cover.centers
    return AdmissibilityReport(
        covers_grid=sum_min > 0.0,
        outer_radius_ok=max_outer <= R,
        max_outer_radius=max_outer,
        inner_radius_ok=None if r is None else min_inner >= r,
        min_inner_radius=min_inner,
        spreadness=spreadness,
        window=w,
        sum_min=sum_min,
        sum_max=sum_max,
        duplicate_centers=len(set(centers)) != len(centers),
    )


# ---------------------------------------------------------------------------
# Generators.  All emit indicator symbols and sum exactly to 1 where stated.
# ---------------------------------------------------------------------------

def _box_cells(L: int, x0: int, xi0: int, wd: int, ht: int) -> np.ndarray:
    xs = (x0 + np.arange(wd)) % L
    xis = (xi0 + np.arange(ht)) % L
    return np.stack(np.meshgrid(xs, xis, indexing="ij"), axis=-1).reshape(-1, 2)


def gen_regular_boxes(L: int, bx: int, by: int) -> Cover:
    """Partition into (L/bx) x (L/by) disjoint boxes; centers at box centers."""
    if bx < 1 or by < 1 or L % bx or L % by:
        raise InvalidArgumentError(f"box sides ({bx}, {by}) must divide L={L}")
    regions = []
    for x0 in range(0, L, bx):
        for xi0 in range(0, L, by):
            center = ((x0 + bx // 2) % L, (xi0 + by // 2) % L)
            regions.append(Symbol.indicator(L, center, _box_cells(L, x0, xi0, bx, by)))
    return Cover(L, tuple(regions))


def gen_wedge_cover(L: int, bands: list[tuple[int, int, int]]) -> Cover:
    """Frequency bands with band-dependent time resolution.

    ``bands`` is a list of (xi_lo, xi_hi, time_step); the bands must partition
    the frequency axis [0, L) exactly and every time_step must divide L.  Each
    band is tiled by time_step x (xi_hi - xi_lo) rectangles, so the cover is
    an exact partition of the grid.
    """
    ordered = sorted((int(lo), int(hi), int(step)) for lo, hi, step in bands)
    if not ordered or ordered[0][0] != 0 or ordered[-1][1] != L:
        raise InvalidArgumentError(f"bands must cover the frequency axis [0, {L})")
    for lo, hi, step in ordered:
        if hi <= lo:
            raise InvalidArgumentError(f"empty band ({lo}, {hi})")
        if step < 1 or L % step:
            raise InvalidArgumentError(f"time_step {step} must divide L={L}")
    for (_, hi, _), (lo2, _, _) in zip(ordered, ordered[1:]):
        if lo2 != hi:
            raise InvalidArgumentError(f"bands overlap or leave a gap at xi={min(hi, lo2)}")
    regions = []
    for lo, hi, step in ordered:
        for x0 in range(0, L, step):
            center = ((x0 + step // 2) % L, (lo + (hi - lo) // 2) % L)
            regions.append(Symbol.indicator(L, center, _box_cells(L, x0, lo, step, hi - lo)))
    return Cover(L, tuple(regions))


def gen_random_irregular(L: int, seed: int, target_size: int, overlap: float) -> Cover:
    """Randomized irregular box cover, deterministic in ``seed``.

    Boxes have side lengths jittered around ``target_size`` and are anchored
    at the first uncovered grid point in row-major order; ``overlap`` in [0, 1]
    scales both the size jitter and the random back-shift of each box into
    already-covered territory.  With overlap=0 and target_size=L the cover
    degenerates to a single whole-grid region.  Max outer radius is always
    <= 2 * target_size.
    """
    if not (2 <= target_size <= L):
        raise InvalidArgumentError(f"target_size must be in [2, L], got {target_size}")
    if not (0.0 <= overlap <= 1.0):
        raise InvalidArgumentError(f"overlap must be in [0, 1], got {overlap}")
    rng = np.random.default_rng(seed)
    jitter = int(overlap * target_size / 2)
    covered = np.zeros((L, L), dtype=bool)
    regions = []
    while not covered.all():
        flat = int(np.argmin(covered))  # first uncovered cell, row-major
        ax, axi = divmod(flat, L)
        if jitter:
            wd = int(np.clip(target_size + rng.integers(-jitter, jitter + 1), 2, L))
            ht = int(np.clip(target_size + rng.integers(-jitter, jitter + 1), 2, L))
            sx = int(rng.integers(0, min(jitter, wd - 1) + 1))
            sxi = int(rng.integers(0, min(jitter, ht - 1) + 1))
        else:
            wd = ht = target_size
            sx = sxi = 0
        x0, xi0 = (ax - sx) % L, (axi - sxi) % L
        cells = _box_cells(L, x0, xi0, wd, ht)
        center = ((x0 + wd // 2) % L, (xi0 + ht // 2) % L)
        regions.append(Symbol.indicator(L, center, cells))
        covered[cells[:, 0], cells[:, 1]] = True
    return Cover(L, tuple(regions))


# ---------------------------------------------------------------------------
# JSON cover files:
#   {"L": int, "regions": [{"center": [x, xi], "cells": [[x, xi], ...],
#                           "values": [...]}]}
# `values` is omitted when all 1.0; readers accept any key order.
# ---------------------------------------------------------------------------

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


def cover_from_dict(data) -> Cover:
    """Cover from parsed cover JSON; a malformed entry is an InvalidArgumentError."""
    L = data.get("L") if isinstance(data, dict) else None
    if isinstance(L, bool) or not isinstance(L, int) or not isinstance(data.get("regions"), list):
        raise InvalidArgumentError('cover JSON must be an object with an integer "L" and a "regions" list')
    regions = []
    for i, entry in enumerate(data["regions"]):
        if not isinstance(entry, dict):
            raise InvalidArgumentError(f"region {i} must be an object")
        center = _json_array(entry.get("center"), "iu")
        if center is None or center.shape != (2,):
            raise InvalidArgumentError(f'region {i}: "center" must be [x, xi] integers')
        cells = _json_array(entry.get("cells"), "iu")
        if cells is None or cells.ndim != 2 or cells.shape[1] != 2:
            raise InvalidArgumentError(f'region {i}: "cells" must be a list of [x, xi] integer pairs')
        values = entry.get("values")
        if values is None:
            values = np.ones(cells.shape[0])
        else:
            values = _json_array(values, "iuf")
            if values is None or values.shape != (cells.shape[0],):
                raise InvalidArgumentError(f'region {i}: "values" must be one number per cell')
        regions.append(Symbol(L, tuple(center), cells, values))
    return Cover(L, tuple(regions))


# one cell of a region as json.dumps(..., indent=1) lays it out inside the
# regions list
_CELL_JSON = "\n    [\n     %d,\n     %d\n    ]"


def _region_json(s: Symbol) -> str:
    """``json.dumps(entry, indent=1)`` of the region's entry in the cover JSON
    above (the test oracle ``tests/helpers.py::cover_dict`` builds the entries),
    indented two more spaces.

    Filled from fixed templates: integers as %d, values as repr(float),
    which is how the json encoder writes them.
    """
    parts = [
        '  {\n   "center": [\n    %d,\n    %d\n   ],\n   "cells": [' % s.center,
        ",".join([_CELL_JSON] * s.cells.shape[0]) % tuple(s.cells.ravel().tolist()),
        "\n   ]",
    ]
    if not np.all(s.values == 1.0):
        parts += [',\n   "values": [\n    ', ",\n    ".join(map(repr, s.values.tolist())), "\n   ]"]
    parts.append("\n  }")
    return "".join(parts)


def write_cover_json(path, cover: Cover) -> None:
    """The bytes of ``json.dump(cover_dict(cover), indent=1)``, one region at a time,
    where ``cover_dict`` is the test oracle in ``tests/helpers.py``.

    The text of a region takes several times the memory of its cell array, so
    only one region's text is built at once.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f'{{\n "L": {cover.L},\n "regions": [')
        sep = "\n"
        for s in cover.regions:
            fh.write(sep + _region_json(s))
            sep = ",\n"
        fh.write("\n ]\n}\n")


def read_cover_json(path) -> Cover:
    """Cover from a JSON file; a malformed file is an InvalidArgumentError with its path."""
    data = read_json(path, "cover")
    try:
        return cover_from_dict(data)
    except InvalidArgumentError as exc:
        exc.context.setdefault("path", str(path))
        raise
