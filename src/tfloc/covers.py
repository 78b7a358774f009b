"""Covers of the phase-space grid: symbol families, admissibility, generators.

A cover is an indexed family of nonnegative masks ("symbols") on Z_L x Z_L,
each with a designated center.  Admissibility is checked in exact integer
arithmetic on supports: bounded outer radius, optional inner regularity
(a full ball around each center inside the support), and a spreadness count
of centers per window.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import core
from .core import _INT64_MAX, _json_array, _json_keys, _naming, read_json
from .errors import InvalidArgumentError


@dataclass(frozen=True, eq=False)
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
        flat = np.sort(cells[:, 0] * self.L + cells[:, 1])
        if (flat[1:] == flat[:-1]).any():
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


class ShapeClass(NamedTuple):
    """The regions of a cover that are translates of one shape: the first
    one's Symbol, the region indices ascending, and row k of the (m, 2)
    ``shifts`` the z, mod L, with region members[k] = representative(. - z)."""

    representative: Symbol
    members: np.ndarray
    shifts: np.ndarray


@dataclass(frozen=True, eq=False)
class Cover:
    """An indexed family of Symbols on a common grid, in shape classes ordered by representative.

    Regions of equal ``shape_keys``, which a generator knows, are one class;
    without keys, those whose cells relative to their centers (mod L) and values are byte-equal.
    """

    L: int
    regions: tuple[Symbol, ...]
    shape_keys: InitVar[Sequence | None] = None
    classes: tuple[ShapeClass, ...] = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)  # the (n, 2) region centers, read-only

    def __post_init__(self, shape_keys):
        regions = tuple(self.regions)
        if not regions:
            raise InvalidArgumentError("cover has no regions")
        for s in regions:
            if s.L != self.L:
                raise InvalidArgumentError(f"region grid {s.L} does not match cover grid {self.L}")
        object.__setattr__(self, "regions", regions)
        if shape_keys is None:
            shape_keys = []
            for s in regions:
                rel = (s.cells - np.asarray(s.center)) % self.L
                order = np.lexsort((rel[:, 1], rel[:, 0]))
                shape_keys.append((rel[order].tobytes(), s.values[order].tobytes()))
        groups: dict[object, list[int]] = {}
        for gamma, key in enumerate(shape_keys):
            groups.setdefault(key, []).append(gamma)
        centers = np.array([s.center for s in regions])
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "classes", tuple(
            ShapeClass(regions[m[0]], np.array(m), (centers[m] - centers[m[0]]) % self.L)
            for m in groups.values()
        ))

    def _cell_runs(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """(i, starts, x, xi, values): the regions in order, in runs i, i + 1, ... of at most core._BATCH_ENTRIES
        cells in all (or of one larger region), their cells' x and xi and their values concatenated, ``starts``
        each one's first cell there.  x and xi are gathered apart: a freed 16-byte-a-cell block raises glibc's
        mmap threshold, which raised the peak of a later ``frame`` at L = 256 by 2 MB."""
        ends = np.cumsum([0, *(len(s.cells) for s in self.regions)])
        i = 0
        while i < len(self.regions):
            j = max(i + 1, int(np.searchsorted(ends, ends[i] + core._BATCH_ENTRIES, side="right")) - 1)
            run = self.regions[i:j]
            yield (i, ends[i:j] - ends[i], *(np.concatenate([s.cells[:, k] for s in run]) for k in (0, 1)),
                   np.concatenate([s.values for s in run]))
            i = j

    def _symbol_sum(self) -> np.ndarray:
        """The pointwise sum of all symbols, L x L, formed a run of regions at a time (``_cell_runs``) by
        ``np.add.at``, which adds in array order as ``np.bincount`` does: each cell sums its values in region
        order, from zero, so the bits do not depend on the runs."""
        L = self.L
        total = np.zeros((L, L))
        for _, _, x, xi, values in self._cell_runs():
            x *= L
            x += xi  # the flat index x L + xi, in the run's own x
            np.add.at(total.reshape(-1), x, values)
            del x, xi, values  # the next run is gathered without this one
        return total

    @cached_property
    def coverage(self) -> tuple[float, float]:
        """(sum_min, sum_max), the extremes of the pointwise symbol sum (``_symbol_sum``); the sum is not kept."""
        total = self._symbol_sum()
        return float(total.min()), float(total.max())

    @cached_property
    def radii(self) -> np.ndarray:
        """The (outer, inner) radius of each shape class (``_radii``), one row per class."""
        return np.array([_radii(c.representative) for c in self.classes])

    @cached_property
    def frequency_period(self) -> int:
        """The least p dividing L such that every class's shifts, as a multiset, are invariant
        under (0, p); L if no smaller p is.

        Then every sum over the members z of a class of pi(z) K pi(z)*, such as the frame
        operator, commutes with pi(0, p) and vanishes off t = t' mod L/p.  p holds for a
        class when its flat shifts x L + xi, sorted, equal the sorted flat shifts of
        z + (0, p): the shift by (0, p) maps the members onto themselves, duplicates counted.
        """
        L = self.L
        periods = [p for p in range(1, L) if L % p == 0]
        for c in self.classes:
            x, xi = c.shifts[:, 0] * L, c.shifts[:, 1]
            flat = np.sort(x + xi)
            periods = [p for p in periods if np.array_equal(np.sort(x + (xi + p) % L), flat)]
            if not periods:
                return L
        return periods[0]


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


def _radii(s: Symbol) -> tuple[int, int]:
    """(outer, inner) radius of a symbol's support around its center, the same for a translate:
    the largest wrapped sup distance d of a cell, and the largest r with the whole ball B_r, whose
    min(2r + 1, L)^2 cells are the cells with d <= r, inside the support (-1 if none)."""
    L = s.L
    d = np.abs(s.cells - np.asarray(s.center))
    d = np.minimum(d, L - d).max(axis=1)
    radii = np.arange(L // 2 + 1)
    full = np.bincount(d, minlength=radii.size).cumsum() == np.minimum(2 * radii + 1, L) ** 2
    return int(d.max()), L // 2 if full.all() else int(np.argmin(full)) - 1


def validate_cover(cover: Cover, R: int, r: int | None = None, w: int = 1) -> AdmissibilityReport:
    """Admissibility report for a cover; pure, never raises on well-formed input.

    Outer radius and inner radius are exact integer computations on supports, in the wrapped sup metric,
    once per shape class (``Cover.radii``); coverage is sum_min > 0, from the two extremes ``Cover.coverage``
    keeps; spreadness is the max number of centers in any wrapped half-open ``w`` x ``w`` window, counted in one
    (L + min(w, L)) x L buffer, which is allocated after the symbol sum is freed.
    """
    if R < 0 or w < 1 or (r is not None and r < 0):
        raise InvalidArgumentError(f"bad radii R={R}, r={r}, w={w}")
    L, w_ = cover.L, min(w, cover.L)
    sum_min, sum_max = cover.coverage
    max_outer = int(cover.radii[:, 0].max())
    min_inner = None if r is None else int(cover.radii[:, 1].min())

    counts = np.zeros((L + w_, L), dtype=np.int32)
    np.add.at(counts, tuple(cover.centers.T), 1)
    duplicate_centers = bool(counts.max() > 1)
    # wrapped window sums along each axis in turn: the counts, extended by their first w rows, are cumulated in
    # place, and row a of the difference sums the window at a + 1; an int32 sum may wrap, but no difference does
    for _ in range(2):
        counts[L:] = counts[:w_]
        np.cumsum(counts, axis=0, dtype=np.int32, out=counts)
        counts[:L] = (counts[w_:] - counts[:L]).T

    return AdmissibilityReport(
        covers_grid=sum_min > 0.0,
        outer_radius_ok=max_outer <= R,
        max_outer_radius=max_outer,
        inner_radius_ok=None if r is None else min_inner >= r,
        min_inner_radius=min_inner,
        spreadness=int(counts[:L].max()),
        window=w,
        sum_min=sum_min,
        sum_max=sum_max,
        duplicate_centers=duplicate_centers,
    )


# ---------------------------------------------------------------------------
# Generators.  All emit indicator symbols and sum exactly to 1 where stated.
# ---------------------------------------------------------------------------

def _box_cover(L: int, boxes) -> Cover:
    """The indicator cover of the boxes (x0, xi0, wd, ht), in order, centered at (x0 + wd // 2,
    xi0 + ht // 2) mod L.  Boxes of equal sides are one shape class: the first is a checked
    Symbol, and every other member is that box translated."""
    first: dict[tuple[int, int], Symbol] = {}
    regions = []
    for x0, xi0, wd, ht in boxes:
        center = ((x0 + wd // 2) % L, (xi0 + ht // 2) % L)
        rep = first.get((wd, ht))
        if rep is None:
            xs, xis = np.meshgrid((x0 + np.arange(wd)) % L, (xi0 + np.arange(ht)) % L, indexing="ij")
            rep = first[wd, ht] = Symbol.indicator(L, center, np.stack([xs, xis], axis=-1))
            regions.append(rep)
        else:  # a translate of the checked first box is valid, so it skips the checks
            member = object.__new__(Symbol)
            member.__dict__.update(L=L, center=center, values=rep.values,
                                   cells=(rep.cells + np.subtract(center, rep.center)) % L)
            regions.append(member)
    return Cover(L, tuple(regions), [(wd, ht) for _, _, wd, ht in boxes])


def gen_regular_boxes(L: int, bx: int, by: int) -> Cover:
    """Partition into (L/bx) x (L/by) disjoint boxes; centers at box centers."""
    if bx < 1 or by < 1 or L % bx or L % by:
        raise InvalidArgumentError(f"box sides ({bx}, {by}) must divide L={L}")
    return _box_cover(L, [(x0, xi0, bx, by) for x0 in range(0, L, bx) for xi0 in range(0, L, by)])


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
    return _box_cover(L, [(x0, lo, step, hi - lo) for lo, hi, step in ordered for x0 in range(0, L, step)])


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
    cells, flat, boxes = covered.reshape(-1), 0, []
    # the anchor is the first uncovered cell, row-major; the cells before the last one are covered: resume there
    while not cells[flat := flat + int(np.argmin(cells[flat:]))]:
        ax, axi = divmod(flat, L)
        wd = int(np.clip(target_size + rng.integers(-jitter, jitter + 1), 2, L))
        ht = int(np.clip(target_size + rng.integers(-jitter, jitter + 1), 2, L))
        sx = int(rng.integers(0, min(jitter, wd - 1) + 1))
        sxi = int(rng.integers(0, min(jitter, ht - 1) + 1))
        x0, xi0 = (ax - sx) % L, (axi - sxi) % L
        boxes.append((x0, xi0, wd, ht))
        covered[np.ix_((x0 + np.arange(wd)) % L, (xi0 + np.arange(ht)) % L)] = True
    return _box_cover(L, boxes)


# ---------------------------------------------------------------------------
# JSON cover files:
#   {"L": int, "regions": [{"center": [x, xi], "cells": [[x, xi], ...],
#                           "values": [...]}]}
# `values` is omitted when all 1.0; readers accept any key order.
# ---------------------------------------------------------------------------

def cover_from_dict(data) -> Cover:
    """Cover from parsed cover JSON; a malformed entry is an InvalidArgumentError."""
    L = data.get("L") if isinstance(data, dict) else None
    if isinstance(L, bool) or not isinstance(L, int) or not isinstance(data.get("regions"), list):
        raise InvalidArgumentError('cover JSON must be an object with an integer "L" and a "regions" list')
    if not 1 <= L <= _INT64_MAX:
        raise InvalidArgumentError(f'cover "L" must be an integer in [1, {_INT64_MAX}], not {L}')
    _json_keys(data, ("L", "regions"), "cover JSON")
    regions = []
    for i, entry in enumerate(data["regions"]):
        if not isinstance(entry, dict):
            raise InvalidArgumentError(f"region {i} must be an object")
        _json_keys(entry, ("center", "cells", "values"), f"region {i}")
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


def _region_json(s: Symbol, x_text: np.ndarray, xi_text: np.ndarray) -> str:
    """``json.dumps(entry, indent=1)`` of the region's entry in the cover JSON
    above (the test oracle ``tests/helpers.py::cover_dict`` builds the entries),
    indented two more spaces.

    Filled from fixed templates: integers as %d, values as repr(float),
    which is how the json encoder writes them.  The text of a cell [x, xi]
    is entry x of ``x_text`` and entry xi of ``xi_text`` (``write_cover_json``).
    """
    parts = [
        '  {\n   "center": [\n    %d,\n    %d\n   ],\n   "cells": [' % s.center,
        ",".join((x_text[s.cells[:, 0]] + xi_text[s.cells[:, 1]]).tolist()),
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
    only one region's text is built at once.  A cell's text is joined from
    two tables, of the L texts of its x and of its xi, each formatted once.
    """
    L = cover.L
    x_text = np.array(["\n    [\n     %d," % i for i in range(L)], dtype=object)
    xi_text = np.array(["\n     %d\n    ]" % i for i in range(L)], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(f'{{\n "L": {L},\n "regions": [')
        sep = "\n"
        for s in cover.regions:
            fh.write(sep + _region_json(s, x_text, xi_text))
            sep = ",\n"
        fh.write("\n ]\n}\n")


def read_cover_json(path) -> Cover:
    """Cover from a JSON file; a malformed file is an InvalidArgumentError with its path."""
    with _naming(path):
        return cover_from_dict(read_json(path, "cover"))
