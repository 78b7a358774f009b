import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tfloc import core, covers
from tfloc.cli import load_config, resolve_cover
from tfloc.covers import (
    Cover,
    Symbol,
    cover_from_dict,
    gen_random_irregular,
    gen_regular_boxes,
    gen_wedge_cover,
    read_cover_json,
    validate_cover,
    write_cover_json,
)
from tfloc.errors import InvalidArgumentError

from helpers import (
    ball,
    bincount_coverage,
    cover_dict,
    direct_coverage,
    direct_frequency_period,
    direct_radii,
    direct_spreadness,
    rescanning_irregular_boxes,
    rolled_spreadness,
    shape_classes,
    shifted_symbol,
    wrapped_sup_distance,
)


def whole_grid_symbol(L, center=(0, 0)):
    cells = [(x, xi) for x in range(L) for xi in range(L)]
    return Symbol.indicator(L, center, cells)


class TestSymbol:
    def test_rejects_negative_values(self):
        with pytest.raises(InvalidArgumentError):
            Symbol(4, (0, 0), [(0, 0)], [-1.0])

    def test_rejects_empty_support(self):
        with pytest.raises(InvalidArgumentError):
            Symbol(4, (0, 0), np.empty((0, 2), dtype=int), [])

    def test_rejects_values_not_one_per_cell(self):
        with pytest.raises(InvalidArgumentError, match="3 cells but 2 values") as info:
            Symbol(4, (0, 0), [(0, 0), (0, 1), (1, 1)], [1.0, 1.0])
        assert info.value.code == "invalid-argument"

    def test_rejects_duplicate_cells(self):
        with pytest.raises(InvalidArgumentError):
            Symbol(4, (0, 0), [(1, 1), (1, 1)], [1.0, 1.0])

    def test_rejects_out_of_range_cells(self):
        with pytest.raises(InvalidArgumentError):
            Symbol(4, (0, 0), [(4, 0)], [1.0])
        with pytest.raises(InvalidArgumentError, match="outside the grid"):
            Symbol(4, (0, 4), [(0, 0)], [1.0])

    def test_cover_rejects_a_region_on_another_grid(self):
        with pytest.raises(InvalidArgumentError, match="region grid 8"):
            Cover(4, (Symbol(4, (0, 0), [(0, 0)], [1.0]), Symbol(8, (0, 0), [(0, 0)], [1.0])))

    def test_mass_and_dense(self):
        s = Symbol(4, (1, 1), [(0, 0), (1, 2)], [0.5, 2.0])
        assert s.mass == pytest.approx(2.5, rel=1e-12)
        d = Cover(4, (s,))._symbol_sum()
        assert d[0, 0] == 0.5 and d[1, 2] == 2.0 and d.sum() == pytest.approx(2.5)

    def test_shifted_wraps(self):
        # (1, 1) is (3, 3) shifted by (2, 2) mod 4: one shape class, and the
        # member's translation wraps
        s = Symbol(4, (3, 3), [(3, 3)], [1.0])
        t = Symbol(4, (1, 1), [(1, 1)], [1.0])
        [cls] = Cover(4, (s, t)).classes
        assert cls.representative is s
        assert cls.members.tolist() == [0, 1] and cls.shifts.tolist() == [[0, 0], [2, 2]]

    def test_mass_additivity_for_disjoint_indicators(self):
        a = Symbol.indicator(8, (0, 0), [(0, 0), (0, 1)])
        b = Symbol.indicator(8, (4, 4), [(4, 4), (4, 5), (5, 5)])
        union = Symbol.indicator(8, (0, 0), np.vstack([a.cells, b.cells]))
        assert union.mass == a.mass + b.mass


class TestSumSymbols:
    def test_exact_partition_sums_to_one(self):
        cover = gen_regular_boxes(16, 4, 4)
        lo, hi = cover.coverage
        assert lo == 1.0 and hi == 1.0
        assert (cover._symbol_sum() == 1.0).all()

    def test_duplicated_regions_double(self):
        base = gen_regular_boxes(8, 4, 4)
        doubled = Cover(8, base.regions + base.regions)
        lo, hi = doubled.coverage
        assert lo == 2.0 and hi == 2.0

    def test_irregular_generator_covers(self):
        cover = gen_random_irregular(32, seed=7, target_size=8, overlap=0.5)
        lo, _ = cover.coverage
        assert lo >= 1.0


class TestWholeGridPasses:
    """``Cover.coverage`` and the spreadness count of ``validate_cover``, each one pass over a bounded working set."""

    @pytest.mark.parametrize("bound", [1 << 18, 25, 1])
    def test_coverage_is_the_per_region_bincount_sum_in_any_runs(self, monkeypatch, bound):
        # overlapping regions of random cells and values; a bound of 25 cells makes runs of two regions,
        # of one region under the bound and of one larger region (the whole grid), and 1 a run per region
        L, rng = 12, np.random.default_rng(11)
        regions = []
        for size in (5, 9, 20, L * L, 3, 30, 12, 7):
            flat = rng.choice(L * L, size, replace=False)
            regions.append(Symbol(L, tuple(rng.integers(0, L, 2)), np.column_stack(divmod(flat, L)), rng.random(size)))
        cover = Cover(L, tuple(regions))
        monkeypatch.setattr(core, "_BATCH_ENTRIES", bound)
        runs = list(cover._cell_runs())
        assert [i for i, *_ in runs] == np.cumsum([0, *(len(run[1]) for run in runs[:-1])]).tolist()
        assert sum(len(run[1]) for run in runs) == len(regions)
        for i, starts, x, xi, values in runs:
            run = cover.regions[i:i + len(starts)]
            assert len(x) <= bound or len(run) == 1
            assert starts.tolist() == np.cumsum([0, *(len(s.cells) for s in run[:-1])]).tolist()
            assert np.array_equal(np.column_stack([x, xi]), np.concatenate([s.cells for s in run]))
            assert np.array_equal(values, np.concatenate([s.values for s in run]))
        if bound == 25:
            assert [len(run[1]) for run in runs] == [2, 1, 1, 1, 1, 2]
        total, (lo, hi) = cover._symbol_sum(), cover.coverage
        expected = bincount_coverage(cover)
        assert total.tobytes() == expected.tobytes()
        assert (lo, hi) == (expected.min(), expected.max())

    def test_coverage_peaks_within_the_grid_and_two_runs(self, monkeypatch):
        # 4,096 regions of 16 cells, in runs of 4,096 cells: a run gathers 24 bytes a cell,
        # its x (which becomes its flat indices), its xi and its values
        monkeypatch.setattr(core, "_BATCH_ENTRIES", 4096)
        cover = gen_regular_boxes(256, 4, 4)
        tracemalloc.start()
        try:
            cover.coverage
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 256 * 8 + 2 * 4096 * 24

    def test_a_validated_cover_keeps_two_numbers_not_the_grid(self):
        # the L x L float sum (8 L^2 bytes) is freed once its extremes are read
        L = 256
        cover = gen_regular_boxes(L, 16, 16)
        tracemalloc.start()
        try:
            rep = validate_cover(cover, R=L, w=16)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2 * L * L
        assert cover.coverage == (rep.sum_min, rep.sum_max) == (1.0, 1.0)

    @pytest.mark.parametrize("w", [1, 3, 16], ids=["w=1", "w=3", "w=L"])
    @pytest.mark.parametrize("seed", range(4))
    def test_spreadness_matches_an_int64_oracle(self, seed, w):
        # 100 one-cell regions centered at points drawn from a pool of 30, so centers repeat
        L, rng = 16, np.random.default_rng(300 + seed)
        centers = rng.integers(0, L, (30, 2))[rng.integers(0, 30, 100)]
        cover = Cover(L, tuple(Symbol.indicator(L, tuple(c), [c]) for c in centers))
        assert np.array_equal(cover.centers, centers) and not cover.centers.flags.writeable
        rep = validate_cover(cover, R=L, w=w)
        assert rep.spreadness == rolled_spreadness(centers, L, w)
        assert rep.duplicate_centers


class TestValidateCover:
    def test_whole_grid_region(self):
        L = 16
        cover = Cover(L, (whole_grid_symbol(L, (5, 5)),))
        rep = validate_cover(cover, R=L // 2)
        assert rep.covers_grid and rep.outer_radius_ok
        assert rep.sum_min == 1.0 and rep.sum_max == 1.0
        assert rep.spreadness == 1

    def test_half_plane_partition(self):
        L = 8
        left = Symbol.indicator(L, (2, 4), [(x, xi) for x in range(4) for xi in range(L)])
        right = Symbol.indicator(L, (6, 4), [(x, xi) for x in range(4, 8) for xi in range(L)])
        rep = validate_cover(Cover(L, (left, right)), R=L // 2)
        assert rep.covers_grid and rep.sum_min == 1.0 and rep.sum_max == 1.0

    def test_regular_boxes_all_checks(self):
        # 4x4 boxes: every support cell is within distance 2 of the box
        # center, B_1(center) is inside every box, and any 4x4 window holds
        # exactly one center
        rep = validate_cover(gen_regular_boxes(16, 4, 4), R=2, r=1, w=4)
        assert rep.covers_grid
        assert rep.outer_radius_ok and rep.max_outer_radius == 2
        assert rep.inner_radius_ok and rep.min_inner_radius == 1
        assert rep.spreadness == 1
        assert not rep.duplicate_centers

    def test_outer_radius_violation_measured(self):
        rep = validate_cover(gen_regular_boxes(16, 8, 8), R=2)
        assert not rep.outer_radius_ok
        assert rep.max_outer_radius == 4

    def test_inner_radius_fails_for_thin_strip(self):
        L = 8
        strip = Symbol.indicator(L, (0, 4), [(0, xi) for xi in range(L)])
        rest = Symbol.indicator(L, (4, 4), [(x, xi) for x in range(1, L) for xi in range(L)])
        rep = validate_cover(Cover(L, (strip, rest)), R=L // 2, r=1)
        assert rep.covers_grid
        assert not rep.inner_radius_ok
        assert rep.min_inner_radius == 0

    def test_duplicate_centers_flagged(self):
        L = 8
        a = whole_grid_symbol(L, (1, 1))
        rep = validate_cover(Cover(L, (a, a)), R=L // 2)
        assert rep.duplicate_centers
        assert rep.spreadness == 2


def radii_cases(L, rng):
    """Indicator symbols on Z_L whose radii span -1 .. L // 2: the whole grid,
    the grid less its center, random sparse supports and boxes that wrap the
    edge with a few cells punched out, centered inside or outside them."""
    everything = [(x, xi) for x in range(L) for xi in range(L)]
    center = tuple(int(v) for v in rng.integers(0, L, 2))
    yield Symbol.indicator(L, center, everything)
    yield Symbol.indicator(L, center, [z for z in everything if z != center])
    for _ in range(15):
        center = tuple(int(v) for v in rng.integers(0, L, 2))
        density = rng.uniform(0.5, 1.0)
        yield Symbol.indicator(L, center, [z for z in everything if z == center or rng.random() < density])
    for _ in range(25):
        x0, xi0 = L - rng.integers(1, 4, 2)  # the box runs past L - 1 and wraps
        wd, ht = rng.integers(2, L + 1, 2)
        box = [((x0 + i) % L, (xi0 + j) % L) for i in range(wd) for j in range(ht)]
        holes = rng.random(len(box)) < 0.03
        cells = [z for z, hole in zip(box, holes) if not hole] or box
        if rng.random() < 0.8:
            center = ((x0 + wd // 2) % L, (xi0 + ht // 2) % L)
        else:
            center = tuple(int(v) for v in rng.integers(0, L, 2))
        yield Symbol.indicator(L, center, cells)


class TestRadii:
    """Outer and inner radii against ``direct_radii``, which builds each ball
    from the wrapped sup metric cell by cell."""

    def test_wrapped_distance(self):
        for z, w, distance in [((0, 0), (7, 1), 1), ((0, 0), (4, 0), 4), ((1, 6), (6, 1), 3)]:
            assert wrapped_sup_distance(8, z, w) == distance
            # a support of one cell lies at the distance between it and the center
            rep = validate_cover(Cover(8, (Symbol.indicator(8, w, [z]),)), R=4)
            assert rep.max_outer_radius == distance

    def test_ball_sizes(self):
        # radius L/2 wraps onto the whole grid
        for center, r, size in [((0, 0), 0, 1), ((3, 3), 1, 9), ((0, 0), 4, 64)]:
            cells = sorted(ball(8, center, r))
            assert len(cells) == size
            rep = validate_cover(Cover(8, (Symbol.indicator(8, center, cells),)), R=4, r=0)
            assert rep.max_outer_radius == r and rep.min_inner_radius == r

    @pytest.mark.parametrize("L", [7, 8, 11, 12])
    def test_match_oracle(self, L):
        symbols = list(radii_cases(L, np.random.default_rng(L)))
        expected = [direct_radii(s) for s in symbols]
        for s, radii in zip(symbols, expected):
            rep = validate_cover(Cover(L, (s,)), R=L // 2, r=0)
            assert (rep.max_outer_radius, rep.min_inner_radius) == radii
        inner = [radii[1] for radii in expected]
        assert {-1, 0, 1, L // 2} <= set(inner)
        # over the family, the largest outer and the smallest inner radius
        rep = validate_cover(Cover(L, tuple(symbols)), R=L // 2, r=1)
        assert rep.max_outer_radius == max(radii[0] for radii in expected)
        assert rep.min_inner_radius == -1 and not rep.inner_radius_ok


class TestRegularBoxes:
    def test_single_region_whole_grid(self):
        cover = gen_regular_boxes(16, 16, 16)
        assert len(cover.regions) == 1
        assert cover.regions[0].mass == 256.0

    def test_counting_4x4(self):
        cover = gen_regular_boxes(16, 4, 4)
        assert len(cover.regions) == 16
        assert all(s.mass == 16.0 for s in cover.regions)

    def test_counting_rectangular(self):
        # (L/bx) * (L/by) = 4 * 3 regions, each of mass bx * by = 12
        cover = gen_regular_boxes(12, 3, 4)
        assert len(cover.regions) == 12
        assert all(s.mass == 12.0 for s in cover.regions)
        lo, hi = cover.coverage
        assert lo == 1.0 and hi == 1.0

    def test_rejects_non_divisor(self):
        with pytest.raises(InvalidArgumentError):
            gen_regular_boxes(16, 5, 4)


class TestWedgeCover:
    def test_single_band_is_whole_grid(self):
        cover = gen_wedge_cover(16, [(0, 16, 16)])
        assert len(cover.regions) == 1
        assert cover.regions[0].mass == 256.0

    def test_two_band_counting(self):
        cover = gen_wedge_cover(16, [(0, 8, 2), (8, 16, 8)])
        assert len(cover.regions) == 8 + 2
        lo, hi = cover.coverage
        assert lo == 1.0 and hi == 1.0

    def test_dyadic_band_counts(self):
        bands = [(0, 16, 4), (16, 32, 8), (32, 64, 16)]
        cover = gen_wedge_cover(64, bands)
        expected = sum(64 // step for _, _, step in bands)
        assert len(cover.regions) == expected
        lo, hi = cover.coverage
        assert lo == 1.0 and hi == 1.0

    def test_rejects_gap(self):
        with pytest.raises(InvalidArgumentError):
            gen_wedge_cover(16, [(0, 6, 2), (8, 16, 8)])
        # a gap at either end of [0, L), or no bands at all
        for bands in ([(2, 16, 8)], [(0, 8, 2)], []):
            with pytest.raises(InvalidArgumentError, match="must cover the frequency axis"):
                gen_wedge_cover(16, bands)

    def test_rejects_overlap(self):
        with pytest.raises(InvalidArgumentError):
            gen_wedge_cover(16, [(0, 10, 2), (8, 16, 8)])

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidArgumentError):
            gen_wedge_cover(16, [(0, 16, 5)])

    def test_rejects_empty_band(self):
        with pytest.raises(InvalidArgumentError, match="empty band"):
            gen_wedge_cover(16, [(0, 8, 2), (8, 8, 4), (8, 16, 8)])


class TestRandomIrregular:
    def test_degenerates_to_single_region(self):
        cover = gen_random_irregular(16, seed=0, target_size=16, overlap=0.0)
        assert len(cover.regions) == 1
        assert cover.regions[0].mass == 256.0

    def test_deterministic_in_seed(self):
        a = gen_random_irregular(32, seed=123, target_size=8, overlap=0.7)
        b = gen_random_irregular(32, seed=123, target_size=8, overlap=0.7)
        assert json.dumps(cover_dict(a)) == json.dumps(cover_dict(b))

    def test_different_seeds_differ(self):
        a = gen_random_irregular(32, seed=1, target_size=8, overlap=0.7)
        b = gen_random_irregular(32, seed=2, target_size=8, overlap=0.7)
        assert json.dumps(cover_dict(a)) != json.dumps(cover_dict(b))

    @pytest.mark.parametrize("seed", [7, 11, 99])
    def test_covers_and_radius_bound(self, seed):
        ts = 8
        cover = gen_random_irregular(32, seed=seed, target_size=ts, overlap=0.5)
        rep = validate_cover(cover, R=2 * ts)
        assert rep.covers_grid
        assert rep.outer_radius_ok

    @pytest.mark.parametrize("L, target_size, overlap", [(16, 4, 0.5), (32, 8, 1.0), (48, 6, 0.3), (64, 16, 1.0),
                                                         (32, 2, 0.0), (40, 40, 1.0)])
    @pytest.mark.parametrize("seed", range(4))
    def test_boxes_match_the_rescanning_oracle(self, monkeypatch, seed, L, target_size, overlap):
        monkeypatch.setattr(covers, "_box_cover", lambda L, boxes: boxes)
        boxes = gen_random_irregular(L, seed, target_size, overlap)
        assert boxes == rescanning_irregular_boxes(L, seed, target_size, overlap)

    def test_rejects_bad_target(self):
        with pytest.raises(InvalidArgumentError):
            gen_random_irregular(16, seed=0, target_size=1, overlap=0.0)
        with pytest.raises(InvalidArgumentError):
            gen_random_irregular(16, seed=0, target_size=4, overlap=1.5)


class TestCoverJson:
    def test_round_trip(self, tmp_path):
        cover = gen_random_irregular(16, seed=5, target_size=5, overlap=0.4)
        path = tmp_path / "cover.json"
        write_cover_json(path, cover)
        back = read_cover_json(path)
        assert json.dumps(cover_dict(back)) == json.dumps(cover_dict(cover))

    @pytest.mark.parametrize(
        "cover",
        [
            gen_random_irregular(16, seed=5, target_size=5, overlap=0.4),
            Cover(4, (Symbol(4, (1, 1), [(1, 1)], [0.5]),)),
            Cover(4, (Symbol(4, (0, 0), [(0, 0), (1, 1)], [1.0, 1.0]), Symbol(4, (2, 2), [(2, 2)], [0.25]))),
            gen_regular_boxes(16, 4, 8),
            gen_wedge_cover(16, [(0, 4, 8), (4, 12, 4), (12, 16, 2)]),
            Cover(8, (Symbol(8, (7, 0), [(7, 0), (0, 7), (3, 5), (6, 6)], [1 / 3, 2.5e20, 1e-300, 0.0]),)),
        ],
        ids=["irregular", "one-weighted", "mixed", "regular", "wedge", "values"],
    )
    def test_written_bytes_are_json_dump(self, tmp_path, cover):
        path = tmp_path / "cover.json"
        write_cover_json(path, cover)
        assert path.read_text() == json.dumps(cover_dict(cover), indent=1) + "\n"

    def test_values_default_to_one(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"L": 4, "regions": [{"center": [0, 0], "cells": [[0, 0], [1, 1]]}]}))
        cover = read_cover_json(path)
        assert (cover.regions[0].values == 1.0).all()

    def test_key_order_in_written_file(self, tmp_path):
        cover = Cover(4, (Symbol(4, (1, 1), [(1, 1)], [0.5]),))
        path = tmp_path / "c.json"
        write_cover_json(path, cover)
        text = path.read_text()
        assert text.index('"L"') < text.index('"regions"')
        assert text.index('"center"') < text.index('"cells"') < text.index('"values"')

    def test_reader_accepts_any_key_order(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"regions": [{"cells": [[0, 0]], "center": [0, 0]}], "L": 4}')
        cover = read_cover_json(path)
        assert cover.L == 4

    @pytest.mark.parametrize(
        "edit, key",
        [
            pytest.param(lambda cover: {**cover, "l": 4}, "l", id="top"),
            pytest.param(lambda cover: {**cover, "symbols": []}, "symbols", id="top-list"),
            # a misspelled "values" would read as all ones
            pytest.param(lambda cover: {**cover, "regions": [{**cover["regions"][0], "vals": [0.5, 0.5]}]},
                         "vals", id="region"),
        ],
    )
    def test_unknown_key_is_invalid_argument(self, tmp_path, edit, key):
        path = tmp_path / "c.json"
        cover = {"L": 4, "regions": [{"center": [0, 0], "cells": [[0, 0], [1, 1]]}]}
        path.write_text(json.dumps(edit(cover)))
        with pytest.raises(InvalidArgumentError, match=f"unknown key '{key}'") as info:
            read_cover_json(path)
        assert info.value.code == "invalid-argument" and info.value.context["path"] == str(path)

    def test_rejects_value_length_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"L": 4, "regions": [{"center": [0, 0], "cells": [[0, 0]], "values": [1.0, 2.0]}]}))
        with pytest.raises(InvalidArgumentError):
            read_cover_json(path)


# the cover seeds of the irregular128 benchmark workload
BENCH_IRREGULAR_SEEDS = [7, 2, 18, 20, 52, 60, 63, 76]


def sorted_rows(s):
    """A symbol's (x, xi, value) rows in lexicographic order."""
    return sorted(zip(s.cells[:, 0].tolist(), s.cells[:, 1].tolist(), s.values.tolist()))


def assert_classes_match_oracle(cover, generated=True):
    """The cover's shape classes are the ``shape_classes`` oracle's, each
    represented by its first member's own Symbol, and every region equals the
    Symbol that the checked constructor builds from its cells, and its
    representative translated by its shift: array for array for a generated
    cover, whose members are translated boxes, and as a set of (cell, value)
    rows for a file cover, whose members keep their own cell order."""
    assert [(c.members.tolist(), c.shifts.tolist()) for c in cover.classes] == shape_classes(cover)
    for c in cover.classes:
        assert c.representative is cover.regions[c.members[0]]
        for gamma, z in zip(c.members.tolist(), c.shifts.tolist()):
            s = cover.regions[gamma]
            moved = shifted_symbol(c.representative, z)
            assert sorted_rows(s) == sorted_rows(moved)
            for other in [Symbol(cover.L, s.center, s.cells, s.values)] + ([moved] if generated else []):
                assert s.L == other.L and s.center == other.center
                assert all(type(v) is int for v in s.center)
                assert s.cells.dtype == other.cells.dtype and s.cells.flags.c_contiguous
                assert s.values.dtype == other.values.dtype
                assert np.array_equal(s.cells, other.cells) and np.array_equal(s.values, other.values)


def assert_validate_matches_oracles(cover, w):
    """``validate_cover``, whose radii come once per shape class, against the
    per-region ``direct_radii``, a cell-by-cell coverage sum (bit for bit)
    and a window-by-window spreadness count."""
    radii = [direct_radii(s) for s in cover.regions]
    rep = validate_cover(cover, R=cover.L // 2, r=0, w=w)
    assert rep.max_outer_radius == max(outer for outer, _ in radii)
    assert rep.min_inner_radius == min(inner for _, inner in radii)
    total = direct_coverage(cover)
    assert np.array_equal(cover._symbol_sum(), total)
    assert (rep.sum_min, rep.sum_max) == (total.min(), total.max())
    assert rep.covers_grid == (total.min() > 0.0)
    assert rep.spreadness == direct_spreadness(cover, w)
    centers = [s.center for s in cover.regions]
    assert rep.duplicate_centers == (len(set(centers)) != len(centers))


def overlapping_cover_dict(rng, L):
    """Cover JSON of a few random weighted shapes, each placed at several
    random centers in a random cell order, so the regions overlap and the
    classes have several members; about a tenth of the values are zero."""
    regions = []
    for _ in range(int(rng.integers(1, 4))):
        wd, ht = (int(v) for v in rng.integers(1, L + 1, 2))
        rel = [(i, j) for i in range(wd) for j in range(ht) if rng.random() < 0.8] or [(0, 0)]
        values = rng.random(len(rel)) * (rng.random(len(rel)) > 0.1)
        offset = rng.integers(0, L, 2)  # the center, relative to the shape's corner
        for _ in range(int(rng.integers(1, 5))):
            corner = rng.integers(0, L, 2)
            order = rng.permutation(len(rel))
            regions.append({
                "center": [int(v) for v in (corner + offset) % L],
                "cells": [[int((corner[0] + rel[k][0]) % L), int((corner[1] + rel[k][1]) % L)] for k in order],
                "values": values[order].tolist(),
            })
    return {"L": L, "regions": [regions[i] for i in rng.permutation(len(regions))]}


class TestShapeClasses:
    @pytest.mark.parametrize("L, bx, by", [(16, 4, 4), (16, 16, 16), (12, 3, 4), (32, 8, 2), (8, 1, 1)])
    def test_regular_boxes(self, L, bx, by):
        cover = gen_regular_boxes(L, bx, by)
        assert len(cover.classes) == 1
        assert_classes_match_oracle(cover)

    @pytest.mark.parametrize("bands", [
        [(0, 8, 2), (8, 16, 4), (16, 32, 8)],  # configs/wedge32.json
        [(0, 8, 4), (8, 16, 4), (16, 32, 4)],  # two bands of one shape share a class
        [(0, 32, 32)],
    ])
    def test_wedge_cover(self, bands):
        assert_classes_match_oracle(gen_wedge_cover(32, bands))

    @pytest.mark.parametrize("seed", BENCH_IRREGULAR_SEEDS)
    def test_irregular_bench_covers(self, seed):
        cover = gen_random_irregular(128, seed, 16, 0.5)
        assert len(cover.classes) > 40
        assert_classes_match_oracle(cover)

    @settings(max_examples=40)
    @given(st.integers(4, 32), st.integers(0, 2**32), st.data())
    def test_irregular_small_covers(self, L, seed, data):
        target = data.draw(st.integers(2, L))
        overlap = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
        assert_classes_match_oracle(gen_random_irregular(L, seed, target, overlap))

    @pytest.mark.parametrize("seed", range(12))
    def test_file_covers(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        data = overlapping_cover_dict(rng, int(rng.integers(4, 11)))
        (tmp_path / "cover.json").write_text(json.dumps(data))
        cover = read_cover_json(tmp_path / "cover.json")
        assert_classes_match_oracle(cover, generated=False)
        assert len(cover.classes) < len(cover.regions) or len(cover.regions) <= 3


class TestValidatePerClass:
    @pytest.mark.parametrize("seed", range(12))
    def test_weighted_overlapping_file_covers(self, seed):
        rng = np.random.default_rng(100 + seed)
        cover = cover_from_dict(overlapping_cover_dict(rng, int(rng.integers(4, 11))))
        assert_validate_matches_oracles(cover, int(rng.integers(1, cover.L + 2)))

    @pytest.mark.parametrize("seed", range(6))
    def test_lattice_covers(self, seed):
        # weighted boxes on the lattice aZ x bZ, each also placed at a random
        # lattice translate, so the classes have members and the regions overlap
        rng = np.random.default_rng(200 + seed)
        L, a, b = [(16, 2, 2), (24, 4, 3), (12, 1, 6)][seed % 3]
        regions = []
        for _ in range(int(rng.integers(1, 5))):
            wj, wk = int(rng.integers(1, min(3, L // a) + 1)), int(rng.integers(1, min(3, L // b) + 1))
            j0, k0 = (int(v) for v in rng.integers(0, L, 2))
            cells = [((a * (j0 + j)) % L, (b * (k0 + k)) % L) for j in range(wj) for k in range(wk)]
            regions.append(Symbol(L, cells[0], cells, rng.random(len(cells))))
        moved = [shifted_symbol(s, (a * int(rng.integers(L // a)), b * int(rng.integers(L // b)))) for s in regions]
        cover = Cover(L, (*regions, *moved))
        assert_classes_match_oracle(cover, generated=False)
        assert_validate_matches_oracles(cover, int(rng.integers(1, L + 2)))

    @pytest.mark.parametrize("cover", [
        gen_regular_boxes(12, 3, 4),
        gen_wedge_cover(12, [(0, 4, 2), (4, 12, 3)]),
        gen_random_irregular(12, 5, 4, 0.5),
    ], ids=["regular", "wedge", "irregular"])
    def test_generated_covers(self, cover):
        for w in (1, 3, 12):
            assert_validate_matches_oracles(cover, w)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def periodic_cover(rng, L):
    """A few random weighted shapes, each placed at a few random centers and
    then at their orbits under (0, p) for a random divisor p of L per shape,
    so each class has its own frequency period, a multiple of the shape's p."""
    regions = []
    for _ in range(int(rng.integers(1, 4))):
        wd, ht = (int(v) for v in rng.integers(1, L + 1, 2))
        rel = np.array([(i, j) for i in range(wd) for j in range(ht) if rng.random() < 0.8] or [(0, 0)])
        values = rng.random(len(rel))
        p = int(rng.choice([d for d in range(1, L + 1) if L % d == 0]))
        for _ in range(int(rng.integers(1, 3))):
            corner = rng.integers(0, L, 2)
            for k in range(0, L, p):
                at = corner + [0, k]
                regions.append(Symbol(L, tuple(int(v) for v in at % L), (rel + at) % L, values))
    return Cover(L, tuple(regions[i] for i in rng.permutation(len(regions))))


class TestFrequencyPeriod:
    @pytest.mark.parametrize("name, p", [
        ("regular16.json", 4), ("gabor16.json", 8), ("irregular16.json", 16), ("wedge32.json", 32),
    ])
    def test_bundled_configs(self, name, p):
        cover = resolve_cover(load_config(CONFIG_DIR / name))
        assert cover.frequency_period == direct_frequency_period(cover) == p

    @pytest.mark.parametrize("L, bx, by", [(16, 4, 4), (16, 16, 16), (12, 3, 4), (32, 8, 2), (8, 1, 1),
                                           (64, 8, 8)])
    def test_regular_boxes_have_the_box_height(self, L, bx, by):
        cover = gen_regular_boxes(L, bx, by)
        assert cover.frequency_period == direct_frequency_period(cover) == by

    def test_one_reshaped_box_gives_L(self):
        boxes = gen_regular_boxes(16, 4, 4)
        s = boxes.regions[5]
        reshaped = Symbol.indicator(16, s.center, s.cells[:-1])  # one cell fewer
        cover = Cover(16, (*boxes.regions[:5], reshaped, *boxes.regions[6:]))
        assert len(cover.classes) == 2
        assert cover.frequency_period == direct_frequency_period(cover) == 16

    def test_a_duplicate_region_counts(self):
        # the shifts as a set are still invariant under (0, 4), as a multiset not
        boxes = gen_regular_boxes(16, 4, 4)
        cover = Cover(16, (*boxes.regions, boxes.regions[0]))
        assert cover.frequency_period == direct_frequency_period(cover) == 16

    def test_two_bands_of_one_shape(self):
        cover = gen_wedge_cover(32, [(0, 8, 4), (8, 16, 4), (16, 32, 4)])
        assert cover.frequency_period == direct_frequency_period(cover) == 32
        cover = gen_wedge_cover(32, [(0, 16, 4), (16, 32, 4)])
        assert cover.frequency_period == direct_frequency_period(cover) == 16

    @pytest.mark.parametrize("seed", range(16))
    def test_periodic_file_covers(self, seed):
        rng = np.random.default_rng(300 + seed)
        cover = periodic_cover(rng, int(rng.choice([6, 8, 12, 16])))
        assert cover.frequency_period == direct_frequency_period(cover)

    @pytest.mark.parametrize("seed", range(6))
    def test_overlapping_file_covers(self, seed):
        rng = np.random.default_rng(400 + seed)
        cover = cover_from_dict(overlapping_cover_dict(rng, int(rng.integers(4, 11))))
        assert cover.frequency_period == direct_frequency_period(cover)
