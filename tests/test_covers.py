import json

import numpy as np
import pytest

from tfloc.core import gauss_window
from tfloc.covers import (
    Cover,
    Symbol,
    gen_random_irregular,
    gen_regular_boxes,
    gen_wedge_cover,
    read_cover_json,
    sum_symbols,
    validate_cover,
    write_cover_json,
)
from tfloc.errors import InvalidArgumentError
from tfloc.locop import class_spectra

from helpers import ball, cover_dict, direct_radii, wrapped_sup_distance


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

    def test_rejects_duplicate_cells(self):
        with pytest.raises(InvalidArgumentError):
            Symbol(4, (0, 0), [(1, 1), (1, 1)], [1.0, 1.0])

    def test_rejects_out_of_range_cells(self):
        with pytest.raises(InvalidArgumentError):
            Symbol(4, (0, 0), [(4, 0)], [1.0])

    def test_mass_and_dense(self):
        s = Symbol(4, (1, 1), [(0, 0), (1, 2)], [0.5, 2.0])
        assert s.mass == pytest.approx(2.5, rel=1e-12)
        d, _, _ = sum_symbols(Cover(4, (s,)))
        assert d[0, 0] == 0.5 and d[1, 2] == 2.0 and d.sum() == pytest.approx(2.5)

    def test_shifted_wraps(self):
        # (1, 1) is (3, 3) shifted by (2, 2) mod 4: one shape class, and the
        # member's translation wraps
        s = Symbol(4, (3, 3), [(3, 3)], [1.0])
        t = Symbol(4, (1, 1), [(1, 1)], [1.0])
        [(_, _, members)] = class_spectra([s, t], gauss_window(4))
        assert members == [(0, (0, 0)), (1, (2, 2))]

    def test_mass_additivity_for_disjoint_indicators(self):
        a = Symbol.indicator(8, (0, 0), [(0, 0), (0, 1)])
        b = Symbol.indicator(8, (4, 4), [(4, 4), (4, 5), (5, 5)])
        union = Symbol.indicator(8, (0, 0), np.vstack([a.cells, b.cells]))
        assert union.mass == a.mass + b.mass


class TestSumSymbols:
    def test_exact_partition_sums_to_one(self):
        cover = gen_regular_boxes(16, 4, 4)
        total, lo, hi = sum_symbols(cover)
        assert lo == 1.0 and hi == 1.0
        assert (total == 1.0).all()

    def test_duplicated_regions_double(self):
        base = gen_regular_boxes(8, 4, 4)
        doubled = Cover(8, base.regions + base.regions)
        _, lo, hi = sum_symbols(doubled)
        assert lo == 2.0 and hi == 2.0

    def test_irregular_generator_covers(self):
        cover = gen_random_irregular(32, seed=7, target_size=8, overlap=0.5)
        _, lo, _ = sum_symbols(cover)
        assert lo >= 1.0


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
        _, lo, hi = sum_symbols(cover)
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
        _, lo, hi = sum_symbols(cover)
        assert lo == 1.0 and hi == 1.0

    def test_dyadic_band_counts(self):
        bands = [(0, 16, 4), (16, 32, 8), (32, 64, 16)]
        cover = gen_wedge_cover(64, bands)
        expected = sum(64 // step for _, _, step in bands)
        assert len(cover.regions) == expected
        _, lo, hi = sum_symbols(cover)
        assert lo == 1.0 and hi == 1.0

    def test_rejects_gap(self):
        with pytest.raises(InvalidArgumentError):
            gen_wedge_cover(16, [(0, 6, 2), (8, 16, 8)])

    def test_rejects_overlap(self):
        with pytest.raises(InvalidArgumentError):
            gen_wedge_cover(16, [(0, 10, 2), (8, 16, 8)])

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidArgumentError):
            gen_wedge_cover(16, [(0, 16, 5)])


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

    def test_rejects_value_length_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"L": 4, "regions": [{"center": [0, 0], "cells": [[0, 0]], "values": [1.0, 2.0]}]}))
        with pytest.raises(InvalidArgumentError):
            read_cover_json(path)
