import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power

from tfloc import gabor, locop
from tfloc.core import Window, gauss_window
from tfloc.covers import Cover, Symbol
from tfloc.errors import InvalidArgumentError, NotAFrameError, PreconditionViolation
from tfloc.frames import SelectionPolicy, frame_certificate
from tfloc.gabor import (
    Lattice,
    LatticeGaborSystem,
    canonical_tight,
    gabor_eigenframe,
    gabor_multiplier,
    lattice_coverage_min,
)
from tfloc.locop import assemble_locop, eigendecomp

from helpers import (
    dense_gabor_frame_operator,
    direct_gabor_multiplier,
    frame_operator,
    ill_conditioned_window,
    lattice_mask,
    shift_matrix,
)

L16 = 16

# golden values for L=16, a=b=2 with the Gaussian window (independent
# double-loop oracle, frozen before the build)
GABOR16_A = 3.9701767137710937
GABOR16_B = 4.0299348811843
GM16_BLOCK_TOP8 = [
    0.9870592851010586,
    0.9261806741305996,
    0.7878388372734503,
    0.5857597270262443,
    0.3722985812609125,
    0.20007098588158684,
    0.09083121957665807,
    0.03491242848579908,
]


@pytest.fixture(scope="module")
def phi16():
    return gauss_window(L16)


@pytest.fixture(scope="module")
def lat22():
    return Lattice(L16, 2, 2)


@pytest.fixture(scope="module")
def tight22(phi16, lat22):
    return canonical_tight(phi16, lat22)


def walnut_to_dense(blocks, L):
    """The L x L matrix that the (L/b, b, b) Walnut blocks stand for."""
    M, b, _ = blocks.shape
    S = np.zeros((L, L), complex)
    for r in range(M):
        idx = r + M * np.arange(b)
        S[np.ix_(idx, idx)] = blocks[r]
    return S


def dense_tight(phi, L, a, b):
    """S^{-1/2} phi / ||.|| from the dense frame operator."""
    w, Q = np.linalg.eigh(dense_gabor_frame_operator(L, a, b, phi.samples))
    v = Q @ ((Q.conj().T @ phi.samples) / np.sqrt(w))
    return v / np.linalg.norm(v)


def lattice_block_cover(L=L16, a=2, b=2):
    """Partition of the (L/a) x (L/b) lattice into four quadrant blocks."""
    nj, nk = L // a // 2, L // b // 2
    regions = []
    for bj in range(2):
        for bk in range(2):
            cells = [
                (a * (nj * bj + j), b * (nk * bk + k)) for j in range(nj) for k in range(nk)
            ]
            center = (a * (nj * bj + nj // 2), b * (nk * bk + nk // 2))
            regions.append(Symbol.indicator(L, center, cells))
    return Cover(L, tuple(regions))


class TestLattice:
    def test_point_count(self):
        lat = Lattice(16, 2, 4)
        assert lat.n_points == 8 * 4
        pts = lat.points()
        assert pts.shape == (32, 2)
        assert [2, 4] in pts.tolist() and [1, 4] not in pts.tolist()

    def test_rejects_non_divisors(self):
        with pytest.raises(InvalidArgumentError):
            Lattice(16, 3, 2)


class TestFrameOperator:
    def test_full_grid_is_L_times_identity(self, phi16):
        S = dense_gabor_frame_operator(L16, 1, 1, phi16.samples)
        assert np.max(np.abs(S - L16 * np.eye(L16))) <= 1e-9
        lat = Lattice(L16, 1, 1)
        blocks = gabor._walnut_blocks(phi16, lat)
        assert blocks.shape == (L16, 1, 1)
        assert np.max(np.abs(walnut_to_dense(blocks, L16) - L16 * np.eye(L16))) <= 1e-9
        ev = np.linalg.eigvalsh(blocks)
        assert ev.min() == pytest.approx(L16, abs=1e-9)
        assert ev.max() == pytest.approx(L16, abs=1e-9)

    def test_golden_bounds(self, phi16, lat22):
        ev = np.linalg.eigvalsh(gabor._walnut_blocks(phi16, lat22))
        assert ev.min() == pytest.approx(GABOR16_A, abs=1e-8)
        assert ev.max() == pytest.approx(GABOR16_B, abs=1e-8)

    def test_undersampled_reports_zero_lower_bound(self, phi16):
        lat = Lattice(L16, 8, 8)  # 4 points < 16 dimensions
        assert abs(np.linalg.eigvalsh(gabor._walnut_blocks(phi16, lat)).min()) <= 1e-9

    def test_commutes_with_lattice_shifts(self, phi16, lat22):
        S = walnut_to_dense(gabor._walnut_blocks(phi16, lat22), L16)
        assert np.max(np.abs(S - dense_gabor_frame_operator(L16, 2, 2, phi16.samples))) <= 1e-12
        for z in [(2, 0), (0, 2), (4, 6)]:
            U = shift_matrix(L16, *z)
            assert np.max(np.abs(U @ S - S @ U)) <= 1e-9

    @pytest.mark.parametrize("L,a,b", [(16, 1, 1), (16, 2, 2), (240, 4, 6), (256, 8, 4)])
    def test_blocks_match_dense_oracle(self, L, a, b):
        phi, lat = gauss_window(L), Lattice(L, a, b)
        S = dense_gabor_frame_operator(L, a, b, phi.samples)
        ev = np.linalg.eigvalsh(S)
        blocks = gabor._walnut_blocks(phi, lat)
        assert np.max(np.abs(walnut_to_dense(blocks, L) - S)) <= 1e-12 * ev[-1]
        block_ev = np.linalg.eigvalsh(blocks)
        assert block_ev.min() == pytest.approx(ev[0], rel=1e-12)
        assert block_ev.max() == pytest.approx(ev[-1], rel=1e-12)
        sys_ = canonical_tight(phi, lat)
        assert np.max(np.abs(sys_.window.samples - dense_tight(phi, L, a, b))) <= 1e-12
        S_tight = dense_gabor_frame_operator(L, a, b, sys_.window.samples)
        ev_tight = np.linalg.eigvalsh(S_tight)
        assert ev_tight[-1] / ev_tight[0] <= 1 + 1e-8
        assert sys_.tight_constant == pytest.approx(L / np.trace(S_tight).real, rel=1e-12)

    def test_tight_system_builds_no_shifted_window_matrix(self, phi16, lat22, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a grid operator block was assembled")

        monkeypatch.setattr(locop, "_block_operator", forbidden)
        assert isinstance(canonical_tight(phi16, lat22), LatticeGaborSystem)


class TestCanonicalTight:
    def test_already_tight_returns_same_window(self, phi16):
        phit = canonical_tight(phi16, Lattice(L16, 1, 1)).window
        assert abs(abs(np.vdot(phit.samples, phi16.samples)) - 1.0) <= 1e-12

    def test_forces_tightness(self, tight22):
        ev = np.linalg.eigvalsh(gabor._walnut_blocks(tight22.window, tight22.lattice))
        assert ev.max() / ev.min() <= 1 + 1e-8
        assert tight22.tight_constant == pytest.approx(L16 / tight22.lattice.n_points, rel=1e-9)

    def test_against_matrix_power_oracle(self):
        for L, a, b in [(16, 2, 2), (240, 4, 6)]:
            phi = gauss_window(L)
            phit = canonical_tight(phi, Lattice(L, a, b)).window
            S = dense_gabor_frame_operator(L, a, b, phi.samples)
            oracle = fractional_matrix_power(S, -0.5) @ phi.samples
            oracle = oracle / np.linalg.norm(oracle)
            assert np.max(np.abs(phit.samples - oracle)) <= 1e-9

    def test_not_a_frame_rejected(self, phi16):
        with pytest.raises(NotAFrameError):
            canonical_tight(phi16, Lattice(L16, 8, 8))

    def test_ill_conditioned_window_rejected(self):
        # inside the 1e-9 frame floor, but S^{-1/2} phi misses tightness by about 4e-8
        phi, lat = Window.unit(ill_conditioned_window()), Lattice(L16, 4, 4)
        ev = np.linalg.eigvalsh(gabor._walnut_blocks(phi, lat))
        assert 1e8 < ev.max() / ev.min() < 1e9
        with pytest.raises(PreconditionViolation, match="canonical tight window is not tight"):
            canonical_tight(phi, lat)


class TestGaborMultiplier:
    def test_unit_mask_is_identity(self, tight22):
        GM = gabor_multiplier(np.ones((8, 8)), tight22)
        assert np.max(np.abs(GM - np.eye(L16))) <= 1e-9

    def test_point_mask_rank_one(self, tight22):
        m = np.zeros((8, 8))
        m[2, 3] = 1.0
        GM = gabor_multiplier(m, tight22)
        ev = np.linalg.eigvalsh(GM)[::-1]
        assert ev[0] == pytest.approx(tight22.tight_constant, abs=1e-10)
        assert np.max(np.abs(ev[1:])) <= 1e-10
        assert eigendecomp(GM).eigenvalues.size == 1

    def test_matches_outer_product_oracle(self, tight22):
        rng = np.random.default_rng(43)
        m = rng.random((8, 8)) * (rng.random((8, 8)) < 0.3)
        GM = gabor_multiplier(m, tight22)
        expected = direct_gabor_multiplier(L16, 2, 2, tight22.window.samples, m)
        assert np.max(np.abs(GM - expected)) <= 1e-12

    def test_block_mask_golden_spectrum(self, tight22):
        m = np.zeros((8, 8))
        m[:4, :4] = 1.0
        ev = eigendecomp(gabor_multiplier(m, tight22)).eigenvalues
        np.testing.assert_allclose(ev[:8], GM16_BLOCK_TOP8, atol=1e-8)

    def test_trace_identity_random_masks(self, tight22):
        rng = np.random.default_rng(40)
        A = tight22.tight_constant
        for _ in range(20):
            m = rng.random((8, 8))
            GM = gabor_multiplier(m, tight22)
            assert np.trace(GM).real == pytest.approx(A * float(m.sum()), rel=1e-10)

    def test_lattice_covariance(self, tight22):
        rng = np.random.default_rng(41)
        m = rng.random((8, 8))
        ev = np.linalg.eigvalsh(gabor_multiplier(m, tight22))
        for shift in [(1, 0), (0, 3), (2, 5)]:  # lattice-index shifts
            m_shifted = np.roll(np.roll(m, shift[0], axis=0), shift[1], axis=1)
            ev_s = np.linalg.eigvalsh(gabor_multiplier(m_shifted, tight22))
            np.testing.assert_allclose(ev_s, ev, atol=1e-9)

    def test_full_grid_bridge_to_locop(self, phi16):
        sys1 = canonical_tight(phi16, Lattice(L16, 1, 1))
        rng = np.random.default_rng(42)
        m = rng.random((L16, L16))
        GM = gabor_multiplier(m, sys1)
        cells = [(x, xi) for x in range(L16) for xi in range(L16)]
        H = assemble_locop(Symbol(L16, (0, 0), cells, m.reshape(-1)), phi16)
        assert np.max(np.abs(GM - H)) <= 1e-9

    def test_rejects_negative_mask(self, tight22):
        m = np.zeros((8, 8))
        m[0, 0] = -1.0
        with pytest.raises(InvalidArgumentError):
            gabor_multiplier(m, tight22)


def random_lattice_cover(rng, L, a, b, n_regions):
    """Boxes of random size and corner on the lattice index grid, wrapping at
    its edges, with random values of which about a fifth are zero."""
    nj, nk = L // a, L // b
    regions = []
    for _ in range(n_regions):
        wj, wk = rng.integers(1, nj + 1), rng.integers(1, nk + 1)
        j0, k0 = rng.integers(0, nj), rng.integers(0, nk)
        cells = [(a * ((j0 + j) % nj), b * ((k0 + k) % nk)) for j in range(wj) for k in range(wk)]
        cells = [cells[i] for i in rng.permutation(len(cells))]
        values = rng.random(len(cells)) * (rng.random(len(cells)) > 0.2)
        regions.append(Symbol(L, (a * j0, b * k0), cells, values))
    return Cover(L, tuple(regions))


class TestLatticeSymbols:
    def test_symbol_restriction(self, tight22):
        # cells in lattice.points() order, zero values dropped, values scaled by A L
        s = Symbol(L16, (2, 2), [(2, 4), (0, 6), (4, 0), (0, 0)], [2.0, 0.0, 1.5, 0.5])
        m = gabor._multiplier_symbol(s, tight22)
        assert m.center == (2, 2)
        assert m.cells.tolist() == [[0, 0], [2, 4], [4, 0]]
        scale = tight22.tight_constant * L16
        assert m.values.tolist() == [scale * 0.5, scale * 2.0, scale * 1.5]
        # an all-zero symbol keeps one zero-weight cell: the zero operator
        zero = gabor._multiplier_symbol(Symbol(L16, (2, 2), [(2, 4), (2, 2)], [0.0, 0.0]), tight22)
        assert zero.cells.tolist() == [[2, 2]] and zero.values.tolist() == [0.0]

    def test_off_lattice_cell_rejected_with_index(self, lat22):
        full = Symbol.indicator(L16, (0, 0), lat22.points())
        s = Symbol(L16, (0, 0), [(0, 0), (3, 4)], [1.0, 1.0])
        with pytest.raises(InvalidArgumentError) as err:
            lattice_coverage_min(Cover(L16, (full, s)), lat22)
        assert err.value.context["cell_index"] == 1 and err.value.context["region"] == 1
        assert "(3, 4) of region 1" in str(err.value)

    def test_masses_match_direct_sums(self, lat22):
        cover = lattice_block_cover()
        assert [s.mass for s in cover.regions] == [16.0, 16.0, 16.0, 16.0]
        assert [lattice_mask(s, lat22).sum() for s in cover.regions] == [16.0, 16.0, 16.0, 16.0]
        assert lattice_coverage_min(cover, lat22) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_coverage_min_matches_oracle(self, seed):
        # odd seeds add a region over the whole lattice, so the min is positive
        rng = np.random.default_rng(seed)
        L, a, b = [(16, 2, 2), (24, 4, 3), (12, 1, 6)][seed % 3]
        lat = Lattice(L, a, b)
        cover = random_lattice_cover(rng, L, a, b, n_regions=int(rng.integers(1, 12)))
        if seed % 2:
            whole = Symbol(L, (0, 0), lat.points(), 0.5 + rng.random(lat.n_points))
            cover = Cover(L, (*cover.regions, whole))
        total = np.zeros((L // a, L // b))
        for s in cover.regions:
            total += lattice_mask(s, lat)
        assert lattice_coverage_min(cover, lat) == total.min()


class TestGaborEigenframe:
    def test_whole_lattice_single_region_orthonormal(self, tight22, lat22):
        cells = [tuple(p) for p in lat22.points()]
        cover = Cover(L16, (Symbol.indicator(L16, (0, 0), cells),))
        frame = gabor_eigenframe(
            cover, tight22, SelectionPolicy("epsilon", epsilon=0.5, n_max=L16)
        )
        cert = frame_certificate(frame)
        assert frame.lams.size == L16
        assert cert.A == pytest.approx(1.0, abs=1e-9)
        assert cert.B == pytest.approx(1.0, abs=1e-9)

    def test_block_partition_frame_with_oracle(self, tight22):
        cover = lattice_block_cover()
        policy = SelectionPolicy("epsilon", epsilon=0.1, n_max=L16)
        frame = gabor_eigenframe(cover, tight22, policy)
        cert = frame_certificate(frame)
        assert cert.is_frame and cert.A > 0
        # frame operator oracle: sum over regions of (GM^eps)^2
        expected = np.zeros((L16, L16), complex)
        for s in cover.regions:
            m = lattice_mask(s, tight22.lattice)
            lam, Q = np.linalg.eigh(direct_gabor_multiplier(L16, 2, 2, tight22.window.samples, m))
            keep = lam > 0.1
            expected += (Q[:, keep] * lam[keep] ** 2) @ Q[:, keep].conj().T
        assert np.max(np.abs(frame_operator(frame) - expected)) <= 1e-9

    def test_noncovering_lattice_rejected(self, tight22):
        cover = Cover(L16, (Symbol.indicator(L16, (0, 0), [(0, 0)]),))
        with pytest.raises(PreconditionViolation):
            gabor_eigenframe(cover, tight22, SelectionPolicy("epsilon", epsilon=0.1))

    def test_degenerate_region_warns(self, tight22, lat22):
        cells = [tuple(p) for p in lat22.points()]
        full = Symbol.indicator(L16, (0, 0), cells)
        dead = Symbol(L16, (2, 2), [(2, 2)], [0.0])  # zero mask on the lattice
        cover = Cover(L16, (full, dead))
        with pytest.warns(UserWarning, match="numerically zero"):
            frame = gabor_eigenframe(
                cover, tight22, SelectionPolicy("epsilon", epsilon=0.5, n_max=L16)
            )
        assert np.all(frame.gammas == 0)
        cert = frame_certificate(frame)
        assert cert.A == pytest.approx(1.0, abs=1e-9)

    def test_off_lattice_center_rejected(self, tight22, lat22):
        cells = [tuple(p) for p in lat22.points()]
        cover = Cover(L16, (Symbol.indicator(L16, (1, 0), cells),))
        with pytest.raises(InvalidArgumentError):
            gabor_eigenframe(cover, tight22, SelectionPolicy("epsilon", epsilon=0.1))
