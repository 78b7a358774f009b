import numpy as np
import pytest

from tfloc.core import gauss_window
from tfloc.covers import Symbol
from tfloc.errors import InvalidArgumentError
from tfloc.frames import SelectionPolicy, select_eigenfunctions
from tfloc.locop import assemble_locop, eigendecomp

from helpers import (
    direct_assemble,
    direct_concentration,
    direct_shift,
    orthonormal_set,
    random_signal,
    shift_matrix,
    shifted_symbol,
    thresholded,
)

L16 = 16

# spectrum of the operator of the centered 8x8 box at L=16 with the Gaussian
# window, computed with an independent double-loop assembly + eigensolve
# before the build and frozen here as golden values
BOX16_TOP8 = [
    0.9801699244776373,
    0.9028786882737693,
    0.7536392648151395,
    0.5615391365128077,
    0.37262770536979684,
    0.2204679282806286,
    0.11654554565823881,
    0.05520133224675067,
]


def full_grid(L, value=1.0):
    cells = [(x, xi) for x in range(L) for xi in range(L)]
    return Symbol(L, (0, 0), cells, np.full(L * L, value))


def centered_box16():
    cells = [(x, xi) for x in range(4, 12) for xi in range(4, 12)]
    return Symbol.indicator(L16, (8, 8), cells)


@pytest.fixture(scope="module")
def phi16():
    return gauss_window(L16)


@pytest.fixture(scope="module")
def box_op(phi16):
    return assemble_locop(centered_box16(), phi16)


class TestAssemble:
    def test_unit_symbol_gives_identity(self, phi16):
        op = assemble_locop(full_grid(L16), phi16)
        assert np.max(np.abs(op - np.eye(L16))) <= 1e-10

    def test_single_point_rank_one(self, phi16):
        s = Symbol.indicator(L16, (3, 5), [(3, 5)])
        op = assemble_locop(s, phi16)
        w = direct_shift(L16, 3, 5, phi16.samples)
        expected = np.outer(w, w.conj()) / L16
        assert np.max(np.abs(op - expected)) <= 1e-12
        ev = eigendecomp(op).eigenvalues
        assert ev[0] == pytest.approx(1 / L16, abs=1e-10)
        assert np.max(np.abs(ev[1:])) <= 1e-10

    def test_box_trace_and_golden_spectrum(self, box_op):
        assert np.trace(box_op).real == pytest.approx(64 / 16, rel=1e-10)
        ev = eigendecomp(box_op).eigenvalues
        np.testing.assert_allclose(ev[:8], BOX16_TOP8, atol=1e-8)

    def test_matches_direct_definition(self, phi16):
        rng = np.random.default_rng(10)
        cells = [(int(x), int(xi)) for x, xi in rng.integers(0, L16, size=(40, 2))]
        cells = list(dict.fromkeys(cells))
        values = rng.random(len(cells))
        s = Symbol(L16, (0, 0), cells, values)
        op = assemble_locop(s, phi16)
        M = direct_assemble(L16, cells, values, phi16.samples)
        assert np.max(np.abs(op - M)) <= 1e-12

    def test_hermitian_and_psd(self, phi16):
        rng = np.random.default_rng(11)
        s = full_grid(L16)
        s = Symbol(L16, (0, 0), s.cells, rng.random(L16 * L16))
        op = assemble_locop(s, phi16)
        assert np.max(np.abs(op - op.conj().T)) <= 1e-10
        assert eigendecomp(op).eigenvalues[-1] >= -1e-9

    def test_linearity(self, phi16):
        rng = np.random.default_rng(12)
        base = full_grid(L16)
        v1, v2 = rng.random(L16 * L16), rng.random(L16 * L16)
        H1 = assemble_locop(Symbol(L16, (0, 0), base.cells, v1), phi16)
        H2 = assemble_locop(Symbol(L16, (0, 0), base.cells, v2), phi16)
        H12 = assemble_locop(Symbol(L16, (0, 0), base.cells, v1 + v2), phi16)
        assert np.max(np.abs(H12 - (H1 + H2))) <= 1e-12

    def test_monotonicity(self, phi16):
        rng = np.random.default_rng(13)
        base = full_grid(L16)
        for _ in range(5):
            v2 = rng.random(L16 * L16)
            v1 = v2 * rng.random(L16 * L16)
            H1 = assemble_locop(Symbol(L16, (0, 0), base.cells, v1), phi16)
            H2 = assemble_locop(Symbol(L16, (0, 0), base.cells, v2), phi16)
            diff_min = np.linalg.eigvalsh(H2 - H1)[0]
            assert diff_min >= -1e-9

    def test_trace_identity_random(self, phi16):
        rng = np.random.default_rng(14)
        base = full_grid(L16)
        for _ in range(5):
            v = rng.random(L16 * L16)
            s = Symbol(L16, (0, 0), base.cells, v)
            op = assemble_locop(s, phi16)
            assert np.trace(op).real == pytest.approx(s.mass / L16, rel=1e-10)

    def test_operator_norm_bound(self, phi16):
        rng = np.random.default_rng(15)
        base = full_grid(L16)
        v = 3.0 * rng.random(L16 * L16)
        op = assemble_locop(Symbol(L16, (0, 0), base.cells, v), phi16)
        assert eigendecomp(op).eigenvalues[0] <= v.max() + 1e-9

    def test_rejects_window_mismatch(self, phi16):
        with pytest.raises(Exception):
            assemble_locop(full_grid(8), phi16)


class TestEigendecomp:
    def test_identity_spectrum(self, phi16):
        op = assemble_locop(full_grid(L16), phi16)
        ev = eigendecomp(op).eigenvalues
        np.testing.assert_allclose(ev, np.ones(L16), atol=1e-10)

    def test_descending_orthonormal_reconstruction(self, box_op):
        spec = eigendecomp(box_op)
        assert np.all(np.diff(spec.eigenvalues) <= 0)
        Q = spec.eigenvectors
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(L16))) <= 1e-9
        rec = (Q * spec.eigenvalues) @ Q.conj().T
        assert np.max(np.abs(box_op - rec)) <= 1e-8 * (1 + spec.eigenvalues[0])

    def test_phase_convention(self, box_op):
        Q = eigendecomp(box_op).eigenvectors
        for k in range(L16):
            lead = np.argmax(np.abs(Q[:, k]))
            v = Q[lead, k]
            assert v.real > 0 and abs(v.imag) <= 1e-12 * abs(v)

    def test_deterministic(self, phi16):
        a = eigendecomp(assemble_locop(centered_box16(), phi16))
        b = eigendecomp(assemble_locop(centered_box16(), phi16))
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


def n_above(op, eps):
    """The epsilon-mode selection count: the eigenvalues strictly above eps."""
    return select_eigenfunctions(eigendecomp(op), np.trace(op).real, SelectionPolicy("epsilon", epsilon=eps))


def box16_concentration(f, phi):
    box = centered_box16()
    return direct_concentration(f, box.cells, box.values, phi.samples)


class TestThreshold:
    def test_above_top_eigenvalue_empty(self, box_op):
        top = eigendecomp(box_op).eigenvalues[0]
        assert n_above(box_op, top) == 0
        assert n_above(box_op, top + 1) == 0

    def test_zero_keeps_strictly_positive_and_preserves_action(self, box_op):
        th = thresholded(box_op, 0.0)
        rng = np.random.default_rng(16)
        for _ in range(5):
            f = random_signal(rng, L16)
            lhs = np.linalg.norm(th @ f)
            rhs = np.linalg.norm(box_op @ f)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_golden_rank(self, box_op):
        assert n_above(box_op, 0.5) == 4

    def test_markov_bound(self, box_op):
        for eps in (0.05, 0.1, 0.3, 0.7):
            assert n_above(box_op, eps) <= int(np.trace(box_op).real / eps)

    def test_sandwich_inequality(self, box_op):
        rng = np.random.default_rng(17)
        for eps in (0.1, 0.5):
            th = thresholded(box_op, eps)
            for _ in range(50):
                f = random_signal(rng, L16)
                nf = np.linalg.norm(f)
                lo = np.linalg.norm(th @ f)
                hi = np.linalg.norm(box_op @ f)
                assert lo <= hi + 1e-9
                assert hi <= lo + eps * nf + 1e-9

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            SelectionPolicy("epsilon", epsilon=-0.1)


class TestConcentration:
    def test_unit_symbol_total_mass(self, phi16):
        rng = np.random.default_rng(18)
        f = random_signal(rng, L16, unit=True)
        grid = full_grid(L16)
        val = direct_concentration(f, grid.cells, grid.values, phi16.samples)
        assert val == pytest.approx(1.0, abs=1e-10)
        quad = np.vdot(f, assemble_locop(grid, phi16) @ f).real
        assert quad == pytest.approx(val, abs=1e-10)

    def test_top_eigenvector_attains_lambda1(self, box_op, phi16):
        spec = eigendecomp(box_op)
        val = box16_concentration(spec.eigenvectors[:, 0], phi16)
        assert val == pytest.approx(spec.eigenvalues[0], abs=1e-9)

    def test_rayleigh_bound_monte_carlo(self, box_op, phi16):
        rng = np.random.default_rng(19)
        lam1 = eigendecomp(box_op).eigenvalues[0]
        for _ in range(100):
            f = random_signal(rng, L16, unit=True)
            assert box16_concentration(f, phi16) <= lam1 + 1e-9

    def test_equals_quadratic_form(self, box_op, phi16):
        rng = np.random.default_rng(20)
        f = random_signal(rng, L16)
        val = box16_concentration(f, phi16)
        quad = np.vdot(f, box_op @ f).real
        assert val == pytest.approx(quad, abs=1e-10)


class TestCourant:
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_orthonormal_sets_bounded_by_top_eigenvalues(self, box_op, N):
        rng = np.random.default_rng(21)
        ev = eigendecomp(box_op).eigenvalues
        bound = float(np.sum(ev[:N]))
        for _ in range(50):
            Q = orthonormal_set(rng, L16, N)
            total = float(np.sum([np.vdot(Q[:, j], box_op @ Q[:, j]).real for j in range(N)]))
            assert total <= bound + 1e-8

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_equality_at_eigenvectors(self, box_op, N):
        spec = eigendecomp(box_op)
        Q = spec.eigenvectors[:, :N]
        total = float(np.sum([np.vdot(Q[:, j], box_op @ Q[:, j]).real for j in range(N)]))
        assert total == pytest.approx(float(np.sum(spec.eigenvalues[:N])), abs=1e-9)


def conjugation_deviations(op, eta, phi, z):
    """Max deviations of pi(z) H_eta pi(z)* from H_{eta(. - z)}, as matrices and
    as descending spectra; pi(z) and eta(. - z) come from their definitions."""
    U = shift_matrix(op.shape[0], *z)
    shifted_op = assemble_locop(shifted_symbol(eta, z), phi)
    dev = np.max(np.abs(U @ op @ U.conj().T - shifted_op))
    spec_dev = np.max(np.abs(eigendecomp(op).eigenvalues - eigendecomp(shifted_op).eigenvalues))
    return dev, spec_dev


class TestConjugation:
    def test_zero_shift(self, box_op, phi16):
        dev, spec_dev = conjugation_deviations(box_op, centered_box16(), phi16, (0, 0))
        assert dev <= 1e-12
        assert spec_dev <= 1e-12

    def test_point_symbol_shifts_to_point(self, phi16):
        eta = Symbol.indicator(L16, (2, 3), [(2, 3)])
        dev, spec_dev = conjugation_deviations(assemble_locop(eta, phi16), eta, phi16, (5, 7))
        assert dev <= 1e-9 and spec_dev <= 1e-9

    def test_box_shift_spectra_agree(self, box_op, phi16):
        dev, spec_dev = conjugation_deviations(box_op, centered_box16(), phi16, (3, 5))
        assert dev <= 1e-9
        assert spec_dev <= 1e-9
