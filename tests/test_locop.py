import numpy as np
import pytest

from tfloc.cli import load_config, resolve_window
from tfloc.core import gauss_window
from tfloc.covers import Cover, Symbol, gen_random_irregular, gen_regular_boxes, gen_wedge_cover
from tfloc.errors import InvalidArgumentError, NumericError
from tfloc.frames import SelectionPolicy, eigenframe_from_classes, select_eigenfunctions
from tfloc.gabor import Lattice, _multiplier_symbol, canonical_tight
from tfloc import locop
from tfloc.locop import (
    _SUPPORT_RTOL,
    RANK_RTOL,
    _frequency_axis,
    _time_groups,
    _time_support,
    assemble_locop,
    class_spectra,
    eigendecomp,
)

from helpers import (
    direct_assemble,
    direct_concentration,
    direct_shift,
    orthonormal_set,
    random_signal,
    shift_matrix,
    shifted_symbol,
    thresholded,
    write_signal_csv,
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
        ev = np.linalg.eigvalsh(op)[::-1]
        assert ev[0] == pytest.approx(1 / L16, abs=1e-10)
        assert np.max(np.abs(ev[1:])) <= 1e-10
        assert eigendecomp(op).eigenvalues.size == 1

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
        assert np.linalg.eigvalsh(op)[0] >= -1e-9

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
        # the anchor is the lowest index whose magnitude is within 1e-12 of
        # the column's largest: exact and rounding-level ties go to it
        spec = eigendecomp(box_op)
        Q = spec.eigenvectors
        for k in range(L16):
            mag = np.abs(Q[:, k])
            lead = min(t for t in range(L16) if mag[t] >= (1 - 1e-12) * mag.max())
            v = Q[lead, k]
            assert v.real > 0 and abs(v.imag) <= 1e-12 * abs(v)

    def test_rejects_non_finite_matrix(self, box_op):
        op = box_op.copy()
        op[3, 5] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            eigendecomp(op)

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
    as whole spectra; pi(z) and eta(. - z) come from their definitions."""
    U = shift_matrix(op.shape[0], *z)
    shifted_op = assemble_locop(shifted_symbol(eta, z), phi)
    dev = np.max(np.abs(U @ op @ U.conj().T - shifted_op))
    spec_dev = np.max(np.abs(np.linalg.eigvalsh(op) - np.linalg.eigvalsh(shifted_op)))
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


# the selections whose subspaces the class stream must reproduce
STREAM_POLICIES = [SelectionPolicy("epsilon", epsilon=0.1), SelectionPolicy("alpha", alpha=1.0)]


def assert_stream_matches_dense(symbols, phi):
    """Each class spectrum of ``class_spectra`` against the dense oracle
    (``assemble_locop``) of its representative: both it and ``eigendecomp``
    of the dense operator hold exactly the eigenvalues of ``eigvalsh`` above
    RANK_RTOL lambda_1, the class spectrum's to 1e-13 lambda_1 and with
    eigenvectors that vanish off J; then the measure, the selected counts,
    and the selected subspaces' projectors to 1e-12 where the cutoff gap is
    at least 1e-3 lambda_1.  Returns the sizes of J."""
    sizes, compared = [], 0
    for spec, measure, cls in class_spectra(Cover(phi.length, tuple(symbols)).classes, phi):
        rep = cls.representative
        H = assemble_locop(rep, phi)
        ev = np.linalg.eigvalsh(H)[::-1]
        r = int(np.sum(ev > RANK_RTOL * ev[0]))
        dense = eigendecomp(H)
        lam = dense.eigenvalues
        assert lam.size == r and spec.eigenvalues.size == r
        assert np.all(spec.eigenvalues > RANK_RTOL * spec.eigenvalues[0])
        np.testing.assert_allclose(spec.eigenvalues, ev[:r], rtol=0, atol=1e-13 * ev[0])
        J = _time_support(rep, phi.samples)
        sizes.append(J.size)
        assert spec.eigenvectors.shape == (rep.L, r)
        assert not np.delete(spec.eigenvectors, J, axis=0).any()
        assert measure == rep.mass / rep.L
        assert measure == pytest.approx(np.trace(H).real, rel=1e-12)
        for policy in STREAM_POLICIES:
            n = select_eigenfunctions(dense, measure, policy)
            assert select_eigenfunctions(spec, measure, policy) == n
            if n == 0 or lam[n - 1] - lam[n] < 1e-3 * lam[0]:
                continue
            V, Q = spec.eigenvectors[:, :n], dense.eigenvectors[:, :n]
            assert np.max(np.abs(V @ V.conj().T - Q @ Q.conj().T)) <= 1e-12
            compared += 1
    assert compared > 0
    return sizes


@pytest.fixture
def solved(monkeypatch):
    """The dtypes of the blocks the class stream hands ``eigendecomp``, recorded as it runs."""
    dtypes = set()

    def recording(H):
        dtypes.add(H.dtype)
        return eigendecomp(H)

    monkeypatch.setattr(locop, "eigendecomp", recording)
    return dtypes


REAL, COMPLEX = {np.dtype(np.float64)}, {np.dtype(np.complex128)}


def valued(regions, seed):
    """The regions with random values in [0.5, 1.5), so each is its own class."""
    rng = np.random.default_rng(seed)
    return [Symbol(s.L, s.center, s.cells, 0.5 + rng.random(s.values.size)) for s in regions]


def lattice_boxes(L, box, step):
    """The box x box tiles of Z_L x Z_L restricted to the lattice (step Z)^2."""
    cells = [(x, xi) for x in range(0, box, step) for xi in range(0, box, step)]
    return [Symbol.indicator(L, (x0, xi0), (np.array(cells) + (x0, xi0)) % L)
            for x0 in range(0, L, box) for xi0 in range(0, L, box)]


class TestClassStream:
    """Each class is solved on its time support J; the dense operator is the oracle."""

    # boxes, wedge boxes and lattice boxes are symmetric in frequency and the
    # Gaussian and its canonical tight window are real, so they solve real;
    # random values break the symmetry, and a window file with an imaginary
    # part keeps every block complex
    @pytest.mark.parametrize("make, dtypes", [
        (lambda: gen_regular_boxes(64, 8, 8).regions, REAL),
        (lambda: gen_regular_boxes(64, 4, 16).regions, REAL),
        (lambda: gen_random_irregular(64, 1, 8, 0.5).regions, REAL),
        (lambda: gen_random_irregular(64, 2, 8, 0.5).regions, REAL),
        (lambda: gen_random_irregular(64, 3, 8, 0.5).regions, REAL),
        (lambda: gen_wedge_cover(64, [(0, 32, 8), (32, 64, 16)]).regions, REAL),
        (lambda: valued(gen_regular_boxes(64, 8, 8).regions[:16], 5), COMPLEX),
        (lambda: valued(gen_random_irregular(64, 4, 8, 0.5).regions[:12], 6), COMPLEX),
    ], ids=["regular8x8", "regular4x16", "irregular1", "irregular2", "irregular3", "wedge",
            "valued-regular", "valued-irregular"])
    def test_grid_covers_match_dense(self, make, dtypes, solved):
        symbols = make()
        sizes = assert_stream_matches_dense(symbols, gauss_window(64))
        assert min(sizes) < 64  # the Gaussian's tails leave indices out
        assert solved == dtypes

    @pytest.mark.parametrize("valued_seed, dtypes", [(None, REAL), (7, COMPLEX)],
                             ids=["None", "7"])
    def test_lattice_multipliers_match_dense(self, valued_seed, dtypes, solved):
        L, lat = 64, Lattice(64, 4, 4)
        sys_ = canonical_tight(gauss_window(L), lat)
        regions = lattice_boxes(L, 16, 4)
        if valued_seed is not None:
            regions = valued(regions, valued_seed)
        symbols = [_multiplier_symbol(s, sys_) for s in regions]
        assert not sys_.window.samples.imag.any()
        assert_stream_matches_dense(symbols, sys_.window)
        assert solved == dtypes

    def test_window_file_keeps_all_of_L(self, tmp_path, solved):
        # a window with no small samples: J is all of Z_L, the dense solve
        rng = np.random.default_rng(8)
        write_signal_csv(tmp_path / "window.csv", 1.0 + rng.random(32) + 1j * rng.random(32))
        (tmp_path / "config.json").write_text(
            '{"L": 32, "window": {"file": "window.csv"}, "cover": {"regular": {"bx": 8, "by": 8}},'
            ' "policy": {"mode": "epsilon", "epsilon": 0.1}}'
        )
        phi = resolve_window(load_config(tmp_path / "config.json"))
        symbols = gen_random_irregular(32, 9, 8, 0.5).regions
        assert all(_time_support(s, phi.samples).size == 32 for s in symbols)
        assert all(_frequency_axis(_time_groups(s), 32) is not None for s in symbols)
        assert set(assert_stream_matches_dense(symbols, phi)) == {32}
        assert solved == COMPLEX

    @pytest.mark.parametrize("cells, values, axis", [
        # a box whose xi arc wraps the edge: 61..63, 0..2 mirrors onto itself
        # about c2 = 61 + 2 + 64 (odd, so D moves by half steps)
        ([(x, xi % 64) for x in range(20, 26) for xi in range(61, 67)], None, 127),
        # a lattice column spread over the whole circle
        ([(x, xi) for x in (0, 4) for xi in range(2, 64, 4)], None, 72),
        # values that vary in x and, mirrored, in xi
        ([(x, xi) for x in range(30, 38) for xi in range(10, 17)],
         [1.0 + 0.25 * x + abs(2 * xi - 26) for x in range(30, 38) for xi in range(10, 17)], 26),
        # a triangle: column x holds xi = 0..x, no common mirror axis
        ([(x, xi) for x in range(8) for xi in range(x + 1)], None, None),
        # a box whose values grow along xi
        ([(x, xi) for x in range(8) for xi in range(8)], [1.0 + xi for x in range(8) for xi in range(8)], None),
        # two time groups: the first column, 4..8, mirrors about c2 = 12, and the
        # second, 4..9, does not
        ([(x, xi) for x in range(3) for xi in range(4, 9)] + [(x, xi) for x in range(3, 6) for xi in range(4, 10)],
         None, None),
    ], ids=["wrapping", "lattice-column", "valued", "triangle", "valued-box", "second-group"])
    def test_frequency_axis_selects_the_solve(self, cells, values, axis, solved):
        L = 64
        values = np.ones(len(cells)) if values is None else np.array(values)
        s = Symbol(L, cells[len(cells) // 2], cells, values)
        assert _frequency_axis(_time_groups(s), L) == axis
        assert_stream_matches_dense([s], gauss_window(L))
        assert solved == (COMPLEX if axis is None else REAL)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_dropped_rows_within_bound(self, seed):
        # H PSD: zeroing all but the J x J block moves H by at most
        # delta + 2 sqrt(lambda_1 delta) in operator norm, delta = tr(H off J)
        L = 128
        phi = gauss_window(L)
        dropped = 0
        for s in gen_random_irregular(L, seed, 16, 0.5).regions[:10]:
            H = assemble_locop(s, phi)
            J = _time_support(s, phi.samples)
            off = np.setdiff1d(np.arange(L), J)
            delta = float(np.trace(H[np.ix_(off, off)]).real)
            assert delta <= L * _SUPPORT_RTOL * np.trace(H).real
            E = H.copy()
            E[np.ix_(J, J)] = 0.0
            lam1 = np.linalg.eigvalsh(H)[-1]
            assert np.linalg.norm(E, 2) <= delta + 2.0 * np.sqrt(lam1 * delta)
            dropped += off.size
        assert dropped > 0

    def test_support_size_guard(self):
        # |J| is about b + 7 sqrt(L) for the Gaussian; an FFT-computed
        # diagonal or a lost threshold would keep nearly all 256 indices
        phi = gauss_window(256)
        for s in gen_regular_boxes(256, 16, 16).regions[:3]:
            assert _time_support(s, phi.samples).size <= 130

    def test_zero_symbol_reports_zero_eigenvalue(self, phi16):
        zero = Symbol(L16, (3, 3), [(3, 3), (3, 4)], [0.0, 0.0])
        [(spec, measure, _)] = class_spectra(Cover(L16, (zero,)).classes, phi16)
        assert spec.eigenvalues.size == 0 and spec.eigenvectors.shape == (L16, 0) and measure == 0.0

    def test_spectra_hold_only_numerically_nonzero_eigenpairs(self, phi16):
        # a 4x4 box has rank 12 of 16, a point rank 1, the whole grid rank 16,
        # and a zero symbol rank 0; the dense eigvalsh counts them
        point = Symbol.indicator(L16, (5, 2), [(5, 2)])
        box = gen_regular_boxes(L16, 4, 4).regions[0]
        zero = Symbol(L16, (3, 3), [(3, 3), (3, 4)], [0.0, 0.0])
        symbols = [box, point, full_grid(L16), zero]
        spectra = list(class_spectra(Cover(L16, tuple(symbols)).classes, phi16))
        assert [spec.eigenvalues.size for spec, _, _ in spectra] == [12, 1, 16, 0]
        for (spec, _, _), s in zip(spectra, symbols):
            H = assemble_locop(s, phi16)
            ev = np.linalg.eigvalsh(H)
            r = int(np.sum(ev > RANK_RTOL * ev[-1]))
            for lam in (spec.eigenvalues, eigendecomp(H).eigenvalues):
                assert lam.size == r
                assert np.all(lam > RANK_RTOL * ev[-1])
        with pytest.warns(UserWarning, match="region 3 has a numerically zero operator"):
            frame = eigenframe_from_classes(L16, spectra, SelectionPolicy("epsilon", epsilon=0.0), False, L16)
        assert frame.lams.size == 12 + 1 + 16 and 3 not in frame.gammas
