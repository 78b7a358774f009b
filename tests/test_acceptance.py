"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tfloc.cli import main
from tfloc.core import Signal, gauss_window
from tfloc.covers import Cover, Symbol, gen_random_irregular, gen_regular_boxes, gen_wedge_cover
from tfloc.errors import NotAFrameError
from tfloc.frames import (
    SelectionPolicy,
    assemble_frame,
    epsilon_sweep,
    frame_certificate,
    norm_equivalence_constants,
    reconstruct,
)
from tfloc import gabor
from tfloc.gabor import (
    Lattice,
    canonical_tight,
    gabor_eigenframe,
    gabor_multiplier,
)
from tfloc.locop import assemble_locop, eigendecomp

from helpers import (
    ball_operator_spectrum,
    frame_operator,
    orthonormal_set,
    random_signal,
    region_operators,
    shift_matrix,
    shifted_symbol,
    thresholded,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {desc}")
        raise
    print(f"criterion {num:2d} PASS  {desc}")


def full_grid_symbol(L, values=None):
    cells = [(x, xi) for x in range(L) for xi in range(L)]
    if values is None:
        return Symbol.indicator(L, (0, 0), cells)
    return Symbol(L, (0, 0), cells, values)


def box_symbol(L, x0, xi0, w, h):
    cells = [((x0 + i) % L, (xi0 + j) % L) for i in range(w) for j in range(h)]
    return Symbol.indicator(L, ((x0 + w // 2) % L, (xi0 + h // 2) % L), cells)


def test_criterion_1_resolution_of_identity():
    with criterion(1, "assemble_locop(1) = I for L in {8, 64}, max dev <= 1e-10"):
        for L in (8, 64):
            op = assemble_locop(full_grid_symbol(L), gauss_window(L))
            assert np.max(np.abs(op - np.eye(L))) <= 1e-10


def test_criterion_2_trace_identity():
    with criterion(2, "trace(H_eta) = ||eta||_1/L, 20 random symbols at L=32, 1e-10 rel"):
        L = 32
        phi = gauss_window(L)
        rng = np.random.default_rng(2024)
        for _ in range(20):
            eta = full_grid_symbol(L, rng.random(L * L))
            op = assemble_locop(eta, phi)
            assert np.trace(op).real == pytest.approx(eta.mass / L, rel=1e-10)


def test_criterion_3_psd_and_monotonicity():
    with criterion(3, "lambda_min(H) >= -1e-9 and H monotone in the symbol, 10 pairs"):
        L = 16
        phi = gauss_window(L)
        rng = np.random.default_rng(3)
        for _ in range(10):
            v2 = rng.random(L * L)
            v1 = v2 * rng.random(L * L)  # 0 <= v1 <= v2 pointwise
            H1 = assemble_locop(full_grid_symbol(L, v1), phi)
            H2 = assemble_locop(full_grid_symbol(L, v2), phi)
            assert np.linalg.eigvalsh(H1)[0] >= -1e-9
            assert np.linalg.eigvalsh(H2)[0] >= -1e-9
            assert np.linalg.eigvalsh(H2 - H1)[0] >= -1e-9


def test_criterion_4_covariance():
    with criterion(4, "pi(z) H_m pi(z)* = H_{m(.-z)}, spectra too, to 1e-9; 5 random (m, z) at L=16"):
        L = 16
        phi = gauss_window(L)
        rng = np.random.default_rng(4)
        for _ in range(5):
            eta = full_grid_symbol(L, rng.random(L * L))
            z = (int(rng.integers(L)), int(rng.integers(L)))
            op = assemble_locop(eta, phi)
            op_shifted = assemble_locop(shifted_symbol(eta, z), phi)
            U = shift_matrix(L, *z)
            assert np.max(np.abs(U @ op @ U.conj().T - op_shifted)) <= 1e-9
            ev, ev_shifted = np.linalg.eigvalsh(op), np.linalg.eigvalsh(op_shifted)
            assert np.max(np.abs(ev - ev_shifted)) <= 1e-9


def test_criterion_5_courant_optimality():
    with criterion(5, "Courant bound on the L=16 8x8 box, 100 orthonormal sets, N in {1,2,4}"):
        L = 16
        op = assemble_locop(box_symbol(L, 4, 4, 8, 8), gauss_window(L))
        spec = eigendecomp(op)
        rng = np.random.default_rng(5)
        for N in (1, 2, 4):
            bound = float(np.sum(spec.eigenvalues[:N]))
            for _ in range(100):
                Q = orthonormal_set(rng, L, N)
                total = sum(np.vdot(Q[:, j], op @ Q[:, j]).real for j in range(N))
                assert total <= bound + 1e-8
            E = spec.eigenvectors[:, :N]
            attained = sum(np.vdot(E[:, j], op @ E[:, j]).real for j in range(N))
            assert attained == pytest.approx(bound, abs=1e-9)


def test_criterion_6_thresholding_sandwich():
    with criterion(6, "||H^eps f|| <= ||Hf|| <= ||H^eps f|| + eps||f||, 200 f per (instance, eps)"):
        L = 16
        phi = gauss_window(L)
        instances = [
            assemble_locop(box_symbol(L, 4, 4, 8, 8), phi),
            assemble_locop(box_symbol(L, 0, 0, 4, 4), phi),
        ]
        rng = np.random.default_rng(6)
        for op in instances:
            for eps in (0.1, 0.5):
                th = thresholded(op, eps)
                for _ in range(200):
                    f = random_signal(rng, L)
                    lo = np.linalg.norm(th @ f)
                    hi = np.linalg.norm(op @ f)
                    assert lo <= hi + 1e-9
                    assert hi <= lo + eps * np.linalg.norm(f) + 1e-9


def test_criterion_7_norm_equivalence_diagnostics():
    with criterion(7, "c = lambda_min(sum H^2) > 0 and c(eps) nonincreasing on L=16 4x4"):
        L = 16
        phi = gauss_window(L)
        cover = gen_regular_boxes(L, 4, 4)
        c, _ = norm_equivalence_constants(cover, phi, "plain")
        assert c > 0
        rows = epsilon_sweep(cover, phi, [round(0.1 * i, 1) for i in range(10)])
        cs = [row[1] for row in rows]
        assert cs[0] == pytest.approx(c, abs=1e-10)
        for prev, nxt in zip(cs, cs[1:]):
            assert nxt <= prev + 1e-9


def test_criterion_8_frame_theorem_end_to_end():
    with criterion(8, "eps=0.1 weighted frames: A > 1e-6, reconstruction <= 1e-8, S = sum (H^eps)^2"):
        eps = 0.1
        instances = [
            (gen_regular_boxes(16, 4, 4), 16),
            (gen_wedge_cover(32, [(0, 16, 4), (16, 32, 8)]), 32),
            (gen_random_irregular(16, seed=7, target_size=6, overlap=0.5), 16),
        ]
        rng = np.random.default_rng(8)
        for cover, L in instances:
            phi = gauss_window(L)
            frame = assemble_frame(cover, phi, SelectionPolicy("epsilon", epsilon=eps, n_max=L))
            cert = frame_certificate(frame)
            assert cert.A > 1e-6
            expected = np.zeros((L, L), complex)
            for op in region_operators(cover, phi):
                th = thresholded(op, eps)
                expected += th @ th
            assert np.max(np.abs(frame_operator(frame) - expected)) <= 1e-9
            for _ in range(10):
                f = Signal(random_signal(rng, L))
                _, rel = reconstruct(frame, f, cert)
                assert rel <= 1e-8


def test_criterion_9_unweighted_variant():
    with criterion(9, "unweighted frame on inner-regular boxes: A > 1e-6 and eigenvalue floor"):
        L = 16
        phi = gauss_window(L)
        cover = gen_regular_boxes(L, 4, 4)  # B_1(center) inside every box
        frame = assemble_frame(
            cover, phi, SelectionPolicy("epsilon", epsilon=0.1, n_max=L), weighted=False
        )
        cert = frame_certificate(frame)
        assert cert.A > 1e-6
        n_max_selected = int(frame.ks.max())
        floor = float(ball_operator_spectrum(L, phi.samples, 1)[n_max_selected - 1])  # c = 1
        assert floor > 0
        assert frame.lams.min() >= floor - 1e-9


def test_criterion_10_gabor_lattice_suite():
    with criterion(10, "L=16 a=b=2 Gabor: tight window, GM_1 = I, trace identity, block frame"):
        L = 16
        phi = gauss_window(L)
        lat = Lattice(L, 2, 2)
        sys_ = canonical_tight(phi, lat)
        ev = np.linalg.eigvalsh(gabor._walnut_blocks(sys_.window, lat))
        assert ev.max() / ev.min() <= 1 + 1e-8

        GM1 = gabor_multiplier(np.ones((8, 8)), sys_)
        assert np.max(np.abs(GM1 - np.eye(L))) <= 1e-9

        rng = np.random.default_rng(10)
        A = sys_.tight_constant
        for _ in range(5):
            m = rng.random((8, 8))
            assert np.trace(gabor_multiplier(m, sys_)).real == pytest.approx(A * float(m.sum()), rel=1e-10)

        regions = []
        for bj in range(2):
            for bk in range(2):
                cells = [(2 * (4 * bj + j), 2 * (4 * bk + k)) for j in range(4) for k in range(4)]
                regions.append(Symbol.indicator(L, (2 * (4 * bj + 2) % L, 2 * (4 * bk + 2) % L), cells))
        cert = frame_certificate(gabor_eigenframe(
            Cover(L, tuple(regions)), sys_, SelectionPolicy("epsilon", epsilon=0.1, n_max=L)
        ))
        assert cert.A > 1e-6

        # counting case: |Lambda| = 4 < L = 16 is reported, not thrown
        assert abs(np.linalg.eigvalsh(gabor._walnut_blocks(phi, Lattice(L, 8, 8))).min()) <= 1e-9
        with pytest.raises(NotAFrameError):
            canonical_tight(phi, Lattice(L, 8, 8))


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "cmd_frame run twice is byte-identical"):
        cfg = CONFIG_DIR / "regular16.json"
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["frame", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["frame", "--config", str(cfg), "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
