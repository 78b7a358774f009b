import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfloc.locop
from tfloc.cli import load_config, main, resolve_cover
from tfloc.core import Signal, gauss_window
from tfloc.covers import Cover, Symbol, gen_random_irregular, gen_regular_boxes, gen_wedge_cover, sum_symbols
from tfloc.errors import EmptyFrameError, InvalidArgumentError, NotAFrameError, PreconditionViolation
from tfloc.frames import (
    SelectionPolicy,
    assemble_frame,
    epsilon_sweep,
    frame_certificate,
    frame_operator,
    norm_equivalence_constants,
    read_frame,
    reconstruct,
    select_eigenfunctions,
    write_certificate_json,
    write_frame,
)
from tfloc.gabor import Lattice, LatticeGaborSystem, canonical_tight, gabor_eigenframe
from tfloc.locop import RANK_RTOL, eigendecomp

from helpers import (
    HUGE_INTEGERS,
    atom_columns,
    ball_operator_spectrum,
    canonical_dual,
    direct_gabor_multiplier,
    lattice_mask,
    random_signal,
    region_operators,
    thresholded,
)

L16 = 16
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# golden values for the L=16 regular 4x4 partition with the Gaussian window
# (independent double-loop assembly + eigensolve, frozen before the build)
REGULAR16_FRAME_A_EPS02 = 0.3326111462311308
REGULAR16_FRAME_B_EPS02 = 0.5893877991094058
REGULAR16_PLAIN_C = 0.3359700247086243
REGULAR16_PLAIN_CC = 0.5905634681447743
REGULAR16_SQUARED_C = 0.06993708970866845
REGULAR16_SQUARED_CC = 0.23455361375659067
REGULAR16_N_EPS02 = 2


def whole_grid_cover(L):
    cells = [(x, xi) for x in range(L) for xi in range(L)]
    return Cover(L, (Symbol.indicator(L, (0, 0), cells),))


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(0, 4), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 4), max_size=2),
    HUGE_INTEGERS,
)
MANIFEST_KEYS = st.sampled_from(["L", "weighted", "source", "atoms"])
ATOM_KEYS = st.sampled_from(["offset", "weight", "gamma", "k", "lambda"])
NAN_BYTES = np.array([np.nan], "<f8").tobytes()
# one corruption of a stored frame: a manifest field set or dropped (at the
# top level or in the first or last atom entry), or the atoms file truncated,
# given another magic, or overwritten at some position by NaN or other bytes
FRAME_EDITS = st.one_of(
    st.tuples(st.just("set"), st.none(), MANIFEST_KEYS, JSON_VALUES),
    st.tuples(st.just("set"), st.sampled_from([0, -1]), ATOM_KEYS, JSON_VALUES),
    st.tuples(st.just("drop"), st.none(), MANIFEST_KEYS),
    st.tuples(st.just("drop"), st.sampled_from([0, -1]), ATOM_KEYS),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("magic"), st.binary(max_size=4)),
    st.tuples(
        st.just("patch"),
        st.floats(0.0, 1.0, exclude_max=True),
        st.just(NAN_BYTES) | st.binary(min_size=1, max_size=16),
    ),
)


def corrupt(manifest, blob, edit):
    """Apply one FRAME_EDITS entry: (the file it changes, that file's new bytes)."""
    kind, *args = edit
    if kind in ("set", "drop"):
        where, key = args[:2]
        entry = manifest if where is None else manifest["atoms"][where]
        if kind == "set":
            entry[key] = args[2]
        else:
            entry.pop(key, None)
        return "manifest", json.dumps(manifest).encode()
    if kind == "truncate":
        return "atoms", blob[: int(args[0] * len(blob))]
    if kind == "magic":
        return "atoms", args[0] + blob[4:]
    pos, patch = 4 + int(args[0] * (len(blob) - 4)), args[1]
    return "atoms", blob[:pos] + patch + blob[pos + len(patch):]


@pytest.fixture(scope="module")
def phi16():
    return gauss_window(L16)


@pytest.fixture(scope="module")
def boxes16():
    return gen_regular_boxes(L16, 4, 4)


@pytest.fixture(scope="module")
def frame16(boxes16, phi16):
    return assemble_frame(boxes16, phi16, SelectionPolicy("epsilon", epsilon=0.2, n_max=L16))


class TestSelectionPolicy:
    def test_modes_validate(self):
        SelectionPolicy("alpha", alpha=2.0, n_max=4)
        SelectionPolicy("epsilon", epsilon=0.1, n_max=4)
        with pytest.raises(InvalidArgumentError):
            SelectionPolicy("alpha", n_max=4)
        with pytest.raises(InvalidArgumentError):
            SelectionPolicy("epsilon", epsilon=0.1, alpha=1.0, n_max=4)
        with pytest.raises(InvalidArgumentError):
            SelectionPolicy("epsilon", epsilon=-0.1, n_max=4)
        with pytest.raises(InvalidArgumentError):
            SelectionPolicy("both", n_max=4)
        with pytest.raises(InvalidArgumentError):
            SelectionPolicy("epsilon", epsilon=0.1, n_max=0)

    def test_implied_alpha(self):
        assert SelectionPolicy("epsilon", epsilon=0.1).implied_alpha == pytest.approx(10.0)
        assert SelectionPolicy("alpha", alpha=3.0).implied_alpha == 3.0


class TestSelection:
    def test_epsilon_counts_golden(self, boxes16, phi16):
        policy = SelectionPolicy("epsilon", epsilon=0.2, n_max=L16)
        counts = [select_eigenfunctions(eigendecomp(op), np.trace(op).real, policy)
                  for op in region_operators(boxes16, phi16)]
        assert counts == [REGULAR16_N_EPS02] * 16  # identical by covariance

    def test_epsilon_zero_gives_numerical_rank(self, boxes16, phi16):
        policy = SelectionPolicy("epsilon", epsilon=0.0, n_max=L16)
        for op in region_operators(boxes16, phi16):
            spec = eigendecomp(op)
            assert select_eigenfunctions(spec, np.trace(op).real, policy) == spec.numerical_rank()

    def test_capped_at_numerical_rank(self, boxes16, phi16):
        # each box operator has numerical rank 12 of 16: its last four
        # eigenvalues, 3e-13 down to 1e-18, are rounding noise, and neither
        # ceil(alpha * measure) = 16 nor a threshold below them selects them
        alpha = SelectionPolicy("alpha", alpha=16.0, n_max=L16)
        tiny = SelectionPolicy("epsilon", epsilon=1e-16, n_max=L16)
        for op in region_operators(boxes16, phi16):
            spec = eigendecomp(op)
            assert spec.numerical_rank() == 12
            assert select_eigenfunctions(spec, np.trace(op).real, alpha) == 12
            assert select_eigenfunctions(spec, np.trace(op).real, tiny) == 12
        frame = assemble_frame(boxes16, phi16, alpha, weighted=False)
        assert frame.lams.size == 16 * 12
        assert frame.lams.min() > RANK_RTOL * frame.lams.max()

    def test_alpha_mode_ceil_of_measure(self, boxes16, phi16):
        for op in region_operators(boxes16, phi16):
            spec, measure = eigendecomp(op), np.trace(op).real  # = mass/L = 1.0 per region
            assert select_eigenfunctions(spec, measure, SelectionPolicy("alpha", alpha=2.5, n_max=L16)) == 3
            assert select_eigenfunctions(spec, measure, SelectionPolicy("alpha", alpha=2.5, n_max=2)) == 2


class TestAssembleFrame:
    def test_whole_grid_orthonormal_basis(self, phi16):
        frame = assemble_frame(
            whole_grid_cover(L16), phi16, SelectionPolicy("epsilon", epsilon=0.5, n_max=L16)
        )
        assert frame.lams.size == L16
        cert = frame_certificate(frame)
        assert cert.A == pytest.approx(1.0, abs=1e-10)
        assert cert.B == pytest.approx(1.0, abs=1e-10)
        assert cert.is_frame

    def test_whole_grid_missing_direction(self, phi16):
        frame = assemble_frame(
            whole_grid_cover(L16), phi16, SelectionPolicy("epsilon", epsilon=0.5, n_max=L16 - 1)
        )
        cert = frame_certificate(frame)
        assert abs(cert.A) <= 1e-9
        assert not cert.is_frame

    def test_golden_pipeline(self, frame16):
        assert frame16.lams.size == 16 * REGULAR16_N_EPS02
        cert = frame_certificate(frame16)
        assert cert.A == pytest.approx(REGULAR16_FRAME_A_EPS02, abs=1e-8)
        assert cert.B == pytest.approx(REGULAR16_FRAME_B_EPS02, abs=1e-8)

    def test_atom_invariants(self, frame16):
        V = np.hstack(frame16.vectors)
        assert np.all(np.abs(np.linalg.norm(V, axis=0) - 1.0) <= 1e-10)
        for gamma in np.unique(frame16.gammas):
            mine = frame16.gammas == gamma
            assert sorted(frame16.ks[mine]) == list(range(1, mine.sum() + 1))
            gram = np.abs(V[:, mine].conj().T @ V[:, mine])
            assert np.all(gram[~np.eye(mine.sum(), dtype=bool)] <= 1e-9)

    def test_empty_selection_raises(self, boxes16, phi16):
        with pytest.raises(EmptyFrameError):
            assemble_frame(boxes16, phi16, SelectionPolicy("epsilon", epsilon=10.0, n_max=L16))

    def test_noncovering_cover_rejected(self, phi16):
        partial = Cover(L16, (Symbol.indicator(L16, (0, 0), [(0, 0)]),))
        with pytest.raises(PreconditionViolation):
            assemble_frame(partial, phi16, SelectionPolicy("epsilon", epsilon=0.1))

    def test_degenerate_region_warns_and_contributes_nothing(self, phi16):
        # a region with an all-zero mask has a numerically zero operator:
        # zero atoms plus a warning, not an error
        full = whole_grid_cover(L16).regions[0]
        dead = Symbol(L16, (3, 3), [(3, 3), (3, 4)], [0.0, 0.0])
        cover = Cover(L16, (full, dead))
        with pytest.warns(UserWarning, match="numerically zero"):
            frame = assemble_frame(
                cover, phi16, SelectionPolicy("epsilon", epsilon=0.5, n_max=L16)
            )
        assert np.all(frame.gammas == 0)

    def test_frame_operator_identity(self, boxes16, phi16, frame16):
        S = frame_operator(frame16)
        expected = np.zeros((L16, L16), complex)
        for op in region_operators(boxes16, phi16):
            th = thresholded(op, 0.2)
            expected += th @ th
        assert np.max(np.abs(S - expected)) <= 1e-9

    def test_covariance_identical_region_spectra(self, boxes16, phi16):
        spectra = [eigendecomp(op).eigenvalues for op in region_operators(boxes16, phi16)]
        for ev in spectra[1:]:
            np.testing.assert_allclose(ev, spectra[0], atol=1e-9)


def direct_region_operators(cfg, cover, phi):
    """The direct per-region operators of a config: grid operators, or the
    double-loop Gabor multipliers of the canonical tight window."""
    if cfg.lattice is None:
        return list(region_operators(cover, phi))
    lat = cfg.lattice
    phit = canonical_tight(phi, lat).samples
    return [
        direct_gabor_multiplier(cfg.L, lat.a, lat.b, phit, lattice_mask(s, lat))
        for s in cover.regions
    ]


def assert_matches_direct_path(frame, ops, policy, A, B):
    """Per region, the selected atoms span the direct eigensolve's selection
    (skipped where the cutoff splits a cluster), with its eigenvalues; the
    frame bounds match the direct frame operator to 1e-12 relative."""
    L = frame.L
    S = np.zeros((L, L), complex)
    vectors = np.hstack(frame.vectors)
    compared = 0
    for gamma, op in enumerate(ops):
        spec = eigendecomp(op)
        n = select_eigenfunctions(spec, np.trace(op).real, policy)
        lam, V = spec.eigenvalues, spec.eigenvectors
        S += (V[:, :n] * lam[:n] ** 2) @ V[:, :n].conj().T
        mine = frame.gammas == gamma
        if 0 < n < L and lam[n - 1] - lam[n] <= 1e-8 * lam[0]:
            continue
        compared += 1
        assert mine.sum() == n
        np.testing.assert_allclose(frame.lams[mine], lam[:n], rtol=0, atol=1e-12)
        P = vectors[:, mine] @ vectors[:, mine].conj().T
        assert np.max(np.abs(P - V[:, :n] @ V[:, :n].conj().T)) <= 1e-10
    assert compared > 0
    ev = np.linalg.eigvalsh(S)
    assert A == pytest.approx(ev[0], rel=1e-12)
    assert B == pytest.approx(ev[-1], rel=1e-12)


class TestShapeClasses:
    """One eigensolve per shape class agrees with solving every region directly."""

    @pytest.mark.parametrize("name", ["regular16.json", "irregular16.json", "gabor16.json"])
    def test_config_against_direct_path(self, tmp_path, name):
        cfg_path = CONFIG_DIR / name
        assert main(["frame", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert main(["diagnose", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        frame = read_frame(tmp_path / "frame.json", tmp_path / "frame_atoms.tfat")
        cert = json.loads((tmp_path / "certificate.json").read_text())
        d = json.loads((tmp_path / "diagnostics.json").read_text())
        cfg = load_config(cfg_path)
        cover, phi = resolve_cover(cfg), gauss_window(cfg.L)
        ops = direct_region_operators(cfg, cover, phi)
        assert_matches_direct_path(frame, ops, cfg.policy, cert["A"], cert["B"])

        def constants(power, eps=-np.inf):
            G = np.zeros((cfg.L, cfg.L), complex)
            for op in ops:
                spec = eigendecomp(op)
                lam, V = spec.eigenvalues, spec.eigenvectors
                keep = lam > eps
                G += (V[:, keep] * lam[keep] ** power) @ V[:, keep].conj().T
            ev = np.linalg.eigvalsh(G)
            return ev[0], ev[-1]

        # constants near 0 are compared on the scale of C_plain
        scale = d["plain"]["C"]
        want = [(d["plain"], constants(2)), (d["squared"], constants(4)),
                (d["thresholded"], constants(2, cfg.policy.epsilon))]
        want += [(row, constants(2, row["epsilon"])) for row in d["epsilon_sweep"]]
        for got, (c, C) in want:
            assert abs(got["c"] - c) <= 1e-12 * max(abs(c), scale)
            assert abs(got["C"] - C) <= 1e-12 * max(abs(C), scale)

    def test_translates_wrapping_the_edge_and_unequal_values(self, phi16, monkeypatch):
        def box(center, x0, xi0, value):
            cells = [((x0 + i) % L16, (xi0 + j) % L16) for i in range(4) for j in range(4)]
            return Symbol(L16, center, cells, np.full(16, value))

        regions = (
            box((2, 2), 0, 0, 1.0),
            box((0, 8), 14, 6, 1.0),  # region 0 translated across the x edge
            box((8, 8), 6, 6, 2.0),  # region 0's cells, other values: another class
            box((8, 15), 6, 13, 2.0),  # region 2 translated across the xi edge
            Symbol(L16, (8, 8), whole_grid_cover(L16).regions[0].cells, np.full(L16 * L16, 0.05)),
        )
        cover = Cover(L16, regions)
        policy = SelectionPolicy("epsilon", epsilon=0.1, n_max=L16)
        calls = []
        eigendecomp = tfloc.locop.eigendecomp
        monkeypatch.setattr(tfloc.locop, "eigendecomp", lambda op: calls.append(op) or eigendecomp(op))
        frame = assemble_frame(cover, phi16, policy)
        cert = frame_certificate(frame)
        c, C = norm_equivalence_constants(cover, phi16, "squared")
        assert len(calls) == 2 * 3
        monkeypatch.undo()
        ops = list(region_operators(cover, phi16))
        assert_matches_direct_path(frame, ops, policy, cert.A, cert.B)
        ev = np.linalg.eigvalsh(sum(op @ op @ op @ op for op in ops))
        assert c == pytest.approx(ev[0], rel=1e-12)
        assert C == pytest.approx(ev[-1], rel=1e-12)
        # the translated atoms follow the phase convention: real and positive
        # at the representative's anchor moved by x
        V = np.hstack(frame.vectors)
        rep, moved = V[:, frame.gammas == 0], V[:, frame.gammas == 1]
        anchors = eigendecomp(ops[0]).anchors
        for a, b, anchor in zip(rep.T, moved.T, anchors):
            assert a[anchor].real > 0 and abs(a[anchor].imag) <= 1e-15
            t = (anchor + 14) % L16
            assert b[t].real > 0 and abs(b[t].imag) <= 1e-15
            assert abs(b[t]) == pytest.approx(abs(a[anchor]), abs=1e-15)


def lattice_box_cover(L, box, step):
    """box x box tiles of the grid, each restricted to the lattice (step Z)^2."""
    regions = []
    for x0 in range(0, L, box):
        for xi0 in range(0, L, box):
            cells = [(x, xi) for x in range(x0, x0 + box, step) for xi in range(xi0, xi0 + box, step)]
            regions.append(Symbol.indicator(L, (x0 + box // 2, xi0 + box // 2), cells))
    return Cover(L, tuple(regions))


def traced_peak_bytes(build) -> int:
    """Peak bytes traced while ``build()`` runs; numpy reports its buffers too."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOnePass:
    """Frame assembly and diagnose hold one shape class's operator and spectrum at a time.

    One L x L complex operator is L^2 * 16 bytes; holding every class's
    operator or spectrum at once would take one such matrix per class.
    """

    L = 64
    POLICY = SelectionPolicy("epsilon", epsilon=0.1, n_max=64)

    def test_grid_frame_peak(self):
        cover, phi = gen_regular_boxes(self.L, 8, 8), gauss_window(self.L)
        assert len(cover.regions) == 64
        peak = traced_peak_bytes(lambda: assemble_frame(cover, phi, self.POLICY))
        assert peak < 20 * self.L**2 * 16

    def test_lattice_frame_peak(self):
        lattice = Lattice(self.L, 4, 4)
        cover = lattice_box_cover(self.L, 16, 4)
        sys_ = LatticeGaborSystem.build(canonical_tight(gauss_window(self.L), lattice), lattice)
        assert len(cover.regions) == 16
        peak = traced_peak_bytes(lambda: gabor_eigenframe(cover, sys_, self.POLICY))
        assert peak < 20 * self.L**2 * 16

    def frame_builder(self, variant):
        """Builds the grid frame of 64 8x8 boxes, or the lattice frame of 16
        16x16 boxes on (4Z)^2."""
        phi = gauss_window(self.L)
        if variant == "grid":
            cover = gen_regular_boxes(self.L, 8, 8)
            return lambda: assemble_frame(cover, phi, self.POLICY)
        lattice = Lattice(self.L, 4, 4)
        cover = lattice_box_cover(self.L, 16, 4)
        sys_ = LatticeGaborSystem.build(canonical_tight(phi, lattice), lattice)
        return lambda: gabor_eigenframe(cover, sys_, self.POLICY)

    @pytest.mark.parametrize("variant", ["grid", "lattice"])
    def test_frame_keeps_only_its_atoms(self, monkeypatch, variant):
        # n atoms take 16 L n bytes; a frame keeps the blocks it was built
        # from, with no per-atom objects and no class's L x L eigenvectors
        build = self.frame_builder(variant)
        build()  # the first run imports modules lazily
        tracemalloc.start()
        try:
            frame = build()
            held, n = tracemalloc.get_traced_memory()[0], frame.lams.size
            del frame  # what dropping the frame frees is what it retained
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 16 * self.L * n <= retained <= 1.1 * 16 * self.L * n
        spectra = []
        eigendecomp = tfloc.locop.eigendecomp
        monkeypatch.setattr(tfloc.locop, "eigendecomp", lambda H: spectra.append(eigendecomp(H)) or spectra[-1])
        frame = build()
        assert spectra
        assert not any(np.shares_memory(V, s.eigenvectors) for V in frame.vectors for s in spectra)

    def test_diagnose_peak(self, tmp_path):
        # diagnose keeps one Gram sum per distinct term (12 here) plus one
        # region's operator and spectrum
        config = {
            "L": self.L,
            "cover": {"regular": {"bx": 8, "by": 8}},
            "policy": {"mode": "epsilon", "epsilon": 0.1, "n_max": self.L},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv = ["diagnose", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 0  # the first run imports modules lazily; trace the second
        peak = traced_peak_bytes(lambda: main(argv))
        assert peak < 32 * self.L**2 * 16


class TestCertificate:
    def test_duplicate_frame_doubles_bounds(self, frame16):
        from tfloc.frames import EigenFrame

        cert = frame_certificate(frame16)
        f = frame16
        columns = (np.tile(c, 2) for c in (f.weights, f.gammas, f.ks, f.lams))
        doubled = EigenFrame(L16, f.vectors + f.vectors, *columns, f.weighted)
        cert2 = frame_certificate(doubled)
        assert cert2.A == pytest.approx(2 * cert.A, rel=1e-9)
        assert cert2.B == pytest.approx(2 * cert.B, rel=1e-9)

    def test_parseval_consistency(self, frame16):
        rng = np.random.default_rng(30)
        S = frame_operator(frame16)
        for _ in range(5):
            f = random_signal(rng, L16)
            total = sum(abs(np.vdot(g, f)) ** 2 for g in atom_columns(frame16).T)
            quad = np.vdot(f, S @ f).real
            assert total == pytest.approx(quad, rel=1e-9)


class TestReconstruct:
    def test_orthonormal_frame_near_exact(self, phi16):
        frame = assemble_frame(
            whole_grid_cover(L16), phi16, SelectionPolicy("epsilon", epsilon=0.5, n_max=L16)
        )
        rng = np.random.default_rng(31)
        f = Signal(random_signal(rng, L16))
        _, rel = reconstruct(frame, f)
        assert rel <= 1e-12

    def test_zero_signal(self, frame16):
        rec, rel = reconstruct(frame16, Signal(np.zeros(L16)))
        assert rel == 0.0
        assert rec.norm == 0.0

    def test_wedge_cover_end_to_end(self):
        L = 32
        phi = gauss_window(L)
        cover = gen_wedge_cover(L, [(0, 16, 4), (16, 32, 8)])
        frame = assemble_frame(cover, phi, SelectionPolicy("epsilon", epsilon=0.1, n_max=L))
        cert = frame_certificate(frame)
        assert cert.is_frame and cert.condition <= 1e6
        rng = np.random.default_rng(32)
        for _ in range(3):
            f = Signal(random_signal(rng, L))
            _, rel = reconstruct(frame, f, cert)
            assert rel <= 1e-8

    def test_frame_operator_factored_once(self, boxes16, phi16, monkeypatch):
        # the O(L^3) step is the solve of S against G for the dual atoms
        frame = assemble_frame(boxes16, phi16, SelectionPolicy("epsilon", epsilon=0.2, n_max=L16))
        cert = frame_certificate(frame)
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a) or solve(a, b))
        G = frame.atom_matrix()
        rng = np.random.default_rng(34)
        for _ in range(5):
            f = random_signal(rng, L16)
            rec, rel = reconstruct(frame, Signal(f), cert)
            # the per-call formula: S^{-1} G G* f with S factored afresh
            w, Q = np.linalg.eigh(cert.frame_operator)
            expected = Q @ ((Q.conj().T @ (G @ (G.conj().T @ f))) / w)
            assert np.max(np.abs(rec.samples - expected)) <= 1e-12 * np.linalg.norm(f)
            assert rel == pytest.approx(np.linalg.norm(expected - f) / np.linalg.norm(f), abs=1e-12)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["regular16.json", "irregular16.json", "gabor16.json"])
    def test_dual_atoms_against_oracle(self, tmp_path, name):
        assert main(["frame", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
        frame = read_frame(tmp_path / "frame.json", tmp_path / "frame_atoms.tfat")
        cert = frame_certificate(frame)
        S, dual = canonical_dual(frame)
        assert np.max(np.abs(cert.frame_operator - S)) <= 1e-12
        analysis, lib_dual = cert.dual_frame(frame)
        scale = np.max(np.abs(dual))
        assert np.max(np.abs(lib_dual - dual)) <= 1e-10 * scale
        rng = np.random.default_rng(35)
        f = random_signal(rng, frame.L)
        G = atom_columns(frame)
        np.testing.assert_allclose(analysis @ f, [np.vdot(g, f) for g in G.T],
                                   rtol=0, atol=1e-12 * np.linalg.norm(f))
        # f = sum_i <f, g_i> g~_i, summed atom by atom
        synthesized = sum(np.vdot(g, f) * dual[:, i] for i, g in enumerate(G.T))
        assert np.linalg.norm(synthesized - f) <= 1e-10 * np.linalg.norm(f)
        rec, _ = reconstruct(frame, Signal(f), cert)
        assert np.linalg.norm(rec.samples - synthesized) <= 1e-10 * np.linalg.norm(f)

    def test_dual_is_not_reused_across_pairs(self, boxes16, phi16, monkeypatch):
        policy = SelectionPolicy("epsilon", epsilon=0.2, n_max=L16)
        frame_a = assemble_frame(boxes16, phi16, policy)
        frame_b = assemble_frame(gen_regular_boxes(L16, 8, 2), phi16, policy)
        cert_a, cert_b = frame_certificate(frame_a), frame_certificate(frame_b)
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a) or solve(a, b))
        f = random_signal(np.random.default_rng(36), L16)

        def expected(frame, cert):
            # S_cert^{-1} G G* f for this pair, from the direct formula
            G = atom_columns(frame)
            return solve(cert.frame_operator, G @ (G.conj().T @ f))

        pairs = [(frame_a, cert_a), (frame_b, cert_b), (frame_b, cert_a), (frame_a, cert_a),
                 (frame_a, cert_b), (frame_a, cert_b)]
        for frame, cert in pairs:
            rec, _ = reconstruct(frame, Signal(f), cert)
            assert np.max(np.abs(rec.samples - expected(frame, cert))) <= 1e-12 * np.linalg.norm(f)
        # one solve per change of pair; the repeated last pair reuses its dual
        assert len(calls) == 5
        # a rebuilt frame with the same atoms is another frame: it is solved again
        rebuilt = assemble_frame(boxes16, phi16, policy)
        reconstruct(rebuilt, Signal(f), cert_a)
        reconstruct(rebuilt, Signal(f), cert_a)
        assert len(calls) == 6

    def test_not_a_frame_raises(self, phi16):
        frame = assemble_frame(
            whole_grid_cover(L16), phi16, SelectionPolicy("epsilon", epsilon=0.5, n_max=L16 - 1)
        )
        rng = np.random.default_rng(33)
        with pytest.raises(NotAFrameError):
            reconstruct(frame, Signal(random_signal(rng, L16)))


class TestNormEquivalence:
    def test_single_whole_region_is_identity(self, phi16):
        c, C = norm_equivalence_constants(whole_grid_cover(L16), phi16, "plain")
        assert c == pytest.approx(1.0, abs=1e-9)
        assert C == pytest.approx(1.0, abs=1e-9)

    def test_golden_plain_and_squared(self, boxes16, phi16):
        c, C = norm_equivalence_constants(boxes16, phi16, "plain")
        assert c == pytest.approx(REGULAR16_PLAIN_C, abs=1e-8)
        assert C == pytest.approx(REGULAR16_PLAIN_CC, abs=1e-8)
        c4, C4 = norm_equivalence_constants(boxes16, phi16, "squared")
        assert c4 == pytest.approx(REGULAR16_SQUARED_C, abs=1e-8)
        assert C4 == pytest.approx(REGULAR16_SQUARED_CC, abs=1e-8)

    def test_thresholded_sweep_monotone_from_plain(self, boxes16, phi16):
        rows = epsilon_sweep(boxes16, phi16, [round(0.1 * i, 1) for i in range(10)])
        cs = [c for _, c, _ in rows]
        assert cs[0] == pytest.approx(REGULAR16_PLAIN_C, abs=1e-10)  # c(0) = plain c
        for prev, nxt in zip(cs, cs[1:]):
            assert nxt <= prev + 1e-9
        assert cs[0] > 0

    def test_thresholded_matches_frame_bound(self, boxes16, phi16, frame16):
        # for the eps-policy weighted frame, lambda_min(S) is exactly c(eps)
        c, C = norm_equivalence_constants(boxes16, phi16, "thresholded", epsilon=0.2)
        cert = frame_certificate(frame16)
        assert c == pytest.approx(cert.A, abs=1e-9)
        assert C == pytest.approx(cert.B, abs=1e-9)

    def test_symbol_sum_lower_bounds_operator_sum(self, phi16):
        cover = gen_random_irregular(L16, seed=3, target_size=6, overlap=0.6)
        _, sum_min, _ = sum_symbols(cover)
        total = np.zeros((L16, L16), complex)
        for op in region_operators(cover, phi16):
            total += op
        assert np.linalg.eigvalsh(total)[0] >= sum_min - 1e-9

    def test_unknown_variant_rejected(self, boxes16, phi16):
        with pytest.raises(InvalidArgumentError):
            norm_equivalence_constants(boxes16, phi16, "cubed")


class TestUnweighted:
    def test_unweighted_frame_with_floor(self, boxes16, phi16):
        policy = SelectionPolicy("epsilon", epsilon=0.1, n_max=L16)
        frame = assemble_frame(boxes16, phi16, policy, weighted=False)
        cert = frame_certificate(frame)
        assert cert.is_frame and cert.A > 1e-6
        assert np.all(frame.weights == 1.0)
        # selected eigenvalues dominate the ball-operator floor (c = 1 here
        # since every region contains the radius-1 ball around its center)
        n_max_selected = int(frame.ks.max())
        ball_ev = ball_operator_spectrum(L16, phi16.samples, 1)
        floor = float(ball_ev[n_max_selected - 1])
        min_selected = frame.lams.min()
        assert min_selected >= floor - 1e-9
        assert floor > 0

    def test_unweighted_requires_inner_regularity(self, phi16):
        strip = Symbol.indicator(L16, (0, 8), [(0, xi) for xi in range(L16)])
        rest = Symbol.indicator(
            L16, (8, 8), [(x, xi) for x in range(1, L16) for xi in range(L16)]
        )
        cover = Cover(L16, (strip, rest))
        policy = SelectionPolicy("epsilon", epsilon=0.1, n_max=L16)
        with pytest.raises(PreconditionViolation):
            assemble_frame(cover, phi16, policy, weighted=False)
        # the weighted variant has no such hypothesis
        assert assemble_frame(cover, phi16, policy, weighted=True) is not None


class TestFrameIo:
    def test_round_trip_exact(self, frame16, tmp_path):
        manifest, atoms = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(manifest, atoms, frame16)
        back = read_frame(manifest, atoms)
        assert back.L == frame16.L and back.weighted == frame16.weighted
        np.testing.assert_array_equal(np.hstack(back.vectors), np.hstack(frame16.vectors))
        for column in ("weights", "gammas", "ks", "lams"):
            np.testing.assert_array_equal(getattr(back, column), getattr(frame16, column))
        assert atoms.read_bytes()[:4] == b"TFAT"

    def test_manifest_offsets(self, frame16, tmp_path):
        manifest, atoms = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(manifest, atoms, frame16)
        entries = json.loads(manifest.read_text())["atoms"]
        assert [e["offset"] for e in entries] == [4 + i * 16 * L16 for i in range(len(entries))]

    def test_records_read_at_manifest_offsets(self, frame16, tmp_path):
        # records in reverse order, each after 3 bytes of padding, so no offset is 8-byte aligned
        manifest, atoms = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(manifest, atoms, frame16)
        parsed, blob = json.loads(manifest.read_text()), atoms.read_bytes()
        record_len = 16 * L16
        records = [blob[e["offset"]:e["offset"] + record_len] for e in parsed["atoms"]]
        moved = b"TFAT"
        for i in reversed(range(len(records))):
            moved += b"\xff" * 3
            parsed["atoms"][i]["offset"] = len(moved)
            moved += records[i]
        manifest.write_text(json.dumps(parsed))
        atoms.write_bytes(moved)
        back = read_frame(manifest, atoms)
        np.testing.assert_array_equal(np.hstack(back.vectors), np.hstack(frame16.vectors))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(edit=FRAME_EDITS)
    def test_fuzzed_stored_frame_loads_or_is_invalid_argument(self, frame16, edit):
        with tempfile.TemporaryDirectory() as tmp:
            manifest, atoms = Path(tmp) / "frame.json", Path(tmp) / "atoms.tfat"
            write_frame(manifest, atoms, frame16)
            target, data = corrupt(json.loads(manifest.read_text()), atoms.read_bytes(), edit)
            (manifest if target == "manifest" else atoms).write_bytes(data)
            try:
                frame = read_frame(manifest, atoms)
            except InvalidArgumentError:
                return
            assert frame.lams.size >= 1
            assert np.all(np.isfinite(frame.weights)) and np.all(frame.weights >= 0)
            assert np.all(np.isfinite(frame.lams))
            assert np.all(frame.gammas >= 0) and np.all(frame.ks >= 1)

    def test_certificate_json_schema(self, frame16, tmp_path):
        path = tmp_path / "cert.json"
        write_certificate_json(path, frame_certificate(frame16))
        data = json.loads(path.read_text())
        assert set(data) == {"A", "B", "condition", "is_frame", "atol"}
        assert data["is_frame"] is True
