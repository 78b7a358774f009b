import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfloc.frames
import tfloc.locop
from tfloc.cli import SWEEP_EPSILONS, load_config, main, resolve_cover, resolve_window
from tfloc.core import Signal, Window, gauss_window
from tfloc.covers import Cover, Symbol, cover_from_dict, gen_random_irregular, gen_regular_boxes, gen_wedge_cover
from tfloc.errors import EmptyFrameError, InvalidArgumentError, NotAFrameError, NumericError, PreconditionViolation
from tfloc.frames import (
    SelectionPolicy,
    assemble_frame,
    epsilon_sweep,
    frame_certificate,
    norm_equivalence_constants,
    read_frame,
    reconstruct,
    region_classes,
    select_eigenfunctions,
    write_certificate_json,
    write_frame,
)
from tfloc.gabor import Lattice, canonical_tight, gabor_eigenframe, multiplier_classes
from tfloc.locop import RANK_RTOL, eigendecomp

from helpers import (
    HUGE_INTEGERS,
    atom_columns,
    ball_operator_spectrum,
    canonical_dual,
    dense_from_blocks,
    direct_assemble,
    direct_gabor_multiplier,
    direct_shift,
    frame_operator,
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


# 8x8 boxes at L=64, whose frequency period is 8
REGULAR64_CONFIG = {"L": 64, "cover": {"regular": {"bx": 8, "by": 8}},
                    "policy": {"mode": "epsilon", "epsilon": 0.1, "n_max": 64}}


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
MANIFEST_KEYS = st.sampled_from(["L", "weighted", "source", "frequency_period", "atoms"])
ATOM_KEYS = st.sampled_from(["offset", "weight", "gamma", "k", "lambda"])
NAN_BYTES = np.array([np.nan], "<f8").tobytes()
# one corruption of a stored frame: a manifest field set or dropped (at the
# top level or in the first or last atom entry), one atom key set in both the
# first and the last entry to values that numpy reads as another column type
# (an int beside a bool; 2**63 beside 1, uint64 or float64 by numpy version;
# an integer key's 1.0), two atom entries' k or offset swapped, or the atoms
# file truncated, given another magic, or overwritten at some position by NaN
# or other bytes
FRAME_EDITS = st.one_of(
    st.tuples(st.just("set"), st.none(), MANIFEST_KEYS, JSON_VALUES),
    st.tuples(st.just("set"), st.sampled_from([0, -1]), ATOM_KEYS, JSON_VALUES),
    st.tuples(st.just("ends"), ATOM_KEYS, st.sampled_from([(1, True), (0, False), (2**63, 1), (1.0, 1.0)])),
    st.tuples(st.just("drop"), st.none(), MANIFEST_KEYS),
    st.tuples(st.just("drop"), st.sampled_from([0, -1]), ATOM_KEYS),
    st.tuples(st.just("swap"), st.sampled_from(["k", "offset"]), st.floats(0.0, 1.0, exclude_max=True),
              st.floats(0.0, 1.0, exclude_max=True)),
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
    if kind == "ends":
        key, (first, last) = args
        manifest["atoms"][0][key], manifest["atoms"][-1][key] = first, last
        return "manifest", json.dumps(manifest).encode()
    if kind == "swap":
        key, entries = args[0], manifest["atoms"]
        first, second = (entries[int(at * len(entries))] for at in args[1:])
        first[key], second[key] = second[key], first[key]
        return "manifest", json.dumps(manifest).encode()
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

    @pytest.mark.parametrize("mode, value", [("alpha", np.inf), ("alpha", np.nan), ("alpha", -np.inf),
                                             pytest.param("alpha", 10**400, id="alpha-int-past-float"),
                                             ("epsilon", np.inf), ("epsilon", np.nan)])
    def test_non_finite_values_rejected(self, mode, value):
        with pytest.raises(InvalidArgumentError, match="finite"):
            SelectionPolicy(mode, **{mode: value})

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324])
    def test_alpha_whose_threshold_overflows_rejected(self, alpha):
        # diagnose sums at the threshold 1/alpha, which is infinite here
        with pytest.raises(InvalidArgumentError, match="1/alpha overflows"):
            SelectionPolicy("alpha", alpha=alpha)
        # a threshold of 1e308 is finite
        assert SelectionPolicy("alpha", alpha=1e-308).implied_alpha == 1e-308

    def test_implied_alpha(self):
        assert SelectionPolicy("epsilon", epsilon=0.1).implied_alpha == pytest.approx(10.0)
        assert SelectionPolicy("alpha", alpha=3.0).implied_alpha == 3.0
        # no finite alpha implies epsilon = 0, or a subnormal epsilon whose 1/epsilon overflows
        assert SelectionPolicy("epsilon", epsilon=0.0).implied_alpha is None
        assert SelectionPolicy("epsilon", epsilon=1e-320).implied_alpha is None


class TestSelection:
    def test_epsilon_counts_golden(self, boxes16, phi16):
        policy = SelectionPolicy("epsilon", epsilon=0.2, n_max=L16)
        counts = [select_eigenfunctions(eigendecomp(op), np.trace(op).real, policy)
                  for op in region_operators(boxes16, phi16)]
        assert counts == [REGULAR16_N_EPS02] * 16  # identical by covariance

    def test_epsilon_zero_gives_numerical_rank(self, boxes16, phi16):
        policy = SelectionPolicy("epsilon", epsilon=0.0, n_max=L16)
        for op in region_operators(boxes16, phi16):
            ev = np.linalg.eigvalsh(op)
            rank = int(np.sum(ev > RANK_RTOL * ev[-1]))
            assert select_eigenfunctions(eigendecomp(op), np.trace(op).real, policy) == rank

    def test_capped_at_numerical_rank(self, boxes16, phi16):
        # each box operator has numerical rank 12 of 16: its last four
        # eigenvalues, 3e-13 down to 1e-18, are rounding noise, and neither
        # ceil(alpha * measure) = 16 nor a threshold below them selects them
        alpha = SelectionPolicy("alpha", alpha=16.0, n_max=L16)
        tiny = SelectionPolicy("epsilon", epsilon=1e-16, n_max=L16)
        for op in region_operators(boxes16, phi16):
            ev = np.linalg.eigvalsh(op)
            assert np.sum(ev > RANK_RTOL * ev[-1]) == 12
            spec = eigendecomp(op)
            assert spec.eigenvalues.size == 12
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

    def test_alpha_whose_count_overflows_keeps_the_cap(self, phi16):
        # measure 4 per region, so alpha * measure overflows; the count is capped before its ceiling
        cover = gen_regular_boxes(L16, 8, 8)
        every = assemble_frame(cover, phi16, SelectionPolicy("epsilon", epsilon=0.0, n_max=L16))
        huge = assemble_frame(cover, phi16, SelectionPolicy("alpha", alpha=1e308, n_max=L16))
        np.testing.assert_array_equal(huge.lams, every.lams)


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
        V = frame16.atoms.T
        assert np.all(np.abs(np.linalg.norm(V, axis=0) - 1.0) <= 1e-10)
        for gamma in np.unique(frame16.gammas):
            mine = frame16.gammas == gamma
            assert sorted(frame16.ks[mine]) == list(range(1, mine.sum() + 1))
            gram = np.abs(V[:, mine].conj().T @ V[:, mine])
            assert np.all(gram[~np.eye(mine.sum(), dtype=bool)] <= 1e-9)

    def test_frames_compare_by_identity(self, boxes16, phi16):
        # records that hold arrays have no field-wise == (it would ask an array for its truth value)
        policy = SelectionPolicy("epsilon", epsilon=0.2, n_max=L16)
        a, b = (assemble_frame(boxes16, phi16, policy) for _ in range(2))
        np.testing.assert_array_equal(a.atoms, b.atoms)
        ca, cb = frame_certificate(a), frame_certificate(b)
        for x, y in ((a, b), (ca, cb), (Window(phi16.samples), Window(phi16.samples))):
            assert x == x and x != y and not x == y
            assert len({x, x, y}) == 2  # both hash

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
        spectra = [np.linalg.eigvalsh(op) for op in region_operators(boxes16, phi16)]
        for ev in spectra[1:]:
            np.testing.assert_allclose(ev, spectra[0], atol=1e-9)


def direct_region_operators(cfg, cover, phi):
    """The direct per-region operators of a config: grid operators, or the
    double-loop Gabor multipliers of the canonical tight window."""
    if cfg.lattice is None:
        return list(region_operators(cover, phi))
    lat = cfg.lattice
    phit = canonical_tight(phi, lat).window.samples
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
        P = frame.atoms[mine].T @ frame.atoms[mine].conj()
        assert np.max(np.abs(P - V[:, :n] @ V[:, :n].conj().T)) <= 1e-10
    assert compared > 0
    ev = np.linalg.eigvalsh(S)
    assert A == pytest.approx(ev[0], rel=1e-12)
    assert B == pytest.approx(ev[-1], rel=1e-12)


class TestShapeClasses:
    """One eigensolve per shape class agrees with solving every region directly."""

    @pytest.mark.parametrize("name", ["regular16.json", "irregular16.json", "gabor16.json", "regular64"])
    def test_config_against_direct_path(self, tmp_path, name):
        cfg_path = CONFIG_DIR / name
        if name == "regular64":  # frequency period 8: eight Walnut blocks of order 8
            cfg_path = tmp_path / "regular64.json"
            cfg_path.write_text(json.dumps(REGULAR64_CONFIG))
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
                lam, V = np.linalg.eigh(op)
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
        _, (c, C), _ = norm_equivalence_constants(region_classes(cover, phi16), [], cover.frequency_period)
        assert len(calls) == 2 * 3
        monkeypatch.undo()
        ops = list(region_operators(cover, phi16))
        assert_matches_direct_path(frame, ops, policy, cert.A, cert.B)
        ev = np.linalg.eigvalsh(sum(op @ op @ op @ op for op in ops))
        assert c == pytest.approx(ev[0], rel=1e-12)
        assert C == pytest.approx(ev[-1], rel=1e-12)
        # a member's atoms are exactly pi(z) of its representative's
        V = frame.atoms
        for rep, member, (x, xi) in ((0, 1, (14, 6)), (2, 3, (0, 7))):
            moved = V[frame.gammas == member]
            assert moved.shape[0] == np.sum(frame.gammas == rep) > 0
            for a, b in zip(V[frame.gammas == rep], moved):
                np.testing.assert_allclose(b, direct_shift(L16, x, xi, a), rtol=0, atol=1e-14)


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
        sys_ = canonical_tight(gauss_window(self.L), lattice)
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
        sys_ = canonical_tight(phi, lattice)
        return lambda: gabor_eigenframe(cover, sys_, self.POLICY)

    @pytest.mark.parametrize("variant", ["grid", "lattice"])
    def test_frame_keeps_only_its_atoms(self, monkeypatch, variant):
        # n atoms take 16 L n bytes; a frame keeps its one atoms array, with
        # no per-atom objects and no class's L x L eigenvectors
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
        assert not any(np.shares_memory(frame.atoms, s.eigenvectors) for s in spectra)

    def test_diagnose_peak(self, tmp_path):
        # diagnose keeps one Gram sum per distinct term (11 here) plus one
        # class's operator and spectrum, and one batch of its translated
        # members, of at most L^2 / 2 entries, weighted once
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
        atoms, lams, gammas = np.vstack([f.atoms, f.atoms]), np.tile(f.lams, 2), np.tile(f.gammas, 2)
        doubled = EigenFrame(atoms, lams, gammas, f.weighted, f.frequency_period)
        cert2 = frame_certificate(doubled)
        assert cert2.A == pytest.approx(2 * cert.A, rel=1e-9)
        assert cert2.B == pytest.approx(2 * cert.B, rel=1e-9)
        # each region's second copy of its atoms ranks after its first
        n = f.lams.size
        np.testing.assert_array_equal(doubled.ks[n:], f.ks + np.bincount(f.gammas)[f.gammas])
        # one region's block of atoms too few, or its regions left out, is refused on construction
        for args, match in (([atoms[2:], lams, gammas], "atoms must be"),
                            ([atoms, lams, gammas[2:]], "gammas must hold")):
            with pytest.raises(InvalidArgumentError, match=match) as info:
                EigenFrame(*args, f.weighted, f.frequency_period)
            assert info.value.code == "invalid-argument"

    @pytest.mark.parametrize("change", ["unweighted", "lambdas doubled"])
    def test_a_replaced_frame_has_the_weights_its_eigenpairs_imply(self, frame16, tmp_path, change):
        # w_i is lambda_i in a weighted frame and 1 in an unweighted one, also after a replace: the
        # certificate and the stored frame use those weights
        if change == "unweighted":
            frame, weights = dataclasses.replace(frame16, weighted=False), np.ones(frame16.lams.size)
        else:
            frame, weights = dataclasses.replace(frame16, lams=2 * frame16.lams), 2 * frame16.lams
        G = frame16.atoms.T * weights  # the dense S = G G* of those weights
        ev = np.linalg.eigvalsh(G @ G.conj().T)
        cert = frame_certificate(frame)
        np.testing.assert_allclose([cert.A, cert.B], ev[[0, -1]], rtol=0, atol=1e-12 * ev[-1])
        files = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(*files, frame)
        back = read_frame(*files)
        assert back.weighted == frame.weighted
        for column in ("atoms", "lams", "gammas"):
            np.testing.assert_array_equal(getattr(back, column), getattr(frame, column))
        for f in (frame, back):
            np.testing.assert_array_equal(f.weights, weights)
        again = frame_certificate(back)
        assert (again.A, again.B) == (cert.A, cert.B)

    def test_parseval_consistency(self, frame16):
        rng = np.random.default_rng(30)
        S = frame_operator(frame16)
        for _ in range(5):
            f = random_signal(rng, L16)
            total = sum(abs(np.vdot(g, f)) ** 2 for g in atom_columns(frame16).T)
            quad = np.vdot(f, S @ f).real
            assert total == pytest.approx(quad, rel=1e-9)


def walnut_case(name):
    """(frame, expected frequency period) of a grid or a lattice frame with p < L."""
    policy = SelectionPolicy("epsilon", epsilon=0.1)
    if name == "regular64":
        return assemble_frame(gen_regular_boxes(64, 8, 8), gauss_window(64), policy), 8
    if name == "wedge":  # two bands of one shape: one class, invariant under (0, 16)
        return assemble_frame(gen_wedge_cover(32, [(0, 16, 4), (16, 32, 4)]), gauss_window(32), policy), 16
    cover = lattice_box_cover(32, 8, 2)
    system = canonical_tight(gauss_window(32), Lattice(32, 2, 2))
    return gabor_eigenframe(cover, system, policy), 8


class TestWalnutBlocks:
    """The certificate, the dual and the Gram sums, block by block, against the dense oracles."""

    @pytest.mark.parametrize("name", ["regular64", "wedge", "lattice32"])
    def test_blocks_bounds_and_dual_match_dense(self, name):
        frame, p = walnut_case(name)
        L = frame.L
        assert frame.frequency_period == p
        cert = frame_certificate(frame)
        assert cert.blocks.shape == (L // p, p, p)
        # the blocks are S's, and S vanishes off them
        S = frame_operator(frame)
        assert np.max(np.abs(dense_from_blocks(cert.blocks) - S)) <= 1e-12 * np.abs(S).max()
        ev = np.linalg.eigvalsh(S)
        assert cert.A == pytest.approx(ev[0], rel=1e-12)
        assert cert.B == pytest.approx(ev[-1], rel=1e-12)
        assert cert.condition == pytest.approx(ev[-1] / ev[0], rel=1e-12)
        G, inverse = cert.inverse
        assert inverse.shape == (L // p, p, p)
        _, want = canonical_dual(frame)
        dual = dense_from_blocks(inverse) @ G
        assert np.max(np.abs(dual - want)) <= 1e-12 * np.abs(want).max()
        f = random_signal(np.random.default_rng(37), L)
        rec, rel = reconstruct(frame, Signal(f))
        assert np.linalg.norm(rec.samples - f) <= 1e-12 * np.linalg.norm(f) and rel <= 1e-12

    def test_a_stored_frame_keeps_its_blocks(self, tmp_path):
        cfg = tmp_path / "regular64.json"
        cfg.write_text(json.dumps(REGULAR64_CONFIG))
        assert main(["frame", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        frame = read_frame(tmp_path / "frame.json", tmp_path / "frame_atoms.tfat")
        assert frame.frequency_period == 8
        cert = frame_certificate(frame)
        assert cert.blocks.shape == (8, 8, 8)
        assert np.max(np.abs(dense_from_blocks(cert.blocks) - frame_operator(frame))) <= 1e-12 * cert.B
        stored = json.loads((tmp_path / "certificate.json").read_text())
        assert cert.A == pytest.approx(stored["A"], rel=1e-12)
        assert cert.B == pytest.approx(stored["B"], rel=1e-12)

    def test_no_solve_sees_more_than_a_block(self, monkeypatch):
        cover, phi = gen_regular_boxes(64, 8, 8), gauss_window(64)
        frame = assemble_frame(cover, phi, SelectionPolicy("epsilon", epsilon=0.1))
        classes = list(region_classes(cover, phi))
        shapes = []
        for name in ("eigvalsh", "eigh", "solve", "inv"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *rest, fn=fn: shapes.append(a.shape) or fn(a, *rest))
        cert = frame_certificate(frame)
        cert.inverse
        reconstruct(frame, Signal(random_signal(np.random.default_rng(38), 64)))
        rows = norm_equivalence_constants(classes, [0.1 * i for i in range(10)], cover.frequency_period)[2]
        assert len(rows) == 10
        # the certificate, the inverse, the certificate and solve of reconstruct, and
        # the 11 Gram sums: one per threshold, 0 among them as plain, and squared
        assert len(shapes) == 1 + 1 + 2 + 11
        assert {a[-2:] for a in shapes} == {(8, 8)}

    @pytest.mark.parametrize("p", [0, 3, 32])
    def test_period_must_divide_L(self, frame16, p):
        with pytest.raises(InvalidArgumentError, match="frequency period"):
            dataclasses.replace(frame16, frequency_period=p)

    def test_a_built_frame_lacking_its_period_is_refused(self, tmp_path):
        # p = 1 divides L but is not the cover's period 8: certified in 64 blocks of order 1,
        # S would look diagonal, with wrong bounds and a wrong dual
        cfg = tmp_path / "regular64.json"
        cfg.write_text(json.dumps(REGULAR64_CONFIG))
        config = load_config(cfg)
        frame = assemble_frame(resolve_cover(config), resolve_window(config), config.policy)
        assert frame.frequency_period == 8
        with pytest.raises(InvalidArgumentError, match="lack frequency period 1"):
            dataclasses.replace(frame, frequency_period=1)


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

    def test_rejects_signal_of_another_length(self, frame16):
        with pytest.raises(InvalidArgumentError, match="signal length 8 != frame length 16"):
            reconstruct(frame16, Signal(np.ones(8)))

    @pytest.mark.parametrize("scale, certified", [
        *(pytest.param(v, True, id=f"{v:g}") for v in (1e-170, 1e-160, 1e160)),
        *(pytest.param(v, False, id=f"{v:g}-certificate=None") for v in (1e-170, 1e-160, 1e160)),
    ])
    def test_error_of_a_tiny_or_huge_signal(self, scale, certified):
        # unscaled, ||f||_2 underflows to 0 at 1e-170 and overflows at 1e160, and the
        # error read 0.0 at all three: the zero vector at 1e-170, though its error is 1
        cfg = load_config(CONFIG_DIR / "regular16.json")
        frame = assemble_frame(resolve_cover(cfg), gauss_window(cfg.L), cfg.policy, cfg.weighted)
        cert = frame_certificate(frame) if certified else None
        s = random_signal(np.random.default_rng(39), L16)
        rec_s, rel_s = reconstruct(frame, Signal(s), cert)
        rec, rel = reconstruct(frame, Signal(scale * s), cert)
        # the result skips Signal's check, so its samples are checked here
        assert rec.samples.dtype == np.complex128 and rec.samples.shape == (L16,)
        assert np.isfinite(rec.samples).all()
        true = np.linalg.norm(rec.samples / scale - s) / np.linalg.norm(s)
        assert 0.0 < rel <= 1e-12 and abs(rel - true) <= 1e-15
        # scaled by the nearest power of two every step is exact, so the error keeps its bits
        two = 2.0 ** round(np.log2(scale))
        rec2, rel2 = reconstruct(frame, Signal(two * s), cert)
        np.testing.assert_array_equal(rec2.samples, two * rec_s.samples)
        assert rel2 == rel_s

    @pytest.mark.parametrize("certified", [False, True], ids=["certificate=None", "frame_certificate"])
    def test_a_non_finite_result_is_a_numeric_error(self, phi16, boxes16, certified):
        # samples of 1e308 overflow G* f of the unit-weight atoms; the error's finiteness test
        # is the only guard, since the result is not checked as a Signal
        frame = assemble_frame(boxes16, phi16, SelectionPolicy("epsilon", epsilon=0.1, n_max=L16), weighted=False)
        cert = frame_certificate(frame) if certified else None
        with pytest.warns(RuntimeWarning), pytest.raises(NumericError) as err:
            reconstruct(frame, Signal(np.full(L16, 1e308 + 0j)), cert)
        assert err.value.code == "numeric-error"

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
        # the O(L p^2) step is the inversion of S's Walnut blocks, once per certificate
        frame = assemble_frame(boxes16, phi16, SelectionPolicy("epsilon", epsilon=0.2, n_max=L16))
        cert = frame_certificate(frame)
        inv, solve = np.linalg.inv, np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a) or solve(a, b))
        G = frame.atoms.T * frame.weights
        rng = np.random.default_rng(34)
        for _ in range(5):
            f = random_signal(rng, L16)
            rec, rel = reconstruct(frame, Signal(f), cert)
            # the per-call formula: S^{-1} G G* f with S factored afresh
            w, Q = np.linalg.eigh(dense_from_blocks(cert.blocks))
            expected = Q @ ((Q.conj().T @ (G @ (G.conj().T @ f))) / w)
            assert np.max(np.abs(rec.samples - expected)) <= 1e-12 * np.linalg.norm(f)
            assert rel == pytest.approx(np.linalg.norm(expected - f) / np.linalg.norm(f), abs=1e-12)
        assert len(calls) == 1 and calls[0] is cert.blocks

    @pytest.mark.parametrize("name", ["regular16.json", "irregular16.json", "gabor16.json"])
    def test_dual_atoms_against_oracle(self, tmp_path, name):
        assert main(["frame", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
        frame = read_frame(tmp_path / "frame.json", tmp_path / "frame_atoms.tfat")
        cert = frame_certificate(frame)
        S, dual = canonical_dual(frame)
        assert np.max(np.abs(dense_from_blocks(cert.blocks) - S)) <= 1e-12
        # the one atom matrix, and S^{-1} G from the inverted blocks: the dual atoms
        lib_G, inverse = cert.inverse
        G = atom_columns(frame)
        assert lib_G.flags.c_contiguous and np.max(np.abs(lib_G - G)) <= 1e-15
        scale = np.max(np.abs(dual))
        assert np.max(np.abs(dense_from_blocks(inverse) @ lib_G - dual)) <= 1e-12 * scale
        rng = np.random.default_rng(35)
        f = random_signal(rng, frame.L)
        np.testing.assert_allclose(np.conj(lib_G.T @ np.conj(f)), [np.vdot(g, f) for g in G.T],
                                   rtol=0, atol=1e-12 * np.linalg.norm(f))
        # f = sum_i <f, g_i> g~_i, summed atom by atom
        synthesized = sum(np.vdot(g, f) * dual[:, i] for i, g in enumerate(G.T))
        assert np.linalg.norm(synthesized - f) <= 1e-10 * np.linalg.norm(f)
        rec, _ = reconstruct(frame, Signal(f), cert)
        assert np.linalg.norm(rec.samples - synthesized) <= 1e-12 * np.linalg.norm(f)

    def test_certificate_belongs_to_its_frame(self, boxes16, phi16):
        policy = SelectionPolicy("epsilon", epsilon=0.2, n_max=L16)
        frame = assemble_frame(boxes16, phi16, policy)
        cert = frame_certificate(frame)
        assert cert.frame is frame
        f = Signal(random_signal(np.random.default_rng(36), L16))
        other = assemble_frame(gen_regular_boxes(L16, 8, 2), phi16, policy)
        rebuilt = assemble_frame(boxes16, phi16, policy)  # the same atoms, another frame
        for stranger in (other, rebuilt):
            with pytest.raises(InvalidArgumentError, match="another frame") as info:
                reconstruct(stranger, f, cert)
            assert info.value.code == "invalid-argument"
        # certified again, the rebuilt frame reconstructs as the first one does
        rec, rel = reconstruct(rebuilt, f, frame_certificate(rebuilt))
        np.testing.assert_array_equal(rec.samples, reconstruct(frame, f, cert)[0].samples)
        assert rel <= 1e-12

    def test_not_a_frame_raises(self, phi16):
        frame = assemble_frame(
            whole_grid_cover(L16), phi16, SelectionPolicy("epsilon", epsilon=0.5, n_max=L16 - 1)
        )
        rng = np.random.default_rng(33)
        with pytest.raises(NotAFrameError):
            reconstruct(frame, Signal(random_signal(rng, L16)))

    def test_one_signal_holds_no_copy_of_the_atoms(self, monkeypatch):
        # on a frame of many certificate batches, one signal without a certificate forms S f over the
        # atom rows and solves S's blocks, so it holds one batch, not a weighted copy of every atom,
        # and it agrees with a stream's products with G and inverted blocks
        L = 256
        monkeypatch.setattr(tfloc.frames, "_BATCH_ENTRIES", 1 << 12)
        frame = assemble_frame(gen_regular_boxes(L, 32, 32), gauss_window(L),
                               SelectionPolicy("epsilon", epsilon=0.1, n_max=L))
        f = Signal(random_signal(np.random.default_rng(40), L))
        rec, _ = reconstruct(frame, f)  # the first run imports modules lazily; trace the second
        assert traced_peak_bytes(lambda: reconstruct(frame, f)) < 0.5 * frame.atoms.nbytes
        streamed, _ = reconstruct(frame, f, frame_certificate(frame))
        assert np.linalg.norm(rec.samples - streamed.samples) <= 1e-12 * np.linalg.norm(streamed.samples)


class TestNormEquivalence:
    def test_single_whole_region_is_identity(self, phi16):
        cover = whole_grid_cover(L16)
        (c, C), _, _ = norm_equivalence_constants(region_classes(cover, phi16), [], cover.frequency_period)
        assert c == pytest.approx(1.0, abs=1e-9)
        assert C == pytest.approx(1.0, abs=1e-9)

    def test_golden_plain_and_squared(self, boxes16, phi16):
        (c, C), (c4, C4), _ = norm_equivalence_constants(region_classes(boxes16, phi16), [],
                                                          boxes16.frequency_period)
        assert c == pytest.approx(REGULAR16_PLAIN_C, abs=1e-8)
        assert C == pytest.approx(REGULAR16_PLAIN_CC, abs=1e-8)
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
        _, _, [(c, C)] = norm_equivalence_constants(region_classes(boxes16, phi16), [0.2],
                                                     boxes16.frequency_period)
        cert = frame_certificate(frame16)
        assert c == pytest.approx(cert.A, abs=1e-9)
        assert C == pytest.approx(cert.B, abs=1e-9)

    def test_symbol_sum_lower_bounds_operator_sum(self, phi16):
        cover = gen_random_irregular(L16, seed=3, target_size=6, overlap=0.6)
        _, sum_min, _ = cover.coverage
        total = np.zeros((L16, L16), complex)
        for op in region_operators(cover, phi16):
            total += op
        assert np.linalg.eigvalsh(total)[0] >= sum_min - 1e-9

    def test_plain_is_the_epsilon_zero_row(self, boxes16, phi16):
        classes = list(region_classes(boxes16, phi16))
        plain, _, rows = norm_equivalence_constants(classes, [0.3, 0.0, 0.1], boxes16.frequency_period)
        assert rows[1] == plain  # bit for bit
        assert rows[0][0] <= rows[2][0] <= plain[0]

    def test_a_sweep_without_zero_gives_the_same_rows(self, boxes16, phi16):
        classes = list(region_classes(boxes16, phi16))
        sweep = [round(0.1 * i, 1) for i in range(10)]
        with_zero = norm_equivalence_constants(classes, sweep, boxes16.frequency_period)
        without = norm_equivalence_constants(classes, sweep[1:], boxes16.frequency_period)
        assert without[:2] == with_zero[:2]
        assert without[2] == with_zero[2][1:]  # bit for bit

    def test_a_class_is_translated_in_batches(self, monkeypatch):
        # one class of 64 members: its spectrum is translated to them a batch at a time
        cover = gen_regular_boxes(64, 8, 8)
        classes = list(region_classes(cover, gauss_window(64)))
        assert len(classes) == 1 and classes[0][2].members.size == 64
        calls = []
        translated = tfloc.locop.Spectrum.translated
        monkeypatch.setattr(tfloc.locop.Spectrum, "translated",
                            lambda spec, shifts: calls.append(len(shifts)) or translated(spec, shifts))
        norm_equivalence_constants(classes, [0.1], cover.frequency_period)
        assert sum(calls) == 64 and len(calls) < 64


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
        np.testing.assert_array_equal(back.atoms, frame16.atoms)
        for column in ("weights", "gammas", "ks", "lams"):
            np.testing.assert_array_equal(getattr(back, column), getattr(frame16, column))
        assert atoms.read_bytes()[:4] == b"TFAT"

    def test_manifest_offsets(self, frame16, tmp_path):
        manifest, atoms = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(manifest, atoms, frame16)
        entries = json.loads(manifest.read_text())["atoms"]
        assert [e["offset"] for e in entries] == [4 + i * 16 * L16 for i in range(len(entries))]

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("source", [None, "3f\"\\é"])
    def test_manifest_bytes_are_json_dump(self, boxes16, phi16, tmp_path, weighted, source):
        # the manifest is written from templates; the json encoder is the oracle
        frame = assemble_frame(boxes16, phi16, SelectionPolicy("epsilon", epsilon=0.2), weighted)
        frame = dataclasses.replace(frame, source=source)
        manifest = tmp_path / "frame.json"
        write_frame(manifest, tmp_path / "atoms.tfat", frame)
        payload = {"L": frame.L, "weighted": weighted}
        if source is not None:
            payload["source"] = source
        payload["frequency_period"] = 4
        payload["atoms"] = [
            {"gamma": int(g), "k": int(k), "lambda": float(lam), "weight": float(w), "offset": 4 + i * 16 * L16}
            for i, (g, k, lam, w) in enumerate(zip(frame.gammas, frame.ks, frame.lams, frame.weights))
        ]
        assert manifest.read_bytes() == (json.dumps(payload, indent=1) + "\n").encode()

    @pytest.mark.parametrize("case", ["k", "offset", "short", "long"])
    def test_files_write_frame_never_writes_are_invalid_argument(self, frame16, tmp_path, case):
        # a manifest with k permuted within a region, or with offsets pointing at moved records (in reverse
        # order, each after 3 bytes of padding), or an atoms file one byte short or one byte long
        manifest, atoms = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(manifest, atoms, frame16)
        parsed, blob = json.loads(manifest.read_text()), atoms.read_bytes()
        record_len, entries = 16 * L16, parsed["atoms"]
        if case == "k":
            assert entries[0]["gamma"] == entries[1]["gamma"] and (entries[0]["k"], entries[1]["k"]) == (1, 2)
            entries[0]["k"], entries[1]["k"] = 2, 1
            target, match = manifest, "atom 0 has k 2, not 1"
        elif case == "offset":
            records = [blob[e["offset"]:e["offset"] + record_len] for e in entries]
            blob = b"TFAT"
            for i in reversed(range(len(records))):
                blob += b"\xff" * 3
                entries[i]["offset"] = len(blob)
                blob += records[i]
            target, match = manifest, f"atom 0 has offset {entries[0]['offset']}, not 4"
        else:
            blob = blob[:-1] if case == "short" else blob + b"\0"
            target, match = atoms, f"has {len(blob)} bytes, not the 4 \\+ 16 L n = {4 + record_len * len(entries)} of"
        manifest.write_text(json.dumps(parsed))
        atoms.write_bytes(blob)
        with pytest.raises(InvalidArgumentError, match=match) as info:
            read_frame(manifest, atoms)
        assert info.value.code == "invalid-argument" and info.value.context["path"] == str(target)

    @pytest.mark.parametrize("L", [2**40, 2**59])
    def test_a_huge_L_is_refused_before_allocating(self, frame16, tmp_path, L):
        # one atom of L = 2^40 would take 16 TiB, so the atoms file's size is checked first; at L = 2^59 a
        # record's 16 L bytes are past the 64-bit range of a file's size, which the manifest check refuses
        manifest, atoms = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(manifest, atoms, frame16)
        parsed = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**parsed, "L": L, "frequency_period": L, "atoms": parsed["atoms"][:1]}))
        target, match = ((atoms, f"not the 4 \\+ 16 L n = {4 + 16 * L} of n = 1 atoms of length L = {L}")
                         if L == 2**40 else (manifest, f"n = 1 atoms of length L = {L} are past the 64-bit range"))

        def read():
            with pytest.raises(InvalidArgumentError, match=match) as info:
                read_frame(manifest, atoms)
            assert info.value.code == "invalid-argument" and info.value.context["path"] == str(target)

        assert traced_peak_bytes(read) < 1 << 20

    def test_rewriting_a_read_frame_keeps_its_bytes(self, boxes16, phi16, frame16, tmp_path, monkeypatch):
        # frame16, its unweighted variant (every weight the 1.0 it implies), the lattice frame of gabor16.json,
        # and a frame at L=64 built and certified with one member per gather and 4 atoms per certificate
        # batch (32 batches)
        write_frame(tmp_path / "frame16.json", tmp_path / "frame16.tfat", frame16)
        unweighted = assemble_frame(boxes16, phi16, SelectionPolicy("epsilon", epsilon=0.2), weighted=False)
        write_frame(tmp_path / "unweighted.json", tmp_path / "unweighted.tfat", unweighted)
        assert {e["weight"] for e in json.loads((tmp_path / "unweighted.json").read_text())["atoms"]} == {1.0}
        assert main(["frame", "--config", str(CONFIG_DIR / "gabor16.json"), "--out", str(tmp_path / "gabor")]) == 0
        cfg = tmp_path / "regular64.json"
        cfg.write_text(json.dumps(REGULAR64_CONFIG))
        monkeypatch.setattr(tfloc.frames, "_BATCH_ENTRIES", 4 * 64)
        assert main(["frame", "--config", str(cfg), "--out", str(tmp_path / "regular64")]) == 0
        stored = [(tmp_path / f"{name}.json", tmp_path / f"{name}.tfat") for name in ("frame16", "unweighted")]
        stored += [(tmp_path / d / "frame.json", tmp_path / d / "frame_atoms.tfat") for d in ("gabor", "regular64")]
        for manifest, atoms in stored:
            again = tmp_path / "again.json", tmp_path / "again.tfat"
            write_frame(*again, read_frame(manifest, atoms))
            assert again[0].read_bytes() == manifest.read_bytes()
            assert again[1].read_bytes() == atoms.read_bytes()

    @pytest.mark.parametrize("weighted", [True, False])
    def test_a_weight_write_frame_never_writes_is_invalid_argument(self, boxes16, phi16, tmp_path, weighted):
        # a weighted frame's weight is its lambda and an unweighted frame's is 1.0; one atom's weight is
        # set to the other variant's, or moved by one ulp
        frame = assemble_frame(boxes16, phi16, SelectionPolicy("epsilon", epsilon=0.2), weighted)
        manifest, atoms = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(manifest, atoms, frame)
        parsed = json.loads(manifest.read_text())
        entry = parsed["atoms"][3]
        for weight in (1.0 if weighted else entry["lambda"], float(np.nextafter(entry["weight"], 2.0))):
            manifest.write_text(json.dumps({**parsed, "atoms": [*parsed["atoms"][:3], {**entry, "weight": weight},
                                                                *parsed["atoms"][4:]]}))
            with pytest.raises(InvalidArgumentError, match=f"atom 3 has weight {weight!r}, not") as info:
                read_frame(manifest, atoms)
            assert info.value.code == "invalid-argument" and info.value.context["path"] == str(manifest)

    def test_read_holds_the_atoms_once(self, tmp_path):
        # the records are read into the atoms in one readinto, and the period check multiplies the rows as
        # they are, S M u = M S u in two matrix products, so reading a stored frame holds about its
        # atoms, not the file's bytes beside a copy of them
        L = 256
        frame = assemble_frame(gen_regular_boxes(L, 32, 32), gauss_window(L),
                               SelectionPolicy("epsilon", epsilon=0.1, n_max=L))
        assert frame.frequency_period < L  # so the probe runs
        files = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(*files, frame)
        read_frame(*files)  # the first run imports modules lazily; trace the second
        assert traced_peak_bytes(lambda: read_frame(*files)) < 1.25 * frame.atoms.nbytes

    @settings(max_examples=200)
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

    @settings(max_examples=100)
    @given(value=st.booleans() | st.text(max_size=4) | st.just(0) | st.integers(max_value=-1)
           | st.integers(1, 2**40).filter(lambda p: L16 % p) | st.floats() | HUGE_INTEGERS)
    def test_bad_frequency_period_is_invalid_argument(self, frame16, value):
        # a JSON integer >= 1 dividing L, and no boolean, string, float or huge integer
        with tempfile.TemporaryDirectory() as tmp:
            manifest, atoms = Path(tmp) / "frame.json", Path(tmp) / "atoms.tfat"
            write_frame(manifest, atoms, frame16)
            manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "frequency_period": value}))
            with pytest.raises(InvalidArgumentError, match="frequency_period") as info:
                read_frame(manifest, atoms)
            assert info.value.context["path"] == str(manifest)

    @pytest.mark.parametrize("name, p", [("regular16.json", 4), ("gabor16.json", 8), ("wedge32.json", 32)])
    def test_stored_frame_keeps_its_period(self, tmp_path, name, p):
        assert main(["frame", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
        assert resolve_cover(load_config(CONFIG_DIR / name)).frequency_period == p
        assert json.loads((tmp_path / "frame.json").read_text())["frequency_period"] == p
        frame = read_frame(tmp_path / "frame.json", tmp_path / "frame_atoms.tfat")
        assert frame.frequency_period == p
        # and certifies in its blocks, with the bounds frame wrote
        cert = frame_certificate(frame)
        assert cert.blocks.shape == (frame.L // p, p, p)
        stored = json.loads((tmp_path / "certificate.json").read_text())
        assert cert.A == pytest.approx(stored["A"], rel=1e-12)
        assert cert.B == pytest.approx(stored["B"], rel=1e-12)

    def test_manifest_without_period_is_invalid_argument(self, frame16, tmp_path):
        # write_frame always writes the period, so a manifest without it is not one of its files
        manifest, atoms = tmp_path / "frame.json", tmp_path / "atoms.tfat"
        write_frame(manifest, atoms, frame16)
        parsed = json.loads(manifest.read_text())
        del parsed["frequency_period"]
        manifest.write_text(json.dumps(parsed))
        with pytest.raises(InvalidArgumentError, match="frequency_period") as info:
            read_frame(manifest, atoms)
        assert info.value.code == "invalid-argument" and info.value.context["path"] == str(manifest)

    @pytest.mark.parametrize("name", ["regular16.json", "irregular16.json", "gabor16.json", "wedge32.json"])
    def test_probe_refuses_a_period_the_atoms_lack(self, tmp_path, name):
        # p is the cover's least period: a divisor of L that p does not divide is
        # refused, and every multiple of p is a period the atoms have
        assert main(["frame", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
        manifest, atoms = tmp_path / "frame.json", tmp_path / "frame_atoms.tfat"
        parsed = json.loads(manifest.read_text())
        L, p = parsed["L"], parsed["frequency_period"]
        for q in [q for q in range(1, L + 1) if L % q == 0]:
            manifest.write_text(json.dumps({**parsed, "frequency_period": q}))
            if q % p == 0:
                assert read_frame(manifest, atoms).frequency_period == q
                continue
            with pytest.raises(InvalidArgumentError, match=f"lack frequency period {q}") as info:
                read_frame(manifest, atoms)
            assert info.value.context["path"] == str(manifest)

    def test_non_finite_condition_is_null(self, frame16, tmp_path):
        # atoms of weight 0 (a weighted frame's lambdas set to 0) give S = 0: A = 0 and no finite
        # condition, which strict JSON cannot write
        cert = frame_certificate(dataclasses.replace(frame16, lams=np.zeros_like(frame16.lams)))
        assert cert.A == 0.0 and cert.condition is None and not cert.is_frame
        write_certificate_json(tmp_path / "cert.json", cert)
        assert json.loads((tmp_path / "cert.json").read_text())["condition"] is None

    def test_certificate_json_schema(self, frame16, tmp_path):
        path = tmp_path / "cert.json"
        write_certificate_json(path, frame_certificate(frame16))
        data = json.loads(path.read_text())
        assert set(data) == {"A", "B", "condition", "is_frame", "atol"}
        assert data["is_frame"] is True


def random_cover(rng, L, layout):
    """A file cover of random non-box shapes with random values, each placed on a
    frequency-periodic or a random set of centers, and filler regions that keep the
    grid covered, all in random order.  The filler is L/p whole-grid regions at the centers (0, k p), so a
    periodic cover keeps its period p; each filler operator is value * I, so all its
    eigenvalues are one value, drawn far from every cut."""
    p = int(rng.choice([q for q in range(2, L) if L % q == 0])) if layout == "periodic" else L
    regions = []
    for _ in range(int(rng.integers(2, 4))):
        offsets = sorted({(int(a), int(b)) for a, b in rng.integers(-2, 3, size=(int(rng.integers(3, 8)), 2))})
        values = rng.uniform(0.5, 2.0, len(offsets)).tolist()
        if layout == "periodic":
            base = rng.integers(0, L, size=(int(rng.integers(1, 3)), 2)).tolist()
            centers = {(x, (xi + k * p) % L) for x, xi in base for k in range(L // p)}
        else:
            centers = set(map(tuple, rng.integers(0, L, size=(int(rng.integers(2, 6)), 2)).tolist()))
        regions += [{"center": [x, xi], "cells": [[(x + a) % L, (xi + b) % L] for a, b in offsets], "values": values}
                    for x, xi in sorted(centers)]
    grid = [[x, xi] for x in range(L) for xi in range(L)]
    filler = float(rng.uniform(0.4, 0.6))
    regions += [{"center": [0, k * p], "cells": grid, "values": [filler] * L * L} for k in range(L // p)]
    # in random order, so a class's members are not adjacent regions
    return cover_from_dict({"L": L, "regions": [regions[i] for i in rng.permutation(len(regions))]}), p


def random_lattice_cover(rng, L, layout):
    """A cover of the random lattice (a, b), a b <= L/2, like ``random_cover``: random shapes of
    lattice offsets, deduplicated mod L, with random values, each placed on a frequency-periodic
    or a random set of lattice centers, and a filler region that holds every lattice point, in
    random order.  In the periodic layout, p is a multiple of b and the filler is repeated at the
    centers (0, k p), so the cover keeps its period p; in the random layout it is one region."""
    a, b = map(int, rng.choice([(a, b) for a in range(1, L) for b in range(1, L)
                                if L % a == 0 and L % b == 0 and 2 * a * b <= L]))
    p = int(rng.choice([q for q in range(b, L, b) if L % q == 0])) if layout == "periodic" else L

    def lattice_points(n):
        return [(a * int(j), b * int(k)) for j, k in zip(rng.integers(0, L // a, n), rng.integers(0, L // b, n))]

    regions = []
    for _ in range(int(rng.integers(2, 4))):
        steps = rng.integers(-2, 3, size=(int(rng.integers(3, 8)), 2))
        offsets = sorted({((a * int(j)) % L, (b * int(k)) % L) for j, k in steps})
        values = rng.uniform(0.5, 2.0, len(offsets)).tolist()
        if layout == "periodic":
            centers = {(x, (xi + k * p) % L) for x, xi in lattice_points(int(rng.integers(1, 3)))
                       for k in range(L // p)}
        else:
            centers = set(lattice_points(int(rng.integers(2, 6))))
        regions += [{"center": [x, xi], "cells": [[(x + dx) % L, (xi + dxi) % L] for dx, dxi in offsets],
                     "values": values} for x, xi in sorted(centers)]
    grid = [[x, xi] for x in range(0, L, a) for xi in range(0, L, b)]
    filler = float(rng.uniform(0.4, 0.6))
    regions += [{"center": [0, k * p], "cells": grid, "values": [filler] * len(grid)} for k in range(L // p)]
    cover = cover_from_dict({"L": L, "regions": [regions[i] for i in rng.permutation(len(regions))]})
    return cover, Lattice(L, a, b), p


class TestRandomCovers:
    """The shortcuts (time supports, the real path, classes and translation, Walnut blocks,
    column batches) against per-region dense operators, on random covers and windows."""

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), L=st.sampled_from([8, 12, 16]),
           layout=st.sampled_from(["periodic", "random"]), window=st.sampled_from(["gauss", "real", "complex"]))
    def test_bounds_and_constants_match_dense(self, seed, L, layout, window):
        rng = np.random.default_rng(seed)
        cover, p = random_cover(rng, L, layout)
        assert cover.frequency_period == p
        samples = {"gauss": gauss_window(L).samples, "real": rng.normal(size=L) + 0j,
                   "complex": rng.normal(size=L) + 1j * rng.normal(size=L)}[window]
        phi = Window.unit(samples)
        eps = float(rng.uniform(0.05, 0.25))
        frame = assemble_frame(cover, phi, SelectionPolicy("epsilon", epsilon=eps, n_max=L))
        ops = [direct_assemble(L, s.cells, s.values, phi.samples) for s in cover.regions]
        epsilons = [eps, *SWEEP_EPSILONS]
        self.assert_constants_match_dense(
            ops, epsilons, norm_equivalence_constants(region_classes(cover, phi), epsilons, p))
        ev = np.linalg.eigvalsh(sum(th @ th for th in (thresholded(op, eps) for op in ops)))
        with tempfile.TemporaryDirectory() as tmp:
            files = [Path(tmp) / name for name in ("frame.json", "atoms.tfat", "one.json", "one.tfat")]
            write_frame(*files[:2], frame)
            # one column per batch: the certificate sums its blocks over every atom, and the frame
            # files keep their bytes
            for bound in (tfloc.frames._BATCH_ENTRIES, 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(tfloc.frames, "_BATCH_ENTRIES", bound)
                    cert = frame_certificate(frame)
                    write_frame(*files[2:], frame)
                    np.testing.assert_array_equal(read_frame(*files[2:]).atoms, frame.atoms)
                assert abs(cert.A - ev[0]) <= 1e-12 * ev[-1] and abs(cert.B - ev[-1]) <= 1e-12 * ev[-1]
                assert files[3].read_bytes() == files[1].read_bytes()

    @staticmethod
    def assert_constants_match_dense(ops, epsilons, constants):
        """The (plain, squared, rows) of ``norm_equivalence_constants`` against the extreme eigenvalues
        of the dense sums of op^2, op^4 and thresholded(op, e)^2 over the region operators ``ops``.

        An eigenvalue bound is good to rounding on the scale of the operator's norm, so each
        pair is checked to 1e-12 of its own upper constant, and each thresholded row to 1e-12
        of the plain one.  A cut with a region eigenvalue within 1e-9 lam_max of it is skipped:
        rounding decides on which side that eigenvalue falls (this always skips e = 0, whose
        row is the plain pair).
        """
        plain, squared, rows = constants
        for got, gram in ((plain, sum(op @ op for op in ops)),
                          (squared, sum(np.linalg.matrix_power(op, 4) for op in ops))):
            ev = np.linalg.eigvalsh(gram)
            assert np.abs(np.subtract(got, (ev[0], ev[-1]))).max() <= 1e-12 * ev[-1]
        spectra = [np.linalg.eigvalsh(op) for op in ops]
        lam_max = max(lam[-1] for lam in spectra)
        for e, row in zip(epsilons, rows):
            if any(np.abs(lam - e).min() <= 1e-9 * lam_max for lam in spectra):
                continue
            ev = np.linalg.eigvalsh(sum(th @ th for th in (thresholded(op, e) for op in ops)))
            assert np.abs(np.subtract(row, (ev[0], ev[-1]))).max() <= 1e-12 * plain[1]

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), L=st.sampled_from([8, 12, 16]),
           layout=st.sampled_from(["periodic", "random"]))
    def test_lattice_bounds_and_constants_match_dense(self, seed, L, layout):
        # the multiplier stream and the lattice frame against each region's Gabor multiplier,
        # summed from its definition over the lattice with the canonical tight window
        rng = np.random.default_rng(seed)
        cover, lattice, p = random_lattice_cover(rng, L, layout)
        assert cover.frequency_period == p
        system = canonical_tight(gauss_window(L), lattice)
        ops, dense = [], {}  # each distinct mask's multiplier, so the filler's is summed once
        for s in cover.regions:
            m = lattice_mask(s, lattice)
            if m.tobytes() not in dense:
                dense[m.tobytes()] = direct_gabor_multiplier(L, lattice.a, lattice.b, system.window.samples, m)
            ops.append(dense[m.tobytes()])
        eps = float(rng.uniform(0.05, 0.25))
        epsilons = [eps, *SWEEP_EPSILONS]
        self.assert_constants_match_dense(
            ops, epsilons, norm_equivalence_constants(multiplier_classes(cover, system), epsilons, p))
        cert = frame_certificate(gabor_eigenframe(cover, system, SelectionPolicy("epsilon", epsilon=eps, n_max=L)))
        ev = np.linalg.eigvalsh(sum(th @ th for th in (thresholded(op, eps) for op in ops)))
        assert abs(cert.A - ev[0]) <= 1e-12 * ev[-1] and abs(cert.B - ev[-1]) <= 1e-12 * ev[-1]

    @staticmethod
    def assert_batch_free(classes, epsilons, frequency_period, n_regions):
        """Every norm-equivalence constant, each thresholded row among them, is the same to
        1e-12 of its pair's upper constant when each member batch holds a single member."""
        runs = []
        for bound in (tfloc.frames._BATCH_ENTRIES, 1):
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                translated = tfloc.locop.Spectrum.translated
                mp.setattr(tfloc.locop.Spectrum, "translated",
                           lambda spec, shifts: calls.append(len(shifts)) or translated(spec, shifts))
                mp.setattr(tfloc.frames, "_BATCH_ENTRIES", bound)
                plain, squared, rows = norm_equivalence_constants(classes, epsilons, frequency_period)
            runs.append([plain, squared, *rows])
        assert calls == [1] * n_regions  # one member per batch
        for (c, C), (c1, C1) in zip(*runs):
            assert abs(c1 - c) <= 1e-12 * C and abs(C1 - C) <= 1e-12 * C

    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), L=st.sampled_from([8, 12, 16]),
           layout=st.sampled_from(["periodic", "random"]))
    def test_constants_do_not_depend_on_member_batches(self, seed, L, layout):
        rng = np.random.default_rng(seed)
        cover, _ = random_cover(rng, L, layout)
        phi = Window.unit(rng.normal(size=L) + 1j * rng.normal(size=L))
        epsilons = [float(rng.uniform(0.05, 0.25)), *SWEEP_EPSILONS]
        self.assert_batch_free(list(region_classes(cover, phi)), epsilons, cover.frequency_period,
                               len(cover.regions))

    def test_gabor16_constants_do_not_depend_on_member_batches(self):
        cfg = load_config(CONFIG_DIR / "gabor16.json")
        cover = resolve_cover(cfg)
        classes = list(multiplier_classes(cover, canonical_tight(resolve_window(cfg), cfg.lattice)))
        assert max(cls.members.size for _, _, cls in classes) > 1
        self.assert_batch_free(classes, [cfg.policy.epsilon, *SWEEP_EPSILONS], cover.frequency_period,
                               len(cover.regions))
