import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfloc.core import Signal, Window, gauss_window, read_signal_csv, stft, write_json
from tfloc.errors import InvalidArgumentError, NumericError
from tfloc.locop import Spectrum

from helpers import direct_istft, direct_shift, direct_stft, random_signal, write_signal_csv

# value of the unit-norm periodized Gaussian at t=0 for L=16, evaluated with
# 50-digit arithmetic (mpmath) before the build
GAUSS16_PHI0 = 0.59460355748689792359
GAUSS16_PHI1 = 0.48860058332271527519


def tf_shift(z, f):
    """pi(z) f through ``Spectrum.translated``, which moves every class member's eigenvectors."""
    L = f.length
    x, xi = z[0] % L, z[1] % L
    spec = Spectrum(np.zeros(1), f.samples[:, None])
    return Signal(spec.translated(np.array([[x, xi]]))[0, :, 0])


def delta(L, t0=0):
    v = np.zeros(L, complex)
    v[t0] = 1.0
    return Signal(v)


class TestGaussWindow:
    def test_rejects_small_length(self):
        with pytest.raises(InvalidArgumentError):
            gauss_window(1)

    @pytest.mark.parametrize("L", [2, 8, 16, 17, 64])
    def test_unit_norm(self, L):
        phi = gauss_window(L)
        assert abs(phi.norm - 1.0) <= 1e-12

    def test_symmetry_exact(self):
        phi = gauss_window(8)
        assert phi.samples[1] == phi.samples[7]
        for L in range(2, 65):
            w = gauss_window(L).samples
            for t in range(1, L):
                assert w[t] == w[L - t]

    def test_real_strictly_positive(self):
        w = gauss_window(16).samples
        assert np.all(w.imag == 0.0)
        assert np.all(w.real > 0.0)

    def test_value_against_high_precision_oracle(self):
        w = gauss_window(16).samples
        assert w[0].real == pytest.approx(GAUSS16_PHI0, abs=1e-15)
        assert w[1].real == pytest.approx(GAUSS16_PHI1, abs=1e-15)


class TestTfShift:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(0)
        f = Signal(random_signal(rng, 12))
        g = tf_shift((0, 0), f)
        np.testing.assert_array_equal(g.samples, f.samples)

    def test_zero_shift_copies_bits(self):
        # a member at shift (0, 0) gets its columns copied, not multiplied by
        # 1 + 0j, which would flip the sign of a zero part next to a negative one
        v = np.array([complex(-0.0, -1.0), complex(1.0, -0.0), complex(-0.0, 0.0), 0.5])
        blocks = Spectrum(np.ones(1), v[:, None]).translated(np.array([[0, 0], [0, 0]]))
        assert blocks.shape == (2, 4, 1)
        assert blocks.tobytes() == np.stack([v[:, None]] * 2).tobytes()

    def test_pure_translation_moves_delta(self):
        g = tf_shift((1, 0), delta(8))
        np.testing.assert_allclose(g.samples, delta(8, 1).samples, atol=0)

    def test_pure_modulation_of_point_mass(self):
        g = tf_shift((0, 1), delta(8, 3))
        expected = np.zeros(8, complex)
        expected[3] = np.exp(2j * np.pi * 3 / 8)
        np.testing.assert_allclose(g.samples, expected, atol=1e-15)

    @pytest.mark.parametrize("z", [(3, 5), (7, 1), (15, 15)])
    def test_unitary(self, z):
        rng = np.random.default_rng(1)
        f = Signal(random_signal(rng, 16))
        assert tf_shift(z, f).norm == pytest.approx(f.norm, rel=1e-12)

    def test_composition_up_to_phase(self):
        L = 16
        rng = np.random.default_rng(2)
        f = Signal(random_signal(rng, L))
        x, xi, xp, xip = 3, 5, 7, 11
        lhs = tf_shift((x, xi), tf_shift((xp, xip), f)).samples
        phase = np.exp(-2j * np.pi * xip * x / L)
        rhs = phase * tf_shift((x + xp, xi + xip), f).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestStft:
    def test_matches_direct_definition(self):
        L = 8
        rng = np.random.default_rng(3)
        f = random_signal(rng, L)
        phi = gauss_window(L)
        V = stft(Signal(f), phi)
        np.testing.assert_allclose(V, direct_stft(f, phi.samples), atol=1e-12)

    def test_point_mass_magnitude_is_xi_independent(self):
        L = 8
        phi = gauss_window(L)
        V = stft(delta(L), phi)
        mags = np.abs(V)
        for x in range(L):
            expected = abs(phi.samples[(-x) % L])
            np.testing.assert_allclose(mags[x], expected, atol=1e-12)

    def test_window_against_itself_at_origin(self):
        phi = gauss_window(8)
        V = stft(Signal(phi.samples), phi)
        assert V[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_plancherel_unit_signal(self):
        L = 8
        rng = np.random.default_rng(4)
        f = random_signal(rng, L, unit=True)
        V = stft(Signal(f), gauss_window(L))
        assert np.sum(np.abs(V) ** 2) == pytest.approx(8.0, abs=1e-10)

    @pytest.mark.parametrize("L", [8, 16, 32])
    def test_full_grid_tightness(self, L):
        rng = np.random.default_rng(L)
        phi = gauss_window(L)
        for _ in range(3):
            f = random_signal(rng, L)
            V = stft(Signal(f), phi)
            energy = float(np.sum(np.abs(V) ** 2))
            assert abs(energy - L * np.linalg.norm(f) ** 2) <= 1e-9 * L

    def test_shift_covariance_of_magnitudes(self):
        L = 16
        rng = np.random.default_rng(5)
        phi = gauss_window(L)
        f = Signal(random_signal(rng, L))
        V = np.abs(stft(f, phi))
        for z in [(3, 5), (9, 2)]:
            Vs = np.abs(stft(Signal(direct_shift(L, *z, f.samples)), phi))
            rolled = np.roll(np.roll(V, z[0], axis=0), z[1], axis=1)
            np.testing.assert_allclose(Vs, rolled, atol=1e-10)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="expected length 8, got 16"):
            stft(delta(8), gauss_window(16))

    def test_rejects_unnormalized_window(self):
        with pytest.raises(InvalidArgumentError):
            Window(2.0 * gauss_window(8).samples)


class TestIstft:
    """The synthesis (1/L) sum F(z) pi(z) phi, written out in ``direct_istft``,
    inverts the library's stft."""

    def test_inverts_stft_on_delta(self):
        phi = gauss_window(8)
        rec = direct_istft(stft(delta(8), phi), phi.samples)
        np.testing.assert_allclose(rec, delta(8).samples, atol=1e-10)

    def test_round_trip_random(self):
        L = 32
        rng = np.random.default_rng(6)
        phi = gauss_window(L)
        f = random_signal(rng, L)
        rec = direct_istft(stft(Signal(f), phi), phi.samples)
        assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)


class TestSignalValidation:
    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            Signal(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(InvalidArgumentError):
            Signal(np.array([1.0, np.inf]))

    def test_rejects_2d_samples(self):
        with pytest.raises(InvalidArgumentError, match="1-d sample vector"):
            Signal(np.ones((2, 2)))

    def test_window_normalized_flag_checked(self):
        with pytest.raises(InvalidArgumentError):
            Window(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("value", [1e200, 1e-170])
    def test_unit_scales_before_the_norm(self, value):
        # ||samples||_2 squares the samples: 1e400 overflows, 1e-340 underflows
        phi = Window.unit(np.full(16, value))
        np.testing.assert_allclose(phi.samples, np.full(16, 0.25), rtol=1e-15, atol=0)

    def test_unit_rejects_the_zero_window(self):
        with pytest.raises(InvalidArgumentError, match="zero window"):
            Window.unit(np.zeros(16))


class TestSignalCsv:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        f = random_signal(rng, 16)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, f)
        g = read_signal_csv(path)
        np.testing.assert_array_equal(g.samples, f)

    def test_header_checked(self, tmp_path):
        # and every row: too few fields, a bad index, a gap in t, a bad number
        path = tmp_path / "bad.csv"
        for text in ("a,b,c\n0,1,2\n", "t,re,im\n0,1.0\n", "t,re,im\nx,1.0,0.0\n",
                     "t,re,im\n0,1.0,0.0\n2,1.0,0.0\n", "t,re,im\n0,abc,0.0\n"):
            path.write_text(text)
            with pytest.raises(InvalidArgumentError) as info:
                read_signal_csv(path)
            assert info.value.context["path"] == str(path)

    @settings(max_examples=300)
    @given(blob=st.binary(max_size=64) | st.builds(
        # past the header, rows of CSV-like characters, some bytes not UTF-8
        lambda rows: b"t,re,im\n" + b"\n".join(rows),
        st.lists(st.binary(max_size=12) | st.text("0123456789,.-+eEinfa_ \r\x00", max_size=12).map(str.encode),
                 max_size=5),
    ) | st.builds(
        # well-formed rows of any floats, NaN and infinities included
        lambda xs: ("t,re,im\n" + "".join(f"{t},{x!r},0.0\n" for t, x in enumerate(xs))).encode(),
        st.lists(st.floats(), max_size=5),
    ))
    def test_any_bytes_read_or_invalid_argument(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sig.csv"
            path.write_bytes(blob)
            try:
                assert isinstance(read_signal_csv(path), Signal)
            except InvalidArgumentError as exc:
                assert exc.context["path"] == str(path)


class TestWriteJson:
    def test_bytes_are_json_dump(self, tmp_path):
        payload = {"a": [1, 0.1, None, True], "b": {"c": "d\u00e9"}}
        write_json(tmp_path / "x.json", payload)
        assert (tmp_path / "x.json").read_text() == json.dumps(payload, indent=1) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_is_a_numeric_error(self, tmp_path, value):
        with pytest.raises(NumericError) as info:
            write_json(tmp_path / "x.json", {"ok": 1.0, "bad": [value]})
        assert info.value.context["path"] == str(tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()
