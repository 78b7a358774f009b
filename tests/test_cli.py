import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tfloc.cli
import tfloc.covers
import tfloc.frames
import tfloc.locop
from tfloc.cli import load_config, main, resolve_cover, resolve_window
from tfloc.core import gauss_window, read_signal_csv
from tfloc.covers import gen_random_irregular, gen_regular_boxes
from tfloc.gabor import canonical_tight

from helpers import (
    HUGE_INTEGERS,
    cover_dict,
    direct_gabor_multiplier,
    ill_conditioned_window,
    lattice_mask,
    write_signal_csv,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def basic_config(**overrides):
    payload = {
        "L": 16,
        "window": "gauss",
        "cover": {"regular": {"bx": 4, "by": 4}},
        "policy": {"mode": "epsilon", "epsilon": 0.1, "n_max": 16},
        "weighted": True,
    }
    payload.update(overrides)
    return payload


def whole_grid_config(**overrides):
    payload = basic_config(cover={"regular": {"bx": 16, "by": 16}})
    payload["policy"] = {"mode": "epsilon", "epsilon": 0.5, "n_max": 16}
    payload.update(overrides)
    return payload


def write_random_signal(tmp_path, L=16, seed=0, name="sig.csv"):
    rng = np.random.default_rng(seed)
    path = tmp_path / name
    write_signal_csv(path, rng.normal(size=L) + 1j * rng.normal(size=L))
    return path


# fields of configs/regular16.json that the fuzz test replaces, as key paths
FUZZ_FIELDS = [
    ("L",), ("policy",), ("policy", "epsilon"), ("policy", "n_max"), ("weighted",),
    ("lattice",), ("cover", "regular", "bx"), ("admissibility", "R"), ("reconstruct_tol",),
    ("seed",), ("window",), ("admissibility", "w"),
]
# wrong-typed JSON values; numbers stay small so no example asks for a large grid
WRONG_TYPED = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(0, 4), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 4), max_size=2),
)


def with_region(cover, **fields):
    """``cover`` with region 0's fields replaced; a field set to None is removed."""
    region = {**cover["regions"][0], **fields}
    region = {k: v for k, v in region.items() if v is not None}
    return {**cover, "regions": [region, *cover["regions"][1:]]}


def read_tree(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


class TestConfig:
    def test_rejects_two_cover_sources(self, tmp_path):
        cfg = write_config(
            tmp_path,
            basic_config(cover={"regular": {"bx": 4, "by": 4}, "file": "x.json"}),
        )
        assert main(["frame", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = json.loads((tmp_path / "o" / "error.json").read_text())
        assert err["code"] == "invalid-argument"

    def test_rejects_bad_window(self, tmp_path):
        cfg = write_config(tmp_path, basic_config(window={"gauss": True, "file": "w.csv"}))
        assert main(["frame", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["frame", "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "io-error"

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_naming_a_file_is_io_error(self, tmp_path, under):
        # the directory cannot be made, so no error.json is written either
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = taken / "o" if under else taken
        env = dict(os.environ, PYTHONPATH=str(Path(tfloc.cli.__file__).parents[1]))
        argv = [sys.executable, "-m", "tfloc.cli", "frame", "--config", str(CONFIG_DIR / "regular16.json"),
                "--out", str(out)]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error [io-error]: ")
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "text, key",
        [
            pytest.param(json.dumps(basic_config())[:40], None, id="truncated"),
            pytest.param(json.dumps([basic_config()]), None, id="array"),
            pytest.param(json.dumps(basic_config(L="sixteen")), "L", id="L-text"),
            pytest.param(json.dumps(basic_config(L=[16])), "L", id="L-list"),
            pytest.param(json.dumps(basic_config(policy=[1, 2])), "policy", id="policy-list"),
            pytest.param(json.dumps(basic_config(policy="epsilon")), "policy", id="policy-text"),
            pytest.param(json.dumps(basic_config(policy={"epsilon": "0.1"})), "epsilon", id="epsilon-text"),
            pytest.param(json.dumps(basic_config(lattice=[2, 2])), "lattice", id="lattice-list"),
            pytest.param(json.dumps(basic_config(lattice={"a": "x", "b": 2})), "a", id="lattice-a-text"),
            pytest.param(json.dumps(basic_config(cover={"regular": {"bx": 4}})), "by", id="regular-missing-by"),
            pytest.param(json.dumps(basic_config(reconstruct_tol="x")), "reconstruct_tol", id="reconstruct_tol-text"),
            pytest.param(json.dumps(basic_config(admissibility={"R": "x"})), "R", id="R-text"),
            pytest.param(json.dumps(basic_config(weighted="false")), "weighted", id="weighted-text"),
            pytest.param("[" * 100_000, None, id="nested"),
            pytest.param(json.dumps(basic_config(policy={"mode": "alpha", "alpha": float("nan")})),
                         "alpha", id="alpha-NaN"),
            pytest.param(json.dumps(basic_config(policy={"mode": "alpha", "alpha": float("inf")})),
                         "alpha", id="alpha-Infinity"),
            pytest.param(json.dumps(basic_config(policy={"epsilon": float("nan")})), "epsilon", id="epsilon-NaN"),
            pytest.param(json.dumps(basic_config(reconstruct_tol=float("inf"))), "reconstruct_tol",
                         id="reconstruct_tol-Infinity"),
            # a negative tolerance fails every reconstruction, however small its error
            pytest.param(json.dumps(basic_config(reconstruct_tol=-1.0)), "reconstruct_tol",
                         id="reconstruct_tol-negative"),
            # 1/alpha, the threshold diagnose sums at, overflows
            pytest.param(json.dumps(basic_config(policy={"mode": "alpha", "alpha": 1e-320})),
                         "alpha", id="alpha-subnormal"),
            pytest.param(json.dumps(basic_config(L=10**30)), "L", id="L-huge"),
            # bx = 3 does not divide 4097 either, so nothing large is built if the bound slips
            pytest.param(json.dumps(basic_config(L=4097, cover={"regular": {"bx": 3, "by": 3}})),
                         "[1, 4096]", id="L-past-max"),
            pytest.param(json.dumps(basic_config(admissibility={"w": 10**30})), "w", id="w-huge"),
            pytest.param(json.dumps(basic_config(policy={"epsilon": 0.1, "n_max": 10**30})),
                         "n_max", id="n_max-huge"),
            pytest.param(json.dumps(basic_config(seed=-1, cover={"irregular": {"target_size": 6}})),
                         "seed", id="seed-negative"),
        ],
    )
    def test_malformed_config_is_invalid_argument(self, tmp_path, text, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "invalid-argument"
        assert err["context"]["path"] == str(cfg)
        if key is not None:
            assert key in err["message"]

    @given(field=st.sampled_from(FUZZ_FIELDS), value=WRONG_TYPED | HUGE_INTEGERS)
    def test_fuzzed_config_field_exits_cleanly(self, field, value):
        payload = json.loads((CONFIG_DIR / "regular16.json").read_text())
        section = payload
        for key in field[:-1]:
            section = section.setdefault(key, {})
        section[field[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), payload)
            out = Path(tmp) / "o"
            rc = main(["frame", "--config", str(cfg), "--out", str(out)])
            assert rc in (0, 1)
            if rc == 1:
                assert (out / "error.json").exists()

    @given(field=st.sampled_from(["regions", "center", "cells", "values"]), value=WRONG_TYPED)
    def test_fuzzed_cover_field_exits_cleanly(self, field, value):
        cover = cover_dict(gen_regular_boxes(16, 8, 8))
        if field == "regions":
            cover["regions"] = value
        else:
            cover["regions"][0][field] = value
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "cover.json").write_text(json.dumps(cover))
            cfg = write_config(Path(tmp), basic_config(cover={"file": "cover.json"}))
            out = Path(tmp) / "o"
            rc = main(["frame", "--config", str(cfg), "--out", str(out)])
            assert rc in (0, 1)
            if rc == 1:
                assert (out / "error.json").exists()

    def test_window_from_file(self, tmp_path):
        # an unnormalized file window is normalized on load
        rng = np.random.default_rng(1)
        wpath = tmp_path / "window.csv"
        write_signal_csv(wpath, rng.normal(size=16) + 0j)
        cfg = write_config(tmp_path, whole_grid_config(window={"file": "window.csv"}))
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["A"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("value", [1e200, 1e-170])
    def test_window_file_of_extreme_magnitude(self, tmp_path, value):
        # ||samples||_2 overflows at 1e200 and underflows at 1e-170; the
        # file still normalizes to the unit window of the unscaled samples
        rng = np.random.default_rng(1)
        samples = rng.normal(size=16) + 1j * rng.normal(size=16)
        write_signal_csv(tmp_path / "window.csv", value * samples)
        cfg = write_config(tmp_path, basic_config(window={"file": "window.csv"}))
        phi = resolve_window(load_config(cfg))
        np.testing.assert_allclose(phi.samples, samples / np.linalg.norm(samples), rtol=1e-14, atol=0)
        assert main(["frame", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["reconstruct", "spectrogram", "window"])
    def test_non_utf8_csv_is_invalid_argument(self, tmp_path, command):
        # a signal or window file holding byte 0xff
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,re,im\n0,1.0,0.0\n1,\xff,0.0\n")
        if command == "window":
            cfg = write_config(tmp_path, basic_config(window={"file": "bad.csv"}))
            args = ["frame", "--config", str(cfg)]
        else:
            cfg = write_config(tmp_path, basic_config())
            args = [command, "--config", str(cfg), "--signal", str(bad)]
        out = tmp_path / "o"
        assert main([*args, "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "invalid-argument"
        assert err["context"]["path"] == str(bad)


    @pytest.mark.parametrize("command", ["reconstruct", "spectrogram", "window"])
    def test_csv_of_wrong_length_is_invalid_argument(self, tmp_path, command):
        # 15 samples for a config of L = 16
        short = write_random_signal(tmp_path, L=15, name="short.csv")
        if command == "window":
            cfg = write_config(tmp_path, basic_config(window={"file": "short.csv"}))
            args = ["frame", "--config", str(cfg)]
        else:
            cfg = write_config(tmp_path, basic_config())
            args = [command, "--config", str(cfg), "--signal", str(short)]
        out = tmp_path / "o"
        assert main([*args, "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "invalid-argument"
        assert err["context"]["path"] == str(short)
        assert "length 15" in err["message"]


def run_cover_command(tmp_path, command, cfg, out):
    """``main`` of a command that reads the cover; reconstruct gets a random signal."""
    args = [command, "--config", str(cfg), "--out", str(out)]
    if command == "reconstruct":
        args += ["--signal", str(write_random_signal(tmp_path, L=load_config(cfg).L))]
    return main(args)


class TestCoverInputs:
    """frame, diagnose and reconstruct check the cover on one path, and write the same admissibility.json."""

    @pytest.mark.parametrize("command", ["frame", "diagnose", "reconstruct"])
    def test_outer_radius_above_R_is_refused(self, tmp_path, command):
        payload = json.loads((CONFIG_DIR / "regular16.json").read_text())
        cfg = write_config(tmp_path, {**payload, "admissibility": {**payload["admissibility"], "R": 0}})
        out = tmp_path / "o"
        assert run_cover_command(tmp_path, command, cfg, out) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "precondition-violation"
        assert "outer radius" in err["message"]
        assert json.loads((out / "admissibility.json").read_text())["outer_radius_ok"] is False
        assert sorted(p.name for p in out.iterdir()) == ["admissibility.json", "error.json"]

    @pytest.mark.parametrize("command", ["frame", "diagnose", "reconstruct"])
    def test_negative_R_is_invalid_argument(self, tmp_path, command):
        payload = json.loads((CONFIG_DIR / "regular16.json").read_text())
        cfg = write_config(tmp_path, {**payload, "admissibility": {**payload["admissibility"], "R": -1}})
        out = tmp_path / "o"
        assert run_cover_command(tmp_path, command, cfg, out) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "invalid-argument"
        assert "R=-1" in err["message"]

    @pytest.mark.parametrize("name", ["regular16.json", "gabor16.json"])
    def test_each_command_validates_once(self, tmp_path, monkeypatch, name):
        calls = []
        validate = tfloc.cli.validate_cover
        monkeypatch.setattr(tfloc.cli, "validate_cover", lambda *a, **k: calls.append(a) or validate(*a, **k))
        out = tmp_path / "o"
        # a fresh reconstruct, then frame, diagnose and a reconstruct from the stored frame
        for command, where in (("reconstruct", tmp_path / "fresh"), ("frame", out), ("diagnose", out),
                               ("reconstruct", out)):
            calls.clear()
            assert run_cover_command(tmp_path, command, CONFIG_DIR / name, where) == 0
            assert len(calls) == 1, command

    @pytest.mark.parametrize("name", ["regular16.json", "irregular16.json", "gabor16.json", "wedge32.json"])
    def test_every_command_writes_the_admissibility_of_frame(self, tmp_path, name):
        written = {}
        for command in ("frame", "diagnose", "reconstruct"):
            out = tmp_path / command
            assert run_cover_command(tmp_path, command, CONFIG_DIR / name, out) == 0
            written[command] = (out / "admissibility.json").read_bytes()
        assert written["diagnose"] == written["frame"]
        assert written["reconstruct"] == written["frame"]


def strict_json(path):
    """The JSON file at ``path``, parsed with NaN and +-Infinity refused."""
    def refuse(token):
        raise ValueError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


RUN_CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.json") if "cover" in json.loads(p.read_text()))


class TestStrictJson:
    """Every JSON file the CLI writes is strict JSON: no NaN or Infinity tokens."""

    @pytest.mark.parametrize("name", [*RUN_CONFIGS, "epsilon-0"])
    def test_every_command_writes_strict_json(self, tmp_path, name):
        if name == "epsilon-0":
            cfg = write_config(tmp_path, basic_config(policy={"mode": "epsilon", "epsilon": 0, "n_max": 16}))
        else:
            cfg = CONFIG_DIR / name
        written = []
        for command, out in (("reconstruct", "fresh"), ("frame", "o"), ("reconstruct", "o"), ("diagnose", "o")):
            assert run_cover_command(tmp_path, command, cfg, tmp_path / out) == 0
        # an error, with the config's value in its message
        payload = json.loads(Path(cfg).read_text())
        bad = write_config(tmp_path, {**payload, "window": float("nan")}, name="bad.json")
        assert main(["frame", "--config", str(bad), "--out", str(tmp_path / "error")]) == 1
        for path in sorted(tmp_path.glob("*/*.json")):
            written.append(path.name)
            strict_json(path)
        assert {"frame.json", "certificate.json", "report.json", "admissibility.json",
                "reconstruction.json", "diagnostics.json", "error.json"} <= set(written)
        if name == "epsilon-0":
            # no finite alpha implies epsilon = 0
            assert strict_json(tmp_path / "o" / "report.json")["implied_alpha"] is None

    def test_a_non_finite_result_is_a_numeric_error(self, tmp_path):
        # samples of 1e308 overflow G* f of the unit-weight atoms, so the reconstruction is not finite
        cfg = write_config(tmp_path, basic_config(weighted=False))
        write_signal_csv(tmp_path / "huge.csv", np.full(16, 1e308 + 0j))
        out = tmp_path / "o"
        with pytest.warns(RuntimeWarning):
            assert main(["reconstruct", "--config", str(cfg), "--signal", str(tmp_path / "huge.csv"),
                         "--out", str(out)]) == 1
        assert strict_json(out / "error.json")["code"] == "numeric-error"
        assert not (out / "reconstruction.json").exists()


class TestSpectrogram:
    def test_delta_constant_columns(self, tmp_path):
        cfg = write_config(tmp_path, basic_config())
        sig = tmp_path / "delta.csv"
        d = np.zeros(16, complex)
        d[0] = 1.0
        write_signal_csv(sig, d)
        out = tmp_path / "o"
        assert main(["spectrogram", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 0
        pgm = (out / "spectrogram.pgm").read_bytes()
        assert pgm.startswith(b"P5\n16 16\n255\n")
        pix = np.frombuffer(pgm.split(b"\n", 3)[3], dtype=np.uint8).reshape(16, 16)
        # |V(x, xi)| is xi-independent for a point mass: every image column
        # (fixed x) is constant
        assert (pix == pix[0][None, :]).all()

    def test_zero_signal_all_zero_pgm(self, tmp_path):
        cfg = write_config(tmp_path, basic_config())
        sig = tmp_path / "zero.csv"
        write_signal_csv(sig, np.zeros(16, complex))
        out = tmp_path / "o"
        assert main(["spectrogram", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 0
        pix = np.frombuffer((out / "spectrogram.pgm").read_bytes().split(b"\n", 3)[3], dtype=np.uint8)
        assert (pix == 0).all()

    def test_pure_tone_peaks_at_its_frequency(self, tmp_path):
        L, xi0 = 16, 5
        cfg = write_config(tmp_path, basic_config())
        sig = tmp_path / "tone.csv"
        t = np.arange(L)
        write_signal_csv(sig, np.exp(2j * np.pi * xi0 * t / L))
        out = tmp_path / "o"
        assert main(["spectrogram", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 0
        rows = (out / "spectrogram.csv").read_text().splitlines()[1:]
        power = np.zeros((L, L))
        for row in rows:
            x, xi, v = row.split(",")
            power[int(x), int(xi)] = float(v)
        # magnitude constant along x, peaked at xi0
        np.testing.assert_allclose(power, np.tile(power[0], (L, 1)), atol=1e-9)
        assert np.argmax(power[0]) == xi0

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, basic_config())
        sig = write_random_signal(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["spectrogram", "--config", str(cfg), "--signal", str(sig), "--out", str(out1)])
        main(["spectrogram", "--config", str(cfg), "--signal", str(sig), "--out", str(out2)])
        assert read_tree(out1) == read_tree(out2)


class TestFrame:
    def test_whole_grid_certificate(self, tmp_path):
        cfg = write_config(tmp_path, whole_grid_config())
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["A"] == pytest.approx(1.0, abs=1e-9)
        assert cert["B"] == pytest.approx(1.0, abs=1e-9)
        for name in ("frame.json", "frame_atoms.tfat", "admissibility.json", "report.json"):
            assert (out / name).exists()

    def test_report_contents(self, tmp_path):
        cfg = write_config(tmp_path, basic_config(admissibility={"R": 2, "r": 1, "w": 4}))
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["atom_count"] == 32
        assert report["implied_alpha"] == 10.0
        assert len(report["regions"]) == 16
        assert all(r["count"] == 2 for r in report["regions"])
        assert report["frequency_period"] == 4
        assert report["timings"] is None
        adm = json.loads((out / "admissibility.json").read_text())
        assert adm["spreadness"] == 1 and adm["inner_radius_ok"] is True

    def test_alpha_count_is_ceil_of_mass_over_L(self, tmp_path):
        # each 8x8 box at L=64 has measure 64 / 64 = 1, so alpha = 2 keeps 2
        # atoms; the rounded operator trace, 1.0000000000000004, would keep 3
        cfg = write_config(tmp_path, basic_config(
            L=64, cover={"regular": {"bx": 8, "by": 8}},
            policy={"mode": "alpha", "alpha": 2, "n_max": 64},
        ))
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["count"] for r in report["regions"]] == [2] * 64

    def test_exit_one_when_not_a_frame(self, tmp_path):
        cfg = write_config(
            tmp_path,
            whole_grid_config(policy={"mode": "epsilon", "epsilon": 0.5, "n_max": 15}),
        )
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["is_frame"] is False

    def test_precondition_failure_writes_error_json(self, tmp_path):
        cover_path = tmp_path / "partial.json"
        cover_path.write_text(
            json.dumps({"L": 16, "regions": [{"center": [0, 0], "cells": [[0, 0]]}]})
        )
        cfg = write_config(tmp_path, basic_config(cover={"file": "partial.json"}))
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "precondition-violation"
        assert "cover" in err["message"]

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda text, cover: text[:40], id="truncated"),
            pytest.param(lambda text, cover: json.dumps({**cover, "regions": 5}), id="regions-int"),
            pytest.param(lambda text, cover: json.dumps(with_region(cover, cells=None)), id="no-cells"),
            pytest.param(lambda text, cover: json.dumps(with_region(cover, center=[0])), id="center-short"),
            pytest.param(lambda text, cover: json.dumps(with_region(cover, cells="ab")), id="cells-text"),
            pytest.param(lambda text, cover: json.dumps(with_region(cover, cells=[[0, 0, 1]])), id="cells-triple"),
            pytest.param(lambda text, cover: json.dumps(with_region(cover, center=[True, 1])), id="center-bool"),
            pytest.param(lambda text, cover: json.dumps(with_region(cover, cells=[[0, 0], [True, 1]])), id="cells-bool"),
            pytest.param(lambda text, cover: "[" * 100_000, id="nested"),
            pytest.param(lambda text, cover: json.dumps({**cover, "L": 2**63}), id="L-2**63"),
            pytest.param(lambda text, cover: json.dumps({**cover, "L": 2**70}), id="L-2**70"),
        ],
    )
    def test_malformed_cover_file_is_invalid_argument(self, tmp_path, edit):
        cover = cover_dict(gen_regular_boxes(16, 8, 8))
        cover_path = tmp_path / "cover.json"
        cover_path.write_text(edit(json.dumps(cover), cover))
        cfg = write_config(tmp_path, basic_config(cover={"file": "cover.json"}))
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "invalid-argument"
        assert err["context"]["path"] == str(cover_path)

    def test_outer_radius_enforced(self, tmp_path):
        cfg = write_config(tmp_path, basic_config(admissibility={"R": 1}))
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "precondition-violation"

    def test_determinism_across_thread_counts(self, tmp_path):
        # README's contract: byte-identical under pinned BLAS threads, and A
        # and B within 1e-12 relative across thread settings
        cfg = write_config(tmp_path, basic_config(
            L=128, cover={"irregular": {"seed": 7, "target_size": 16, "overlap": 0.5}},
            policy={"mode": "epsilon", "epsilon": 0.1, "n_max": 128},
        ))

        def frame(out, threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=str(Path(tfloc.cli.__file__).parents[1]))
            argv = [sys.executable, "-m", "tfloc.cli", "frame", "--config", str(cfg), "--out", str(out)]
            assert subprocess.run(argv, env=env, capture_output=True, timeout=120).returncode == 0
            return read_tree(out)

        one = frame(tmp_path / "t1", 1)
        assert frame(tmp_path / "t1b", 1) == one
        two = json.loads(frame(tmp_path / "t2", 2)["certificate.json"])
        cert = json.loads(one["certificate.json"])
        for bound in ("A", "B"):
            assert two[bound] == pytest.approx(cert[bound], rel=1e-12, abs=0)

    def test_seeded_irregular_run_twice_identical(self, tmp_path):
        cfg = CONFIG_DIR / "irregular16.json"
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["frame", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["frame", "--config", str(cfg), "--out", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_timings_opt_in(self, tmp_path):
        cfg = write_config(tmp_path, basic_config())
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out), "--timings"]) == 0
        report = json.loads((out / "report.json").read_text())
        timings = report["timings"]
        assert list(timings) == ["setup_s", "build_s", "certificate_s", "total_s"]
        assert min(timings.values()) > 0
        assert timings["total_s"] >= timings["setup_s"] + timings["build_s"] + timings["certificate_s"]

    def test_region_rows_scan_the_atoms(self, tmp_path):
        # irregular regions with an all-zero region among them: each row holds the
        # count and extreme eigenvalues of its region's atoms, read from frame.json
        cover = cover_dict(gen_random_irregular(16, 3, 5, 0.5))
        zero = dict(cover["regions"][2], values=[0.0] * len(cover["regions"][2]["cells"]))
        cover["regions"].insert(4, zero)
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        cfg = write_config(tmp_path, basic_config(cover={"file": "cover.json"}))
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="region 4 has a numerically zero operator"):
            assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
        atoms = json.loads((out / "frame.json").read_text())["atoms"]
        want = []
        for gamma, region in enumerate(cover["regions"]):
            lams = [a["lambda"] for a in atoms if a["gamma"] == gamma]
            mass = float(sum(region.get("values", [1.0] * len(region["cells"]))))
            want.append({"gamma": gamma, "count": len(lams), "lambda_max": max(lams, default=None),
                         "lambda_min": min(lams, default=None), "mass": mass})
        assert json.loads((out / "report.json").read_text())["regions"] == want
        assert want[4]["count"] == 0 and min(row["count"] for i, row in enumerate(want) if i != 4) > 0

    def test_lattice_frame(self, tmp_path):
        out = tmp_path / "o"
        assert main(["frame", "--config", str(CONFIG_DIR / "gabor16.json"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lattice"] == {"a": 2, "b": 2}
        assert report["A"] > 1e-6
        assert report["tight_constant"] == pytest.approx(0.25, rel=1e-9)
        adm = json.loads((out / "admissibility.json").read_text())
        assert adm["covers_lattice"] is True

    @pytest.mark.parametrize("valued", [False, True])
    def test_lattice_cell_order_does_not_change_frame(self, tmp_path, valued):
        # the multiplier symbols are built from each region's cells sorted
        # into lattice order, so the file's cell order cannot change a byte
        rng = np.random.default_rng(11)
        cover = json.loads((CONFIG_DIR / "gabor16_cover.json").read_text())
        if valued:
            for region in cover["regions"]:
                region["values"] = (0.5 + rng.random(len(region["cells"]))).tolist()
        shuffled = json.loads(json.dumps(cover))
        for region in shuffled["regions"]:
            order = rng.permutation(len(region["cells"]))
            for key in ("cells", "values") if valued else ("cells",):
                region[key] = [region[key][i] for i in order]
        assert shuffled != cover
        payload = json.loads((CONFIG_DIR / "gabor16.json").read_text())
        trees = []
        for name, data in (("plain", cover), ("shuffled", shuffled)):
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
            cfg = write_config(tmp_path, {**payload, "cover": {"file": f"{name}.json"}}, f"{name}_config.json")
            assert main(["frame", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            trees.append(read_tree(tmp_path / name))
        for name in ("frame_atoms.tfat", "certificate.json"):
            assert trees[0][name] == trees[1][name], name

    @pytest.mark.parametrize("command", ["frame", "diagnose"])
    def test_lattice_cover_rejected_before_tight_window(self, tmp_path, monkeypatch, command):
        cover = json.loads((CONFIG_DIR / "gabor16_cover.json").read_text())
        (tmp_path / "cover.json").write_text(json.dumps({**cover, "regions": cover["regions"][1:]}))
        payload = json.loads((CONFIG_DIR / "gabor16.json").read_text())
        cfg = write_config(tmp_path, {**payload, "cover": {"file": "cover.json"}})
        calls = []
        monkeypatch.setattr(tfloc.cli, "canonical_tight", lambda *a: calls.append(a))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "precondition-violation"
        assert "does not cover the lattice" in err["message"]
        assert calls == []

    def test_bundled_config_golden_certificate(self, tmp_path):
        # frozen from the independent oracle pipeline for the bundled
        # regular16 config (eps = 0.1)
        out = tmp_path / "o"
        assert main(["frame", "--config", str(CONFIG_DIR / "regular16.json"), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["A"] == pytest.approx(0.3326111462311308, abs=1e-8)
        assert cert["B"] == pytest.approx(0.5893877991094058, abs=1e-8)
        report = json.loads((out / "report.json").read_text())
        assert report["rank_rtol"] == 1e-12

    @pytest.mark.parametrize("value", [1e200, 1e308])
    @pytest.mark.parametrize("command", ["frame", "diagnose"])
    def test_huge_symbol_values_are_numeric_errors(self, tmp_path, command, value):
        # 1e200 overflows S and the Gram sums, 1e308 the region operator itself
        cover = cover_dict(gen_regular_boxes(16, 4, 4))
        for region in cover["regions"]:
            region["values"] = [value] * len(region["cells"])
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        cfg = write_config(tmp_path, basic_config(cover={"file": "cover.json"}))
        out = tmp_path / "o"
        if value == 1e308:
            # the diagonal of H is infinite, and the trace check stops the run
            # before numpy computes anything that warns
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        else:
            # numpy warns of the overflow on its way to the typed error
            with pytest.warns(RuntimeWarning, match="overflow encountered|invalid value encountered"):
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert json.loads((out / "error.json").read_text())["code"] == "numeric-error"

    def test_overflowing_trace_is_a_numeric_error(self, tmp_path):
        # every diagonal entry of H is finite, but their sum overflows; an
        # unweighted frame has no S large enough to overflow after it
        cover = cover_dict(gen_regular_boxes(16, 4, 4))
        for region in cover["regions"]:
            region["values"] = [1.5e307] * len(region["cells"])
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        cfg = write_config(tmp_path, basic_config(cover={"file": "cover.json"}, weighted=False))
        out = tmp_path / "o"
        with pytest.warns(RuntimeWarning, match="overflow encountered in reduce"):
            assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 1
        error = json.loads((out / "error.json").read_text())
        assert error["code"] == "numeric-error" and "trace" in error["message"]

    def test_numerically_zero_is_relative_to_the_spectrum(self, tmp_path):
        # sixteen 4x4 boxes whose every value is 1e-16 or 1e-13: each region
        # keeps its top eigenvector at any scale, so both build the same frame;
        # an all-zero region added to the cover warns and contributes no atoms
        atoms = []
        for value in (1e-16, 1e-13):
            cover = cover_dict(gen_regular_boxes(16, 4, 4))
            for region in cover["regions"]:
                region["values"] = [value] * len(region["cells"])
            zero = dict(cover["regions"][0], values=[0.0] * 16)
            for regions, warned in ((cover["regions"], False), (cover["regions"] + [zero], True)):
                (tmp_path / "cover.json").write_text(json.dumps({"L": 16, "regions": regions}))
                cfg = write_config(tmp_path, basic_config(
                    cover={"file": "cover.json"}, policy={"mode": "alpha", "alpha": 1.0, "n_max": 16},
                    weighted=False,
                ))
                out = tmp_path / f"o{value}{warned}"
                if warned:
                    with pytest.warns(UserWarning, match="region 16 has a numerically zero operator"):
                        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
                else:
                    assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
                frame = tfloc.frames.read_frame(out / "frame.json", out / "frame_atoms.tfat")
                assert frame.gammas.tolist() == list(range(16))
                assert json.loads((out / "report.json").read_text())["regions"][-1]["count"] == (0 if warned else 1)
                atoms.append(frame.atoms)
        for other in atoms[1:]:
            np.testing.assert_allclose(other, atoms[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("config", ["unweighted-grid", "gabor16.json"])
    def test_frame_forms_the_coverage_sum_and_the_radii_once(self, tmp_path, monkeypatch, config):
        if config == "gabor16.json":
            cfg = CONFIG_DIR / config
        else:
            cfg = write_config(tmp_path, basic_config(weighted=False))
        sums, radii = [], []
        coverage = tfloc.covers.Cover.__dict__["coverage"]
        monkeypatch.setattr(coverage, "func", lambda cover, form=coverage.func: sums.append(1) or form(cover))
        monkeypatch.setattr(tfloc.covers, "_radii", lambda s, form=tfloc.covers._radii: radii.append(s) or form(s))
        assert main(["frame", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(sums) == 1
        # one admissibility pass: the radii of each shape class, once
        assert len(radii) == len(resolve_cover(load_config(cfg)).classes)

    def test_lattice_frame_scans_the_cells_once(self, tmp_path, monkeypatch):
        # the lattice256_stream bench input: 32x32 tiles on the lattice (4Z)^2 at L = 256;
        # the admissibility report, the lattice checks and the multiplier stream all read
        # the one scan kept with the cover
        L, box, step = 256, 32, 4
        regions = [{"center": [x0 + box // 2, xi0 + box // 2],
                    "cells": [[x, xi] for x in range(x0, x0 + box, step) for xi in range(xi0, xi0 + box, step)]}
                   for x0 in range(0, L, box) for xi0 in range(0, L, box)]
        (tmp_path / "cover.json").write_text(json.dumps({"L": L, "regions": regions}))
        cfg = write_config(tmp_path, basic_config(
            L=L, cover={"file": "cover.json"}, lattice={"a": step, "b": step},
            policy={"mode": "epsilon", "epsilon": 0.1, "n_max": L}))
        scans = []
        steps = tfloc.covers.Cover.__dict__["cell_steps"]
        monkeypatch.setattr(steps, "func", lambda cover, scan=steps.func: scans.append(1) or scan(cover))
        assert main(["frame", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(scans) == 1

    @pytest.mark.parametrize("command", ["frame", "diagnose"])
    def test_ill_conditioned_window_names_the_tightness_condition(self, tmp_path, command):
        write_signal_csv(tmp_path / "window.csv", ill_conditioned_window())
        cells = [[x, xi] for x in range(0, 16, 4) for xi in range(0, 16, 4)]
        cover = {"L": 16, "regions": [{"center": [0, 0], "cells": cells}]}
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        cfg = write_config(tmp_path, basic_config(
            window={"file": "window.csv"}, cover={"file": "cover.json"}, lattice={"a": 4, "b": 4}
        ))
        config = load_config(cfg)
        ev = np.linalg.eigvalsh(tfloc.gabor._walnut_blocks(resolve_window(config), config.lattice))
        assert 1e8 < ev.max() / ev.min() < 1e9  # inside canonical_tight's 1e-9 frame floor
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "precondition-violation"
        assert "canonical tight window is not tight" in err["message"]
        assert "condition" in err["message"]
        assert "run canonical_tight first" not in err["message"]

    def test_bad_threads_env_is_ignored(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, basic_config())
        monkeypatch.setenv("TFLOC_THREADS", "abc")
        assert main(["frame", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, basic_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        monkeypatch.setenv("TFLOC_THREADS", "4")
        assert main(["frame", "--config", str(cfg), "--out", str(out1)]) == 0
        monkeypatch.delenv("TFLOC_THREADS")
        assert main(["frame", "--config", str(cfg), "--out", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)


class TestReconstruct:
    def test_orthonormal_frame_small_error(self, tmp_path):
        cfg = write_config(tmp_path, whole_grid_config(reconstruct_tol=1e-12))
        sig = write_random_signal(tmp_path)
        out = tmp_path / "o"
        assert main(["reconstruct", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 0
        rec = json.loads((out / "reconstruction.json").read_text())
        assert rec["rel_error"] <= 1e-12 and rec["ok"] is True

    def test_zero_signal_error_zero(self, tmp_path):
        cfg = write_config(tmp_path, basic_config())
        sig = tmp_path / "zero.csv"
        write_signal_csv(sig, np.zeros(16, complex))
        out = tmp_path / "o"
        assert main(["reconstruct", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 0
        assert json.loads((out / "reconstruction.json").read_text())["rel_error"] == 0.0

    def test_tiny_signal_reports_its_error(self, tmp_path):
        # unscaled, ||f||_2 of samples near 1e-170 underflows to 0, and the zero vector was returned as exact
        path = CONFIG_DIR / "regular16.json"
        rng = np.random.default_rng(0)
        write_signal_csv(tmp_path / "tiny.csv", 1e-170 * (rng.normal(size=16) + 1j * rng.normal(size=16)))
        out = tmp_path / "o"
        assert main(["reconstruct", "--config", str(path), "--signal", str(tmp_path / "tiny.csv"),
                     "--out", str(out)]) == 0
        rec = json.loads((out / "reconstruction.json").read_text())
        assert 0.0 < rec["rel_error"] <= 1e-12 and rec["ok"] is True
        # the library's uncertified path on the same frame and samples, bit for bit
        cfg = load_config(path)
        frame = tfloc.frames.assemble_frame(resolve_cover(cfg), resolve_window(cfg), cfg.policy, cfg.weighted)
        assert rec["rel_error"] == tfloc.frames.reconstruct(frame, read_signal_csv(tmp_path / "tiny.csv"))[1]

    def test_uses_stored_frame_when_present(self, tmp_path):
        cfg = write_config(tmp_path, basic_config())
        sig = write_random_signal(tmp_path)
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
        stamp = (out / "frame.json").stat().st_mtime_ns
        assert main(["reconstruct", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 0
        assert (out / "frame.json").stat().st_mtime_ns == stamp  # not rebuilt

    def test_not_a_frame_exits_nonzero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            whole_grid_config(policy={"mode": "epsilon", "epsilon": 0.5, "n_max": 15}),
        )
        sig = write_random_signal(tmp_path)
        out = tmp_path / "o"
        assert main(["reconstruct", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "not-a-frame"

    def test_truncated_atoms_file_is_invalid_argument(self, tmp_path):
        # also a truncated or too deeply nested manifest, one without "atoms",
        # a bad or non-positive "L", a non-boolean "weighted", and atoms that
        # are not finite unit vectors; each corrupted file is restored before
        # the next case
        cfg = write_config(tmp_path, basic_config())
        sig = write_random_signal(tmp_path)
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
        atoms, manifest = out / "frame_atoms.tfat", out / "frame.json"
        stored = {path: path.read_bytes() for path in (atoms, manifest)}
        parsed = json.loads(stored[manifest])
        first = np.frombuffer(stored[atoms], dtype="<f8", count=32, offset=4)  # atom 0

        def with_first(record):
            return stored[atoms][:4] + record.astype("<f8").tobytes() + stored[atoms][4 + 256:]

        cases = [
            (atoms, stored[atoms][:-8]),
            (manifest, stored[manifest][:100]),
            (manifest, b"[" * 100_000),
            (manifest, json.dumps({"L": 16, "weighted": True}).encode()),
            (manifest, json.dumps({**parsed, "L": "x"}).encode()),
            (manifest, json.dumps({**parsed, "L": -1}).encode()),
            (manifest, json.dumps({**parsed, "L": 0}).encode()),
            (manifest, json.dumps({**parsed, "weighted": "false"}).encode()),
            (atoms, with_first(np.r_[np.nan, first[1:]])),
            (atoms, with_first(2.0 * first)),
        ]
        for path, data in cases:
            path.write_bytes(data)
            assert main(["reconstruct", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 1
            err = json.loads((out / "error.json").read_text())
            assert err["code"] == "invalid-argument"
            assert err["context"]["path"] == str(path)
            path.write_bytes(stored[path])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("weight", float("nan")),
            ("weight", float("inf")),
            ("weight", -1.0),
            ("weight", True),
            ("lambda", float("nan")),
            ("lambda", float("-inf")),
            ("lambda", False),
            ("lambda", 10**400),
            ("gamma", -1),
            ("gamma", True),
            ("k", -1),
            ("k", 1.0),
            ("offset", True),
            pytest.param("gamma", 2**63, id="gamma-huge"),
            pytest.param("k", 2**64, id="k-huge"),
        ],
    )
    def test_bad_stored_atom_entry_is_invalid_argument(self, tmp_path, field, value):
        # the stored frame still matches the config, so reconstruct would reuse it
        cfg = write_config(tmp_path, basic_config())
        sig = write_random_signal(tmp_path)
        out = tmp_path / "o"
        assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = out / "frame.json"
        parsed = json.loads(manifest.read_text())
        parsed["atoms"][-1][field] = value
        manifest.write_text(json.dumps(parsed))
        assert main(["reconstruct", "--config", str(cfg), "--signal", str(sig), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "invalid-argument"
        assert err["context"]["path"] == str(manifest)
        assert field in err["message"]
        assert not (out / "reconstruction.json").exists()

    def test_frame_of_another_config_is_not_reused(self, tmp_path, monkeypatch):
        sig = write_random_signal(tmp_path)
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        assert main(["frame", "--config", str(CONFIG_DIR / "regular16.json"), "--out", str(out)]) == 0
        builds = []
        build_frame = tfloc.cli._build_frame
        monkeypatch.setattr(tfloc.cli, "_build_frame", lambda *a: builds.append(a) or build_frame(*a))
        regular = ["reconstruct", "--config", str(CONFIG_DIR / "regular16.json"), "--signal", str(sig)]
        assert main([*regular, "--out", str(out)]) == 0
        assert builds == []  # same inputs: the stored frame is reused
        irregular = ["reconstruct", "--config", str(CONFIG_DIR / "irregular16.json"), "--signal", str(sig)]
        assert main([*irregular, "--out", str(out)]) == 0
        assert len(builds) == 1
        assert main([*irregular, "--out", str(fresh)]) == 0
        assert (out / "reconstruction.json").read_bytes() == (fresh / "reconstruction.json").read_bytes()

    @pytest.mark.parametrize("name", ["regular16.json", "gabor16.json"])
    def test_cli_never_builds_the_dual(self, tmp_path, monkeypatch, name):
        # inverting S's blocks pays off over many signals; reconstruct solves S
        # against its one signal, and frame and diagnose never solve or invert
        def forbidden(*args):
            raise AssertionError("S inverted")

        solves, solve = [], np.linalg.solve
        monkeypatch.setattr(tfloc.frames.FrameCertificate, "inverse", property(forbidden))
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(b.shape) or solve(a, b))
        cfg, out = str(CONFIG_DIR / name), tmp_path / "o"
        assert main(["frame", "--config", cfg, "--out", str(out)]) == 0
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
        assert solves == []
        sig = write_random_signal(tmp_path)
        assert main(["reconstruct", "--config", cfg, "--signal", str(sig), "--out", str(out)]) == 0
        # one right-hand side, in the Walnut blocks of the period the stored frame keeps
        p = json.loads((out / "report.json").read_text())["frequency_period"]
        assert p < 16 and solves == [(16 // p, p, 1)]
        # the same error as the library's inverted-blocks path on the stored frame
        monkeypatch.undo()
        frame = tfloc.frames.read_frame(out / "frame.json", out / "frame_atoms.tfat")
        _, rel = tfloc.frames.reconstruct(frame, read_signal_csv(sig), tfloc.frames.frame_certificate(frame))
        rec = json.loads((out / "reconstruction.json").read_text())
        assert rec["rel_error"] == pytest.approx(rel, abs=1e-12)

    def test_wedge32_end_to_end(self, tmp_path):
        sig = write_random_signal(tmp_path, L=32, seed=3)
        out = tmp_path / "o"
        rc = main(["reconstruct", "--config", str(CONFIG_DIR / "wedge32.json"), "--signal", str(sig), "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "reconstruction.json").read_text())["rel_error"] <= 1e-8


class TestDiagnose:
    def test_single_whole_region_all_ones(self, tmp_path):
        cfg = write_config(tmp_path, whole_grid_config())
        out = tmp_path / "o"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        d = json.loads((out / "diagnostics.json").read_text())
        for variant in ("plain", "squared", "thresholded"):
            assert d[variant]["c"] == pytest.approx(1.0, abs=1e-9)
            assert d[variant]["C"] == pytest.approx(1.0, abs=1e-9)

    def test_partition_sweep_monotone(self, tmp_path):
        cfg = write_config(tmp_path, basic_config())
        out = tmp_path / "o"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        d = json.loads((out / "diagnostics.json").read_text())
        cs = [row["c"] for row in d["epsilon_sweep"]]
        assert len(cs) == 10
        assert all(b <= a + 1e-9 for a, b in zip(cs, cs[1:]))
        assert d["plain"]["c"] > 0
        assert d["epsilon_sweep"][0]["c"] == pytest.approx(d["plain"]["c"], abs=1e-10)
        assert d["largest_epsilon_with_positive_c"] is not None

    def test_rounding_noise_is_written_as_zero(self, tmp_path):
        # on gabor16 the sums thresholded at 0.4 and above miss a subspace, so
        # their lower constants are rounding noise of about 1e-16
        out = tmp_path / "o"
        assert main(["diagnose", "--config", str(CONFIG_DIR / "gabor16.json"), "--out", str(out)]) == 0
        d = json.loads((out / "diagnostics.json").read_text())
        rows = {row["epsilon"]: row for row in d["epsilon_sweep"]}
        assert all(rows[eps]["c"] == 0.0 for eps in rows if eps >= 0.4)
        assert all(rows[eps]["c"] > d["atol"] for eps in rows if eps < 0.4)
        assert d["largest_epsilon_with_positive_c"] == 0.3
        constants = [d[k][c] for k in ("plain", "squared", "thresholded") for c in ("c", "C")]
        constants += [row[c] for row in rows.values() for c in ("c", "C")]
        assert all(v == 0.0 or abs(v) > d["atol"] for v in constants)

    def test_off_lattice_cell_reports_its_index(self, tmp_path):
        cover = json.loads((CONFIG_DIR / "gabor16_cover.json").read_text())
        cover["regions"][1]["cells"][5] = [1, 2]
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        payload = json.loads((CONFIG_DIR / "gabor16.json").read_text())
        cfg = write_config(tmp_path, {**payload, "cover": {"file": "cover.json"}})
        out = tmp_path / "o"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["code"] == "invalid-argument"
        assert err["context"]["cell_index"] == 5 and err["context"]["region"] == 1
        assert "(1, 2) of region 1" in err["message"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_check_scales_with_the_values(self, tmp_path, seed):
        # values near 1e7 put the constants near 5e13, where the sweep's
        # rounding is far above an absolute 1e-9
        s = 1e7
        rng = np.random.default_rng(seed)
        cover = cover_dict(gen_random_irregular(32, seed, 8, 0.5))
        for region in cover["regions"]:
            region["values"] = (0.5 + rng.random(len(region["cells"]))).tolist()
        diagnostics = []
        for scale in (1.0, s):
            scaled = {**cover, "regions": [
                {**region, "values": [scale * v for v in region["values"]]} for region in cover["regions"]
            ]}
            (tmp_path / f"cover{scale}.json").write_text(json.dumps(scaled))
            cfg = write_config(tmp_path, basic_config(L=32, cover={"file": f"cover{scale}.json"}))
            out = tmp_path / f"o{scale}"
            assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
            diagnostics.append(json.loads((out / "diagnostics.json").read_text()))
        base, big = diagnostics
        for variant, power in (("plain", 2), ("squared", 4)):
            for bound in ("c", "C"):
                assert big[variant][bound] == pytest.approx(s**power * base[variant][bound], rel=1e-12)

    def test_lattice_config_against_oracle(self, tmp_path):
        cfg_path = CONFIG_DIR / "gabor16.json"
        assert main(["diagnose", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
        assert main(["frame", "--config", str(cfg_path), "--out", str(tmp_path / "f")]) == 0
        d = json.loads((tmp_path / "d" / "diagnostics.json").read_text())
        cert = json.loads((tmp_path / "f" / "certificate.json").read_text())

        cfg = load_config(cfg_path)
        lat = cfg.lattice
        phit = canonical_tight(gauss_window(cfg.L), lat).window.samples
        G2 = np.zeros((cfg.L, cfg.L), complex)
        G4 = np.zeros((cfg.L, cfg.L), complex)
        for s in resolve_cover(cfg).regions:
            GM = direct_gabor_multiplier(cfg.L, lat.a, lat.b, phit, lattice_mask(s, lat))
            G2 += GM @ GM
            G4 += GM @ GM @ GM @ GM
        for variant, G in (("plain", G2), ("squared", G4)):
            ev = np.linalg.eigvalsh(G)
            assert d[variant]["c"] == pytest.approx(ev[0], abs=1e-9)
            assert d[variant]["C"] == pytest.approx(ev[-1], abs=1e-9)
        # the weighted epsilon-policy frame operator is the thresholded sum
        assert d["thresholded"]["epsilon"] == cfg.policy.epsilon
        assert d["thresholded"]["c"] == pytest.approx(cert["A"], rel=1e-12)
        assert d["thresholded"]["C"] == pytest.approx(cert["B"], rel=1e-12)

    def test_one_eigensolve_per_shape_class(self, tmp_path, monkeypatch):
        # regions that are translates of one another (equal cells relative to
        # the center mod L, equal values) share one eigensolve
        calls = []
        eigendecomp = tfloc.locop.eigendecomp

        def counting(op):
            calls.append(op)
            return eigendecomp(op)

        monkeypatch.setattr(tfloc.locop, "eigendecomp", counting)
        for name in ("irregular16.json", "gabor16.json"):
            cfg = CONFIG_DIR / name
            regions = resolve_cover(load_config(cfg)).regions
            shapes = {
                (frozenset(((x - s.center[0]) % s.L, (xi - s.center[1]) % s.L, v)
                           for (x, xi), v in zip(s.cells.tolist(), s.values.tolist())))
                for s in regions
            }
            assert len(shapes) < len(regions)
            for command in ("frame", "diagnose"):
                calls.clear()
                assert main([command, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
                assert len(calls) == len(shapes), (name, command)
