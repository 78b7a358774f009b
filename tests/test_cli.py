import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfloc.cli
import tfloc.frames
import tfloc.locop
from tfloc.cli import load_config, main, resolve_cover
from tfloc.core import gauss_window
from tfloc.covers import gen_regular_boxes
from tfloc.gabor import canonical_tight

from helpers import HUGE_INTEGERS, cover_dict, direct_gabor_multiplier, lattice_mask, write_signal_csv

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

    @settings(derandomize=True, database=None, deadline=None)
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

    @settings(derandomize=True, database=None, deadline=None)
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
        assert report["timings"] is None
        adm = json.loads((out / "admissibility.json").read_text())
        assert adm["spreadness"] == 1 and adm["inner_radius_ok"] is True

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
        cfg = CONFIG_DIR / "regular16.json"
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["frame", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["frame", "--config", str(cfg), "--out", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)

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
        assert report["timings"]["total_s"] > 0

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
    def test_only_reconstruct_builds_the_dual(self, tmp_path, monkeypatch, name):
        # the dual atoms cost one solve of S against G; frame and diagnose never pay it
        duals, solves = [], []
        dual_frame, solve = tfloc.frames.FrameCertificate.dual_frame, np.linalg.solve
        monkeypatch.setattr(tfloc.frames.FrameCertificate, "dual_frame",
                            lambda cert, frame: duals.append(frame) or dual_frame(cert, frame))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a) or solve(a, b))
        cfg, out = str(CONFIG_DIR / name), str(tmp_path / "o")
        assert main(["frame", "--config", cfg, "--out", out]) == 0
        assert main(["diagnose", "--config", cfg, "--out", out]) == 0
        assert (duals, solves) == ([], [])
        sig = write_random_signal(tmp_path)
        assert main(["reconstruct", "--config", cfg, "--signal", str(sig), "--out", out]) == 0
        assert (len(duals), len(solves)) == (1, 1)

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
        assert err["context"]["cell_index"] == 5
        assert "(1, 2)" in err["message"]

    def test_lattice_config_against_oracle(self, tmp_path):
        cfg_path = CONFIG_DIR / "gabor16.json"
        assert main(["diagnose", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
        assert main(["frame", "--config", str(cfg_path), "--out", str(tmp_path / "f")]) == 0
        d = json.loads((tmp_path / "d" / "diagnostics.json").read_text())
        cert = json.loads((tmp_path / "f" / "certificate.json").read_text())

        cfg = load_config(cfg_path)
        lat = cfg.lattice
        phit = canonical_tight(gauss_window(cfg.L), lat).samples
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
