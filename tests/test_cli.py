import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from canspec import cli, forward, oracles
from canspec.cli import main
from canspec.model import (
    Hamiltonian,
    SpectralMeasure,
    dumps_hamiltonian,
    dumps_measure,
    load_hamiltonian,
    load_measure,
    normalize_trace,
)


@pytest.fixture()
def free_h_file(tmp_path):
    path = tmp_path / "h0.json"
    path.write_text(dumps_hamiltonian(Hamiltonian.identity(np.pi)))
    return path


@pytest.fixture()
def free_mu_file(tmp_path):
    _, mu, _ = oracles.free_fixture(np.pi, 50.0)
    path = tmp_path / "mu.json"
    path.write_text(dumps_measure(mu))
    return path


@pytest.fixture()
def gap_mu_file(tmp_path):
    """Unit atoms at ``k`` in [-60, 60] without ``1 <= |k| <= 12``: a 24-atom gap."""
    k = np.arange(-60, 61)
    k = k[(k == 0) | (np.abs(k) > 12)]
    path = tmp_path / "gap.json"
    path.write_text(dumps_measure(SpectralMeasure(k.astype(float), np.ones(k.size), 60.5)))
    return path


@pytest.fixture()
def step_h_file(tmp_path):
    path = tmp_path / "step.json"
    path.write_text(dumps_hamiltonian(oracles.step_fixture(1.2, trace_normalized=False)))
    return path


@pytest.fixture()
def asymmetric_step_h_file(tmp_path):
    """``diag(1.2, 1/1.2)`` on ``[0, 1.2]``, then ``diag(1/1.2, 1.2)`` up to 2, unnormalized."""
    w = 1.2
    H = Hamiltonian.from_segments([(0.0, 1.2, w, 0.0, 1 / w), (1.2, 2.0, 1 / w, 0.0, w)])
    path = tmp_path / "asymmetric_step.json"
    path.write_text(dumps_hamiltonian(H))
    return path


class TestForwardCommand:
    def test_bit_reproducible_outputs(self, free_h_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(["forward", "--in", str(free_h_file), "--window", "30",
                      "--out-dir", str(out)])
                == 0
            )
            outs.append((out / "measure.json").read_bytes())
        assert outs[0] == outs[1]

    def test_free_measure_output(self, free_h_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["forward", "--in", str(free_h_file), "--window", "50", "--out-dir", str(out)]
        )
        assert code == 0
        mu = load_measure(out / "measure.json")
        np.testing.assert_allclose(mu.positions, np.arange(-50, 51), atol=1e-10)
        np.testing.assert_allclose(mu.masses, 1.0, rtol=1e-10)
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["max_det_residual"] <= 1e-10
        assert abs(diag["tail_model_residual"]) <= 1e-12
        assert "herglotz_b" not in diag

    def test_tail_model_off_by_5_percent_exits_0(self, tmp_path):
        # the tail model is off by -5.2% here, well inside the bound
        eye = np.eye(2)
        H = Hamiltonian.from_lengths([0.2, 1, 1, 1], [eye, np.diag([1, 1 / np.e]), eye, eye])
        path = tmp_path / "found.json"
        path.write_text(dumps_hamiltonian(normalize_trace(H)[0]))
        out = tmp_path / "out"
        assert main(["forward", "--in", str(path), "--window", "200", "--out-dir", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert 0.05 < abs(diag["tail_model_residual"]) <= forward.TAIL_MODEL_TOL

    def test_too_small_window_exits_3(self, step_h_file, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["forward", "--in", str(step_h_file), "--window", "1", "--out-dir", str(out)]
        assert main(args) == 3
        assert "beyond window 1 " in capsys.readouterr().err
        assert not out.exists()

    def test_missed_zeros_exit_3(self, tmp_path, capsys):
        # [I, diag(2, 0), I]: the scan finds 5 of the 25 zeros in [-20, 20]
        eye = np.eye(2)
        path = tmp_path / "rank_one_inside.json"
        H = Hamiltonian.from_lengths([1, 0.5, 1], [eye, np.diag([2.0, 0.0]), eye])
        path.write_text(dumps_hamiltonian(H))
        out = tmp_path / "out"
        assert main(["forward", "--in", str(path), "--window", "20", "--out-dir", str(out)]) == 3
        assert "counts 25 zeros" in capsys.readouterr().err
        assert not (out / "measure.json").exists()

    def test_cold_start_loads_no_scipy(self, step_h_file, tmp_path):
        # a fresh interpreter: the test process has SciPy loaded already
        script = (
            "import json, sys\n"
            "import canspec.cli\n"
            "rc = canspec.cli.main(['forward', '--in', sys.argv[1], '--window', '20',"
            " '--out-dir', sys.argv[2]])\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "ma = [m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')]\n"
            "import canspec\n"
            "lazy = [canspec.RecoveryPipeline.__name__, canspec.frame_bounds.__name__]\n"
            "listed = set(canspec.__all__) <= set(dir(canspec))\n"
            "print(json.dumps({'rc': rc, 'scipy': loaded, 'ma': ma, 'lazy': lazy,"
            " 'listed': listed}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(step_h_file), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {
            "rc": 0,
            "scipy": [],
            "ma": [],
            "lazy": ["RecoveryPipeline", "frame_bounds"],
            "listed": True,
        }

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["forward", "--in", str(tmp_path / "nope.json"), "--window", "10"])
        assert code == 2

    def test_invalid_hamiltonian_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"ell": 1.0, "segments": [{"r0": 0, "r1": 1.0, "h": [[1, 1.1], [1.1, 1]]}]}'
        )
        code = main(["forward", "--in", str(bad), "--window", "10"])
        assert code == 2


class TestInverseCommand:
    def test_free_measure_recovers_identity(self, free_mu_file, tmp_path):
        out = tmp_path / "rec"
        code = main(
            [
                "inverse", "--in", str(free_mu_file), "--c", "0",
                "--pw-trunc", "64", "--s-samples", "17", "--r-samples", "33",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        H = load_hamiltonian(out / "hamiltonian.json")
        assert H.ell == pytest.approx(np.pi, abs=1e-3)
        mids = 0.5 * (H.edges[:-1] + H.edges[1:])
        inner = (mids > 0.05 * np.pi) & (mids < 0.95 * np.pi)
        assert np.max(np.abs(H.matrices[inner] - np.eye(2))) < 2e-2
        csv = (out / "hamiltonian.csv").read_text().splitlines()
        assert csv[0].split() == ["r", "h11", "h12", "h22"]
        assert len(csv) == H.nsegments + 1

    def test_atoms_short_of_window_recover_identity(self, tmp_path):
        # unit atoms on -40..40 in a window of 60 are the free measure
        path = tmp_path / "short.json"
        path.write_text(dumps_measure(SpectralMeasure(np.arange(-40, 41.0), np.ones(81), 60.0)))
        out = tmp_path / "rec"
        assert main(["inverse", "--in", str(path), "--c", "0", "--out-dir", str(out)]) == 0
        H = load_hamiltonian(out / "hamiltonian.json")
        assert np.max(np.abs(H.matrices - np.eye(2))) <= 1e-12

    def test_cold_start_loads_only_linalg_and_special(self, free_mu_file, tmp_path):
        # a fresh interpreter: the test process has SciPy loaded already
        script = (
            "import json, sys\n"
            "import canspec.inverse, canspec.oracles, canspec.cli\n"
            "rc = canspec.cli.main(['inverse', '--in', sys.argv[1], '--c', '0',"
            " '--pw-trunc', '16', '--s-samples', '9', '--r-samples', '17',"
            " '--out-dir', sys.argv[2] + '/rec'])\n"
            "heavy = ('scipy.interpolate', 'scipy.integrate', 'scipy.optimize', 'scipy.sparse')\n"
            "def loaded():\n"
            "    return sorted({'.'.join(m.split('.')[:2]) for m in sys.modules} & set(heavy))\n"
            "after_inverse = loaded()\n"
            "diag_rc = canspec.cli.main(['check-diag', '--n', '1', '--s', '1.0',"
            " '--out-dir', sys.argv[2] + '/diag'])\n"
            "print(json.dumps({'rc': rc, 'inverse': after_inverse, 'diag_rc': diag_rc,"
            " 'diag': loaded()}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(free_mu_file), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["rc"] == 0
        assert report["inverse"] == []
        assert report["diag_rc"] == 0
        assert "scipy.integrate" in report["diag"]

    def test_overwrite_protection(self, tmp_path):
        _, mu, _ = oracles.free_fixture(np.pi, 50.0)
        path = tmp_path / "diagnostics.json"
        path.write_text(dumps_measure(mu))
        code = main(
            [
                "inverse", "--in", str(path), "--c", "0",
                "--pw-trunc", "64", "--s-samples", "17", "--r-samples", "33",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2

    def test_section_that_is_not_positive_definite_exits_3(self, gap_mu_file, tmp_path, capsys):
        code = main(
            [
                "inverse", "--in", str(gap_mu_file), "--c", "0", "--bandwidth", str(np.pi),
                "--pw-trunc", "40", "--out-dir", str(tmp_path / "rec"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure [inverse]: ")
        assert "factorization failed" in err

    def test_missing_c_on_symmetric_measure_warns(self, free_mu_file, tmp_path, capsys):
        code = main(["inverse", "--in", str(free_mu_file), "--pw-trunc", "16", "--s-samples", "9",
                     "--r-samples", "17", "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err.startswith(
            "warning: no additive Herglotz constant supplied"
        )

    def test_invariant_violation_in_command_exits_4(self, free_mu_file, tmp_path, capsys):
        code = main(["inverse", "--in", str(free_mu_file), *_INVERSE, "--bandwidth", "1e6",
                     "--out-dir", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("invariant breach: PSD projection exceeded")
        assert "np.float64(" not in err


class TestRoundtripCommand:
    def test_free_roundtrip_artifacts(self, free_h_file, tmp_path):
        out = tmp_path / "rt"
        code = main(
            [
                "roundtrip", "--in", str(free_h_file), "--window", "50",
                "--pw-trunc", "64", "--s-samples", "17", "--r-samples", "33",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "roundtrip.json").read_text())
        assert report["lattice_type"] == np.pi
        assert report["max_det_residual"] <= 1e-10
        assert abs(report["tail_model_residual"]) <= 1e-12
        assert max(max(row) for row in report["l1_relative"]) < 0.05
        assert (out / "recovered_hamiltonian.json").exists()
        assert (out / "recovered_chain.csv").exists()


class TestAsymmetricStepCommands:
    """A step split off the middle: its zeros are not equally spaced.

    At the default window 200 it breaches only the reproducing-identity gate
    (sine_norm_residual_max 8.4e-4 > 1e-4), as the symmetric step does: exit 4.
    """

    #: its trace-normalized length, 1.2 + 0.8 times the half trace (1.2 + 1/1.2) / 2
    ELL = 2.0 * (1.2 + 1 / 1.2) / 2

    def test_roundtrip_exits_4_with_every_output(self, asymmetric_step_h_file, tmp_path, capsys):
        out = tmp_path / "rt"
        assert main(["roundtrip", "--in", str(asymmetric_step_h_file), "--out-dir", str(out)]) == 4
        assert "invariant breach: sine_norm_residual_max=" in capsys.readouterr().err
        names = [
            "normalized_input.json", "recovered_hamiltonian.json", "recovered_hamiltonian.csv",
            "recovered_chain.csv", "roundtrip.json", "residuals.csv",
        ]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert all((out / name).stat().st_size > 0 for name in names)

    def test_forward_then_inverse_recovers_the_length(
        self, asymmetric_step_h_file, tmp_path, capsys
    ):
        fwd, rec = tmp_path / "fwd", tmp_path / "rec"
        assert main(["forward", "--in", str(asymmetric_step_h_file), "--out-dir", str(fwd)]) == 0
        assert main(["inverse", "--in", str(fwd / "measure.json"), "--out-dir", str(rec)]) == 4
        assert "invariant breach: sine_norm_residual_max=" in capsys.readouterr().err
        assert load_hamiltonian(rec / "hamiltonian.json").ell == pytest.approx(self.ELL, abs=5e-3)


class TestInvariantGate:
    ARGS = ["--window", "60", "--pw-trunc", "64", "--s-samples", "17", "--r-samples", "33"]

    def test_short_window_roundtrip_exits_4(self, step_h_file, tmp_path):
        # a perturbed weight at a short window breaches the reproducing
        # identity gate: results are still written, exit code flags it
        out = tmp_path / "rt"
        code = main(["roundtrip", "--in", str(step_h_file), *self.ARGS, "--out-dir", str(out)])
        assert code == 4
        assert (out / "roundtrip.json").exists()

    def test_residuals_csv_is_the_per_cell_error(self, step_h_file, tmp_path):
        # written from RoundtripReport.cell_error, residuals.csv is byte for byte
        # the file recomputed from the recovered and the normalized input weight
        out = tmp_path / "rt"
        main(["roundtrip", "--in", str(step_h_file), *self.ARGS, "--out-dir", str(out)])
        report = oracles.roundtrip(
            load_hamiltonian(step_h_file), window=60.0, pw_truncation=64, s_samples=17,
            r_samples=33,
        )
        Hr, Ht = report.result.hamiltonian, report.normalized
        mids = 0.5 * (Hr.edges[:-1] + Hr.edges[1:])
        resid = np.abs(Hr.matrices - Ht.sample(np.minimum(mids, Ht.ell * (1 - 1e-15))))
        cli._write_csv(
            tmp_path / "want.csv",
            ["r", "d_h11", "d_h12", "d_h22"],
            [mids, resid[:, 0, 0], resid[:, 0, 1], resid[:, 1, 1]],
        )
        assert (out / "residuals.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_tol_override_reports_but_never_loosens(self, step_h_file, tmp_path, capsys):
        code = main(
            ["roundtrip", "--in", str(step_h_file), *self.ARGS, "--tol-override", "1",
             "--out-dir", str(tmp_path / "rt")]
        )
        assert code == 4
        out, err = capsys.readouterr()
        line = next(s for s in out.splitlines() if "sine_norm_residual_max" in s)
        assert line.startswith("[tol-override] sine_norm_residual_max: ")
        assert "vs override 1.0e+00 -> pass" in line
        assert "invariant breach: sine_norm_residual_max=" in err

    @pytest.mark.parametrize("command", ["framebounds", "example-nonpw", "check-diag"])
    def test_tol_override_only_on_gated_commands(self, free_mu_file, tmp_path, command):
        required = {"framebounds": ["--in", str(free_mu_file)], "example-nonpw": ["--h", "0.1"]}
        args = [command, *required.get(command, []), "--tol-override", "1"]
        assert main(args + ["--out-dir", str(tmp_path)]) == 2

    def test_help_returns_0(self, capsys):
        assert main(["forward", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: canspec forward")


class TestFrameboundsCommand:
    def test_free_unit_bounds(self, free_mu_file, tmp_path, capsys):
        code = main(
            [
                "framebounds", "--in", str(free_mu_file), "--s", str(np.pi),
                "--pw-trunc", "40", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "framebounds.json").read_text())
        assert doc["lambda_min"] == pytest.approx(1.0, abs=1e-8)
        assert doc["lambda_max"] == pytest.approx(1.0, abs=1e-8)
        assert doc["N"] == 40

    def test_section_that_is_not_positive_definite(self, gap_mu_file, tmp_path):
        # a gap of 24 atoms: lambda_min ~ 0 is reported, not a factorization error
        code = main(
            [
                "framebounds", "--in", str(gap_mu_file), "--s", str(np.pi),
                "--pw-trunc", "40", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "framebounds.json").read_text())
        assert doc["lambda_min"] <= 1e-12
        assert doc["N"] == 40


class TestNonPwCommand:
    def test_h_out_of_range_exits_2(self, tmp_path):
        code = main(["example-nonpw", "--h", "0.2", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_valid_run(self, tmp_path):
        code = main(
            ["example-nonpw", "--h", "0.1", "--kmax", "4", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "nonpw.json").read_text())
        assert len(doc["k"]) == 2
        assert all(v >= 0.1 for v in doc["E_scaled"])
        assert (tmp_path / "nonpw.csv").exists()

    def test_overflow_exits_3_without_numpy_warnings(self, tmp_path, capsys):
        code = main(["example-nonpw", "--h", "1e-62", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "transfer matrix overflowed" in err
        assert "RuntimeWarning" not in err


class TestCheckDiagCommand:
    def test_default_unit_weight(self, tmp_path):
        code = main(
            ["check-diag", "--n", "1,2", "--s", "0.5,1.0", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "checkdiag.json").read_text())
        assert len(doc) == 4
        first = doc[0]
        assert first["ratio"] == pytest.approx(1 / 3, abs=1e-9)

    def test_profile_file(self, tmp_path):
        prof = tmp_path / "w.csv"
        ts = np.linspace(0, 1, 101)
        prof.write_text("\n".join(f"{t} {1.5 + 0.3*np.sin(2*t)}" for t in ts))
        code = main(
            [
                "check-diag", "--in", str(prof), "--n", "2", "--s", "1.0",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "checkdiag.json").read_text())
        assert doc[0]["oracle_delta"] < 1e-6

    def test_large_bandwidth(self, tmp_path):
        for n, s in (("20", "1e8"), ("1", "1e200")):
            assert main(["check-diag", "--n", n, "--s", s, "--out-dir", str(tmp_path)]) == 0
            ratio = json.loads((tmp_path / "checkdiag.json").read_text())[0]["ratio"]
            assert ratio == pytest.approx(int(n) / (2 * int(n) + 1), rel=1e-9)


class TestCanonicalJsonOutputs:
    def test_measure_json_has_17_digits(self, free_h_file, tmp_path):
        out = tmp_path / "out"
        assert main(["forward", "--in", str(free_h_file), "--window", "30",
                     "--out-dir", str(out)]) == 0
        path = out / "measure.json"
        assert path.read_text() == dumps_measure(load_measure(path)) + "\n"

    def test_hamiltonian_json_has_17_digits(self, free_mu_file, tmp_path):
        out = tmp_path / "rec"
        assert main(["inverse", "--in", str(free_mu_file), "--c", "0", "--pw-trunc", "64",
                     "--s-samples", "17", "--r-samples", "33", "--out-dir", str(out)]) == 0
        path = out / "hamiltonian.json"
        assert path.read_text() == dumps_hamiltonian(load_hamiltonian(path)) + "\n"


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


class TestBadNumbersExit2:
    @pytest.mark.parametrize(
        "keys,value",
        [
            (["window"], "abc"),
            (["window"], float("inf")),
            (["b"], float("nan")),
            (["c"], float("-inf")),
            (["atoms", 3, "mass"], float("nan")),
            (["atoms", 3, "t"], "x"),
            (["atoms", -1, "t"], float("inf")),
        ],
        ids=["window-str", "window-inf", "b-nan", "c-inf", "mass-nan", "t-str", "t-inf"],
    )
    def test_measure(self, free_mu_file, tmp_path, keys, value):
        doc = json.loads(free_mu_file.read_text())
        _set(doc, keys, value)
        free_mu_file.write_text(json.dumps(doc))
        code = main(["inverse", "--in", str(free_mu_file), "--c", "0", "--pw-trunc", "16",
                     "--s-samples", "9", "--r-samples", "17", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_measure_with_linear_term(self, free_mu_file, tmp_path, capsys):
        # b = 0.5 needs an initial e2 e2^T interval, which the recovery cannot represent
        doc = json.loads(free_mu_file.read_text())
        doc["b"] = 0.5
        free_mu_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["inverse", "--in", str(free_mu_file), *_INVERSE, "--out-dir", str(out)]) == 2
        assert "linear Herglotz term" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys,value",
        [
            (["segments", 0, "r1"], "x"),
            (["ell"], "abc"),
            (["segments", 0, "h", 0, 0], float("nan")),
            (["segments", 0, "h", 1, 1], float("inf")),
        ],
        ids=["r1-str", "ell-str", "h11-nan", "h22-inf"],
    )
    def test_hamiltonian(self, free_h_file, tmp_path, keys, value):
        doc = json.loads(free_h_file.read_text())
        _set(doc, keys, value)
        free_h_file.write_text(json.dumps(doc))
        code = main(["forward", "--in", str(free_h_file), "--window", "10",
                     "--out-dir", str(tmp_path)])
        assert code == 2


_INVERSE = ["--c", "0", "--pw-trunc", "16", "--s-samples", "9", "--r-samples", "17"]


class TestZeroBandwidthExit2:
    def test_inverse(self, free_mu_file, tmp_path):
        code = main(["inverse", "--in", str(free_mu_file), "--c", "0", "--bandwidth", "0",
                     "--pw-trunc", "16", "--s-samples", "9", "--r-samples", "17",
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def test_framebounds(self, free_mu_file, tmp_path):
        code = main(["framebounds", "--in", str(free_mu_file), "--s", "0",
                     "--pw-trunc", "16", "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["forward", "--window", "nan"], id="forward-window-nan"),
            pytest.param(["forward", "--window", "-5"], id="forward-window-negative"),
            pytest.param(["roundtrip", "--window", "inf"], id="roundtrip-window-inf"),
            pytest.param(["inverse", *_INVERSE, "--bandwidth", "nan"], id="inverse-bandwidth-nan"),
            pytest.param(["inverse", *_INVERSE, "--bandwidth", "inf"], id="inverse-bandwidth-inf"),
            pytest.param(["inverse", *_INVERSE, "--c", "nan"], id="inverse-c-nan"),
            pytest.param(["inverse", *_INVERSE, "--c", "inf"], id="inverse-c-inf"),
            pytest.param(["framebounds", "--pw-trunc", "16", "--s", "nan"], id="framebounds-s-nan"),
            pytest.param(["framebounds", "--pw-trunc", "16", "--s", "inf"], id="framebounds-s-inf"),
            pytest.param(["check-diag", "--s", "nan"], id="check-diag-s-nan"),
            pytest.param(["check-diag", "--s", "inf"], id="check-diag-s-inf"),
            pytest.param(["inverse", *_INVERSE, "--s-samples", "-1"], id="inverse-s-samples-negative"),
            pytest.param(["roundtrip", "--s-samples", "-3"], id="roundtrip-s-samples-negative"),
            pytest.param(["forward", "--window", "1e308"], id="forward-window-no-finite-scan"),
        ],
    )
    def test_exits_2(self, free_h_file, free_mu_file, tmp_path, args):
        # a later repeat of an option overrides the earlier one
        inputs = {"forward": free_h_file, "roundtrip": free_h_file,
                  "inverse": free_mu_file, "framebounds": free_mu_file}
        extra = ["--in", str(inputs[args[0]])] if args[0] in inputs else []
        assert main(args + extra + ["--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["forward", "roundtrip"])
    def test_zero_type_weight(self, tmp_path, command):
        # diag(2, 0) is rank one: the weight has exponential type 0
        path = tmp_path / "rank_one.json"
        path.write_text(dumps_hamiltonian(Hamiltonian.from_segments([(0.0, 1.0, 2.0, 0.0, 0.0)])))
        assert main([command, "--in", str(path), "--out-dir", str(tmp_path / "out")]) == 2


class TestHugeFiniteNumbersExit3:
    @pytest.mark.parametrize(
        "extra",
        [["--c", "1e308"], ["--c", "1e200"], ["--bandwidth", "1e300"]],
        ids=["c-1e308", "c-1e200", "bandwidth-1e300"],
    )
    def test_inverse(self, free_mu_file, tmp_path, capsys, extra):
        code = main(["inverse", "--in", str(free_mu_file), *_INVERSE, *extra,
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert "boundary cosine data overflowed" in capsys.readouterr().err

    def test_large_c_recovers(self, free_mu_file, tmp_path):
        # the recovered length pi (2 + c^2) / 2 is huge but finite
        code = main(["inverse", "--in", str(free_mu_file), *_INVERSE, "--c", "1e20",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        ell = load_hamiltonian(tmp_path / "hamiltonian.json").ell
        assert ell == pytest.approx(np.pi * (2 + 1e40) / 2, rel=1e-6)


class TestCheckDiagProfileRows:
    def _ratio(self, tmp_path, text):
        prof = tmp_path / "w.txt"
        prof.write_text(text)
        out = tmp_path / "out"
        code = main(["check-diag", "--in", str(prof), "--n", "2", "--s", "1.0",
                     "--out-dir", str(out)])
        assert code == 0
        return json.loads((out / "checkdiag.json").read_text())[0]["ratio"]

    def test_exponent_first_row_is_data(self, tmp_path):
        rest = "\n0.5 1.0\n1.0 1.0\n"
        plain = self._ratio(tmp_path, "0.001 5.0" + rest)
        assert self._ratio(tmp_path, "1e-3 5.0" + rest) == plain
        assert self._ratio(tmp_path, "t w\n0.001 5.0" + rest) == plain

    @pytest.mark.parametrize(
        "bad_row", ["0.5 1.0 2.0", "0.5 abc", "0.5 nan"], ids=["3-columns", "text", "nan"]
    )
    def test_bad_row_exits_2(self, tmp_path, bad_row):
        prof = tmp_path / "w.txt"
        prof.write_text(f"t w\n0.0 1.0\n{bad_row}\n1.0 1.0\n")
        code = main(["check-diag", "--in", str(prof), "--n", "2", "--s", "1.0",
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def _results(self, tmp_path, text=None):
        args = ["check-diag", "--n", "2", "--s", "1.0", "--out-dir", str(tmp_path / "out")]
        if text is not None:
            prof = tmp_path / "w.txt"
            prof.write_text(text)
            args += ["--in", str(prof)]
        assert main(args) == 0
        return json.loads((tmp_path / "out" / "checkdiag.json").read_text())

    def test_extension_is_recorded(self, tmp_path):
        # two rows on [0.2, 0.5]: np.interp holds w = 5 on [0, 0.2] and w = 1 on [0.5, 1]
        (result,) = self._results(tmp_path, "0.2 5.0\n0.5 1.0\n")
        assert result["ratio"] == 2.6035229696737434
        assert result["profile_extended"] is True

    def test_covering_and_default_profiles_are_not_extended(self, tmp_path):
        covering = "\n".join(f"{t} {1.5 + 0.3 * np.sin(2 * t)}" for t in np.linspace(0, 1, 101))
        assert self._results(tmp_path, covering)[0]["profile_extended"] is False
        assert self._results(tmp_path)[0]["profile_extended"] is False

    def test_t_not_increasing_exits_2(self, tmp_path):
        rows = ["1.0 1.0", "0.0 5.0", "0.5 1.0"]
        assert self._ratio(tmp_path, "\n".join(sorted(rows))) == pytest.approx(1.9246, abs=1e-4)
        prof = tmp_path / "w.txt"
        prof.write_text("\n".join(rows))
        code = main(["check-diag", "--in", str(prof), "--n", "2", "--s", "1.0",
                     "--out-dir", str(tmp_path)])
        assert code == 2
