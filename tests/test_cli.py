import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import resloss
from helpers import model_sweep, three_device_truths
from resloss.cli import (
    EXIT_EXTRACTION,
    EXIT_FIT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RANGE,
    main,
)
from resloss import fileio
from resloss.fileio import write_power_sweep, write_sweep
from resloss import PowerSweepPoint, generate_power_sweep, generate_s21_sweep


def run(*args):
    return main([str(a) for a in args])


def run_fresh(script, *args, cwd=None):
    """Run ``script`` in a fresh interpreter on this checkout; its last stdout line as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(resloss.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def device_table(tmp_path, *rows):
    """A CSV device table with the standard header and the given rows."""
    path = tmp_path / "devices.csv"
    path.write_text("label,design,material,f0_GHz,N,g_c_um,C_C_fF,C_L_fF,L_nH,loss,loss_err\n"
                    + "".join(row + "\n" for row in rows))
    return path


def table1_doc():
    """The bundled device table as a JSON document, to edit and write elsewhere."""
    return json.loads((Path(resloss.__file__).parent / "data" / "table1.json").read_text())


def reject_constant(constant):
    """json.loads hook: fail on the non-JSON Infinity and NaN."""
    raise ValueError(f"non-JSON constant {constant}")


class TestSynthCommand:
    def test_writes_manifest_and_sweeps(self, tmp_path):
        out = tmp_path / "synth"
        assert run("synth", "--out", out, "--seed", 3) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["truth"]["seed"] == 3
        assert manifest["tool_version"] == resloss.__version__
        sweeps = sorted(out.glob("sweep_*.csv"))
        assert len(sweeps) == len(manifest["sweep_files"])
        assert (out / "power_sweep.csv").exists()

    def test_custom_truth_file(self, tmp_path):
        truth = {
            "f0": 4.5e9, "q_c": 2e4, "phi": 0.0,
            "f_tan_delta0": 1e-5, "n_c": 5.0, "beta": 0.5, "q_hp": 1e6,
            "temperature": 0.1, "span": 3e6, "n_points": 64,
            "powers": [1e-16, 1e-15, 1e-14], "seed": 1,
        }
        config = tmp_path / "truth.json"
        config.write_text(json.dumps(truth))
        out = tmp_path / "out"
        assert run("synth", "--input", config, "--out", out) == EXIT_OK
        assert len(list(out.glob("sweep_*.csv"))) == 3

    def test_seed_override_applies_to_truth_file(self, tmp_path):
        truth = {
            "f0": 4.5e9, "q_c": 2e4, "phi": 0.0,
            "f_tan_delta0": 1e-5, "n_c": 5.0, "beta": 0.5, "q_hp": 1e6,
            "temperature": 0.1, "span": 3e6, "n_points": 64,
            "powers": [1e-15], "seed": 1, "s21_sigma": 0.01,
        }
        config = tmp_path / "truth.json"
        config.write_text(json.dumps(truth))
        out = tmp_path / "out"
        assert run("synth", "--input", config, "--out", out, "--seed", 9) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["truth"]["seed"] == 9

    def test_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("synth", "--out", a, "--seed", 11) == EXIT_OK
        assert run("synth", "--out", b, "--seed", 11) == EXIT_OK
        assert (a / "power_sweep.csv").read_bytes() == (b / "power_sweep.csv").read_bytes()
        assert (a / "sweep_000.csv").read_bytes() == (b / "sweep_000.csv").read_bytes()

    def test_two_inputs_rejected(self, tmp_path, capsys):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps({"f0": 4.5e9}))
        status = run("synth", "--input", config, "--input", config, "--out", tmp_path / "out")
        assert status == EXIT_INPUT
        assert "at most one --input" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPipeline:
    def test_synth_fit_s21_fit_tls_round_trip(self, tmp_path):
        synth_dir = tmp_path / "synth"
        fits_dir = tmp_path / "fits"
        tls_dir = tmp_path / "tls"
        assert run("synth", "--out", synth_dir) == EXIT_OK
        assert run("fit-s21", "--input", synth_dir, "--out", fits_dir) == EXIT_OK
        report = json.loads((fits_dir / "fit_s21.json").read_text())
        assert len(report["results"]) == 21
        assert report["photon_convention"]
        photons = [r["photon_number"] for r in report["results"]]
        assert photons == sorted(photons)
        for result in report["results"]:
            assert result["nfev"] >= 1
            assert "converged" not in result
            assert isinstance(result["delay_s"], float)
            assert len(result["baseline"]) == 2
        rerun_dir = tmp_path / "fits_rerun"
        assert run("fit-s21", "--input", synth_dir, "--out", rerun_dir) == EXIT_OK
        for name in ("fit_s21.json", "power_sweep.csv"):
            assert (rerun_dir / name).read_bytes() == (fits_dir / name).read_bytes()

        assert run("fit-tls", "--input", fits_dir / "power_sweep.csv",
                   "--out", tls_dir) == EXIT_OK
        tls = json.loads((tls_dir / "fit_tls.json").read_text())
        recovered = tls["params"]["f_tan_delta0"]
        assert abs(recovered - 9.2e-4) / 9.2e-4 < 1e-4
        assert "converged" not in tls
        tls_rerun = tmp_path / "tls_rerun"
        assert run("fit-tls", "--input", fits_dir / "power_sweep.csv",
                   "--out", tls_rerun) == EXIT_OK
        assert (tls_rerun / "fit_tls.json").read_bytes() == (tls_dir / "fit_tls.json").read_bytes()

    def test_fit_tls_on_synth_truth_power_sweep(self, tmp_path):
        synth_dir = tmp_path / "synth"
        tls_dir = tmp_path / "tls"
        assert run("synth", "--out", synth_dir) == EXIT_OK
        assert run("fit-tls", "--input", synth_dir / "power_sweep.csv",
                   "--out", tls_dir) == EXIT_OK
        tls = json.loads((tls_dir / "fit_tls.json").read_text())
        assert abs(tls["params"]["f_tan_delta0"] - 9.2e-4) / 9.2e-4 < 1e-6

    def test_fit_tls_unresolved_floor_is_null(self, tmp_path):
        truth = three_device_truths(n_powers=21, loss_rel_sigma=0.02, seed=10)["ppc"]
        path = tmp_path / "power.csv"
        write_power_sweep(path, generate_power_sweep(truth), f0=truth.f0,
                          temperature=truth.temperature)
        assert run("fit-tls", "--input", path, "--out", tmp_path / "tls") == EXIT_OK
        tls = json.loads((tmp_path / "tls" / "fit_tls.json").read_text(),
                         parse_constant=reject_constant)
        assert tls["params"]["q_hp"] is None
        assert tls["uncertainties"]["q_hp"] is None
        limit = tls["q_hp_lower_limit"]
        assert isinstance(limit, float) and 0.0 < limit < math.inf

    def test_fit_tls_flat_sweep_has_null_n_c_error(self, tmp_path):
        # No TLS signal: F*tan_delta0 = 0 leaves n_c and beta undetermined.
        points = [PowerSweepPoint(float(n), 1e-6) for n in np.geomspace(1e-2, 1e4, 10)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=4.5e9, temperature=0.1)
        for beta in ("fixed", "free"):
            out = tmp_path / beta
            assert run("fit-tls", "--input", path, "--beta", beta, "--out", out) == EXIT_OK
            tls = json.loads((out / "fit_tls.json").read_text(), parse_constant=reject_constant)
            assert tls["params"]["f_tan_delta0"] == 0.0
            assert tls["uncertainties"]["n_c"] is None
            assert (tls["uncertainties"]["beta"] is None) == (beta == "free")

    def test_fit_tls_ill_conditioned_exit(self, tmp_path):
        points = [PowerSweepPoint(float(n), 1e-6 + 1e-4 / (1 + n / 1e-3) ** 0.5)
                  for n in np.geomspace(1e3, 1e7, 12)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=4.5e9, temperature=0.1)
        assert run("fit-tls", "--input", path, "--out", tmp_path) == EXIT_FIT

    def test_fit_s21_validates_all_inputs_before_writing(self, tmp_path):
        synth_dir = tmp_path / "synth"
        assert run("synth", "--out", synth_dir) == EXIT_OK
        bad = synth_dir / "sweep_999.csv"
        bad.write_text("not,a,sweep\n")
        out = tmp_path / "fits"
        assert run("fit-s21", "--input", synth_dir, "--out", out) == EXIT_INPUT
        assert not out.exists() or not any(out.iterdir())


class TestExtractCommand:
    def test_bundled_fixture(self, tmp_path):
        out = tmp_path / "ext"
        assert run("extract", "--input", "table1", "--out", out) == EXIT_OK
        report = json.loads((out / "extract.json").read_text())
        assert report["inductor_loss"] == pytest.approx(9.158633540372669e-6, rel=1e-12)
        assert report["ppc_loss"] == pytest.approx(1.02288739909713e-3, rel=1e-12)
        assert report["idc_loss_proxy"] == 8.42e-6
        assert report["single_measurement"] == 920e-6
        assert report["single_measurement_err"] == 7e-6
        assert report["fractional_difference"] == pytest.approx(0.1118341, rel=1e-6)
        assert "cpw_proxy_assumed" not in report
        reference = report["reference"]
        assert reference["values"]["inductor_loss"] == pytest.approx(1.12e-5)
        assert "note" in reference["values"]
        assert reference["inductor_loss_relative_deviation"] == pytest.approx(
            (9.158633540372669e-6 - 1.12e-5) / 1.12e-5, rel=1e-9)

    def test_csv_table_input(self, tmp_path):
        table = device_table(
            tmp_path,
            "A,LE_PPC,trilayer,3.7464,17,3,727.7,82.2,2.42,920e-6,7e-6",
            "B,LE_IDC,Al,6.3798,13,30,34.7,64.4,1.87,8.9e-6,0.1e-6",
            "C,CPW,Al,4.5548,,,,,,8.42e-6,0.06e-6",
        )
        out = tmp_path / "ext"
        assert run("extract", "--input", table, "--out", out) == EXIT_OK
        report = json.loads((out / "extract.json").read_text())
        assert report["ppc_loss"] == pytest.approx(1.02288739909713e-3, rel=1e-9)
        assert "reference" not in report

    def test_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("extract", "--input", "table1", "--out", a) == EXIT_OK
        assert run("extract", "--input", "table1", "--out", b) == EXIT_OK
        assert (a / "extract.json").read_bytes() == (b / "extract.json").read_bytes()

    def test_losses_assembled_from_fit_reports(self, tmp_path):
        table = device_table(
            tmp_path,
            "A,LE_PPC,trilayer,3.7464,17,3,727.7,82.2,2.42,,",
            "B,LE_IDC,Al,6.3798,13,30,34.7,64.4,1.87,,",
            "C,CPW,Al,4.5548,,,,,,,",
        )
        fits = {"ppc": 920e-6, "idc": 8.9e-6, "cpw": 8.42e-6}
        paths = {}
        for key, loss in fits.items():
            path = tmp_path / f"{key}_fit.json"
            path.write_text(json.dumps({
                "params": {"f_tan_delta0": loss},
                "uncertainties": {"f_tan_delta0": loss / 100},
            }))
            paths[key] = path
        out = tmp_path / "ext"
        assert run("extract", "--input", table, "--out", out,
                   "--ppc-fit", paths["ppc"], "--idc-fit", paths["idc"],
                   "--cpw-fit", paths["cpw"]) == EXIT_OK
        report = json.loads((out / "extract.json").read_text())
        assert report["ppc_loss"] == pytest.approx(1.02288739909713e-3, rel=1e-9)
        assert report["inputs"]["ppc"]["loss_err"] == pytest.approx(9.2e-6)
        assert len(report["inputs"]) == 3

    def test_missing_loss_and_no_fit_report(self, tmp_path):
        table = device_table(
            tmp_path,
            "A,LE_PPC,x,3.7464,,,727.7,82.2,2.42,,",
            "B,LE_IDC,x,6.3798,,,34.7,64.4,1.87,8.9e-6,",
            "C,CPW,x,4.5548,,,,,,8.42e-6,",
        )
        assert run("extract", "--input", table, "--out", tmp_path / "o") == EXIT_INPUT

    def test_inconsistent_inputs_exit(self, tmp_path):
        table = device_table(
            tmp_path,
            "A,LE_PPC,x,3.7,,,727.7,82.2,2.42,920e-6,",
            "B,LE_IDC,x,6.4,,,90,10,1.87,5e-6,",
            "C,CPW,x,4.6,,,,,,1e-5,",
        )
        assert run("extract", "--input", table, "--out", tmp_path / "o") == EXIT_EXTRACTION

    def test_missing_input_exit(self, tmp_path):
        assert run("extract", "--input", tmp_path / "nope.json",
                   "--out", tmp_path) == EXIT_INPUT
        # Only a bare name may select a bundled fixture; a path is never
        # completed with ".json".
        shutil.copy(Path(resloss.__file__).parent / "data" / "table1.json", tmp_path)
        assert run("extract", "--input", tmp_path / "table1",
                   "--out", tmp_path / "ext") == EXIT_INPUT

    @pytest.mark.parametrize("key", ["inductor_loss", "ppc_loss"])
    def test_zero_reference_value_exit(self, tmp_path, capsys, key):
        doc = table1_doc()
        doc["reference"][key] = 0
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        assert run("extract", "--input", table, "--out", tmp_path / "ext") == EXIT_INPUT
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "ValueError" and key in report["message"]
        assert report["message"].startswith(f"{table}: ")
        assert not (tmp_path / "ext").exists()

    @pytest.mark.parametrize("reference, match", [
        ({"inductor_loss": math.inf}, "reference inductor_loss must be finite and nonzero"),
        (["inductor_loss", 1.12e-5], "'reference' must be a JSON object"),
    ], ids=["infinite-value", "not-an-object"])
    def test_bad_reference_names_table(self, tmp_path, capsys, reference, match):
        doc = table1_doc()
        doc["reference"] = reference
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))  # math.inf is written as Infinity
        assert run("extract", "--input", table, "--out", tmp_path / "ext") == EXIT_INPUT
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert message.startswith(f"{table}: {match}")
        assert not (tmp_path / "ext").exists()

    def test_bad_reference_refused_before_solve(self, tmp_path):
        # Devices whose solve gives a negative loss (exit 4) with a zero
        # reference value: the reference is decoded first and exits 2.
        doc = table1_doc()
        doc["devices"][1].update({"C_C_fF": 90, "C_L_fF": 10, "loss": 5e-6})
        doc["devices"][2]["loss"] = 1e-5
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        assert run("extract", "--input", table, "--out", tmp_path / "ext") == EXIT_EXTRACTION
        doc["reference"]["ppc_loss"] = 0
        table.write_text(json.dumps(doc))
        assert run("extract", "--input", table, "--out", tmp_path / "ext") == EXIT_INPUT
        assert not (tmp_path / "ext").exists()

    # A fit-tls report on a flat sweep carries f_tan_delta0 0.0.
    @pytest.mark.parametrize("loss, loss_err", [
        ("0.0", "1e-6"), ("NaN", "1e-6"), ("9.2e-4", "Infinity"), ("9.2e-4", "-1e-6"),
    ], ids=["zero", "nan", "infinite-error", "negative-error"])
    def test_unusable_fit_report_loss_names_report(self, tmp_path, capsys, loss, loss_err):
        report = tmp_path / "fit_tls.json"
        report.write_text('{"params": {"f_tan_delta0": %s}, '
                          '"uncertainties": {"f_tan_delta0": %s}}' % (loss, loss_err))
        assert run("extract", "--input", "table1", "--ppc-fit", report,
                   "--out", tmp_path / "ext") == EXIT_INPUT
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert message.startswith(f"{report}: f_tan_delta0 must be finite and > 0")
        assert not (tmp_path / "ext").exists()

    def test_zero_table_loss_names_table(self, tmp_path, capsys):
        table = device_table(
            tmp_path,
            "A,LE_PPC,x,3.7464,,,727.7,82.2,2.42,0,",
            "B,LE_IDC,x,6.3798,,,34.7,64.4,1.87,8.9e-6,",
            "C,CPW,x,4.5548,,,,,,8.42e-6,",
        )
        assert run("extract", "--input", table, "--out", tmp_path / "ext") == EXIT_INPUT
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert message == f"{table}: ppc_resonator_loss must be > 0, got 0.0"
        assert not (tmp_path / "ext").exists()

    def test_zero_stray_capacitance_exit(self, tmp_path, capsys):
        table = device_table(
            tmp_path,
            "A,LE_PPC,x,3.7464,,,727.7,82.2,2.42,920e-6,",
            "B,LE_IDC,x,6.3798,,,34.7,0,1.87,8.9e-6,",
            "C,CPW,x,4.5548,,,,,,8.42e-6,",
        )
        assert run("extract", "--input", table, "--out", tmp_path / "o") == EXIT_INPUT
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "IDC device" in report["message"]


    @pytest.mark.parametrize("rows, design", [
        (("A,LE_PPC,x,3.7464,,,727.7,82.2,2.42,920e-6,",
          "A2,LE_PPC,x,3.7464,,,727.7,82.2,2.42,920e-6,",
          "B,LE_IDC,x,6.3798,,,34.7,64.4,1.87,8.9e-6,",
          "C,CPW,x,4.5548,,,,,,8.42e-6,"), "LE_PPC"),
        (("A,LE_PPC,x,3.7464,,,727.7,82.2,2.42,920e-6,",
          "B,LE_IDC,x,6.3798,,,34.7,64.4,1.87,8.9e-6,"), "CPW"),
        (("A,LE_PPC,x,3.7464,,,727.7,82.2,2.42,920e-6,",
          "B,LE_IDC,x,6.3798,,,,,,8.9e-6,",
          "C,CPW,x,4.5548,,,,,,8.42e-6,"), "IDC"),
    ], ids=["two-ppc-rows", "no-cpw-row", "idc-without-circuit"])
    def test_row_rule_names_table_and_design(self, tmp_path, capsys, rows, design):
        table = device_table(tmp_path, *rows)
        assert run("extract", "--input", table, "--out", tmp_path / "ext") == EXIT_INPUT
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert message.startswith(f"{table}: ") and design in message
        assert not (tmp_path / "ext").exists()

    def test_relabelled_identical_circuits_exit(self, tmp_path, capsys):
        doc = table1_doc()
        ppc, idc = doc["devices"][:2]
        idc.update({key: ppc[key] for key in ("L_nH", "C_C_fF", "C_L_fF")})
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        assert run("extract", "--input", table, "--out", tmp_path / "ext") == EXIT_INPUT
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
        assert message.startswith(f"{table}: ") and "distinct" in message
        assert not (tmp_path / "ext").exists()


class TestErrorMapCommand:
    def test_default_map(self, tmp_path):
        out = tmp_path / "map"
        assert run("error-map", "--out", out, "--grid", "1e-7:1e-1:41") == EXIT_OK
        lines = [l for l in (out / "error_map.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 42  # header plus grid rows
        # at the lossy-capacitor end every curve sits near the
        # participation asymptote 0.102/0.898 = 0.1136
        last = [abs(float(v)) for v in lines[-1].split(",")[1:]]
        for value in last:
            assert value == pytest.approx(0.1136, abs=2e-3)
        summary = json.loads((out / "error_map_summary.json").read_text())
        assert summary["axis"] == "inductor_loss"
        for curve in summary["curves"]:
            assert curve["asymptote"] == pytest.approx(0.102 / 0.898, rel=1e-9)

    def test_participation_axis(self, tmp_path):
        out = tmp_path / "map"
        assert run("error-map", "--out", out, "--axis", "participation",
                   "--grid", "1e-6:1e-2:11", "--curves", "0.01,0.102") == EXIT_OK
        summary = json.loads((out / "error_map_summary.json").read_text())
        asymptotes = [c["asymptote"] for c in summary["curves"]]
        assert asymptotes[0] == pytest.approx(0.01 / 0.99, rel=1e-9)
        assert asymptotes[1] == pytest.approx(0.102 / 0.898, rel=1e-9)

    def test_takes_no_input(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("error-map", "--input", "x", "--out", tmp_path)
        assert info.value.code == 2

    def test_bad_grid_exit(self, tmp_path):
        assert run("error-map", "--out", tmp_path, "--grid", "5:1:9") == EXIT_RANGE
        assert run("error-map", "--out", tmp_path, "--grid", "1e-7:1e-1:1") == EXIT_RANGE

    def test_unparsable_grid_exit(self, tmp_path, capsys):
        out = tmp_path / "map"
        assert run("error-map", "--out", out, "--grid", "abc") == EXIT_RANGE
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["message"] == "grid must be lo:hi:npts, got 'abc'"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1e-7:inf:5", "1e-7:nan:5", "inf:inf:5"])
    def test_non_finite_grid_bound_writes_nothing(self, tmp_path, capsys, grid):
        out = tmp_path / "map"
        assert run("error-map", "--out", out, "--grid", grid) == EXIT_RANGE
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "finite" in report["message"]
        assert not out.exists()

    def test_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("error-map", "--out", out, "--grid", "1e-7:1e-1:21") == EXIT_OK
        assert (a / "error_map.csv").read_bytes() == (b / "error_map.csv").read_bytes()


class TestMalformedInput:
    """Input and parse problems exit 2 with a JSON error report on stderr."""

    def assert_input_error(self, status, capsys):
        assert status == EXIT_INPUT
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["exit_status"] == EXIT_INPUT
        assert report["error"] == "ValueError"
        return report

    def test_fit_s21_bad_baseline(self, tmp_path, capsys):
        for text in ("abc", "1,2,3"):
            status = run("fit-s21", "--input", tmp_path, "--baseline", text,
                         "--out", tmp_path / "fits")
            message = self.assert_input_error(status, capsys)["message"]
            assert message == f"--baseline must be re,im, got {text!r}"

    def test_error_map_bad_curves(self, tmp_path, capsys):
        status = run("error-map", "--curves", "a,b", "--out", tmp_path)
        message = self.assert_input_error(status, capsys)["message"]
        assert message == "--curves must be comma-separated numbers, got 'a,b'"

    def test_fit_s21_directory_without_sweeps(self, tmp_path, capsys):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "notes.txt").write_text("no sweeps here\n")
        status = run("fit-s21", "--input", tmp_path / "in", "--out", tmp_path / "fits")
        assert status == EXIT_INPUT
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["message"] == "no sweep files found among the inputs"
        assert not (tmp_path / "fits").exists()

    def test_fit_tls_takes_no_bundled_fixture(self, tmp_path, capsys, monkeypatch):
        # Only extract's device table may name a bundled fixture.
        monkeypatch.chdir(tmp_path)
        status = run("fit-tls", "--input", "table1", "--out", tmp_path / "tls")
        assert status == EXIT_INPUT
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "FileNotFoundError"
        assert report["message"] == "input 'table1' does not exist"
        assert not (tmp_path / "tls").exists()

    def test_fit_tls_short_row(self, tmp_path, capsys):
        path = tmp_path / "power.csv"
        path.write_text("# f0_GHz = 4.5\n# T_K = 0.1\nphoton_number,loss,loss_sigma\n1e-2\n")
        status = run("fit-tls", "--input", path, "--out", tmp_path / "tls")
        assert str(path) in self.assert_input_error(status, capsys)["message"]

    # Earlier writers put '# fractional = false' in every power sweep; a true
    # value marked the photon axis as n/n_c, which is no longer fitted.
    def test_fit_tls_legacy_fractional_header(self, tmp_path, capsys):
        points = [PowerSweepPoint(float(n), float(1e-6 + 1e-4 / (1 + n) ** 0.5), 1e-7)
                  for n in np.geomspace(1e-2, 1e4, 12)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=4.5e9, temperature=0.1)
        assert run("fit-tls", "--input", path, "--out", tmp_path / "now") == EXIT_OK
        text = path.read_text()
        path.write_text(text.replace("# T_K", "# fractional = false\n# T_K"))
        assert run("fit-tls", "--input", path, "--out", tmp_path / "legacy") == EXIT_OK
        now, legacy = (json.loads((tmp_path / d / "fit_tls.json").read_text())
                       for d in ("now", "legacy"))
        assert legacy["input_files"] != now["input_files"]
        assert {**legacy, "input_files": None} == {**now, "input_files": None}

        path.write_text(text.replace("# T_K", "# fractional = True\n# T_K"))
        status = run("fit-tls", "--input", path, "--out", tmp_path / "true")
        assert "not n/n_c" in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "true").exists()

    @pytest.mark.parametrize("meta, cells, match", [
        (("abc", "0.1"), lambda k: ("2e-5", "1e-7"), "could not convert"),
        (("4.5", "0.1"), lambda k: ("2e-5", "1e-7") if k else ("2e-5",), "number of columns"),
        (("4.5", "0.1"), lambda k: ("2e-5", "1e-7" if k else ""), "could not convert string ''"),
        (("4.5", "0.1"), lambda k: ("nan" if k == 3 else "2e-5", "1e-7"), "loss must be finite"),
        (("4.5", "0.1"), lambda k: ("inf" if k == 3 else "2e-5", "1e-7"), "loss must be finite"),
        (("4.5", "0.1"), lambda k: ("2e-5", "inf"), "loss_sigma must be finite"),
        (("inf", "0.1"), lambda k: ("2e-5", "1e-7"), "must be finite and > 0"),
        (("nan", "0.1"), lambda k: ("2e-5", "1e-7"), "must be finite and > 0"),
        (("4.5", "inf"), lambda k: ("2e-5", "1e-7"), "must be finite and > 0"),
        (("4.5", "nan"), lambda k: ("2e-5", "1e-7"), "must be finite and > 0"),
    ], ids=["metadata", "ragged", "blank", "nan-loss", "inf-loss", "inf-sigmas",
            "inf-f0", "nan-f0", "inf-T", "nan-T"])
    def test_fit_tls_read_error_names_file(self, tmp_path, capsys, meta, cells, match):
        path = tmp_path / "power.csv"
        path.write_text("# f0_GHz = {}\n# T_K = {}\nphoton_number,loss,loss_sigma\n".format(*meta)
                        + "".join(",".join((f"{10.0 ** (k - 2)}", *cells(k))) + "\n"
                                  for k in range(8)))
        status = run("fit-tls", "--input", path, "--out", tmp_path / "tls")
        message = self.assert_input_error(status, capsys)["message"]
        assert message.startswith(f"{path}: ") and match in message
        assert not (tmp_path / "tls").exists()

    @pytest.mark.parametrize("photons, sigma, match", [
        (np.geomspace(1e-2, 1e4, 4), lambda k: 1e-7, "at least 5 points"),
        (np.geomspace(1.0, 50.0, 8), lambda k: 1e-7, "two decades"),
        (np.geomspace(1e-2, 1e4, 8), lambda k: 0.0 if k == 3 else 1e-7, "loss_sigma is 0"),
    ], ids=["four-points", "one-decade", "some-sigmas-zero"])
    def test_fit_tls_refused_point_set_names_file(self, tmp_path, capsys, photons, sigma, match):
        points = [PowerSweepPoint(float(n), float(1e-6 + 1e-4 / (1 + n) ** 0.5), sigma(k))
                  for k, n in enumerate(photons)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=4.5e9, temperature=0.1)
        status = run("fit-tls", "--input", path, "--out", tmp_path / "tls")
        message = self.assert_input_error(status, capsys)["message"]
        assert message.startswith(f"{path}: ") and match in message
        assert not (tmp_path / "tls").exists()

    def test_extract_csv_row_error_names_file(self, tmp_path, capsys):
        table = device_table(
            tmp_path,
            "A,LE_PPC,x,3.7464,,,727.7,82.2,2.42,920e-6,",
            "B,LE_IDC,x,-6.3798,,,34.7,64.4,1.87,8.9e-6,",
            "C,CPW,x,4.5548,,,,,,8.42e-6,",
        )
        status = run("extract", "--input", table, "--out", tmp_path / "ext")
        assert str(table) in self.assert_input_error(status, capsys)["message"]

    @pytest.mark.parametrize("loss_err", ["nan", "inf"])
    def test_extract_non_finite_loss_err(self, tmp_path, capsys, loss_err):
        table = device_table(
            tmp_path,
            f"A,LE_PPC,x,3.7464,,,727.7,82.2,2.42,920e-6,{loss_err}",
            "B,LE_IDC,x,6.3798,,,34.7,64.4,1.87,8.9e-6,",
            "C,CPW,x,4.5548,,,,,,8.42e-6,",
        )
        status = run("extract", "--input", table, "--out", tmp_path / "ext")
        assert "finite" in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "ext").exists()

    @pytest.mark.parametrize("option, value", [
        ("--threshold", "nan"),
        ("--threshold", "inf"),
        ("--curves", "1e-5,nan"),
        ("--fixed", "nan"),
    ])
    def test_error_map_non_finite_value(self, tmp_path, capsys, option, value):
        status = run("error-map", option, value, "--out", tmp_path / "map")
        assert "finite" in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "map").exists()

    @pytest.mark.parametrize("option, value", [
        ("--delay", "nan"), ("--delay", "inf"), ("--baseline", "nan,0"),
    ])
    def test_fit_s21_non_finite_calibration(self, tmp_path, capsys, option, value):
        write_sweep(tmp_path / "in" / "sweep_000.csv", model_sweep(4.5e9, 1e5, 5e4, 0.1))
        status = run("fit-s21", "--input", tmp_path / "in", option, value,
                     "--out", tmp_path / "fits")
        assert "must be finite" in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "fits").exists()

    @pytest.mark.parametrize("baseline", ["inf", "0,inf"])
    def test_fit_s21_infinite_baseline_returns(self, tmp_path, baseline):
        # An infinite trace can make np.linalg.lstsq spin without returning;
        # the subprocess timeout turns such a hang into a test failure.
        write_sweep(tmp_path / "in" / "sweep_000.csv", model_sweep(4.5e9, 1e5, 5e4, 0.1))
        env = {**os.environ, "PYTHONPATH": str(Path(resloss.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "resloss.cli", "fit-s21", "--input", str(tmp_path / "in"),
             "--baseline", baseline, "--out", str(tmp_path / "fits")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INPUT
        report = json.loads(proc.stderr.strip().splitlines()[-1])
        assert report["error"] == "ValueError" and "must be finite" in report["message"]

    @pytest.mark.parametrize("key, value", [
        ("temperature_K", "nan"), ("temperature_K", "inf"), ("temperature_K", "0"),
        ("power_dbm", "inf"), ("power_dbm", "nan"),
    ])
    def test_fit_s21_bad_metadata_names_file(self, tmp_path, capsys, key, value):
        path = tmp_path / "sweep.csv"
        write_sweep(path, model_sweep(4.5e9, 1e5, 5e4, 0.1))
        lines = [f"# {key} = {value}" if line.startswith(f"# {key} =") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        status = run("fit-s21", "--input", path, "--out", tmp_path / "fits")
        message = self.assert_input_error(status, capsys)["message"]
        assert message.startswith(f"{path}: ") and "finite and > 0" in message
        assert not (tmp_path / "fits").exists()

    @pytest.mark.parametrize("dip_hz", [-2e5, 0.0])
    def test_fit_s21_non_positive_frequencies_names_file(self, tmp_path, capsys, dip_hz):
        # a dip on a -1 to +1 MHz axis: the sweep is refused when read,
        # before any fit iterate can reach f0 <= 0
        f = np.linspace(-1e6, 1e6, 201)
        z = 1.0 - 0.5 / (1.0 + 2j * (f - dip_hz) / 1e5)
        path = tmp_path / "sweep.csv"
        path.write_text("# power_dbm = -120\n# temperature_K = 0.1\nfrequency_hz,re_s21,im_s21\n"
                        + "".join(f"{x!r},{w.real!r},{w.imag!r}\n" for x, w in zip(f.tolist(), z.tolist())))
        status = run("fit-s21", "--input", path, "--out", tmp_path / "fits")
        message = self.assert_input_error(status, capsys)["message"]
        assert str(path) in message and "frequencies must be > 0" in message
        assert not (tmp_path / "fits").exists()

    def test_fit_s21_short_row_names_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        write_sweep(path, model_sweep(4.5e9, 1e5, 5e4, 0.1))
        path.write_text(path.read_text() + "4.6e9\n")
        status = run("fit-s21", "--input", path, "--out", tmp_path / "fits")
        assert str(path) in self.assert_input_error(status, capsys)["message"]

    def test_fit_s21_rejects_mixed_temperatures(self, tmp_path, capsys):
        for i, temperature in enumerate((0.1, 0.2)):
            write_sweep(tmp_path / "in" / f"sweep_{i:03d}.csv",
                        model_sweep(4.5e9, 1e5, 5e4, 0.1, temperature=temperature))
        status = run("fit-s21", "--input", tmp_path / "in", "--out", tmp_path / "fits")
        assert "temperature" in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "fits").exists()

    def test_synth_scalar_baseline(self, tmp_path, capsys):
        truth = {
            "f0": 4.5e9, "q_c": 2e4, "f_tan_delta0": 1e-5, "n_c": 5.0,
            "q_hp": 1e6, "temperature": 0.1, "span": 3e6, "n_points": 64,
            "powers": [1e-15], "baseline": 0.8,
        }
        config = tmp_path / "truth.json"
        config.write_text(json.dumps(truth))
        status = run("synth", "--input", config, "--out", tmp_path / "out")
        assert "[re, im]" in self.assert_input_error(status, capsys)["message"]


    TRUTH = {
        "f0": 4.5e9, "q_c": 2e4, "f_tan_delta0": 1e-5, "n_c": 5.0,
        "q_hp": 1e6, "temperature": 0.1, "span": 3e6, "n_points": 64,
        "powers": [1e-15], "baseline": [0.8, 0.3], "seed": 1,
    }

    @pytest.mark.parametrize("field, value", [
        ("f0", [1.0]),
        ("n_points", [64]),
        ("seed", {"value": 1}),
        ("powers", 1e-15),
        ("baseline", ["a", "b"]),
        ("n_points", 100.7),
        ("seed", 2.5),
        ("seed", True),
        ("seed", math.inf),
        ("temperature", True),
        ("q_c", math.inf),
        ("s21_sigma", math.nan),
        ("loss_rel_sigma", math.inf),
        ("powers", [1e-15, math.inf]),
        ("phi", math.nan),
        ("q_c", "3e3"),
    ])
    def test_synth_field_of_wrong_json_type(self, tmp_path, capsys, field, value):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps({**self.TRUTH, field: value}))
        status = run("synth", "--input", config, "--out", tmp_path / "out")
        assert field in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["f0", "q_c", "f_tan_delta0", "n_c", "q_hp",
                                       "temperature", "span", "n_points", "powers"])
    def test_synth_missing_field_names_file(self, tmp_path, capsys, field):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps({k: v for k, v in self.TRUTH.items() if k != field}))
        status = run("synth", "--input", config, "--out", tmp_path / "out")
        message = self.assert_input_error(status, capsys)["message"]
        assert message == f"{config}: missing field {field!r}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["s21_sgima", "Q_c"])
    def test_synth_unknown_field_names_file(self, tmp_path, capsys, field):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps({**self.TRUTH, field: 1e-3}))
        status = run("synth", "--input", config, "--out", tmp_path / "out")
        message = self.assert_input_error(status, capsys)["message"]
        assert message == f"{config}: unknown truth field {field!r}"
        assert not (tmp_path / "out").exists()

    def test_synth_truth_not_an_object(self, tmp_path, capsys):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps([self.TRUTH]))
        status = run("synth", "--input", config, "--out", tmp_path / "out")
        message = self.assert_input_error(status, capsys)["message"]
        assert message == f"{config}: truth must be a JSON object"
        assert not (tmp_path / "out").exists()

    def test_synth_truth_error_names_file(self, tmp_path, capsys):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps({**self.TRUTH, "n_points": 8}))
        status = run("synth", "--input", config, "--out", tmp_path / "out")
        message = self.assert_input_error(status, capsys)["message"]
        assert message == f"{config}: need at least 16 points per sweep, got 8"

    # A JSON number field takes a JSON number, not a string that parses as one.
    def test_fit_report_string_number_field(self, tmp_path, capsys):
        report = tmp_path / "fit_tls.json"
        report.write_text(json.dumps({"params": {"f_tan_delta0": "9.2e-4"}}))
        status = run("extract", "--input", "table1", "--ppc-fit", report,
                     "--out", tmp_path / "ext")
        message = self.assert_input_error(status, capsys)["message"]
        assert message.startswith(f"{report}: f_tan_delta0")
        assert not (tmp_path / "ext").exists()

    def test_synth_integral_float_count(self, tmp_path):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps({**self.TRUTH, "n_points": 64.0, "seed": 1.0}))
        assert run("synth", "--input", config, "--out", tmp_path / "out") == EXIT_OK
        rows = (tmp_path / "out" / "sweep_000.csv").read_text().splitlines()
        assert len([row for row in rows if row[0].isdigit()]) == 64

    # The noise generator's key holds a 64-bit seed; a wider one would alias another.
    @pytest.mark.parametrize("seed, option", [(-1, True), (2**64, False)])
    def test_synth_seed_out_of_range(self, tmp_path, capsys, seed, option):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps({**self.TRUTH, "s21_sigma": 1e-3,
                                      **({} if option else {"seed": seed})}))
        status = run("synth", "--input", config, *(["--seed", seed] if option else []),
                     "--out", tmp_path / "out")
        assert "seed" in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_synth_seed_at_range_ends(self, tmp_path, seed):
        config = tmp_path / "truth.json"
        config.write_text(json.dumps({**self.TRUTH, "s21_sigma": 1e-3, "seed": seed}))
        assert run("synth", "--input", config, "--out", tmp_path / "out") == EXIT_OK
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["truth"]["seed"] == seed

    @pytest.mark.parametrize("field, value", [
        ("f0_GHz", [3.7464]),
        ("C_C_fF", [727.7]),
        ("loss", {"value": 920e-6}),
        ("loss", True),
        ("C_C_fF", "727.7"),
    ])
    def test_device_table_field_of_wrong_json_type(self, tmp_path, capsys, field, value):
        doc = table1_doc()
        doc["devices"][0][field] = value
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        status = run("extract", "--input", table, "--out", tmp_path / "ext")
        assert field in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "ext").exists()

    def test_csv_device_table_cell_not_a_number(self, tmp_path, capsys):
        table = device_table(
            tmp_path,
            "A,LE_PPC,x,3.7464,,,abc,82.2,2.42,920e-6,",
            "B,LE_IDC,x,6.3798,,,34.7,64.4,1.87,8.9e-6,",
            "C,CPW,x,4.5548,,,,,,8.42e-6,",
        )
        status = run("extract", "--input", table, "--out", tmp_path / "ext")
        message = self.assert_input_error(status, capsys)["message"]
        assert message == f"{table}: device field 'C_C_fF' must be a number, got 'abc'"
        assert not (tmp_path / "ext").exists()

    def test_device_table_entry_not_an_object(self, tmp_path, capsys):
        doc = table1_doc()
        doc["devices"][0] = ["LE_PPC", 3.7464]
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        status = run("extract", "--input", table, "--out", tmp_path / "ext")
        self.assert_input_error(status, capsys)

    def test_fit_report_not_json_names_report(self, tmp_path, capsys):
        report = tmp_path / "fit_tls.json"
        report.write_text("photon_number,loss\n1,1e-5\n")
        status = run("extract", "--input", "table1", "--ppc-fit", report,
                     "--out", tmp_path / "ext")
        assert self.assert_input_error(status, capsys)["message"].startswith(f"{report}: ")
        assert not (tmp_path / "ext").exists()

    def test_fit_report_value_of_wrong_json_type(self, tmp_path, capsys):
        report = tmp_path / "fit_tls.json"
        report.write_text(json.dumps({"params": {"f_tan_delta0": [9.2e-4]}}))
        status = run("extract", "--input", "table1", "--ppc-fit", report,
                     "--out", tmp_path / "ext")
        self.assert_input_error(status, capsys)

    @pytest.mark.parametrize("doc", [
        [1],
        {"params": []},
        {"params": None},
        {"params": {"f_tan_delta0": 9.2e-4}, "uncertainties": []},
        {"params": {}},
    ], ids=["top-list", "params-list", "params-null", "uncertainties-list", "params-empty"])
    def test_fit_report_block_of_wrong_json_type(self, tmp_path, capsys, doc):
        report = tmp_path / "fit_tls.json"
        report.write_text(json.dumps(doc))
        status = run("extract", "--input", "table1", "--ppc-fit", report,
                     "--out", tmp_path / "ext")
        assert str(report) in self.assert_input_error(status, capsys)["message"]
        assert not (tmp_path / "ext").exists()

    def test_reference_value_of_wrong_json_type(self, tmp_path, capsys):
        doc = table1_doc()
        doc["reference"]["inductor_loss"] = [1.12e-5]
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        status = run("extract", "--input", table, "--out", tmp_path / "ext")
        message = self.assert_input_error(status, capsys)["message"]
        assert message == f"{table}: reference inductor_loss must be a number, got [1.12e-05]"


class TestImportGuard:
    def test_no_command_imports_scipy(self, tmp_path):
        # Every subcommand in one fresh interpreter; scipy is a test-only
        # dependency and must stay out of the runtime.
        script = textwrap.dedent("""
            import json, sys
            import numpy as np
            from resloss.cli import main

            truth = {
                "f0": 3.7464e9, "q_c": 3e3, "phi": 0.05, "f_tan_delta0": 9.2e-4,
                "n_c": 10.0, "q_hp": 1e6, "temperature": 0.1, "span": 7.5e7,
                "n_points": 64, "powers": list(np.geomspace(1e-18, 1e-13, 11)),
            }
            with open("truth.json", "w") as handle:
                json.dump(truth, handle)
            commands = [
                ["synth", "--input", "truth.json", "--out", "fix"],
                ["fit-s21", "--input", "fix", "--out", "s21"],
                ["fit-tls", "--input", "s21/power_sweep.csv", "--out", "tls"],
                ["extract", "--input", "table1", "--ppc-fit", "tls/fit_tls.json", "--out", "ext"],
                ["error-map", "--grid", "1e-7:1e-1:11", "--out", "map"],
            ]
            statuses = [main(argv) for argv in commands]
            scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print(json.dumps({"statuses": statuses, "scipy": scipy}))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(resloss.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["statuses"] == [EXIT_OK] * 5
        assert result["scipy"] == []

    @pytest.fixture(scope="class")
    def fixtures(self, tmp_path_factory):
        """A small synth and fit-s21 output for the fit commands to read."""
        base = tmp_path_factory.mktemp("commands")
        truth = base / "truth.json"
        truth.write_text(json.dumps({
            "f0": 3.7464e9, "q_c": 3e3, "phi": 0.05, "f_tan_delta0": 9.2e-4,
            "n_c": 10.0, "q_hp": 1e6, "temperature": 0.1, "span": 7.5e7,
            "n_points": 64, "powers": list(np.geomspace(1e-18, 1e-13, 11)),
        }))
        assert run("synth", "--input", truth, "--out", base / "fix") == EXIT_OK
        assert run("fit-s21", "--input", base / "fix", "--out", base / "s21") == EXIT_OK
        return base

    # Each command in a fresh interpreter, with the modules it must not load.
    @pytest.mark.parametrize("argv, absent", [
        (["extract", "--input", "table1"],
         ["numpy", "resloss.s21", "resloss.tls", "resloss.synth", "resloss.error_analysis"]),
        (["error-map", "--grid", "1e-7:1e-1:11"], ["resloss.s21", "resloss.tls", "resloss.synth"]),
        (["fit-tls", "--input", "s21/power_sweep.csv"], ["resloss.synth", "resloss.error_analysis"]),
        (["fit-s21", "--input", "fix"], ["resloss.synth", "resloss.error_analysis"]),
        (["synth", "--input", "truth.json"], []),
    ], ids=["extract", "error-map", "fit-tls", "fit-s21", "synth"])
    def test_command_loads_only_what_it_runs(self, fixtures, argv, absent):
        script = """
            import json, sys
            from resloss.cli import main

            status = main(sys.argv[1:])
            print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
        """
        result = run_fresh(script, *argv, "--out", f"out_{argv[0]}", cwd=fixtures)
        assert result["status"] == EXIT_OK
        loaded = [m for m in result["modules"]
                  if any(m == name or m.startswith(name + ".") for name in absent + ["scipy"])]
        assert loaded == []

    def test_package_names_resolve_lazily(self):
        import importlib

        submodules = sorted(p.stem for p in Path(resloss.__file__).parent.glob("*.py")
                            if p.stem != "__init__")
        modules = [importlib.import_module(f"resloss.{name}") for name in submodules]
        for name in resloss.__all__:
            value = getattr(resloss, name)
            homes = [m for m in modules if name in vars(m)]
            assert homes and all(vars(m)[name] is value for m in homes), name
        assert set(resloss.__all__) <= set(dir(resloss))
        with pytest.raises(AttributeError, match="no_such_name"):
            resloss.no_such_name

        # After a bare import, every submodule is an attribute of the package,
        # and none of them, nor numpy, is loaded before it is asked for.
        script = """
            import json, sys, types
            import resloss

            loaded = sorted(m for m in sys.modules if m.startswith(("resloss.", "numpy")))
            reachable = [isinstance(getattr(resloss, name), types.ModuleType)
                         for name in sys.argv[1:]]
            print(json.dumps({"loaded": loaded, "reachable": reachable}))
        """
        result = run_fresh(script, *submodules)
        assert result == {"loaded": [], "reachable": [True] * len(submodules)}


class TestOutputModes:
    def test_outputs_follow_the_umask(self, tmp_path):
        # The umask is set only inside the child.
        script = """
            import json, os
            from resloss.cli import main

            statuses, modes = [], {}
            for mask in (0o022, 0o077):
                os.umask(mask)
                out = f"out_{mask:03o}"
                for argv in (["extract", "--input", "table1"],
                             ["error-map", "--grid", "1e-7:1e-1:11"]):
                    statuses.append(main([*argv, "--out", out]))
                modes[f"{mask:03o}"] = sorted({oct(os.stat(os.path.join(out, name)).st_mode & 0o777)
                                               for name in os.listdir(out)})
            print(json.dumps({"statuses": statuses, "modes": modes}))
        """
        result = run_fresh(script, cwd=tmp_path)
        assert result == {"statuses": [EXIT_OK] * 4,
                          "modes": {"022": ["0o644"], "077": ["0o600"]}}


class TestProvenance:
    def test_reports_embed_version_and_digests(self, tmp_path):
        out = tmp_path / "ext"
        assert run("extract", "--input", "table1", "--out", out) == EXIT_OK
        report = json.loads((out / "extract.json").read_text())
        assert report["tool_version"] == resloss.__version__
        assert report["input_files"][0]["digest"].startswith("sha256:")

    def test_bundled_table_recorded_by_name(self, tmp_path):
        # The install path of the package data stays out of the report.
        out = tmp_path / "ext"
        assert run("extract", "--input", "table1", "--out", out) == EXIT_OK
        report = json.loads((out / "extract.json").read_text())
        table = Path(resloss.__file__).parent / "data" / "table1.json"
        digest = "sha256:" + hashlib.sha256(table.read_bytes()).hexdigest()
        assert report["input_files"] == [{"path": "builtin:table1", "digest": digest}]
        assert str(table.parent) not in (out / "extract.json").read_text()

    def test_fit_s21_digests_each_sweep_once(self, tmp_path, monkeypatch):
        # One digest per sweep serves both fit_s21.json and power_sweep.csv.
        paths = []
        for i, power in enumerate(np.geomspace(1e-17, 1e-14, 4)):
            paths.append(tmp_path / "in" / f"sweep_{i:03d}.csv")
            write_sweep(paths[-1], model_sweep(4.5e9, 1e5, 5e4, 0.1, power=power))
        digested = []
        sha256_digest = fileio.sha256_digest
        monkeypatch.setattr(fileio, "sha256_digest",
                            lambda path: digested.append(Path(path)) or sha256_digest(path))
        assert run("fit-s21", "--input", tmp_path / "in", "--out", tmp_path / "fits") == EXIT_OK
        assert digested == paths
        report = json.loads((tmp_path / "fits" / "fit_s21.json").read_text())
        meta = (tmp_path / "fits" / "power_sweep.csv").read_text().splitlines()
        assert [f"# input_digest_{i} = {entry['digest']}"
                for i, entry in enumerate(report["input_files"])] == meta[3:3 + len(paths)]


# SHA-256 of every report of the fit chain on the seed-3 three-device
# truths (11 powers x 201 points), run from relative paths. A change to
# the fit arithmetic moves these on purpose or not at all.
GOLDEN_REPORTS = {
    "ppc/s21/fit_s21.json": "21688d1e8ebd16c9c05cd8c5147a3269aecefe2fdfe38d930a6a5d85e3e2881e",
    "ppc/s21/power_sweep.csv": "9244b7eaff2215aa426373f42f279eb7518a3be863ffa4ae432d6adfab6a67b6",
    "ppc/fixed/fit_tls.json": "e2548e80bd7c30b2f8b01465d0e65840574625f97c75e966275e52db0884c149",
    "ppc/free/fit_tls.json": "0c2fea0eb8bd663e133372f92569c90d6b8eb10357626975da2f2659bf142a94",
    "idc/s21/fit_s21.json": "fe61b343fc7295b51b62fb7ddecfc8e67b904d01e51734a6c471f7089a5f7a1e",
    "idc/s21/power_sweep.csv": "097bd82b95095a9b27a04c209f1797d1b73f1cc944210a0cd4ae1623b39a5a8a",
    "idc/fixed/fit_tls.json": "dbc94c829744e94456bbf37c5a7cf73c09b76a642334b65517f908a20bb4a7c6",
    "cpw/s21/fit_s21.json": "1e4e898092abdfebcb5ff5ae23f8fa1a80d8d211a67b941c651cf8afb00d757a",
    "cpw/s21/power_sweep.csv": "3ab8d9d5206a51eba610301de0797d8515b0eda14d8c4c4353c3fc108668128f",
    "cpw/fixed/fit_tls.json": "8802073c55893368669848b15c6492fc71c9be2bf35b0fab08fe794f51963c5c",
    "ext/extract.json": "8679b10b00f8bbe0f9081f33e6e663e14999f3b06b1bf7df1491aef182ab504f",
}


class TestGoldenReports:
    def test_fit_chain_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # extract.json records the path of its device table
        shutil.copy(Path(resloss.__file__).parent / "data" / "table1.json", "table1.json")
        for name, truth in three_device_truths(n_powers=11, n_points=201, seed=3).items():
            for i in range(len(truth.powers)):
                write_sweep(Path(name, f"sweep_{i:03d}.csv"), generate_s21_sweep(truth, i))
            assert run("fit-s21", "--input", name, "--out", f"{name}/s21") == EXIT_OK
            assert run("fit-tls", "--input", f"{name}/s21/power_sweep.csv",
                       "--out", f"{name}/fixed") == EXIT_OK
        assert run("fit-tls", "--input", "ppc/s21/power_sweep.csv", "--beta", "free",
                   "--out", "ppc/free") == EXIT_OK
        assert run("extract", "--input", "table1.json", "--ppc-fit", "ppc/fixed/fit_tls.json",
                   "--idc-fit", "idc/fixed/fit_tls.json", "--cpw-fit", "cpw/fixed/fit_tls.json",
                   "--out", "ext") == EXIT_OK
        for path, digest in GOLDEN_REPORTS.items():
            data = Path(path).read_bytes()
            computed = hashlib.sha256(data).hexdigest()
            # A deliberate re-pin copies the computed digest of the report shown.
            assert computed == digest, f"{path}: computed {computed}\n{data.decode()}"
