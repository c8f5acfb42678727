import json
import math

import numpy as np
import pytest

from helpers import device_a_truth
from resloss import ComplexSweep, DesignKind, PowerSweepPoint, generate_s21_sweep
from resloss.fileio import (
    atomic_write_json,
    atomic_write_text,
    dbm_to_watts,
    fmt,
    read_device_table,
    read_power_sweep,
    read_sweep,
    sha256_digest,
    watts_to_dbm,
    write_power_sweep,
    write_sweep,
)


class TestFormatting:
    def test_fmt_round_trips_doubles(self):
        for value in (1.0 / 3.0, 9.2e-4, 727.7e-15, math.pi, 1e-30):
            assert float(fmt(value)) == value

    def test_dbm_conversions(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watts(-30.0) == pytest.approx(1e-6, rel=1e-12)
        assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)
        back = dbm_to_watts(watts_to_dbm(3.7e-16))
        assert back == pytest.approx(3.7e-16, rel=1e-12)
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)


class TestSweepFiles:
    def test_round_trip(self, tmp_path):
        sweep = generate_s21_sweep(device_a_truth(s21_sigma=0.01, seed=3), 4)
        path = tmp_path / "sweep.csv"
        write_sweep(path, sweep)
        back = read_sweep(path)
        assert np.array_equal(back.frequencies, sweep.frequencies)
        assert np.array_equal(back.s21, sweep.s21)
        assert back.power == pytest.approx(sweep.power, rel=1e-12)
        assert back.temperature == sweep.temperature

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_hz,re_s21,im_s21\n1e9,1,0\n")
        with pytest.raises(ValueError):
            read_sweep(path)

    def sweep_text(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep(path, generate_s21_sweep(device_a_truth(seed=3), 4))
        return path, path.read_text().splitlines()

    def test_extra_columns_and_no_header_accepted(self, tmp_path):
        path, lines = self.sweep_text(tmp_path)
        expected = read_sweep(path)
        path.write_text("\n".join(lines[:2] + [line + ",7" for line in lines[3:]]))
        back = read_sweep(path)
        assert np.array_equal(back.frequencies, expected.frequencies)
        assert np.array_equal(back.s21, expected.s21)

    @pytest.mark.parametrize("edit, match", [
        (lambda row: row + ",7", "number of columns changed"),
        (lambda row: row.split(",", 1)[0] + ",,0.5", "could not convert string ''"),
    ])
    def test_bad_row_names_the_file(self, tmp_path, edit, match):
        path, lines = self.sweep_text(tmp_path)
        lines[10] = edit(lines[10])
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=match) as info:
            read_sweep(path)
        assert str(info.value).startswith(f"{path}: ")


class TestPowerSweepFiles:
    def test_round_trip_with_flags(self, tmp_path):
        points = [PowerSweepPoint(10.0 ** k, 1e-5 * (k + 2), 1e-8) for k in range(5)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=3.7464e9, temperature=0.1, fractional=True)
        back, f0, temperature, fractional = read_power_sweep(path)
        assert fractional is True
        assert f0 == pytest.approx(3.7464e9, rel=1e-12)
        assert temperature == 0.1
        assert [p.photons for p in back] == [p.photons for p in points]
        assert [p.loss for p in back] == [p.loss for p in points]

    def test_default_not_fractional(self, tmp_path):
        points = [PowerSweepPoint(1.0, 1e-5)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=5e9, temperature=0.1)
        _, _, _, fractional = read_power_sweep(path)
        assert fractional is False

    def test_two_columns_have_zero_sigma(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text("# f0_GHz = 4.5\n# T_K = 0.1\n1e-2,2e-5\n10,1e-5\n")
        points, f0, temperature, _ = read_power_sweep(path)
        assert points == [PowerSweepPoint(1e-2, 2e-5), PowerSweepPoint(10.0, 1e-5)]
        assert (f0, temperature) == (4.5e9, 0.1)

    @pytest.mark.parametrize("meta, rows, match", [
        ("", "1,2e-5,1e-7\n", "missing field 'f0_GHz'"),
        ("# f0_GHz = 4.5\n", "1\n10\n", "photon_number and loss"),
        ("# f0_GHz = 4.5\n", "inf,2e-5,1e-7\n", "photons must be finite"),
    ])
    def test_errors_name_the_file(self, tmp_path, meta, rows, match):
        path = tmp_path / "power.csv"
        path.write_text(meta + "# T_K = 0.1\nphoton_number,loss,loss_sigma\n" + rows)
        with pytest.raises(ValueError, match=match) as info:
            read_power_sweep(path)
        assert str(info.value).startswith(f"{path}: ")


class TestDeviceTables:
    def test_bundled_fixture_parses(self):
        from importlib import resources

        path = resources.files("resloss").joinpath("data", "table1.json")
        records, reference = read_device_table(str(path))
        assert len(records) == 3
        by_design = {r.design: r for r in records}
        ppc = by_design[DesignKind.LE_PPC]
        assert ppc.loss == pytest.approx(920e-6)
        assert ppc.loss_err == pytest.approx(7e-6)
        assert ppc.circuit.cap_capacitance == pytest.approx(727.7e-15)
        assert ppc.circuit.stray_capacitance == pytest.approx(82.2e-15)
        assert ppc.circuit.inductance == pytest.approx(2.42e-9)
        assert ppc.arm_pairs == 17
        assert ppc.coupling_gap == pytest.approx(3e-6)
        cpw = by_design[DesignKind.CPW]
        assert cpw.circuit is None
        assert cpw.loss == pytest.approx(8.42e-6)
        assert reference is not None
        assert reference["inductor_loss"] == pytest.approx(1.12e-5)

    def test_csv_round_trip(self, tmp_path):
        # The bundled JSON table written out as CSV, with quoted cells.
        from importlib import resources

        fixture = resources.files("resloss").joinpath("data", "table1.json")
        records, _ = read_device_table(str(fixture))
        path = tmp_path / "devices.csv"
        path.write_text(
            "# source = table1\n"
            "label,design,material,f0_GHz,N,g_c_um,C_C_fF,C_L_fF,L_nH,loss,loss_err\n"
            '"A",LE_PPC,"Al/Al2O3/Al",3.7464,17,3,727.7,82.2,2.42,920e-6,7e-6\n'
            "B,LE_IDC,Planar Al,6.3798,13,30,34.7,64.4,1.87,8.9e-6,0.1e-6\n"
            "\n"
            'C,CPW,"Planar Al",4.5548,,,,,,8.42e-6,0.06e-6\n'
        )
        back, reference = read_device_table(path)
        assert reference is None
        assert back == records

    @pytest.mark.parametrize("text, match", [
        ("1,LE_PPC,x,3.7\n", "header"),
        ("label,design,f0_GHz\nA,LE_PPC\n", "columns"),
        ("label,design,f0_GHz\nA,PPC,3.7\n", "DesignKind"),
        ("label,design,f0_GHz\nA,LE_PPC,-3.7\n", "f0 must be > 0"),
        ("label,f0_GHz\nA,3.7\n", "missing field 'design'"),
        ("label,design,f0_GHz\n", "no data rows"),
    ])
    def test_csv_errors_name_the_file(self, tmp_path, text, match):
        path = tmp_path / "devices.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            read_device_table(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_partial_circuit_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "label,design,material,f0_GHz,N,g_c_um,C_C_fF,C_L_fF,L_nH,loss,loss_err\n"
            "A,LE_PPC,Al,3.7,17,3,727.7,,2.42,9.2e-4,\n"
        )
        with pytest.raises(ValueError):
            read_device_table(path)


class TestGoldenBytes:
    """Exact bytes of each table writer on fixed inputs."""

    def test_sweep(self, tmp_path):
        k = np.arange(16)
        sweep = ComplexSweep(4.5e9 + 2.5e5 * k, (1.0 - k / 64) + 1j * (k / 8 - 1.0),
                             power=1e-15, temperature=0.1)
        path = tmp_path / "sweep.csv"
        write_sweep(path, sweep, extra_meta={"tool_version": "0.1.0"})
        rows = "".join(f"{4500000000 + 250000 * i},{re},{im}\n" for i, re, im in zip(
            k, ["1", "0.984375", "0.96875", "0.953125", "0.9375", "0.921875", "0.90625",
                "0.890625", "0.875", "0.859375", "0.84375", "0.828125", "0.8125",
                "0.796875", "0.78125", "0.765625"],
            ["-1", "-0.875", "-0.75", "-0.625", "-0.5", "-0.375", "-0.25", "-0.125",
             "0", "0.125", "0.25", "0.375", "0.5", "0.625", "0.75", "0.875"]))
        assert path.read_bytes() == (
            "# power_dbm = -120\n"
            "# temperature_K = 0.10000000000000001\n"
            "# tool_version = 0.1.0\n"
            "frequency_hz,re_s21,im_s21\n" + rows
        ).encode()

    @pytest.mark.parametrize("fractional", [False, True])
    def test_power_sweep(self, tmp_path, fractional):
        points = [PowerSweepPoint(0.5, 1e-5, 2e-7), PowerSweepPoint(12.0, 7.5e-6)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=4.5e9, temperature=0.1, fractional=fractional,
                          extra_meta={"input_digest_0": "sha256:ab"})
        assert path.read_bytes() == (
            "# f0_GHz = 4.5\n"
            "# T_K = 0.10000000000000001\n"
            f"# fractional = {'true' if fractional else 'false'}\n"
            "# input_digest_0 = sha256:ab\n"
            "photon_number,loss,loss_sigma\n"
            "0.5,1.0000000000000001e-05,1.9999999999999999e-07\n"
            "12,7.5000000000000002e-06,0\n"
        ).encode()

    def test_error_map(self, tmp_path):
        from resloss import __version__
        from resloss.cli import main

        assert main(["error-map", "--grid", "1e-6:1e-4:3", "--curves", "1e-5,1e-4",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "error_map.csv").read_bytes() == (
            f"# tool_version = {__version__}\n"
            "# axis = inductor_loss\n"
            "# fixed_value = 0.10199999999999999\n"
            "capacitor_loss,inductor_loss_1.0000000000000001e-05,inductor_loss_0.0001\n"
            "9.9999999999999995e-07,0.47862356621480701,0.90989367453595238\n"
            "9.9999999999999991e-06,1.7279472123987727e-17,0.47862356621480712\n"
            "0.0001,-0.1010790574763268,0\n"
        ).encode()


class TestAtomicWrites:
    def test_text_write_then_read(self, tmp_path):
        path = tmp_path / "out" / "file.txt"
        atomic_write_text(path, "payload\n")
        assert path.read_text() == "payload\n"

    def test_json_is_deterministic(self, tmp_path):
        obj = {"b": 2.0, "a": [1.5, {"z": 1e-30}]}
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        atomic_write_json(p1, obj)
        atomic_write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == obj

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            atomic_write_json(path, {"x": [1.0, value]})
        assert list(tmp_path.iterdir()) == []

    def test_failure_leaves_no_file(self, tmp_path):
        path = tmp_path / "never.json"

        class Boom:
            pass

        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": Boom()})
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_digest_is_stable(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"abc123")
        d1 = sha256_digest(path)
        d2 = sha256_digest(path)
        assert d1 == d2
        assert d1.startswith("sha256:")
