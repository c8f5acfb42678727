import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from helpers import device_a_truth
from resloss import ComplexSweep, DesignKind, PowerSweepPoint, generate_s21_sweep
from resloss.fileio import (
    _BLOCK_CELLS,
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
    write_table,
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

    @pytest.mark.parametrize("reader, rows, match", [
        (read_sweep, "1,2,3\n4,5,6\n7,8\n", "number of columns changed from 3 to 2 at line 9;"),
        (read_sweep, "1,2,3\n4,,6\n", "could not convert string '' to float64 at line 8,"),
        # an open quote would run on into the next line and join the two rows
        (read_sweep, '1,2,3\n4,0.505,"0.1\n2"\n7,8,9\n', "quoted cell is left open at line 8$"),
        (read_power_sweep, "1,2,3\n\n4,5,6\n7,8\n", "columns changed from 3 to 2 at line 10;"),
        (read_power_sweep, "1,2,3\n# note\n4,5,,\n", "columns changed from 3 to 4 at line 9;"),
        (read_power_sweep, "1,2,3\n4,x,6\n", "could not convert string 'x' to float64 at line 8,"),
        # cells that Python's float() takes and numpy's parser does not
        (read_power_sweep, "1,2,3\n4,1_0,6\n", "convert string '1_0' to float64 at line 8, column 2."),
        (read_power_sweep, "1,2,3\n\uff14,5,6\n", "to float64 at line 8, column 1."),
    ])
    def test_bad_row_names_the_file_line(self, tmp_path, reader, rows, match):
        # lines 1-4 metadata, 5 the header, 6 blank; rows start at line 7
        path = tmp_path / "table.csv"
        path.write_text("# power_dbm = -100\n# temperature_K = 0.1\n# f0_GHz = 4.5\n# T_K = 0.1\n"
                        "a,b,c\n\n" + rows)
        with pytest.raises(ValueError, match=match):
            reader(path)

    @pytest.mark.parametrize("text, match", [
        ("1,2,3\n\n4,5\n", "columns changed from 3 to 2 at line 5;"),
        ("1,2,3\n\n4,,6\n", "convert string '' to float64 at line 5,"),
    ])
    def test_bad_row_line_without_header(self, tmp_path, text, match):
        path = tmp_path / "sweep.csv"
        path.write_text("# power_dbm = -100\n# temperature_K = 0.1\n" + text)
        with pytest.raises(ValueError, match=match):
            read_sweep(path)


class TestPowerSweepFiles:
    def test_round_trip_with_flags(self, tmp_path):
        points = [PowerSweepPoint(10.0 ** k, 1e-5 * (k + 2), 1e-8) for k in range(5)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=3.7464e9, temperature=0.1)
        back, f0, temperature = read_power_sweep(path)
        assert f0 == pytest.approx(3.7464e9, rel=1e-12)
        assert temperature == 0.1
        assert [p.photons for p in back] == [p.photons for p in points]
        assert [p.loss for p in back] == [p.loss for p in points]

    def test_default_not_fractional(self, tmp_path):
        points = [PowerSweepPoint(1.0, 1e-5)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=5e9, temperature=0.1)
        assert "fractional" not in path.read_text()
        assert read_power_sweep(path) == (points, 5e9, 0.1)

    # Earlier writers put a '# fractional' line in every power sweep; a
    # true value marked the photon axis as n/n_c, which is no longer fitted.
    @pytest.mark.parametrize("value", ["false", "False", "0", "no", "", "maybe"])
    def test_legacy_false_header_reads(self, tmp_path, value):
        path = tmp_path / "power.csv"
        path.write_text(f"# f0_GHz = 4.5\n# T_K = 0.1\n# fractional = {value}\n1e-2,2e-5,1e-7\n")
        assert read_power_sweep(path) == ([PowerSweepPoint(1e-2, 2e-5, 1e-7)], 4.5e9, 0.1)

    @pytest.mark.parametrize("value", ["true", "TRUE", "1", "Yes"])
    def test_legacy_true_header_rejected(self, tmp_path, value):
        path = tmp_path / "power.csv"
        path.write_text(f"# f0_GHz = 4.5\n# T_K = 0.1\n# fractional = {value}\n1e-2,2e-5,1e-7\n")
        with pytest.raises(ValueError, match="not n/n_c") as info:
            read_power_sweep(path)
        assert str(info.value).startswith(f"{path}: fractional = {value}:")

    def test_cells_read_as_numpy_reads_them(self, tmp_path):
        # a byte-order mark, quoted numbers, inline comments and blank lines:
        # the points are those that numpy.loadtxt reads from the same rows
        rows = ['"1e-2",2e-5,"1e-7"', "", "10, 1.5e-5 ,1e-7 # a note, with a comma",
                '"1e3","1.2e-5",0#x', "", '1e4,"9e-6", 1e-7 ']
        path = tmp_path / "power.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ("# f0_GHz = 4.5\n# T_K = 0.1\n"
                                            "photon_number,loss,loss_sigma\n"
                                            + "\n".join(rows) + "\n").encode())
        expected = np.loadtxt([row for row in rows if row], delimiter=",", quotechar='"')
        points, f0, temperature = read_power_sweep(path)
        assert [(p.photons, p.loss, p.loss_sigma) for p in points] == [
            tuple(row) for row in expected.tolist()]
        assert (f0, temperature) == (4.5e9, 0.1)

    def test_two_columns_have_zero_sigma(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text("# f0_GHz = 4.5\n# T_K = 0.1\n1e-2,2e-5\n10,1e-5\n")
        points, f0, temperature = read_power_sweep(path)
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
        ("# a = 1\nlabel,design,f0_GHz\n\nA,LE_PPC,3.7\nB,LE_IDC\n", "from 3 to 2 at line 5;"),
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


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, changes no result."""

    @staticmethod
    def marked(path):
        copy = path.with_name("bom_" + path.name)
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    def test_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep(path, generate_s21_sweep(device_a_truth(seed=3), 4))
        plain, marked = read_sweep(path), read_sweep(self.marked(path))
        assert np.array_equal(marked.frequencies, plain.frequencies)
        assert np.array_equal(marked.s21, plain.s21)
        assert (marked.power, marked.temperature) == (plain.power, plain.temperature)

    def test_power_sweep(self, tmp_path):
        path = tmp_path / "power.csv"
        write_power_sweep(path, [PowerSweepPoint(0.5, 1e-5, 2e-7), PowerSweepPoint(12.0, 7.5e-6)],
                          f0=4.5e9, temperature=0.1)
        assert read_power_sweep(self.marked(path)) == read_power_sweep(path)

    def test_device_tables(self, tmp_path):
        from importlib import resources

        table = tmp_path / "table1.json"
        table.write_bytes(resources.files("resloss").joinpath("data", "table1.json").read_bytes())
        csv = tmp_path / "devices.csv"
        csv.write_text("label,design,f0_GHz,loss\nA,LE_PPC,3.7464,9.2e-4\nC,CPW,4.5548,8.42e-6\n")
        for path in (table, csv):
            assert read_device_table(self.marked(path)) == read_device_table(path)


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

    def test_power_sweep(self, tmp_path):
        points = [PowerSweepPoint(0.5, 1e-5, 2e-7), PowerSweepPoint(12.0, 7.5e-6)]
        path = tmp_path / "power.csv"
        write_power_sweep(path, points, f0=4.5e9, temperature=0.1,
                          extra_meta={"input_digest_0": "sha256:ab"})
        assert path.read_bytes() == (
            "# f0_GHz = 4.5\n"
            "# T_K = 0.10000000000000001\n"
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
            "1.0000000000000001e-05,0,0.47862356621480701\n"
            "0.0001,-0.1010790574763268,0\n"
        ).encode()


class TestTableWriter:
    VALUES = (-0.0, 5e-324, 1e308, 0.1, 12.0)

    @pytest.mark.parametrize("columns", [1, 2, 51])
    @pytest.mark.parametrize("blocks", ["one row", "one block", "two blocks and a row"])
    def test_bytes_equal_fmt_rows(self, tmp_path, columns, blocks):
        per_block = _BLOCK_CELLS // columns
        n_rows = {"one row": 1, "one block": per_block,
                  "two blocks and a row": 2 * per_block + 1}[blocks]
        cells = np.resize(np.array(self.VALUES), (n_rows, columns))
        header = [f"c{j}" for j in range(columns)]
        path = tmp_path / "table.csv"
        write_table(path, {"k": "v", "n": fmt(0.1)}, header, cells)
        expected = "".join(f"{','.join(map(fmt, row))}\n" for row in cells.tolist())
        assert path.read_bytes() == (
            "# k = v\n# n = 0.10000000000000001\n" + ",".join(header) + "\n" + expected
        ).encode()

    @pytest.mark.parametrize("header, cells, match", [
        ([], np.zeros((3, 0)), r"rows of at least one cell, got shape \(3, 0\)"),
        (["a", "b", "c"], np.zeros(3), r"rows of at least one cell, got shape \(3,\)"),
        (["a"], np.zeros((3, 2)), "1 header names for 2 columns"),
        (["a", "b", "c"], np.zeros((3, 2)), "3 header names for 2 columns"),
    ], ids=["no-columns", "one-dimensional", "short-header", "long-header"])
    def test_refuses_a_table_it_would_write_wrongly(self, tmp_path, header, cells, match):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match=match) as info:
            write_table(path, {}, header, cells)
        assert str(info.value).startswith(f"{path}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [
        lambda path: write_table(path, {}, ["a", "b", "c"], np.zeros((0, 3))),
        lambda path: write_table(path, {}, ["a", "b", "c"], []),
        lambda path: write_power_sweep(path, [], f0=4.5e9, temperature=0.1),
    ], ids=["array", "float-rows", "power-sweep"])
    def test_refuses_a_table_with_no_rows(self, tmp_path, write):
        # _read_table refuses a file with no data rows, so none is written
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match=r"rows of at least one cell, got shape \(0,") as info:
            write(path)
        assert str(info.value).startswith(f"{path}: ")
        assert list(tmp_path.iterdir()) == []

    def test_refuses_float_rows_of_different_lengths(self, tmp_path):
        with pytest.raises(ValueError, match=r"got shape \(2, 1, 2\)"):
            write_table(tmp_path / "table.csv", {}, ["a", "b"], [[1.0, 2.0], [3.0]])
        assert list(tmp_path.iterdir()) == []

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # the 20001 x 51 table is about 21 MB of text; one block's work arrays are about 4 MB
        cells = np.random.default_rng(0).standard_normal((20001, 51))
        header = [f"c{j}" for j in range(51)]
        tracemalloc.start()
        try:
            write_table(tmp_path / "big.csv", {}, header, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 20e6
        assert peak < 8e6

    def test_failed_chunk_leaves_no_file(self, tmp_path):
        def chunks():
            yield "first\n"
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            atomic_write_text(tmp_path / "table.csv", chunks())
        assert list(tmp_path.iterdir()) == []


class TestCellFormat:
    """``write_table`` writes the bytes of ``%.17g`` per cell, on the cases that are
    hard for its numpy formatter and on the cases it passes to ``fmt``, and the
    same bytes for the cells as an array and as a list of float rows."""

    @staticmethod
    def assert_bytes_equal_percent(tmp_path, cells):
        cells = np.asarray(cells, dtype=float).reshape(len(cells), -1)
        path = tmp_path / "table.csv"
        header = [f"c{j}" for j in range(cells.shape[1])]
        write_table(path, {}, header, cells)
        write_table(tmp_path / "rows.csv", {}, header, cells.tolist())
        assert (tmp_path / "rows.csv").read_bytes() == path.read_bytes()
        row = ",".join(["%.17g"] * cells.shape[1]) + "\n"
        expected = ",".join(header) + "\n" + (row * len(cells)) % tuple(cells.ravel().tolist())
        text = path.read_text()
        if text != expected:
            got, want = text.splitlines(), expected.splitlines()
            i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                     min(len(got), len(want)))
            pytest.fail(f"line {i + 1}: {got[i:i + 1]} != {want[i:i + 1]}")

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(29).integers(0, 2**64, 10**6, dtype=np.uint64)
        self.assert_bytes_equal_percent(tmp_path, bits.view(np.float64).reshape(-1, 4))

    def test_zeros_subnormals_and_non_finite(self, tmp_path):
        tiny = np.random.default_rng(1).integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
        specials = [0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
                    1.7976931348623157e308, math.inf, math.nan, *tiny]
        bits = np.array([0x7ff8000000000001, 0xfff8000000000000], np.uint64).view(np.float64)
        self.assert_bytes_equal_percent(tmp_path, [*specials, *np.negative(specials), *bits])

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
        below = np.nextafter(powers, 0.0)
        near = [powers, below, np.nextafter(below, 0.0), np.nextafter(powers, math.inf)]
        self.assert_bytes_equal_percent(tmp_path, np.concatenate(near + [-x for x in near]))

    def test_integers_where_the_spacing_grows(self, tmp_path):
        around = np.concatenate([np.arange(c - 1000, c + 1000) for c in (2**53, 10**16, 10**17)])
        drawn = np.random.default_rng(2).integers(10**16, 10**17, 100000)
        self.assert_bytes_equal_percent(tmp_path, np.concatenate([around, drawn]).astype(float))

    def test_exact_ties_round_half_even(self, tmp_path):
        # x = M * 2**-k with M odd is N * 10**-k for N = M * 5**k, which ends in 5;
        # an 18-digit N makes x a tie between two 17-digit decimals
        rng = np.random.default_rng(3)
        ties = []
        for k in range(2, 26):
            lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
            odd = rng.integers(lo // 2, (hi - 1) // 2, 1000) * 2 + 1
            ties.extend(math.ldexp(m, -k) for m in odd.tolist())
        digits = [Decimal(x).as_tuple().digits for x in ties]
        assert all(len(d) == 18 and d[-1] == 5 for d in digits)
        self.assert_bytes_equal_percent(tmp_path, ties + [-x for x in ties])

    def test_near_ties_that_are_not_ties(self, tmp_path):
        # each within 1e-14 of a tie in units of its 17th digit, so the
        # double-double's error may take its rounding either way; found by
        # solving m * 5**k = 2**(L-1) + d (mod 2**L) for small d
        near = [4.995432289793736e-08, 4.9102966142601843e-08, 3.718397156790462e-09,
                2.460469286850939e-10, 3.009074362053087e-11, 3.587840478676006e-12,
                4.5245652880106535e-13, 5.264670116847178e-14, 4.5496061025676795e-14,
                1.2513620249891226e-14, 2.1854200494989024e-15]
        for x in near:
            scaled = Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))
            assert 0 < abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 1e-14
        self.assert_bytes_equal_percent(tmp_path, near + [-x for x in near])

    @pytest.mark.parametrize("columns", [1, 3, 51])
    def test_tables_across_a_block_edge(self, tmp_path, columns):
        rng = np.random.default_rng(columns)
        n_rows = 2 * (_BLOCK_CELLS // columns) + 1
        cells = rng.standard_normal((n_rows, columns)) * 10.0 ** rng.integers(-12, 12, (n_rows, 1))
        cells[::97, 0] = 0.0
        self.assert_bytes_equal_percent(tmp_path, cells)


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
