"""Seeded inputs, command sequences and correctness gates of each workload.

A workload prepares input sets (truth documents plus ``resloss synth``
fixtures, and for ``interactive`` the fit reports that ``extract``
consumes), then names the CLI commands of one pass. Each command carries
the commands it depends on, the outputs it writes and a gate that checks
those outputs against the generating truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

GATE_REL = 0.01  # fitted and extracted losses must sit within 1% of truth

IDC_TRUTH = {"f0": 6.3798e9, "f_tan_delta0": 8.9e-6, "q_c": 3e4, "q_hp": 1e7}
CPW_TRUTH = {"f0": 4.5548e9, "f_tan_delta0": 8.42e-6, "q_c": 3e4, "q_hp": 1e7}
DEVICES = ("ppc", "idc", "cpw")
DRESSING = {"s21_sigma": 1e-3, "delay": 50e-9, "baseline": [0.8, 0.3]}

# A command runner takes (argv after "resloss", working directory) and
# returns the exit status.
RunCommand = Callable[[list, Path], int]


class SetupError(RuntimeError):
    """A set-up command failed, so the workload has no inputs."""


@dataclass
class Op:
    """One CLI command of a pass, run from its input set's directory."""

    name: str
    argv: list[str]
    deps: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    check: Callable[[Path], str | None] | None = None
    sweeps: int = 0  # S21 sweeps this command fits


@dataclass
class InputSet:
    directory: Path
    truths: dict[str, dict]
    failed_setup: set[str] = field(default_factory=set)


def derived_seed(*parts) -> int:
    """A 63-bit seed that depends on every part, stable across platforms."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def linewidth_span(doc: dict, linewidths: float = 20.0) -> float:
    """``linewidths`` loaded linewidths at the low-power loss F*tan(delta0) + 1/q_hp."""
    loss = doc["f_tan_delta0"] + 1.0 / doc["q_hp"]
    return linewidths * doc["f0"] * (loss + 1.0 / doc["q_c"])


def device_truths(default: dict, seed_parts: tuple, **common) -> dict[str, dict]:
    """PPC, IDC and CPW truth documents sharing the ``common`` settings.

    Each device draws its noise from its own seed derived from ``seed_parts``.
    """
    truths = {"ppc": {**default, **common}}
    for name, overrides in (("idc", IDC_TRUTH), ("cpw", CPW_TRUTH)):
        doc = {**default, **common, **overrides}
        doc["span"] = linewidth_span(doc)
        truths[name] = doc
    for name, doc in truths.items():
        doc["seed"] = derived_seed(*seed_parts, name)
    return truths


def read_table(path: Path) -> dict[str, dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {row["design"]: row for row in doc["devices"]}


def closed_form_losses(table: dict[str, dict], ppc: float, idc: float, cpw: float):
    """(inductor loss, capacitor loss) from the table capacitances."""
    i_row, p_row = table["LE_IDC"], table["LE_PPC"]
    inductor = ((i_row["C_C_fF"] + i_row["C_L_fF"]) * idc - i_row["C_C_fF"] * cpw) / i_row["C_L_fF"]
    capacitor = ((p_row["C_C_fF"] + p_row["C_L_fF"]) * ppc - p_row["C_L_fF"] * inductor) / p_row["C_C_fF"]
    return inductor, capacitor


def _rel_miss(label: str, value: float, truth: float) -> str | None:
    rel = value / truth - 1.0
    if abs(rel) <= GATE_REL:
        return None
    return f"{label} {value:.6g} is {rel:+.2%} off {truth:.6g}"


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_fit_s21(report: str, n_sweeps: int):
    def check(base: Path) -> str | None:
        results = _load(base / report)["results"]
        if len(results) != n_sweeps:
            return f"{report} has {len(results)} results, expected {n_sweeps}"
        return None
    return check


def check_fit_tls(report: str, truth: float):
    def check(base: Path) -> str | None:
        return _rel_miss("F*tan(delta0)", _load(base / report)["params"]["f_tan_delta0"], truth)
    return check


def check_extract(report: str, capacitor: float):
    def check(base: Path) -> str | None:
        return _rel_miss("capacitor loss", _load(base / report)["ppc_loss"], capacitor)
    return check


def check_error_map(csv: str, n_grid: int, curves: int, fixed: float, axis: str):
    """Row and column counts, plus spot cells against the closed form."""
    def check(base: Path) -> str | None:
        lines = [ln for ln in (base / csv).read_text().splitlines() if not ln.startswith("#")]
        header, rows = lines[0].split(","), lines[1:]
        if len(rows) != n_grid or len(header) != curves + 1:
            return f"{csv} is {len(rows)}x{len(header) - 1}, expected {n_grid}x{curves}"
        for row in (rows[0], rows[len(rows) // 2], rows[-1]):
            cells = [float(c) for c in row.split(",")]
            cap = cells[0]
            for name, value in zip(header[1:], cells[1:]):
                curve = float(name.rsplit("_", 1)[1])
                ind, p = (curve, fixed) if axis == "inductor_loss" else (fixed, curve)
                expected = p * (ind - cap) / ((1.0 - p) * cap + p * ind)
                if abs(value - expected) > 1e-9 * abs(expected) + 1e-15:
                    return f"{csv} cell ({cap:.6g}, {name}) = {value!r}, expected {expected!r}"
        return None
    return check


def _write_truths(directory: Path, truths: dict[str, dict]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in truths.items():
        (directory / f"truth_{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def _synth(run: RunCommand, base: Path, name: str) -> None:
    status = run(["synth", "--input", f"truth_{name}.json", "--out", f"fix_{name}"], base)
    if status != 0:
        raise SetupError(f"synth of {name} exited {status}")


class Workload:
    name = ""
    why = ""
    n_sets = 3  # set-up runs per benchmark run; setup_s is their median

    def __init__(self, default_truth: dict, table_path: Path, small: bool):
        self.default_truth = default_truth
        self.table = read_table(table_path)
        self.small = small

    def set_for_pass(self, k: int) -> int:
        """Input set used by pass ``k``; passes reuse set 0 by default."""
        return 0

    def prepare(self, directory: Path, seed: int, index: int, run: RunCommand) -> InputSet:
        raise NotImplementedError

    def pass_ops(self, inputs: InputSet) -> list[Op]:
        raise NotImplementedError

    def recheck_ops(self, ops: list[Op]) -> list[Op]:
        """Commands rerun after measuring when no pass reused an input set."""
        return []


class Campaign(Workload):
    name = "campaign"
    why = "the paper's three-device fit-s21, fit-tls, extract chain at measurement size"

    def set_for_pass(self, k: int) -> int:
        return k % self.n_sets  # each pass draws its own noise

    def _sizes(self):
        return (11, 201) if self.small else (101, 1001)

    def prepare(self, directory, seed, index, run):
        n_powers, n_points = self._sizes()
        powers = [float(p) for p in np.geomspace(1e-18, 1e-13, n_powers)]
        truths = device_truths(self.default_truth, (self.name, seed, index),
                               powers=powers, n_points=n_points, **DRESSING)
        _write_truths(directory, truths)
        for name in DEVICES:
            _synth(run, directory, name)
        return InputSet(directory, truths)

    def pass_ops(self, inputs):
        n_powers = self._sizes()[0]
        ops = []
        for name in DEVICES:
            ops.append(Op(
                f"fit-s21 {name}",
                ["fit-s21", "--input", f"fix_{name}", "--out", f"out/s21_{name}"],
                outputs=(f"out/s21_{name}/fit_s21.json", f"out/s21_{name}/power_sweep.csv"),
                check=check_fit_s21(f"out/s21_{name}/fit_s21.json", n_powers),
                sweeps=n_powers,
            ))
        for name in DEVICES:
            ops.append(Op(
                f"fit-tls {name}",
                ["fit-tls", "--input", f"out/s21_{name}/power_sweep.csv", "--out", f"out/tls_{name}"],
                deps=(f"fit-s21 {name}",),
                outputs=(f"out/tls_{name}/fit_tls.json",),
                check=check_fit_tls(f"out/tls_{name}/fit_tls.json",
                                    inputs.truths[name]["f_tan_delta0"]),
            ))
        losses = [inputs.truths[n]["f_tan_delta0"] for n in DEVICES]
        ops.append(Op(
            "extract",
            ["extract", "--input", "table1", "--ppc-fit", "out/tls_ppc/fit_tls.json",
             "--idc-fit", "out/tls_idc/fit_tls.json", "--cpw-fit", "out/tls_cpw/fit_tls.json",
             "--out", "out/extract"],
            deps=tuple(f"fit-tls {n}" for n in DEVICES),
            outputs=("out/extract/extract.json",),
            check=check_extract("out/extract/extract.json",
                                closed_form_losses(self.table, *losses)[1]),
        ))
        return ops

    def recheck_ops(self, ops):
        # Rerunning the S21 fits would double the run; the traced run
        # compares their in-process reports with the child's instead.
        return [op for op in ops if not op.sweeps]


class Interactive(Workload):
    name = "interactive"
    why = "short extract, error-map and fit-tls commands where start-up and import dominate"
    loss_rel_sigma = 0.005
    n_powers = 21

    def prepare(self, directory, seed, index, run):
        powers = [float(p) for p in np.geomspace(1e-18, 1e-13, self.n_powers)]
        truths = device_truths(self.default_truth, (self.name, seed, index),
                               powers=powers, n_points=16, loss_rel_sigma=self.loss_rel_sigma)
        _write_truths(directory, truths)
        inputs = InputSet(directory, truths)
        for name in DEVICES:
            _synth(run, directory, name)
        for name in DEVICES:
            argv = ["fit-tls", "--input", f"fix_{name}/power_sweep.csv", "--out", f"rep_{name}"]
            if run(argv, directory) != 0:
                inputs.failed_setup.add(f"report {name}")
        return inputs

    def pass_ops(self, inputs):
        truths = inputs.truths
        table_losses = [self.table[d]["loss"] for d in ("LE_PPC", "LE_IDC", "CPW")]
        fit_losses = [truths[n]["f_tan_delta0"] for n in DEVICES]
        ppc_ftd = truths["ppc"]["f_tan_delta0"]
        return [
            Op("extract table1", ["extract", "--input", "table1", "--out", "out/x_table"],
               outputs=("out/x_table/extract.json",),
               check=check_extract("out/x_table/extract.json",
                                   closed_form_losses(self.table, *table_losses)[1])),
            Op("extract fits",
               ["extract", "--input", "table1", "--ppc-fit", "rep_ppc/fit_tls.json",
                "--idc-fit", "rep_idc/fit_tls.json", "--cpw-fit", "rep_cpw/fit_tls.json",
                "--out", "out/x_fits"],
               deps=tuple(f"report {n}" for n in DEVICES),
               outputs=("out/x_fits/extract.json",),
               check=check_extract("out/x_fits/extract.json",
                                   closed_form_losses(self.table, *fit_losses)[1])),
            Op("error-map inductor_loss", ["error-map", "--out", "out/map_l"],
               outputs=("out/map_l/error_map.csv", "out/map_l/error_map_summary.json"),
               check=check_error_map("out/map_l/error_map.csv", 61, 5, 0.102, "inductor_loss")),
            Op("error-map participation",
               ["error-map", "--axis", "participation", "--out", "out/map_p"],
               outputs=("out/map_p/error_map.csv", "out/map_p/error_map_summary.json"),
               check=check_error_map("out/map_p/error_map.csv", 61, 4, 1.12e-5, "participation")),
            Op("fit-tls fixed",
               ["fit-tls", "--input", "fix_ppc/power_sweep.csv", "--beta", "fixed",
                "--out", "out/tls_fixed"],
               outputs=("out/tls_fixed/fit_tls.json",),
               check=check_fit_tls("out/tls_fixed/fit_tls.json", ppc_ftd)),
            Op("fit-tls free",
               ["fit-tls", "--input", "fix_ppc/power_sweep.csv", "--beta", "free",
                "--out", "out/tls_free"],
               outputs=("out/tls_free/fit_tls.json",),
               check=check_fit_tls("out/tls_free/fit_tls.json", ppc_ftd)),
        ]


class Dense(Workload):
    name = "dense"
    why = "long traces and a big error-map table, where cost is per point and per byte"
    n_powers = 8
    n_curves = 50

    def _sizes(self):
        return (2001, 2001) if self.small else (20001, 20001)  # points per sweep, map grid

    def prepare(self, directory, seed, index, run):
        n_points, _ = self._sizes()
        powers = [float(p) for p in np.geomspace(1e-18, 1e-13, self.n_powers)]
        doc = {**self.default_truth, "powers": powers, "n_points": n_points, **DRESSING,
               "seed": derived_seed(self.name, seed, index, "ppc")}
        truths = {"ppc": doc}
        _write_truths(directory, truths)
        _synth(run, directory, "ppc")
        return InputSet(directory, truths)

    def pass_ops(self, inputs):
        _, n_grid = self._sizes()
        curves = ",".join(repr(float(c)) for c in np.geomspace(1e-7, 1e-3, self.n_curves))
        return [
            Op("fit-s21", ["fit-s21", "--input", "fix_ppc", "--out", "out/s21"],
               outputs=("out/s21/fit_s21.json", "out/s21/power_sweep.csv"),
               check=check_fit_s21("out/s21/fit_s21.json", self.n_powers),
               sweeps=self.n_powers),
            Op("fit-tls", ["fit-tls", "--input", "out/s21/power_sweep.csv", "--out", "out/tls"],
               deps=("fit-s21",),
               outputs=("out/tls/fit_tls.json",),
               check=check_fit_tls("out/tls/fit_tls.json", inputs.truths["ppc"]["f_tan_delta0"])),
            Op("error-map",
               ["error-map", "--grid", f"1e-7:1e-1:{n_grid}", "--curves", curves, "--out", "out/map"],
               outputs=("out/map/error_map.csv", "out/map/error_map_summary.json"),
               check=check_error_map("out/map/error_map.csv", n_grid, self.n_curves, 0.102,
                                     "inductor_loss")),
        ]


WORKLOADS = {w.name: w for w in (Campaign, Interactive, Dense)}
