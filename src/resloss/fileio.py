"""Delimited-text and JSON interfaces for sweeps, power sweeps, device
tables and fit reports.

Conventions shared by every writer:
  * numeric fields are serialized with 17 significant digits so binary
    floats round-trip losslessly through text;
  * delimited files carry ``# key = value`` metadata header lines;
  * files are written to a temporary name and atomically renamed, so a
    failure never leaves a truncated output;
  * no timestamps are embedded, so identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .circuit import DesignKind, DeviceCircuitModel, DeviceRecord
from .s21 import ComplexSweep
from .tls import PowerSweepPoint

GHZ = 1e9
FEMTO = 1e-15
NANO = 1e-9
MICRO = 1e-6


def fmt(value: float) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    return format(float(value), ".17g")


def as_number(value, name: str, kind=float):
    """``kind(value)``, with a ValueError naming the field for a wrong JSON type."""
    try:
        return kind(value)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def dbm_to_watts(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError(f"power must be > 0 W, got {watts}")
    return 10.0 * math.log10(watts / 1e-3)


def sha256_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _split_header(text: str) -> tuple[dict[str, str], list[str]]:
    """Metadata from ``# key = value`` lines, plus the other non-blank lines."""
    meta: dict[str, str] = {}
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        lines.append(line)
    return meta, lines


def _parse_header_and_rows(text: str) -> tuple[dict[str, str], list[list[str]]]:
    meta, lines = _split_header(text)
    return meta, [next(csv.reader([line])) for line in lines]


def _meta_lines(meta: dict[str, str]) -> list[str]:
    return [f"# {key} = {value}" for key, value in meta.items()]


# ---------------------------------------------------------------------------
# complex sweeps


def write_sweep(path: str | Path, sweep: ComplexSweep, extra_meta: dict | None = None) -> None:
    meta = {
        "power_dbm": fmt(watts_to_dbm(sweep.power)),
        "temperature_K": fmt(sweep.temperature),
    }
    if extra_meta:
        meta.update({k: str(v) for k, v in extra_meta.items()})
    lines = _meta_lines(meta)
    lines.append("frequency_hz,re_s21,im_s21")
    for f, z in zip(sweep.frequencies, sweep.s21):
        lines.append(f"{fmt(f)},{fmt(z.real)},{fmt(z.imag)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_sweep(path: str | Path) -> ComplexSweep:
    meta, lines = _split_header(Path(path).read_text(encoding="utf-8"))
    if "power_dbm" not in meta or "temperature_K" not in meta:
        raise ValueError(f"{path}: missing power_dbm / temperature_K header")
    if lines and lines[0].lower().startswith("freq"):
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(lines, delimiter=",", usecols=(0, 1, 2), ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ComplexSweep(
        frequencies=data[:, 0],
        s21=data[:, 1] + 1j * data[:, 2],
        power=dbm_to_watts(float(meta["power_dbm"])),
        temperature=float(meta["temperature_K"]),
    )


# ---------------------------------------------------------------------------
# power sweeps


def write_power_sweep(
    path: str | Path,
    points: Sequence[PowerSweepPoint],
    f0: float,
    temperature: float,
    fractional: bool = False,
    extra_meta: dict | None = None,
) -> None:
    meta = {
        "f0_GHz": fmt(f0 / GHZ),
        "T_K": fmt(temperature),
        "fractional": "true" if fractional else "false",
    }
    if extra_meta:
        meta.update({k: str(v) for k, v in extra_meta.items()})
    lines = _meta_lines(meta)
    lines.append("photon_number,loss,loss_sigma")
    for p in points:
        lines.append(f"{fmt(p.photons)},{fmt(p.loss)},{fmt(p.loss_sigma)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_power_sweep(path: str | Path) -> tuple[list[PowerSweepPoint], float, float, bool]:
    """Returns (points, f0_hz, temperature_K, fractional)."""
    meta, rows = _parse_header_and_rows(Path(path).read_text(encoding="utf-8"))
    if "f0_GHz" not in meta or "T_K" not in meta:
        raise ValueError(f"{path}: missing f0_GHz / T_K header")
    if rows and rows[0] and rows[0][0].strip().lower().startswith("photon"):
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    points = []
    for row in rows:
        if len(row) < 2:
            raise ValueError(f"{path}: row {row!r} needs photon_number and loss")
        photons, loss = float(row[0]), float(row[1])
        sigma = float(row[2]) if len(row) > 2 and row[2].strip() else 0.0
        points.append(PowerSweepPoint(photons=photons, loss=loss, loss_sigma=sigma))
    fractional = meta.get("fractional", "false").strip().lower() in ("true", "1", "yes")
    return points, float(meta["f0_GHz"]) * GHZ, float(meta["T_K"]), fractional


# ---------------------------------------------------------------------------
# device tables

_TABLE_COLUMNS = [
    "label", "design", "material", "f0_GHz", "N", "g_c_um",
    "C_C_fF", "C_L_fF", "L_nH", "loss", "loss_err",
]


def _record_from_fields(fields: dict) -> DeviceRecord:
    def opt_float(key):
        value = fields.get(key)
        if value is None or (isinstance(value, str) and not value.strip()):
            return None
        return as_number(value, f"device field {key!r}")

    design = DesignKind(str(fields["design"]).strip())
    cap = opt_float("C_C_fF")
    stray = opt_float("C_L_fF")
    inductance = opt_float("L_nH")
    circuit = None
    if any(v is not None for v in (cap, stray, inductance)):
        if None in (cap, stray, inductance):
            raise ValueError(
                f"device {fields.get('label')}: C_C_fF, C_L_fF and L_nH must "
                "be given together"
            )
        circuit = DeviceCircuitModel(
            inductance=inductance * NANO,
            cap_capacitance=cap * FEMTO,
            stray_capacitance=stray * FEMTO,
            label=str(fields.get("label", "")),
        )
    arm_pairs = opt_float("N")
    gap = opt_float("g_c_um")
    return DeviceRecord(
        label=str(fields.get("label", "")),
        design=design,
        material=str(fields.get("material", "")),
        f0=as_number(fields["f0_GHz"], "device field 'f0_GHz'") * GHZ,
        arm_pairs=int(arm_pairs) if arm_pairs is not None else None,
        coupling_gap=gap * MICRO if gap is not None else None,
        circuit=circuit,
        loss=opt_float("loss"),
        loss_err=opt_float("loss_err"),
    )


def read_device_table(path: str | Path) -> tuple[list[DeviceRecord], dict | None]:
    """Parse a device table; returns (records, reference block or None).

    JSON files hold {"devices": [...], "reference": {...}?}; delimited
    files use the same column names with empty cells permitted.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        doc = json.loads(text)
        devices = doc.get("devices") if isinstance(doc, dict) else None
        reference = doc.get("reference") if isinstance(doc, dict) else None
        if not (isinstance(devices, list) and all(isinstance(d, dict) for d in devices)):
            raise ValueError(f"{path}: 'devices' must be a list of JSON objects")
        if not isinstance(reference, (dict, type(None))):
            raise ValueError(f"{path}: 'reference' must be a JSON object")
        return [_record_from_fields(entry) for entry in devices], reference
    meta, rows = _parse_header_and_rows(text)
    if not rows:
        raise ValueError(f"{path}: empty device table")
    header = [c.strip() for c in rows[0]]
    records = []
    for row in rows[1:]:
        fields = dict(zip(header, row))
        records.append(_record_from_fields(fields))
    return records, None


def write_device_table(path: str | Path, records: Iterable[DeviceRecord]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    for rec in records:
        circuit = rec.circuit
        writer.writerow([
            rec.label,
            rec.design.value,
            rec.material,
            fmt(rec.f0 / GHZ),
            rec.arm_pairs if rec.arm_pairs is not None else "",
            fmt(rec.coupling_gap / MICRO) if rec.coupling_gap is not None else "",
            fmt(circuit.cap_capacitance / FEMTO) if circuit else "",
            fmt(circuit.stray_capacitance / FEMTO) if circuit else "",
            fmt(circuit.inductance / NANO) if circuit else "",
            fmt(rec.loss) if rec.loss is not None else "",
            fmt(rec.loss_err) if rec.loss_err is not None else "",
        ])
    atomic_write_text(path, buf.getvalue())
