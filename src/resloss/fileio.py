"""Delimited-text and JSON interfaces for sweeps, power sweeps, device
tables and fit reports.

Conventions shared by every writer:
  * numbers round-trip losslessly through text: ``write_table`` writes
    cells as ``%.17g`` (17 significant digits, the bytes of ``fmt``), and
    JSON reports carry Python's shortest round-trip form;
  * delimited files carry ``# key = value`` metadata lines, then a
    header row and comma-separated cells; ``write_table`` writes every
    such file, formatting a fixed block of rows at a time so its memory
    does not grow with the table's length, and ``_read_table`` parses
    every one;
  * files are written to a temporary name and atomically renamed, so a
    failure never leaves a truncated output;
  * no timestamps are embedded, so identical inputs give identical bytes.

numpy, ``ComplexSweep`` and ``PowerSweepPoint`` load inside the table and
sweep functions, so reading a JSON device table or writing a JSON report
loads none of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .circuit import DesignKind, DeviceCircuitModel, DeviceRecord
from .errors import ReslossError

if TYPE_CHECKING:
    import numpy as np

    from .s21 import ComplexSweep
    from .tls import PowerSweepPoint

GHZ = 1e9
FEMTO = 1e-15
NANO = 1e-9

# cells per formatted block of ``write_table``: large enough that the
# per-block cost vanishes, small enough that a block's text stays near 1 MB
_BLOCK_CELLS = 65536


def fmt(value: float) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    return format(float(value), ".17g")


def as_number(value, name: str, kind=float):
    """``kind(value)``, with a ValueError naming the field for a wrong JSON type.

    A boolean or a string is refused, and an int field takes only an
    integral number (64 or 64.0), so a count or a seed is never truncated.
    """
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if kind is int and not (isinstance(value, int)
                            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
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


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of string chunks, atomically.

    The temporary file beside the target is created with mode 0666, so
    the output's mode follows the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# delimited tables


@contextmanager
def naming_file(path, errors=(ValueError, ReslossError)):
    """Re-raise a missing field or one of ``errors`` as a ValueError naming the file."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except errors as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_table(path: str | Path, dtype=float) -> tuple[dict[str, str], np.ndarray]:
    """Metadata and cells of a delimited table.

    ``# key = value`` lines are metadata; other ``#`` lines and blank
    lines are skipped. The first remaining row is a header when its first
    cell is neither blank nor a number. A numeric table (``dtype=float``)
    may omit it and loses it; a text table (``dtype=str``) must have it
    and keeps it as row 0. Cells may be quoted, an unquoted ``#`` starts a
    comment, and every row needs the same number of cells.
    """
    import numpy as np

    meta: dict[str, str] = {}
    lines: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            key, equals, value = line.lstrip("#").partition("=")
            if equals:
                meta[key.strip()] = value.strip()
        elif line:
            lines.append(line)
    first = lines[0].split(",", 1)[0].strip().strip('"') if lines else ""
    try:
        float(first or "0")  # a number or a blank cell: no header
        header = False
    except ValueError:
        header = True
    if dtype is str and not header:
        raise ValueError("the first row must be a header")
    if len(lines) <= header:
        raise ValueError("no data rows")
    skip = int(header and dtype is float)
    try:
        # max_rows bounds the buffer numpy allocates for text cells (50000 rows by default)
        cells = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', ndmin=2,
                           skiprows=skip, max_rows=len(lines))
    except ValueError as exc:
        # Name the file's line. numpy counts only the rows it parses, after the
        # skipped header: from 0 for a bad cell, from 1 for a changed column count.
        message = str(exc)
        row = re.search(r"at row (\d+)", message)
        if row:
            index = skip + int(row[1]) - ("number of columns changed" in message)
            numbers = [number for number, raw in enumerate(text.splitlines(), 1)
                       if (line := raw.strip()) and not line.startswith("#")]
            message = message.replace(row[0], f"at line {numbers[index]}", 1)
        raise ValueError(message) from None
    return meta, cells


def write_table(path: str | Path, meta: dict, header: Sequence[str], cells: np.ndarray) -> None:
    """Write ``# key = value`` lines, a header row and the 2-D float array ``cells``.

    Each block of about ``_BLOCK_CELLS`` cells is formatted by one ``%``
    operation with ``%.17g`` per cell, which gives the bytes of ``fmt``;
    the blocks stream to the file, so memory stays bounded by one block.
    """
    head = "".join(f"# {key} = {value}\n" for key, value in meta.items()) + ",".join(header)
    row_template = ",".join(["%.17g"] * cells.shape[1]) + "\n"
    step = max(1, _BLOCK_CELLS // cells.shape[1])

    def chunks():
        yield head + "\n"
        for start in range(0, len(cells), step):
            block = cells[start:start + step]
            yield (row_template * len(block)) % tuple(block.ravel().tolist())

    atomic_write_text(path, chunks())


# ---------------------------------------------------------------------------
# complex sweeps


def write_sweep(path: str | Path, sweep: ComplexSweep, extra_meta: dict | None = None) -> None:
    import numpy as np

    meta = {
        "power_dbm": fmt(watts_to_dbm(sweep.power)),
        "temperature_K": fmt(sweep.temperature),
        **(extra_meta or {}),
    }
    write_table(path, meta, ["frequency_hz", "re_s21", "im_s21"],
                np.column_stack([sweep.frequencies, sweep.s21.real, sweep.s21.imag]))


def read_sweep(path: str | Path) -> ComplexSweep:
    from .s21 import ComplexSweep

    with naming_file(path):
        meta, data = _read_table(path)
        if data.shape[1] < 3:
            raise ValueError("a sweep needs frequency_hz, re_s21 and im_s21 columns")
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
    extra_meta: dict | None = None,
) -> None:
    import numpy as np

    meta = {"f0_GHz": fmt(f0 / GHZ), "T_K": fmt(temperature), **(extra_meta or {})}
    write_table(path, meta, ["photon_number", "loss", "loss_sigma"],
                np.array([(p.photons, p.loss, p.loss_sigma) for p in points]).reshape(-1, 3))


def read_power_sweep(path: str | Path) -> tuple[list[PowerSweepPoint], float, float]:
    """Returns (points, f0_hz, temperature_K).

    A sweep with two columns has no loss_sigma; its points carry sigma 0.
    The photon axis is the physical photon number: a legacy ``fractional``
    header that marks it as n/n_c is refused.
    """
    from .tls import PowerSweepPoint

    with naming_file(path):
        meta, data = _read_table(path)
        if data.shape[1] < 2:
            raise ValueError("a power sweep needs photon_number and loss columns")
        if meta.get("fractional", "").lower() in ("true", "1", "yes"):
            raise ValueError(f"fractional = {meta['fractional']}: the photon axis must be "
                             "the mean photon number, not n/n_c")
        points = [PowerSweepPoint(*row[:3]) for row in data.tolist()]
        f0, temperature = float(meta["f0_GHz"]) * GHZ, float(meta["T_K"])
        if not (0.0 < f0 < math.inf and 0.0 < temperature < math.inf):
            raise ValueError(f"f0_GHz and T_K must be finite and > 0, got "
                             f"{meta['f0_GHz']} and {meta['T_K']}")
        return points, f0, temperature


# ---------------------------------------------------------------------------
# device tables


def _csv_number(cell: str, name: str) -> float:
    """A CSV cell's number, with a ValueError naming the field."""
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {cell!r}") from None


def _record_from_fields(fields: dict, number=as_number) -> DeviceRecord:
    """The record of one table row; ``number`` reads a numeric field's value."""
    def opt_float(key):
        value = fields.get(key)
        return None if value is None else number(value, f"device field {key!r}")

    design = DesignKind(str(fields["design"]).strip())
    cap = opt_float("C_C_fF")
    stray = opt_float("C_L_fF")
    inductance = opt_float("L_nH")
    circuit = None
    if any(v is not None for v in (cap, stray, inductance)):
        if None in (cap, stray, inductance):
            raise ValueError(
                f"device {fields.get('label', '')}: C_C_fF, C_L_fF and L_nH must "
                "be given together"
            )
        circuit = DeviceCircuitModel(
            inductance=inductance * NANO,
            cap_capacitance=cap * FEMTO,
            stray_capacitance=stray * FEMTO,
            label=str(fields.get("label", "")),
        )
    return DeviceRecord(
        label=str(fields.get("label", "")),
        design=design,
        material=str(fields.get("material", "")),
        f0=number(fields["f0_GHz"], "device field 'f0_GHz'") * GHZ,
        circuit=circuit,
        loss=opt_float("loss"),
        loss_err=opt_float("loss_err"),
    )


def read_device_table(path: str | Path) -> tuple[list[DeviceRecord], dict | None]:
    """Parse a device table; returns (records, reference block or None).

    JSON files hold {"devices": [...], "reference": {...}?}, and their
    numeric fields take JSON numbers; delimited files have a header row of
    the same names, and a blank cell is an absent field.
    """
    path = Path(path)
    with naming_file(path):
        if path.suffix.lower() != ".json":
            header, *rows = _read_table(path, dtype=str)[1].tolist()  # plain str cells
            header = [cell.strip() for cell in header]
            return [
                _record_from_fields({k: v for k, v in zip(header, row) if v.strip()}, _csv_number)
                for row in rows
            ], None
        doc = json.loads(path.read_text(encoding="utf-8"))
        devices = doc.get("devices") if isinstance(doc, dict) else None
        reference = doc.get("reference") if isinstance(doc, dict) else None
        if not (isinstance(devices, list) and all(isinstance(d, dict) for d in devices)):
            raise ValueError("'devices' must be a list of JSON objects")
        if not isinstance(reference, (dict, type(None))):
            raise ValueError("'reference' must be a JSON object")
        return [_record_from_fields(entry) for entry in devices], reference
