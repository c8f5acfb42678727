"""Delimited-text and JSON interfaces for sweeps, power sweeps, device
tables and fit reports.

Conventions shared by every writer:
  * numbers round-trip losslessly through text: ``write_table`` writes
    cells as ``%.17g`` (17 significant digits, the bytes of ``fmt``), and
    JSON reports carry Python's shortest round-trip form;
  * delimited files carry ``# key = value`` metadata lines, then a
    header row and comma-separated cells; ``write_table`` writes every
    such file, formatting a fixed block of rows at a time so its memory
    does not grow with the table's length, and ``_table_lines`` reads
    every one. A table given as a list of float rows is formatted by
    ``fmt``; an array's blocks are formatted in numpy (``_Cells``):
    correctly rounded digits from a double-double product, laid out per
    sign, exponent and trailing-zero count; a cell that this cannot
    decide is formatted on its own by ``fmt``. Either way the bytes are
    those of ``%.17g`` per cell;
  * text inputs are UTF-8 and may start with a byte-order mark;
  * files are written to a temporary name and atomically renamed, so a
    failure never leaves a truncated output;
  * no timestamps are embedded, so identical inputs give identical bytes.

Complex sweeps parse their cells by ``numpy.loadtxt``, and power sweeps
and CSV device tables by ``_read_table``, which takes the same cells in
plain Python. numpy, ``ComplexSweep`` and ``PowerSweepPoint`` load inside
the functions that use them, so reading a power sweep or a device table,
writing a JSON report or writing a table of float rows loads no numpy.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
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
# per-block cost vanishes, small enough that a block's work arrays stay
# near 4 MB
_BLOCK_CELLS = 8192


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


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 input file; a leading byte-order mark is dropped."""
    return Path(path).read_text(encoding="utf-8-sig")


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


def _table_lines(path: str | Path, dtype=float):
    """Metadata, the lines of cells of a delimited table, and their line numbers.

    ``# key = value`` lines are metadata; other ``#`` lines and blank
    lines are skipped. The first remaining line is a header when its first
    cell is neither blank nor a number. A numeric table (``dtype=float``)
    may omit it and loses it; a text table (``dtype=str``) must have it
    and keeps it. The third value maps a returned line's index to its
    line number in the file.
    """
    meta: dict[str, str] = {}
    lines: list[str] = []
    text = read_text(path)
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

    def line_number(index: int) -> int:
        return [number for number, raw in enumerate(text.splitlines(), 1)
                if (line := raw.strip()) and not line.startswith("#")][skip + index]

    return meta, lines[skip:], line_number


# a cell and what ends it: from a leading '"' to the next lone '"' it is quoted
# ('""' is one quote), an unquoted '#' ends the line, and so does an open quote
_CELL = re.compile(r'(?:"((?:[^"]|"")*)"?)?([^,#]*)([,#]?)')


def _read_table(path: str | Path, dtype=float) -> tuple[dict[str, str], list[list]]:
    """Metadata and rows of cells of a delimited table, in plain Python.

    Cells are split and converted as ``numpy.loadtxt(..., delimiter=",",
    quotechar='"')`` does, errors included, which name the file's line:
    every row needs the same number of cells, and a float cell takes only
    what numpy's parser does, so no ``_`` separators and only ASCII.
    """
    meta, lines, line_number = _table_lines(path, dtype)
    rows: list[list] = []
    for index, line in enumerate(lines):
        cells = []
        for quoted, rest, end in _CELL.findall(line):
            cells.append(quoted.replace('""', '"') + rest)
            if end != ",":
                break
        if rows and len(cells) != len(rows[0]):
            raise ValueError(f"the number of columns changed from {len(rows[0])} to "
                             f"{len(cells)} at line {line_number(index)}; use `usecols` to "
                             "select a subset and avoid this error")
        if dtype is float:
            for column, cell in enumerate(cells):
                try:
                    if "_" in cell or not cell.strip().isascii():
                        raise ValueError
                    cells[column] = float(cell)
                except ValueError:
                    raise ValueError(f"could not convert string {cell!r} to float64 at "
                                     f"line {line_number(index)}, column {column + 1}.") from None
        rows.append(cells)
    return meta, rows


def write_table(path: str | Path, meta: dict, header: Sequence[str], cells) -> None:
    """Write ``# key = value`` lines, a header row and the float table ``cells``.

    The header names each column. ``cells`` is a list of float rows,
    formatted by ``fmt`` without numpy, or a 2-D array, formatted by
    ``_Cells`` into the same bytes a block of about ``_BLOCK_CELLS`` cells
    at a time; the blocks stream to the file, so memory stays bounded by
    one block. A table with no rows is refused.
    """
    if isinstance(cells, list):
        shape = (len(cells), *sorted({len(row) for row in cells}))
    else:
        import numpy as np

        cells = np.asarray(cells, dtype=np.float64)
        shape = cells.shape
    with naming_file(path):
        if len(shape) != 2 or 0 in shape:
            raise ValueError(f"a table needs rows of at least one cell, got shape {shape}")
        if len(header) != shape[1]:
            raise ValueError(f"{len(header)} header names for {shape[1]} columns")
    head = "".join(f"# {key} = {value}\n" for key, value in meta.items()) + ",".join(header)
    step = max(1, _BLOCK_CELLS // shape[1])

    def chunks():
        yield head + "\n"
        if isinstance(cells, list):
            yield from (",".join(map(fmt, row)) + "\n" for row in cells)
            return
        text = _Cells(min(step, len(cells)), shape[1])
        for start in range(0, len(cells), step):
            yield text(cells[start:start + step])

    atomic_write_text(path, chunks())


# decimal exponents from the smallest subnormal, 5e-324, to the largest double
_E_MIN = -324
_EXPONENTS = 633
# the widest cell, "-4.9406564584124654e-324", and its separator
_WIDTH = 25
# a cell's source row: "000", its 17 digits, then the alphabet of its
# layouts, whose first byte is the padding that is dropped
_ALPHABET = "\0-.e+0123456789,\n"
_ROW = 40


@functools.cache
def _format_tables() -> SimpleNamespace:
    """Tables shared by every ``_Cells``; powers and layouts fill in on demand."""
    import numpy as np

    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8)
    ascii4 = np.empty((100, 100, 4), np.uint8)  # "0000" to "9999", two pairs each
    ascii4[:, :, :2] = pairs.reshape(100, 1, 2)
    ascii4[:, :, 2:] = pairs.reshape(1, 100, 2)
    return SimpleNamespace(
        ascii4=ascii4.view(np.uint32).ravel(),
        powers=np.full((5, _EXPONENTS), np.nan),
        layouts=np.zeros((4 * 17 * _EXPONENTS, _WIDTH), np.uint8),  # a zero row: not built
        source=np.frombuffer(bytes(20) + _ALPHABET.encode() + bytes(3), np.uint8),
    )


def _power_of_ten(e: int) -> tuple[float, ...]:
    """The scale 2**q and 10**(16 - e) / 2**q as hi + lo, with hi split into 26 and 27 bits.

    hi is the nearest double and lo the nearest to the remainder. q is 600
    below e = -250 and -600 above e = 250, which keeps the scaled cell, hi
    and lo normal doubles.
    """
    q = 600 if e < -250 else -600 if e > 250 else 0
    num = 10 ** max(16 - e, 0) * 2 ** max(-q, 0)
    den = 10 ** max(e - 16, 0) * 2 ** max(q, 0)
    hi = num / den
    n, d = hi.as_integer_ratio()
    lo = (num * d - n * den) / (den * d)
    mantissa, exponent = math.frexp(hi)
    h1 = math.ldexp(math.floor(mantissa * 2 ** 26), exponent - 26)
    return math.ldexp(1.0, q), hi, h1, hi - h1, lo


def _layout(code: int) -> list[int]:
    """The source-row columns of a cell's text, for a layout code of ``_Cells``."""
    kind, rest = divmod(code, 17 * _EXPONENTS)
    zeros, e = divmod(rest, _EXPONENTS)
    e += _E_MIN
    digits = list(range(17 - zeros))  # trailing zeros dropped
    if e < -4 or e > 16:
        text = digits[:1] + (["."] + digits[1:] if zeros < 16 else []) + list(f"e{e:+03d}")
    elif e < 0:
        text = ["0", "."] + ["0"] * (-e - 1) + digits
    else:
        text = list(range(e + 1)) + (["."] + digits[e + 1:] if len(digits) > e + 1 else [])
    text = ["-"] * (kind & 1) + text + [",\n"[kind >> 1]]
    columns = [3 + c if isinstance(c, int) else 20 + _ALPHABET.index(c) for c in text]
    return columns + [20] * (_WIDTH - len(columns))


class _Cells:
    """The ``%.17g`` text of a table's blocks of cells, formatted in numpy.

    A cell v with decimal exponent e = floor(log10|v|) has the 17 digits
    n = round(|v| * 10**(16 - e)). The product is a double-double:
    Dekker's exact product of |v| and hi, the double nearest 10**(16 - e),
    plus |v| times lo, hi's remainder (both scaled by 2**q at extreme e).
    Its error is below 1e-14, so a fraction not within 1e-6 of one half
    rounds as the exact product does; an exact product outside [1e16,
    1e17) means that log10 put e one off, next to a power of ten. Such
    cells, zeros and non-finite values take ``fmt``, each on its own.

    The digits become ASCII through a table of 4-digit groups. A cell's
    text is gathered from its source row by the layout of its separator,
    sign, e and trailing-zero count, ``_WIDTH`` bytes padded with NUL,
    and the padding is dropped.
    """

    def __init__(self, rows: int, columns: int):
        import numpy as np

        self.tables = _format_tables()
        size = rows * columns
        self.source = np.empty((size, _ROW), np.uint8)
        self.source[:] = self.tables.source
        self.offsets = np.arange(0, size * _ROW, _ROW)[:, None]
        self.index = np.empty((size, _WIDTH), np.intp)
        self.kind = np.zeros(columns, np.intp)  # 2 for a cell that ends its row, 1 if negative
        self.kind[-1] = 2

    def __call__(self, block: np.ndarray) -> str:
        import numpy as np

        t = self.tables
        v = block.ravel()
        size = v.size
        a = abs(v)
        s = np.fmax(np.fmin(a, 1.7976931348623157e308), 5e-324)  # a NaN becomes the max
        ok = s == a
        e_index = (np.log10(s) - _E_MIN).astype(np.intp)  # e - _E_MIN
        scale, hi, h1, h2, lo = t.powers.take(e_index, axis=1)
        missing = np.isnan(hi)
        if missing.any():
            for i in set(e_index[missing].tolist()):
                t.powers[:, i] = _power_of_ten(i + _E_MIN)
            scale, hi, h1, h2, lo = t.powers.take(e_index, axis=1)
        s *= scale
        c = s * 134217729.0  # Veltkamp's split of s into 26-bit halves
        s1 = c - (c - s)
        s2 = s - s1
        p = s * hi
        err = s1 * h1 - p + s1 * h2 + s2 * h1 + s2 * h2 + s * lo  # s * (hi + lo) - p
        r = np.rint(err)
        ok &= abs(err - r) < 0.499999
        n = p.astype(np.int64) + r.astype(np.int64)
        ok &= (n - (err < r) >= 10 ** 16) & (n < 10 ** 17)  # the exact product's floor and n

        groups = np.empty((size, 5), np.int64)  # the first digit, then four 4-digit groups
        halves = np.empty((size, 2), np.int64)
        top, _ = np.divmod(n, 10 ** 8, out=(None, halves[:, 1]))
        np.divmod(top, 10 ** 8, out=(groups[:, 0], halves[:, 0]))
        np.divmod(halves, 10 ** 4, out=(groups[:, 1::2], groups[:, 2::2]))
        source = self.source[:size]
        source.view(np.uint32)[:, :5] = t.ascii4.take(groups)
        zeros = (source[:, 19:2:-1] != ord("0")).argmax(axis=1)

        kind = (v < 0).reshape(block.shape) + self.kind
        code = (kind.ravel() * 17 + zeros) * _EXPONENTS + e_index
        layout = t.layouts.take(code, axis=0)
        if not layout[:, 0].all():
            for i in set(code[layout[:, 0] == 0].tolist()):
                t.layouts[i] = _layout(i)
            layout = t.layouts.take(code, axis=0)
        index = np.add(layout, self.offsets[:size], out=self.index[:size])
        text = source.take(index)
        if not ok.all():
            own = (~ok).nonzero()[0]
            cells = "".join(fmt(x).ljust(_WIDTH - 1, "\0") for x in v[own].tolist())
            text[own, :-1] = np.frombuffer(cells.encode(), np.uint8).reshape(-1, _WIDTH - 1)
            text[own, -1] = np.where(own % block.shape[1] == block.shape[1] - 1,
                                     ord("\n"), ord(","))
        return text[text != 0].tobytes().decode("ascii")


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
    import numpy as np

    from .s21 import ComplexSweep

    with naming_file(path):
        meta, lines, line_number = _table_lines(path)
        try:
            data = np.loadtxt(lines, delimiter=",", quotechar='"', ndmin=2, max_rows=len(lines))
        except ValueError:
            _read_table(path)  # the same error, naming the file's line
            raise
        if len(data) < len(lines):  # a quote left open joined lines into one row
            index = next(i for i, line in enumerate(lines) if line.count('"') % 2)
            raise ValueError(f"a quoted cell is left open at line {line_number(index)}")
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
    meta = {"f0_GHz": fmt(f0 / GHZ), "T_K": fmt(temperature), **(extra_meta or {})}
    write_table(path, meta, ["photon_number", "loss", "loss_sigma"],
                [[p.photons, p.loss, p.loss_sigma] for p in points])


def read_power_sweep(path: str | Path) -> tuple[list[PowerSweepPoint], float, float]:
    """Returns (points, f0_hz, temperature_K).

    A sweep with two columns has no loss_sigma; its points carry sigma 0.
    The photon axis is the physical photon number: a legacy ``fractional``
    header that marks it as n/n_c is refused.
    """
    from .tls import PowerSweepPoint

    with naming_file(path):
        meta, rows = _read_table(path)
        if len(rows[0]) < 2:
            raise ValueError("a power sweep needs photon_number and loss columns")
        if meta.get("fractional", "").lower() in ("true", "1", "yes"):
            raise ValueError(f"fractional = {meta['fractional']}: the photon axis must be "
                             "the mean photon number, not n/n_c")
        points = [PowerSweepPoint(*row[:3]) for row in rows]
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
            header, *rows = _read_table(path, dtype=str)[1]
            header = [cell.strip() for cell in header]
            return [
                _record_from_fields({k: v for k, v in zip(header, row) if v.strip()}, _csv_number)
                for row in rows
            ], None
        doc = json.loads(read_text(path))
        devices = doc.get("devices") if isinstance(doc, dict) else None
        reference = doc.get("reference") if isinstance(doc, dict) else None
        if not (isinstance(devices, list) and all(isinstance(d, dict) for d in devices)):
            raise ValueError("'devices' must be a list of JSON objects")
        if not isinstance(reference, (dict, type(None))):
            raise ValueError("'reference' must be a JSON object")
        return [_record_from_fields(entry) for entry in devices], reference
