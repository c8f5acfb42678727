"""Batch command-line front end.

Subcommands wire the pipeline together: ``synth`` writes seeded fixture
sweeps, ``fit-s21`` turns sweeps into per-power loss points, ``fit-tls``
fits the saturable loss curve, ``extract`` runs the three-device solve
and ``error-map`` tabulates the single-measurement systematic error.

Each command resolves its inputs once into (recorded name, path) pairs;
the name heads the input's errors and its one provenance entry, beside
its SHA-256 digest. No output embeds a timestamp, so reruns give the same
bytes. All inputs are validated before any write, and writes are atomic.

Each command imports the stages it runs, and numpy with them where they
need it: ``fit-tls``, ``extract`` and ``error-map`` on a map of at most
``fileio._BLOCK_CELLS`` cells load no numpy. The records are named
tuples, so those commands import no ``inspect`` either.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, fileio
from .circuit import DesignKind
from .errors import (
    FitFailureError,
    GridRangeError,
    IllConditionedFitError,
    InconsistentInputsError,
    OutOfSpanError,
    ReslossError,
)
from .extraction import AXIS_INDUCTOR_LOSS, AXIS_PARTICIPATION, ExtractionInput, extract

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_EXTRACTION = 4
EXIT_RANGE = 5

_FIT_ERRORS = (FitFailureError, IllConditionedFitError, OutOfSpanError)

PHOTON_CONVENTION = "side-coupled: n = 2*Q_l^2*P / (Q_c*hbar*omega0^2)"


def _existing(spec: str) -> tuple[str, Path]:
    """The recorded name and path of an input file that must exist."""
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(f"input {spec!r} does not exist")
    return str(path), path


def _single_input(args: argparse.Namespace, required: bool = True) -> str | None:
    """The one --input spec of a command that reads a single file; None when absent."""
    if len(args.input) > 1 or (required and not args.input):
        quantity = "exactly" if required else "at most"
        raise ValueError(f"{args.command} takes {quantity} one --input, got {len(args.input)}")
    return args.input[0] if args.input else None


def _device_table(spec: str) -> tuple[str, Path]:
    """The device table's recorded name and path: a bare name that is no
    file but a bundled fixture, such as 'table1', is recorded as
    'builtin:table1', so no report depends on the install path."""
    ref = Path(__file__).parent / "data" / f"{spec}.json"
    if Path(spec).name == spec and not Path(spec).exists() and ref.is_file():
        return f"builtin:{spec}", ref
    return _existing(spec)


def _expand_sweep_inputs(specs: list[str]) -> list[tuple[str, Path]]:
    paths: list[Path] = []
    for spec in specs:
        path = Path(spec)
        if path.is_dir():
            paths.extend(sorted(path.glob("sweep_*.csv")) or sorted(path.glob("*.csv")))
        else:
            paths.append(_existing(spec)[1])
    if not paths:
        raise FileNotFoundError("no sweep files found among the inputs")
    return [(str(p), p) for p in paths]


def _provenance(inputs: list[tuple[str, Path | None]]) -> dict:
    """The tool version and each input's name and digest; a built-in input has no path."""
    return {
        "tool_version": __version__,
        "input_files": [
            {"path": name, **({"digest": fileio.sha256_digest(path)} if path else {})}
            for name, path in inputs
        ],
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(args: argparse.Namespace) -> int:
    import numpy as np

    from . import synth

    spec = _single_input(args, required=False)
    source = _existing(spec) if spec is not None else ("builtin:default-truth", None)
    truth_name, truth_path = source
    with fileio.naming_file(truth_name):
        if truth_path is not None:
            doc = json.loads(fileio.read_text(truth_path))
        else:
            doc = {**_DEFAULT_TRUTH, "powers": [float(p) for p in np.geomspace(1e-18, 1e-13, 21)]}
        if not isinstance(doc, dict):
            raise ValueError("truth must be a JSON object")
        for key in sorted(doc.keys() - set(synth.GroundTruth._fields)):
            raise ValueError(f"unknown truth field {key!r}")
        if args.seed is not None:
            doc["seed"] = args.seed
        baseline = doc.get("baseline", [1.0, 0.0])
        if not (isinstance(baseline, list) and len(baseline) == 2):
            raise ValueError(f"truth baseline must be [re, im], got {baseline!r}")
        powers = doc["powers"]
        if not isinstance(powers, list):
            raise ValueError(f"truth field 'powers' must be a list, got {powers!r}")

        def field(key, default=None, kind=float):
            value = doc[key] if default is None else doc.get(key, default)
            return fileio.as_number(value, f"truth field {key!r}", kind)

        truth = synth.GroundTruth(
            f0=field("f0"),
            q_c=field("q_c"),
            phi=field("phi", 0.0),
            f_tan_delta0=field("f_tan_delta0"),
            n_c=field("n_c"),
            beta=field("beta", 0.5),
            q_hp=field("q_hp"),
            temperature=field("temperature"),
            span=field("span"),
            n_points=field("n_points", kind=int),
            powers=tuple(fileio.as_number(p, "truth field 'powers'") for p in powers),
            s21_sigma=field("s21_sigma", 0.0),
            delay=field("delay", 0.0),
            baseline=complex(*(fileio.as_number(b, "truth baseline") for b in baseline)),
            loss_rel_sigma=field("loss_rel_sigma", 0.0),
            seed=field("seed", 0, int),
        )

    out = Path(args.out)
    sweep_files = []
    for i in range(len(truth.powers)):
        sweep = synth.generate_s21_sweep(truth, i)
        name = f"sweep_{i:03d}.csv"
        fileio.write_sweep(out / name, sweep, extra_meta={"tool_version": __version__})
        sweep_files.append(name)
    points = synth.generate_power_sweep(truth)
    fileio.write_power_sweep(
        out / "power_sweep.csv", points, truth.f0, truth.temperature,
        extra_meta={"tool_version": __version__},
    )
    manifest = {
        "command": "synth",
        "truth": {**doc, "baseline": list(baseline)},
        "sweep_files": sweep_files,
        "power_sweep_file": "power_sweep.csv",
        **_provenance([source]),
    }
    fileio.atomic_write_json(out / "manifest.json", manifest)
    print(f"synth: wrote {len(sweep_files)} sweeps to {out}")
    return EXIT_OK


def _cmd_fit_s21(args: argparse.Namespace) -> int:
    import numpy as np

    from . import s21
    from .tls import PowerSweepPoint

    fixed_baseline = None
    if args.baseline:
        re_s, _, im_s = args.baseline.partition(",")
        try:
            fixed_baseline = complex(float(re_s), float(im_s or 0.0))
        except ValueError:
            raise ValueError(f"--baseline must be re,im, got {args.baseline!r}") from None
    inputs = _expand_sweep_inputs(args.input)
    sweeps = [fileio.read_sweep(path) for _, path in inputs]  # parse everything first
    temperatures = sorted({sweep.temperature for sweep in sweeps})
    if len(temperatures) > 1:
        raise ValueError(f"sweeps at several temperatures {temperatures} K; "
                         "fit-s21 takes sweeps at one temperature")

    results = []
    for (name, _), sweep in zip(inputs, sweeps):
        fit, delay, baseline = s21.calibrate_and_fit(
            sweep, delay=args.delay, baseline=fixed_baseline)
        n = s21.photon_number(sweep.power, fit.f0, fit.q_i, fit.q_c)
        results.append((name, sweep, fit, n, delay, baseline))
    results.sort(key=lambda item: item[3])

    out = Path(args.out)
    provenance = _provenance(inputs)  # each sweep's digest, for both outputs
    report = {
        "command": "fit-s21",
        "photon_convention": PHOTON_CONVENTION,
        "results": [
            {
                "file": name,
                "power_w": sweep.power,
                "temperature_k": sweep.temperature,
                "f0_hz": fit.f0,
                "f0_err_hz": fit.f0_err,
                "q_i": fit.q_i,
                "q_i_err": fit.q_i_err,
                "q_c": fit.q_c,
                "q_c_err": fit.q_c_err,
                "phi_rad": fit.phi,
                "phi_err_rad": fit.phi_err,
                "loss": fit.loss,
                "loss_err": fit.loss_err,
                "photon_number": n,
                "residual_rms": fit.residual_rms,
                "nfev": fit.nfev,
                "delay_s": delay,
                "baseline": [baseline.real, baseline.imag],
            }
            for name, sweep, fit, n, delay, baseline in results
        ],
        **provenance,
    }
    fileio.atomic_write_json(out / "fit_s21.json", report)

    points = [
        PowerSweepPoint(photons=n, loss=fit.loss, loss_sigma=fit.loss_err)
        for _, _, fit, n, *_ in results
    ]
    f0_mean = float(np.mean([fit.f0 for _, _, fit, *_ in results]))
    fileio.write_power_sweep(
        out / "power_sweep.csv", points, f0_mean, temperatures[0],
        extra_meta={"tool_version": __version__, **{f"input_digest_{i}": entry["digest"]
                    for i, entry in enumerate(provenance["input_files"])}},
    )
    print(f"fit-s21: fitted {len(results)} sweeps, wrote {out / 'fit_s21.json'}")
    return EXIT_OK


def _finite(x: float) -> float | None:
    """x, or None (JSON null) for an infinite value or uncertainty."""
    return x if math.isfinite(x) else None


def _cmd_fit_tls(args: argparse.Namespace) -> int:
    from . import tls

    name, path = source = _existing(_single_input(args))
    points, f0, temperature = fileio.read_power_sweep(path)

    # a point set the fit refuses names the file; a failed fit keeps its own exit status
    with fileio.naming_file(name, ValueError):
        result = tls.fit_power_sweep(
            points,
            omega0=2.0 * math.pi * f0,
            temperature=temperature,
            free_beta=(args.beta == "free"),
        )
    out = Path(args.out)
    report = {
        "command": "fit-tls",
        "options": {"beta": args.beta},
        "f0_hz": f0,
        "temperature_k": temperature,
        "params": {
            "f_tan_delta0": result.params.f_tan_delta0,
            "n_c": result.params.n_c,
            "beta": result.params.beta,
            "q_hp": _finite(result.params.q_hp),
        },
        "uncertainties": {
            "f_tan_delta0": result.f_tan_delta0_err,
            "n_c": _finite(result.n_c_err),
            "beta": _finite(result.beta_err),
            "q_hp": _finite(result.q_hp_err),
        },
        "q_hp_lower_limit": _finite(result.q_hp_lower_limit),
        "thermal_factor": result.params.thermal_factor,
        "residual_rms": result.residual_rms,
        "nfev": result.nfev,
        **_provenance([source]),
    }
    fileio.atomic_write_json(out / "fit_tls.json", report)
    print(
        f"fit-tls: f_tan_delta0 = {result.params.f_tan_delta0:.6g} "
        f"+/- {result.f_tan_delta0_err:.2g}"
    )
    return EXIT_OK


# Each device role's report key and the design that fills it: the PPC and
# IDC lumped-element resonators, and the CPW resonator that stands in for
# the IDC fingers. The order is ExtractionInput's loss-field order.
_ROLES = {"ppc": DesignKind.LE_PPC, "idc": DesignKind.LE_IDC, "cpw": DesignKind.CPW}

# the reference values that extract.json reports a relative deviation from
_DEVIATIONS = ("inductor_loss", "ppc_loss")


def _load_fit_loss(name: str, path: Path) -> tuple[float, float]:
    """A TLS fit report's f_tan_delta0 and its uncertainty; errors name the report."""
    with fileio.naming_file(name):
        doc = json.loads(fileio.read_text(path))
        if not isinstance(doc, dict):
            raise ValueError("a fit report must be a JSON object")
        params, errors = doc.get("params"), doc.get("uncertainties", {})
        if not (isinstance(params, dict) and isinstance(errors, dict)):
            raise ValueError("'params' and 'uncertainties' must be JSON objects")
        loss = fileio.as_number(params.get("f_tan_delta0"), "f_tan_delta0")
        loss_err = fileio.as_number(errors.get("f_tan_delta0", 0.0), "f_tan_delta0 uncertainty")
        if not (0.0 < loss < math.inf and 0.0 <= loss_err < math.inf):
            raise ValueError(f"f_tan_delta0 must be finite and > 0 with a finite uncertainty "
                             f">= 0, got {loss} +/- {loss_err}")
        return loss, loss_err


def _cmd_extract(args: argparse.Namespace) -> int:
    table_name, table_path = table = _device_table(_single_input(args))
    records, reference = fileio.read_device_table(table_path)
    # per-device TLS fit reports supplying the losses; their errors name the report
    fits = {key: _existing(spec) for key in _ROLES if (spec := getattr(args, f"{key}_fit"))}
    losses = {key: _load_fit_loss(*fit) for key, fit in fits.items()}
    rows = {}
    with fileio.naming_file(table_name):
        for key, kind in _ROLES.items():
            matches = [r for r in records if r.design is kind]
            if len(matches) != 1:
                raise ValueError(f"need exactly one {kind.value} row, got {len(matches)}")
            rows[key] = row = matches[0]
            if key not in losses:
                if row.loss is None:
                    raise ValueError(f"{kind.value} row {row.label!r}: no loss in the table "
                                     f"and no --{key}-fit report given")
                losses[key] = (row.loss, row.loss_err or 0.0)
        # every reference value but a text one, such as the note, is a finite
        # number; the ones deviations are taken from are never text, and nonzero
        ref_values = {key: fileio.as_number(value, f"reference {key}")
                      for key, value in (reference or {}).items()
                      if key in _DEVIATIONS or not isinstance(value, str)}
        for key, ref in ref_values.items():
            if not math.isfinite(ref) or (ref == 0.0 and key in _DEVIATIONS):
                raise ValueError(f"reference {key} must be finite"
                                 f"{' and nonzero' * (key in _DEVIATIONS)}, got {ref}")
        inputs = ExtractionInput(
            *(losses[key][0] for key in _ROLES), rows["ppc"].circuit, rows["idc"].circuit,
            *(losses[key][1] for key in _ROLES),
        )
    result = extract(inputs)

    report = {
        "command": "extract",
        "inputs": {
            key: {"loss": loss, "loss_err": loss_err,
                  **({"C_C_f": c.cap_capacitance, "C_L_f": c.stray_capacitance}
                     if (c := rows[key].circuit) else {})}
            for key, (loss, loss_err) in losses.items()
        },
        "idc_loss_proxy": inputs.cpw_loss,
        "inductor_loss": result.inductor_loss,
        "inductor_loss_err": result.inductor_loss_err,
        "ppc_loss": result.ppc_loss,
        "ppc_loss_err": result.ppc_loss_err,
        "single_measurement": inputs.ppc_resonator_loss,
        "single_measurement_err": inputs.ppc_resonator_loss_err,
        "fractional_difference": result.fractional_difference,
        **_provenance([table, *sorted(fits.values(), key=lambda fit: fit[1])]),
    }
    if reference:
        report["reference"] = {"values": reference, **{
            f"{key}_relative_deviation": (getattr(result, key) - ref) / ref
            for key, ref in ref_values.items() if key in _DEVIATIONS}}

    fileio.atomic_write_json(Path(args.out) / "extract.json", report)
    print(
        f"extract: inductor loss {result.inductor_loss:.4g}, "
        f"capacitor loss {result.ppc_loss:.4g}, "
        f"single-measurement {inputs.ppc_resonator_loss:.4g} "
        f"(difference {result.fractional_difference:.3f})"
    )
    if "inductor_loss" in ref_values:
        print(
            f"extract: reference inductor loss {ref_values['inductor_loss']:.4g} "
            f"({reference.get('note', 'reference value supplied with the dataset')})"
        )
    return EXIT_OK


def _cmd_error_map(args: argparse.Namespace) -> int:
    from . import error_analysis

    spec = args.grid or "1e-7:1e-1:61"
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise GridRangeError(f"grid must be lo:hi:npts, got {spec!r}") from exc
    grid = error_analysis.log_grid(lo, hi, n)
    axis, threshold = args.axis, args.threshold
    try:
        curves = [float(c) for c in args.curves.split(",")] if args.curves else None
    except ValueError:
        raise ValueError(f"--curves must be comma-separated numbers, got {args.curves!r}") from None
    if axis == AXIS_INDUCTOR_LOSS:
        curves = curves or [1.12e-7, 1.12e-6, 1.12e-5, 1.12e-4, 1.12e-3]
        fixed = args.fixed if args.fixed is not None else 0.102
    else:
        curves = curves or [0.001, 0.01, 0.102, 0.3]
        fixed = args.fixed if args.fixed is not None else 1.12e-5
    header = ["capacitor_loss"] + [f"{axis}_{fileio.fmt(c)}" for c in curves]

    # A map of one formatter block is tabulated in floats, without numpy, and a
    # larger one in numpy; per curve, the count and range of measurable points.
    if len(grid) * len(header) <= fileio._BLOCK_CELLS:
        cells = error_analysis.error_rows(axis, grid, curves, fixed, threshold)
        points = [[row[0] for row in cells if abs(row[j]) <= threshold]
                  for j in range(1, len(header))]
        measurable = [(len(p), min(p, default=None), max(p, default=None)) for p in points]
    else:
        import numpy as np

        emap = error_analysis.error_map(axis, grid, curves, fixed, threshold=threshold)
        cells = np.column_stack([emap.capacitor_loss_grid, emap.signed])
        points = [emap.capacitor_loss_grid[inside] for inside in emap.measurable_mask.T]
        measurable = [(p.size, float(p.min()), float(p.max())) if p.size else (0, None, None)
                      for p in points]
    summary = {
        "command": "error-map",
        "tool_version": __version__,
        "axis": axis,
        "fixed_value": fixed,
        "threshold": threshold,
        "grid": {"lo": grid[0], "hi": grid[-1], "n": len(grid)},
        "curves": [{
            "curve": curve,
            "asymptote": error_analysis.participation_asymptote(
                curve if axis == AXIS_PARTICIPATION else fixed),
            "measurable_fraction": count / len(grid),
            "measurable_min_capacitor_loss": least,
            "measurable_max_capacitor_loss": greatest,
        } for curve, (count, least, greatest) in zip(curves, measurable)],
    }

    # Everything is computed before either file is written, and the summary's
    # finite-value check runs first, so a refused value leaves no output.
    out = Path(args.out)
    fileio.atomic_write_json(out / "error_map_summary.json", summary)
    fileio.write_table(
        out / "error_map.csv",
        {"tool_version": __version__, "axis": axis, "fixed_value": fileio.fmt(fixed)},
        header, cells,
    )
    print(f"error-map: wrote {len(grid)}x{len(curves)} map to {out}")
    return EXIT_OK


# Strong coupling keeps the loaded linewidth nearly constant while Q_i
# swings over three decades, so one span and point count serve every power.
# ``synth`` adds the default powers, 21 log-spaced from 1e-18 to 1e-13 W.
_DEFAULT_TRUTH = {
    "f0": 3.7464e9,
    "q_c": 3e3,
    "phi": 0.05,
    "f_tan_delta0": 9.2e-4,
    "n_c": 10.0,
    "beta": 0.5,
    "q_hp": 1e6,
    "temperature": 0.1,
    "span": 7.5e7,
    "n_points": 1001,
    "s21_sigma": 0.0,
    "delay": 0.0,
    "baseline": [1.0, 0.0],
    "loss_rel_sigma": 0.0,
    "seed": 0,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resloss",
        description="Dielectric loss extraction for superconducting microwave resonators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_help):
        """--out, plus --input unless the command reads no file (input_help None)."""
        if input_help is not None:
            p.add_argument("--input", action="append", default=[], help=input_help)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("synth", help="generate seeded synthetic fixtures")
    common(p, "truth JSON file (default: the built-in truth)")
    p.add_argument("--seed", type=int, default=None, help="override the truth seed")

    p = sub.add_parser("fit-s21", help="fit complex transmission sweeps")
    common(p, "sweep file, or directory of sweep_*.csv (repeatable)")
    p.add_argument("--delay", type=float, default=None,
                   help="cable delay in seconds (default: estimated); "
                        "a negative one as --delay=-1e-9")
    p.add_argument("--baseline", default=None,
                   help="complex baseline as re,im (default: estimated); "
                        "a negative real part as --baseline=-0.8,0.3")

    p = sub.add_parser("fit-tls", help="fit the saturable loss curve to a power sweep")
    common(p, "power-sweep file")
    p.add_argument("--beta", choices=("fixed", "free"), default="fixed")

    p = sub.add_parser("extract", help="run the three-device loss extraction")
    common(p, "device table; 'table1' selects the bundled fixture")
    for key, kind in _ROLES.items():
        p.add_argument(f"--{key}-fit", default=None,
                       help=f"TLS fit report supplying the {kind.value} resonator loss")

    p = sub.add_parser("error-map", help="tabulate the single-measurement error")
    common(p, None)
    p.add_argument("--axis", choices=(AXIS_INDUCTOR_LOSS, AXIS_PARTICIPATION),
                   default=AXIS_INDUCTOR_LOSS)
    p.add_argument("--grid", default=None, help="capacitor-loss grid lo:hi:npts (log-spaced)")
    p.add_argument("--curves", default=None, help="comma-separated curve values")
    p.add_argument("--fixed", type=float, default=None,
                   help="fixed participation (inductor_loss axis) or inductor loss")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="measurable-regime error threshold")
    return parser


_COMMANDS = {
    "synth": _cmd_synth,
    "fit-s21": _cmd_fit_s21,
    "fit-tls": _cmd_fit_tls,
    "extract": _cmd_extract,
    "error-map": _cmd_error_map,
}


def _error_report(exc: Exception, status: int) -> str:
    report = {"error": type(exc).__name__, "message": str(exc), "exit_status": status}
    for key in ("stage", "missing_regime"):
        if getattr(exc, key, None):
            report[key] = getattr(exc, key)
    return json.dumps(report, sort_keys=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _FIT_ERRORS as exc:
        print(_error_report(exc, EXIT_FIT), file=sys.stderr)
        return EXIT_FIT
    except InconsistentInputsError as exc:
        print(_error_report(exc, EXIT_EXTRACTION), file=sys.stderr)
        return EXIT_EXTRACTION
    except GridRangeError as exc:
        print(_error_report(exc, EXIT_RANGE), file=sys.stderr)
        return EXIT_RANGE
    except (OSError, ValueError, KeyError, ReslossError) as exc:
        print(_error_report(exc, EXIT_INPUT), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
