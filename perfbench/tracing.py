"""In-process tracing of the CLI, from the benchmark's side only.

The traced run calls ``resloss.cli.main(argv)`` in this process after
replacing, at every module binding the CLI calls through, each layer's
public function with a wrapper that records a span (name, start, end,
parent). The two ``least_squares`` names that ``resloss.s21`` and
``resloss.tls`` look up get counting wrappers instead of spans, so the
solver's time stays inside the fit that called it. Per-value helpers
such as ``fileio.fmt`` are left alone: a wrapper per table cell would
swamp the trace. Nothing is changed under ``src/``; every binding is
restored when the tracer is uninstalled.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from runner import MB, median, tail

# span name -> bindings (module, attribute) that the CLI path calls through
SPAN_BINDINGS = {
    "s21.calibrate_and_fit": [("resloss.cli", "calibrate_and_fit"),
                              ("resloss.s21", "calibrate_and_fit")],
    "tls.fit_power_sweep": [("resloss.cli", "fit_power_sweep"),
                            ("resloss.tls", "fit_power_sweep")],
    "extraction.extract": [("resloss.cli", "extract"), ("resloss.extraction", "extract")],
    "fileio.read_sweep": [("resloss.fileio", "read_sweep")],
    "fileio.read_power_sweep": [("resloss.fileio", "read_power_sweep")],
    "fileio.read_device_table": [("resloss.fileio", "read_device_table")],
    "fileio.write": [("resloss.fileio", "atomic_write_text"),
                     ("resloss.fileio", "atomic_write_json"),
                     ("resloss.fileio", "write_power_sweep"),
                     ("resloss.fileio", "write_sweep")],
    "synth.generate_s21_sweep": [("resloss.synth", "generate_s21_sweep")],
    "synth.generate_power_sweep": [("resloss.synth", "generate_power_sweep")],
    "error_analysis.error_map": [("resloss.error_analysis", "error_map")],
}
COUNTER_BINDINGS = {
    "s21.least_squares": [("resloss.s21", "least_squares")],
    "tls.least_squares": [("resloss.tls", "least_squares")],
}
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    failed: bool = False
    mb: float = 0.0
    cells: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """Spans and solver counters of one traced pass."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def summary(self) -> dict:
        """Per-name calls, self time, failures, durations, bytes and cells.

        Calls and megabytes of ``fileio.write`` count only outermost
        writes, since ``atomic_write_json`` and the table writers call
        ``atomic_write_text`` themselves.
        """
        out: dict[str, dict] = defaultdict(lambda: {
            "calls": 0, "self_s": 0.0, "failed": 0, "durations": [], "mb": 0.0, "cells": 0})
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span.name]
            entry["self_s"] += own
            parent = self.spans[span.parent].name if span.parent is not None else None
            if parent == span.name:
                continue
            entry["calls"] += 1
            entry["failed"] += span.failed
            entry["durations"].append(span.duration)
            entry["mb"] += span.mb
            entry["cells"] += span.cells
        return out

    def counts(self) -> dict:
        """Every count the trace holds; two runs on one input must agree."""
        counts = dict(self.counters)
        for name, entry in self.summary().items():
            for key in ("calls", "failed", "mb", "cells"):
                counts[f"{name}.{key}"] = entry[key]
        return counts


def _path_mb(path) -> float:
    try:
        return os.path.getsize(path) / MB
    except (OSError, TypeError):
        return 0.0


class Tracer:
    """Installs wrappers at the CLI's bindings and records into a Trace."""

    def __init__(self):
        self.trace = Trace()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            trace = self.trace
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent)
            if name == "fileio.read_sweep" and args:
                span.mb = _path_mb(args[0])
            trace.spans.append(span)
            self._stack.append(len(trace.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "fileio.write" and args:
                span.mb = _path_mb(args[0])
            elif name == "error_analysis.error_map":
                span.cells = int(result.signed.size)
            return result
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.trace.counters[f"{name}.calls"] += 1
            self.trace.counters[f"{name}.nfev"] += int(result.nfev)
            return result
        return wrapper

    def install(self) -> None:
        for table, make in ((SPAN_BINDINGS, self._span), (COUNTER_BINDINGS, self._counter)):
            for name, bindings in table.items():
                found = False
                for module_name, attr in bindings:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    found = True
                    self._saved.append((module, attr, original))
                    setattr(module, attr, make(name, original))
                if not found:
                    self.missing.add(name)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def root(self, fn, *args):
        """Call ``fn`` as the root ``cli.main`` span of the current trace."""
        return self._span(ROOT, fn)(*args)

    def reset(self) -> Trace:
        trace, self.trace = self.trace, Trace()
        return trace


def import_times(runner, cwd: Path, repeats: int = 3) -> dict:
    """Fresh-interpreter start and ``-X importtime`` import costs, medians.

    A module that the import of ``resloss.cli`` does not load reads 0.
    """
    bare = [runner.python(["-c", "pass"], cwd)[0] for _ in range(repeats)]
    per_module = defaultdict(list)
    wanted = {"resloss.cli": "resloss_cli_s", "scipy.optimize": "scipy_optimize_s",
              "scipy.constants": "scipy_constants_s"}
    for _ in range(repeats):
        _, log = runner.python(["-X", "importtime", "-c", "import resloss.cli"], cwd)
        seen = dict.fromkeys(wanted.values(), 0.0)
        for line in log.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            key = wanted.get(fields[2].strip())
            if key is not None:
                seen[key] += int(fields[1]) / 1e6
        for key, value in seen.items():
            per_module[key].append(value)
    out = {"interpreter_s": median(bare)}
    out.update({key: median(values) for key, values in per_module.items()})
    return out


def layer_metrics(first: Trace, second: Trace, missing: set[str]):
    """Per-layer values: counts from the first pass, times averaged over both.

    Durations of ``calibrate_and_fit`` pool both passes. A value whose
    bindings are all missing reads None, never 0. Returns the values and
    the (percentile, sample count) of the fit-duration tail, or None.
    """
    a, b = first.summary(), second.summary()
    empty = {"calls": 0, "self_s": 0.0, "failed": 0, "durations": [], "mb": 0.0, "cells": 0}

    def get(name, key):
        return a.get(name, empty)[key]

    def mean_self(name):
        return (a.get(name, empty)["self_s"] + b.get(name, empty)["self_s"]) / 2.0

    fit = "s21.calibrate_and_fit"
    fit_ms = [1e3 * d for d in get(fit, "durations") + b.get(fit, empty)["durations"]]
    fit_tail = tail(fit_ms)
    sweeps = get(fit, "calls")
    counters = first.counters
    rows = [  # (metric, layer whose bindings it needs, value)
        ("cli.self_s", ROOT, mean_self(ROOT)),
        ("fileio.read_sweep.calls", "fileio.read_sweep", get("fileio.read_sweep", "calls")),
        ("fileio.read_sweep.self_s", "fileio.read_sweep", mean_self("fileio.read_sweep")),
        ("fileio.read_sweep.mb", "fileio.read_sweep", get("fileio.read_sweep", "mb")),
        ("fileio.read_power_sweep.self_s", "fileio.read_power_sweep",
         mean_self("fileio.read_power_sweep")),
        ("fileio.write.calls", "fileio.write", get("fileio.write", "calls")),
        ("fileio.write.self_s", "fileio.write", mean_self("fileio.write")),
        ("fileio.write.mb", "fileio.write", get("fileio.write", "mb")),
        ("fileio.read_device_table.self_s", "fileio.read_device_table",
         mean_self("fileio.read_device_table")),
        ("s21.calibrate_and_fit.calls", fit, sweeps),
        ("s21.calibrate_and_fit.self_s", fit, mean_self(fit)),
        ("s21.calibrate_and_fit.p50_ms", fit, median(fit_ms) if fit_ms else 0.0),
        ("s21.calibrate_and_fit.tail_ms", fit,
         (fit_tail[0] if fit_tail else None) if fit_ms else 0.0),
        ("s21.least_squares.calls_per_sweep", "s21.least_squares",
         counters.get("s21.least_squares.calls", 0) / sweeps if sweeps else 0.0),
        ("s21.least_squares.nfev_per_sweep", "s21.least_squares",
         counters.get("s21.least_squares.nfev", 0) / sweeps if sweeps else 0.0),
        ("s21.failed", fit, get(fit, "failed")),
        ("tls.fit_power_sweep.calls", "tls.fit_power_sweep",
         get("tls.fit_power_sweep", "calls")),
        ("tls.fit_power_sweep.self_s", "tls.fit_power_sweep", mean_self("tls.fit_power_sweep")),
        ("tls.least_squares.calls", "tls.least_squares",
         counters.get("tls.least_squares.calls", 0)),
        ("tls.least_squares.nfev", "tls.least_squares", counters.get("tls.least_squares.nfev", 0)),
        ("tls.failed", "tls.fit_power_sweep", get("tls.fit_power_sweep", "failed")),
        ("extraction.extract.self_s", "extraction.extract", mean_self("extraction.extract")),
        ("error_analysis.error_map.self_s", "error_analysis.error_map",
         mean_self("error_analysis.error_map")),
        ("error_analysis.error_map.cells", "error_analysis.error_map",
         get("error_analysis.error_map", "cells")),
    ]
    values = {key: None if layer in missing else value for key, layer, value in rows}
    return values, (fit_tail[1:] if fit_tail else None)
