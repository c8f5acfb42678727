"""Pipeline benchmark for the resloss CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` runs the workload's commands as child processes of one
closed-loop caller and reports the end-to-end metrics. ``--trace 1``
runs the same inputs once more in child processes, then three times
in-process through ``resloss.cli.main`` (traced, untraced, traced) and
reports the per-layer metrics. ``--workload all`` runs every workload
both ways. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md beside this file for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from runner import CliRunner, calibration_loop_s, median, print_result, run_context, \
    sha256_file, tail
from tracing import Tracer, import_times, layer_metrics
from workloads import WORKLOADS, SetupError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {  # name -> unit; the set BENCHMARK.json gates
    "setup_s": "s",
    "wall_s": "s",
    "cmd_latency_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.interpreter_s": "s",
    "import.resloss_cli_s": "s",
    "import.scipy_optimize_s": "s",
    "import.scipy_constants_s": "s",
    "cli.self_s": "s",
    "fileio.read_sweep.calls": "count",
    "fileio.read_sweep.self_s": "s",
    "fileio.read_sweep.mb": "MB",
    "fileio.read_power_sweep.self_s": "s",
    "fileio.write.calls": "count",
    "fileio.write.self_s": "s",
    "fileio.write.mb": "MB",
    "fileio.read_device_table.self_s": "s",
    "s21.calibrate_and_fit.calls": "count",
    "s21.calibrate_and_fit.self_s": "s",
    "s21.calibrate_and_fit.p50_ms": "ms",
    "s21.calibrate_and_fit.tail_ms": "ms",
    "s21.least_squares.calls_per_sweep": "1/sweep",
    "s21.least_squares.nfev_per_sweep": "1/sweep",
    "s21.failed": "count",
    "tls.fit_power_sweep.calls": "count",
    "tls.fit_power_sweep.self_s": "s",
    "tls.least_squares.calls": "count",
    "tls.least_squares.nfev": "count",
    "tls.failed": "count",
    "extraction.extract.self_s": "s",
    "error_analysis.error_map.self_s": "s",
    "error_analysis.error_map.cells": "count",
    "synth.generate_s21_sweep.self_s": "s",
    "synth.generate_power_sweep.self_s": "s",
    "trace.coverage": "1",
    "trace.overhead_ratio": "1",
}


@dataclass
class PassRecord:
    wall_s: float
    latencies: list[float]
    rss_mb: list[float]
    sweeps: int
    fit_s21_s: float


@dataclass
class Book:
    """Attempts, failures and correctness violations of one run."""

    attempted: int = 0
    failed: int = 0
    checks: int = 0  # accuracy gates evaluated
    misses: int = 0
    violations: list[str] = field(default_factory=list)
    hashes: dict = field(default_factory=dict)

    def remember(self, key, digest) -> bool:
        """Store the first digest of an output; False when a rerun differs."""
        known = self.hashes.setdefault(key, digest)
        return known == digest


def file_digest(path: Path) -> str | None:
    return sha256_file(path) if path.is_file() else None


def run_ops(ops, base: Path, execute) -> tuple[float, list]:
    """Run a pass's commands back to back; (wall s, [(status, latency, rss)])."""
    shutil.rmtree(base / "out", ignore_errors=True)
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        outcomes.append(execute(op.argv, base))
    return time.perf_counter() - start, outcomes


def judge(ops, outcomes, inputs, set_index, book: Book, label: str) -> int:
    """Apply exit, dependency, gate and byte-identity checks; count failures."""
    failed_names = set(inputs.failed_setup)
    failures = 0
    for op, (status, _, _) in zip(ops, outcomes):
        reasons = []
        if status != 0:
            reasons.append(f"exit {status}")
        bad_deps = [d for d in op.deps if d in failed_names]
        if bad_deps:
            reasons.append("depends on failed " + ", ".join(bad_deps))
        missing = [o for o in op.outputs if not (inputs.directory / o).is_file()]
        if status == 0 and missing:
            book.violations.append(f"{label} {op.name}: exit 0 without {missing}")
            reasons.append("missing output")
        if status == 0 and not missing and op.check is not None:
            miss = op.check(inputs.directory)
            book.checks += 1
            if miss:
                book.misses += 1
                reasons.append(miss)
        for out in op.outputs:
            digest = file_digest(inputs.directory / out)
            if not book.remember((set_index, out), digest):
                book.violations.append(f"{label} {op.name}: {out} differs from an earlier run")
                reasons.append(f"{out} not byte-identical on rerun")
        book.attempted += 1
        if reasons:
            failures += 1
            failed_names.add(op.name)
            print(f"  failed  {label} {op.name}: {'; '.join(reasons)}")
    book.failed += failures
    return failures


def record_pass(ops, wall, outcomes) -> PassRecord:
    fit_s21 = [(op.sweeps, lat) for op, (_, lat, _) in zip(ops, outcomes) if op.sweeps]
    return PassRecord(
        wall_s=wall,
        latencies=[lat for _, lat, _ in outcomes],
        rss_mb=[rss for _, _, rss in outcomes if rss is not None],
        sweeps=sum(n for n, _ in fit_s21),
        fit_s21_s=sum(lat for _, lat in fit_s21),
    )


def inprocess_executor(tracer: Tracer | None):
    """Run ``resloss.cli.main`` here, optionally as a traced root span."""
    from resloss import cli

    def execute(argv, cwd):
        old = os.getcwd()
        os.chdir(cwd)
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = tracer.root(cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed command, as in a child
            print(f"  crash   {argv[0]}: {type(exc).__name__}: {exc}")
            status = 1
        finally:
            latency = time.perf_counter() - start
            os.chdir(old)
        return status, latency, None
    return execute


def status_only(execute):
    return lambda argv, cwd: execute(argv, cwd)[0]


def print_context(context: dict, calib_start: float, calib_end: float) -> None:
    facts = " ".join(f"{k}={v}" for k, v in context.items())
    print(f"context {facts}")
    print(f"context calibration_loop_s start={calib_start:.4f} end={calib_end:.4f} "
          "(machine-speed reference, not gated)")


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = "missing" if value is None else f"{value:.6g}"
    print(f"metric {name} = {shown} {unit}" + (f"  ({note})" if note else ""))


def print_failures(book: Book) -> None:
    ratio = book.failed / book.attempted if book.attempted else 0.0
    print_metric("failed_ops_ratio", ratio, "1",
                 f"{book.failed} failed of {book.attempted} attempted")
    print(f"gate accuracy: {book.misses} missed of {book.checks} checks "
          "(each miss is a failed operation)")
    for line in book.violations:
        print(f"  violation {line}")
    print(f"gate correct={not book.violations} "
          "(outputs present, byte-identical on rerun, traced counts repeat)")


def run_untraced(workload, seed: int, seconds: float, work: Path):
    """End-to-end metrics: every command in a child process, tracing off."""
    runner = CliRunner(ROOT, work / "logs")
    execute = runner.run
    setup_times, sets, setup_latencies = [], [], []

    def setup_command(argv, cwd):
        status, latency, _ = execute(argv, cwd)
        setup_latencies.append(latency)
        return status

    for i in range(workload.n_sets):
        start = time.perf_counter()
        sets.append(workload.prepare(work / f"set{i}", seed, i, setup_command))
        setup_times.append(time.perf_counter() - start)

    book, passes, used = Book(), [], []
    begin = time.perf_counter()
    # Passes repeat while one more of the mean length still fits in
    # ``seconds``, so a run never overshoots by most of a long pass.
    while not passes or (time.perf_counter() - begin) * (len(passes) + 1) / len(passes) <= seconds:
        k = len(passes)
        index = workload.set_for_pass(k)
        inputs = sets[index]
        ops = workload.pass_ops(inputs)
        wall, outcomes = run_ops(ops, inputs.directory, execute)
        failures = judge(ops, outcomes, inputs, index, book, f"pass {k}")
        passes.append(record_pass(ops, wall, outcomes))
        used.append(index)
        print(f"  pass {k} set {index}: wall {wall:.3f} s, "
                   f"{len(ops)} commands, {failures} failed")

    if len(set(used)) == len(used):
        # No input set ran twice: rerun the cheap commands of pass 0 on
        # the same inputs and paths to check that reports repeat bytewise.
        inputs = sets[used[0]]
        ops = workload.recheck_ops(workload.pass_ops(inputs))
        for op in ops:
            execute(op.argv, inputs.directory)
            for out in op.outputs:
                digest = file_digest(inputs.directory / out)
                if not book.remember((used[0], out), digest):
                    book.violations.append(f"recheck {op.name}: {out} differs on rerun")
        print(f"  recheck: reran {len(ops)} commands of pass 0 for byte identity")

    # Latency statistics cover every CLI invocation of the run, set-up's
    # synth and fit-tls included: a campaign pass alone has only seven.
    latencies = setup_latencies + [lat for p in passes for lat in p.latencies]
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": median(p.wall_s for p in passes),
        "cmd_latency_p50_s": median(latencies),
        "peak_rss_mb": median(max(p.rss_mb) for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "cmd_latency_p50_s": f"{len(latencies)} invocations, set-up included",
        "peak_rss_mb": "largest child per pass, median over passes",
    }
    for name, unit in END_TO_END.items():
        print_metric(name, metrics[name], unit, notes[name])
    tail_value = tail(latencies)
    if tail_value:
        value, pct, n = tail_value
        print_metric("cmd_latency_tail_s", value, "s", f"p{pct:.1f} of {n} invocations")
    else:
        print_metric("cmd_latency_tail_s", None, "s",
                     f"{len(latencies)} invocations; a tail needs at least 11")
    fitting = [p for p in passes if p.sweeps]
    if fitting:
        rate = median(p.sweeps / p.fit_s21_s for p in fitting)
        print_metric("sweeps_per_s", rate, "1/s",
                     f"{fitting[0].sweeps} sweeps per pass, median of {len(fitting)} passes")
    print_failures(book)
    return book, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(workload, seed: int, work: Path):
    """Per-layer metrics: one child pass, then traced in-process passes."""
    runner = CliRunner(ROOT, work / "logs")
    child = runner.run
    inputs = workload.prepare(work / "set0", seed, 0, status_only(child))
    book = Book()
    ops = workload.pass_ops(inputs)
    child_wall, outcomes = run_ops(ops, inputs.directory, child)
    judge(ops, outcomes, inputs, 0, book, "child pass")

    tracer = Tracer()
    tracer.install()
    try:
        # The same set-up, traced, in a second directory: synth spans, and
        # a byte-for-byte comparison of the fixtures with the child's.
        traced_setup = workload.prepare(work / "traced_setup", seed, 0,
                                        status_only(inprocess_executor(tracer)))
        setup_trace = tracer.reset()
        compare_trees(inputs.directory, traced_setup.directory, book)

        walls, traces = [], []
        for label, traced in (("traced pass A", True), ("untraced pass", False),
                              ("traced pass B", True)):
            if not traced:
                tracer.uninstall()
            executor = inprocess_executor(tracer if traced else None)
            wall, outcomes = run_ops(ops, inputs.directory, executor)
            judge(ops, outcomes, inputs, 0, book, label)
            walls.append(wall)
            if traced:
                traces.append(tracer.reset())
            else:
                tracer.install()
            print(f"  {label}: wall {wall:.3f} s in-process")
    finally:
        tracer.uninstall()

    first, second = traces
    counts_a, counts_b = first.counts(), second.counts()
    if counts_a != counts_b:
        diff = {k: (counts_a.get(k), counts_b.get(k))
                for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k)}
        book.violations.append(f"traced counts differ between passes A and B: {diff}")

    values, fit_tail = layer_metrics(first, second, tracer.missing)
    synth = setup_trace.summary()
    for name in ("synth.generate_s21_sweep", "synth.generate_power_sweep"):
        values[f"{name}.self_s"] = None if name in tracer.missing else (
            synth[name]["self_s"] if name in synth else 0.0)
    for key, value in import_times(runner, inputs.directory).items():
        values[f"import.{key}"] = value
    root_total = sum(s.duration for s in first.spans if s.parent is None)
    values["trace.coverage"] = root_total / child_wall
    values["trace.overhead_ratio"] = (walls[0] + walls[2]) / 2.0 / walls[1] - 1.0

    for name, unit in PER_LAYER.items():
        note = ""
        if name == "s21.calibrate_and_fit.tail_ms" and fit_tail:
            note = f"p{fit_tail[0]:.1f} of {fit_tail[1]} calls over passes A and B"
        elif name == "trace.coverage":
            note = f"traced cli.main time over the child pass wall {child_wall:.3f} s"
        print_metric(name, values[name], unit, note)
    for name in sorted(tracer.missing):
        print(f"  missing binding for {name}: its metrics read missing, not 0")
    print_failures(book)
    return book, {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def compare_trees(a: Path, b: Path, book: Book) -> None:
    for path in sorted(p for p in a.rglob("*") if p.is_file()):
        rel = path.relative_to(a)
        if rel.parts[0] == "out":
            continue
        other = b / rel
        if not other.is_file() or sha256_file(path) != sha256_file(other):
            book.violations.append(f"set-up file {rel} differs between child and in-process runs")


def run_one(name: str, seed: int, seconds: float, trace: bool, small: bool, work: Path):
    from resloss import cli

    workload = WORKLOADS[name](cli._DEFAULT_TRUTH, SRC / "resloss" / "data" / "table1.json",
                               small)
    print(f"workload {name} (trace {int(trace)}, seed {seed}): {workload.why}")
    context = run_context()
    calib_start = calibration_loop_s()
    work.mkdir(parents=True)
    (work / "logs").mkdir()
    if trace:
        book, metrics = run_traced(workload, seed, work)
    else:
        book, metrics = run_untraced(workload, seed, seconds, work)
    print_context(context, calib_start, calibration_loop_s())
    return book, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes for the harness self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds normally, so children are killed and work removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "resloss" / "cli.py").is_file():
        print(f"no resloss sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import resloss

    if Path(resloss.__file__).resolve().parent != (SRC / "resloss").resolve():
        print(f"imported resloss from {resloss.__file__}, not {SRC}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    total, metrics = Book(), {}
    try:
        for name, trace in runs:
            book, found = run_one(name, args.seed, args.seconds, trace, args.small,
                                  base / f"{name}-{int(trace)}")
            total.attempted += book.attempted
            total.failed += book.failed
            total.violations += book.violations
            prefix = f"{name}.trace{int(trace)}." if len(runs) > 1 else ""
            metrics.update({prefix + k: v for k, v in found.items()})
            if len(runs) > 1:
                print(f"result {name} trace {int(trace)}: " + json.dumps({
                    "correct": not book.violations, "attempted": book.attempted,
                    "failed": book.failed}))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()
    print_result(not total.violations, total.attempted, total.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
