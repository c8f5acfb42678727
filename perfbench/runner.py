"""Child-process execution, statistics and run context for the benchmark.

Every CLI command runs as its own child process, one at a time: the
caller waits for each command before starting the next (a closed loop
with one client). Resident-set size is taken per child from the rusage
that ``os.wait4`` returns for that child alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

MB = float(1 << 20)  # "MB" in every metric means 2**20 bytes
COMMAND_TIMEOUT_S = 170.0


class CliRunner:
    """Runs ``python -m resloss.cli`` against the checkout's ``src``."""

    def __init__(self, root: Path, log_dir: Path):
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.log_dir = log_dir
        self._count = 0

    def run(self, argv: list[str], cwd: Path) -> tuple[int, float, float]:
        """Run one CLI command and wait for it: (exit status, latency s, max RSS MB)."""
        self._count += 1
        log = self.log_dir / f"cmd_{self._count:05d}.log"
        full = [sys.executable, "-m", "resloss.cli", *argv]
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(full, cwd=cwd, env=self.env, stdout=out, stderr=out)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, latency, usage.ru_maxrss * 1024 / MB

    def python(self, args: list[str], cwd: Path) -> tuple[float, str]:
        """Run a bare interpreter with the CLI's environment; (wall s, stderr)."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=cwd, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr[-500:]}")
        return wall, proc.stderr


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count), or None below 11 samples,
    where no percentile has ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def calibration_loop_s() -> float:
    """A fixed pure-Python plus numpy loop; its time tracks machine speed."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += (i * i) % 7
    a = np.linspace(0.0, 1.0, 160_000).reshape(400, 400)
    for _ in range(24):
        a = (a @ a.T) / (a.sum() + 1.0)
    _ = float(a.sum()) + acc
    return time.perf_counter() - start


def run_context() -> dict:
    """Interpreter, library and machine facts printed beside the metrics."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
    }


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
