"""Self-test of the benchmark harness at reduced sizes.

    python3 perfbench/selftest.py

Checks that every named metric is emitted with its unit, that the
correctness gates catch wrong outputs, and that the seed argument
changes the generated inputs (and only the seed does). Exits 0 on
success.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import END_TO_END, PER_LAYER, inprocess_executor, status_only  # noqa: E402


def bench(*args) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--small", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{args} exited {proc.returncode}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def check_result(result: dict, expected: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], (int, float)), (name, entry)


def test_metrics_emitted() -> None:
    for name in workloads.WORKLOADS:
        result, text = bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "0")
        check_result(result, END_TO_END)
        for printed in ("cmd_latency_tail_s", "failed_ops_ratio", "gate accuracy",
                        "calibration_loop_s"):
            assert printed in text, (name, printed)
        assert all(m["value"] > 0 for m in result["metrics"].values()), result
        print(f"selftest: {name} trace 0 emits {len(END_TO_END)} metrics", flush=True)
    result, _ = bench("--workload", "dense", "--seed", "3", "--trace", "1")
    check_result(result, PER_LAYER)
    assert result["correct"], "traced counts or reports did not repeat"
    print(f"selftest: dense trace 1 emits {len(PER_LAYER)} metrics", flush=True)


def test_benchmark_json_matches() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_gates_catch_misses(tmp: Path) -> None:
    report = {"params": {"f_tan_delta0": 1.02}}
    (tmp / "tls.json").write_text(json.dumps(report))
    assert workloads.check_fit_tls("tls.json", 1.0)(tmp) is not None
    assert workloads.check_fit_tls("tls.json", 1.015)(tmp) is None
    (tmp / "x.json").write_text(json.dumps({"ppc_loss": 1.0229e-3}))
    table = workloads.read_table(ROOT / "src" / "resloss" / "data" / "table1.json")
    inductor, capacitor = workloads.closed_form_losses(table, 9.2e-4, 8.9e-6, 8.42e-6)
    assert abs(inductor / 9.16e-6 - 1) < 1e-3 and abs(capacitor / 1.0229e-3 - 1) < 1e-4
    assert workloads.check_extract("x.json", capacitor)(tmp) is None
    assert workloads.check_extract("x.json", capacitor * 1.02)(tmp) is not None

    run = status_only(inprocess_executor(None))
    assert run(["error-map", "--out", "map"], tmp) == 0
    check = workloads.check_error_map("map/error_map.csv", 61, 5, 0.102, "inductor_loss")
    assert check(tmp) is None
    csv = tmp / "map" / "error_map.csv"
    lines = csv.read_text().splitlines()
    cells = lines[4].split(",")
    cells[1] = repr(float(cells[1]) * 1.001)
    lines[4] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    assert check(tmp) is not None
    print("selftest: gates catch wrong fit, extract and error-map outputs", flush=True)


def test_seed_changes_inputs(tmp: Path) -> None:
    from resloss import cli

    table = ROOT / "src" / "resloss" / "data" / "table1.json"
    run = status_only(inprocess_executor(None))
    digests = {}
    for label, seed in (("a", 1), ("b", 1), ("c", 2)):
        wl = workloads.Interactive(cli._DEFAULT_TRUTH, table, small=True)
        inputs = wl.prepare(tmp / label, seed, 0, run)
        digests[label] = (inputs.directory / "fix_ppc" / "power_sweep.csv").read_bytes()
    assert digests["a"] == digests["b"], "same seed gave different inputs"
    assert digests["a"] != digests["c"], "seed did not change the inputs"
    print("selftest: seed argument changes the generated inputs", flush=True)


def main() -> int:
    tmp = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        test_benchmark_json_matches()
        test_gates_catch_misses(tmp)
        test_seed_changes_inputs(tmp)
        test_metrics_emitted()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
