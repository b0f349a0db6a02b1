"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload ``BENCHMARK.json`` declares on its smallest inputs
(``--smoke``), untraced and traced, and checks that each declared metric is
printed by name with its unit, that the JSON result carries exactly the
declared metrics, and that the benchmark refuses to run in a directory
without ``src/``.  Exits 0 when every check holds.  Not collected by pytest:
it starts several processes and takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import REPORTED_ONLY  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def check_run(workload: str, trace: int, problems: list[str]) -> None:
    proc = run([str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--smoke"])
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: outputs failed the oracle")
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: JSON metrics/units differ: {sorted(set(got) ^ set(expected))}")
    for name, unit in {**expected, **REPORTED_ONLY}.items():
        line = next((x for x in lines if x.startswith(f"metric {name} = ")), None)
        if line is None or f" {unit}" not in line:
            problems.append(f"{where}: {name} not printed with unit {unit}")


def check_refuses_without_src(workload: str, problems: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([f"{HERE.name}/run.py", "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=tmp)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py without src/ did not fail silently on stdout")


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    problems: list[str] = []
    workloads = [w["name"] for w in BENCH["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            check_run(workload, trace, problems)
    check_refuses_without_src(workloads[0], problems)
    for p in problems:
        print("FAIL:", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
