"""Measure the benchmark on the current checkout and write perfbench/baseline.json.

    python3 perfbench/record_baseline.py

For each workload declared in ``BENCHMARK.json`` it makes one untraced run
per seed at the declared run length and reports each end-to-end metric's
median, quartiles and spread (quartile distance over median), then one
traced run for the per-layer metrics.  It also runs ``bar1d_recover`` once
with the known past-limit cases that exit 1 instead of the documented 2
added, so their failure fraction is on record.  Runs are sequential; the
three workloads take about twenty minutes.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from metrics import KKT_CAP_REASON, LAYER_MAP  # noqa: E402
from workloads import KKT_MAX_N, KNOWN_DEFECT_CASES  # noqa: E402

BASELINE = HERE / "baseline.json"
SEEDS = range(101, 111)


def one(workload, seed, seconds, trace=0, known_defects=False) -> dict:
    args = SimpleNamespace(workload=workload, seed=seed, seconds=seconds, trace=trace,
                           smoke=False, known_defects=known_defects)
    start = time.monotonic()
    res = run.measure(args)
    res["wall_s"] = time.monotonic() - start
    s = res["summary"]
    print(f"{workload} seed {seed} trace {trace}: {s['attempted']} ops, "
          f"{s['failed']} failed, " + ", ".join(
              f"{k} {v:.4g}" for k, v in res["end_to_end"].items()), flush=True)
    return res


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    seeds = list(SEEDS)

    doc = {
        "kkt_size_cap": {"max_n": KKT_MAX_N, "reason": KKT_CAP_REASON},
        "mapping": {name: {**LAYER_MAP.get(name, {}), "unit": unit}
                    for name, unit in units.items()},
        "workloads": {},
    }
    for workload in why:
        runs = [one(workload, seed, seconds) for seed in seeds]
        traced = one(workload, seeds[0], seconds, trace=1)
        doc["env"] = runs[0]["env"]
        doc["workloads"][workload] = {
            "why": why[workload],
            "run_seconds": seconds,
            "seeds": seeds,
            "ops_per_run": [r["summary"]["attempted"] for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
            "ops_by_kind": runs[0]["summary"]["ops_by_kind"],
            "tail_percentile": [r["summary"]["tail_percentile"] for r in runs],
            "failed": sum(r["summary"]["failed"] for r in runs),
            "fail_frac": sum(r["summary"]["failed"] for r in runs)
            / sum(r["summary"]["attempted"] for r in runs),
            "end_to_end": {
                name: {**spread([r["end_to_end"][name] for r in runs]),
                       "unit": m["unit"], "bound": m["bound"]}
                for name, m in e2e.items()
            },
            "host": [{"ref_median_s": r["summary"]["ref_median_s"],
                      "import_ref_s": r["import_ref_s"],
                      "raw_setup_s": r["setup_raw_s"],
                      "raw_latency_p50_s": r["summary"]["raw_latency_p50_s"],
                      "raw_certs_per_s": r["summary"]["raw_certs_per_s"]} for r in runs],
            "per_layer": {name: {"value": v, "unit": units[name]}
                          for name, v in traced["per_layer"].items()},
            "absent_layers": traced["absent"],
        }
    if "bar1d_recover" in why:
        defects = one("bar1d_recover", seeds[0], seconds, known_defects=True)
        doc["known_defects"] = {
            "run_seconds": seconds,
            "cases": [{"amp": a, "n": n, "expected_exit": 2} for a, n in KNOWN_DEFECT_CASES],
            "workload": "bar1d_recover",
            "attempted": defects["summary"]["attempted"],
            "failed": defects["summary"]["failed"],
            "fail_frac": defects["summary"]["fail_frac"],
            "failures": defects["failures"],
            "end_to_end": defects["end_to_end"],
        }
    BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
