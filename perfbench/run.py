"""Benchmark of the elastodual certifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``perfbench/workloads.py``) as a closed loop with one
client in a fresh process that imports the package from ``src/`` of this
checkout, checks every output, and prints each metric by name and unit.  The
last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same ops are replayed with every layer wrapped and the per-layer ones are
reported.  Names and units are those ``BENCHMARK.json`` declares.
``setup_s`` is the median over several fresh processes.  End-to-end times
are at reference speed: each is rescaled by a reference timed beside it on
the same host (see ``worker.py``), and the raw wall-clock figures are
printed on the ``host:`` line.  Exits non-zero, without a result line, when
the package or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import REPORTED_ONLY  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # extra fresh processes timed for setup_s
# One BLAS thread: the client is one thread, and a second BLAS thread would
# contend with it for the second core of a small shared machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is mostly importing numpy and scipy.linalg.  A fresh process that
# imports them without the package is timed after each set-up probe, and the
# probe's time is rescaled to a host on which that import takes
# IMPORT_NOMINAL_S, as worker.py does for op times.
IMPORT_REFERENCE = ("import time; t = time.perf_counter(); import numpy, scipy.linalg; "
                    "print(time.perf_counter() - t)")
IMPORT_NOMINAL_S = 0.3
DEADLINE_S = 170.0  # the whole run stays below 180 s
SPANS_DIR = ROOT / ".perfbench_out"


class BenchError(Exception):
    pass


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of ``BENCHMARK.json``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run only the smallest input of each op kind once")
    p.add_argument("--known-defects", action="store_true",
                   help="add the past-limit cases that exit 1 today to bar1d_recover")
    return p.parse_args(argv)


def worker(args, deadline, setup_only=False) -> dict:
    """Run perfbench/worker.py in a fresh process, then the import
    reference; return the worker's JSON line with ``import_ref_s`` added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if args.known_defects:
        cmd.append("--known-defects")
    if args.trace and not setup_only:
        cmd += ["--spans", str(SPANS_DIR / f"spans_{args.workload}.npz")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), DUALITY_LOG="quiet",
               **{v: "1" for v in BLAS_THREAD_VARS})
    out = json.loads(last_line(cmd, env, deadline))
    out["import_ref_s"] = float(last_line(
        [sys.executable, "-c", IMPORT_REFERENCE], env, deadline))
    return out


def last_line(cmd, env, deadline) -> str:
    """Run ``cmd`` from the checkout root; return the last line it prints."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{cmd[1]} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1]} printed no result")
    return lines[-1]


def per_layer(out: dict, names) -> dict[str, float]:
    """Per-layer metrics ``names`` from a traced worker result, per op."""
    summary, trace = out["summary"], out["trace"]
    n = summary["attempted"]
    layers = trace["layers"]
    values = {}
    for name in names:
        module, _, rest = name.partition(".")
        fn, _, stat = rest.rpartition(".")
        key = f"{module}.{fn}"
        if key in layers:
            raw = layers[key].get(stat, 0.0)
            values[name] = raw if stat == "dense_bytes" else raw / n
    untraced, traced = summary["busy_s"], trace["traced_busy_s"]
    cli = layers.get("cli.main", {})
    certify_1d_ops = summary["ops_by_kind"].get("certify1d", 0)
    descents = layers.get("primal1d.solve_descent", {}).get("calls", 0)
    values.update({
        "cli.self_s": cli.get("self_s", 0.0) / n,
        "cli.report_bytes": trace["report_bytes"] / n,
        "primal1d.fallback_frac": descents / certify_1d_ops if certify_1d_ops else 0.0,
        "trace_overhead_frac": 1.0 - untraced / traced,
        "trace_residual_frac": 1.0 - trace["root_busy_s"] / trace["traced_raw_busy_s"],
    })
    return pick(values, names)


def pick(values: dict, names) -> dict:
    """``values`` restricted to ``names``, in that order; every one must be there."""
    missing = [k for k in names if k not in values]
    if missing:
        raise BenchError(f"declared metrics not computed: {missing}")
    return {k: values[k] for k in names}


def measure(args) -> dict:
    """Run the set-up probes and the workload process; return every figure.

    Raises ``BenchError`` when a worker fails or runs out of time."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "elastodual" / "cli.py").is_file():
        raise BenchError(f"no elastodual package under {ROOT / 'src'}")
    probes = [worker(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    out = worker(args, deadline)
    probes.append(out)
    summary = out["summary"]
    e2e = pick({
        "setup_s": statistics.median(
            p["setup_s"] * IMPORT_NOMINAL_S / p["import_ref_s"] for p in probes),
        "latency_p50_s": summary["latency_p50_s"],
        "latency_tail_s": summary["latency_tail_s"],
        "certs_per_s": summary["certs_per_s"],
        "elems_per_s": summary["elems_per_s"],
        "peak_rss_mb": out["peak_rss_mb"],
    }, declared_units("end_to_end"))
    failures = summary["failures"] + [f"warm-up: {e}" for e in out["warmup_failures"]]
    return {
        "env": out["env"],
        "summary": summary,
        "setup_raw_s": statistics.median(p["setup_s"] for p in probes),
        "import_ref_s": statistics.median(p["import_ref_s"] for p in probes),
        "reruns": out["reruns"],
        "failures": failures,
        "end_to_end": e2e,
        "per_layer": per_layer(out, declared_units("per_layer")) if args.trace else None,
        "absent": sorted(k for k, v in out.get("trace", {}).get("layers", {}).items()
                         if v.get("absent")),
        "spans": out.get("trace", {}).get("spans", 0),
        "correct": not failures,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        res = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = res["summary"]
    print("env:", json.dumps(res["env"], sort_keys=True))
    print(f"ops: {summary['attempted']} {json.dumps(summary['ops_by_kind'])} in "
          f"{len(summary['cycle_wall_s'])} cycles "
          f"({', '.join(f'{b:.2f}' for b in summary['cycle_wall_s'])} s at reference speed), "
          f"re-run for byte identity: {res['reruns']}, "
          f"latency tail at p{summary['tail_percentile']:.1f} "
          f"({summary['tail_samples_beyond']} samples beyond)")
    print(f"host: reference kernel median {summary['ref_median_s'] * 1e3:.3f} ms "
          f"(reference speed: {summary['ref_nominal_s'] * 1e3:g} ms), import reference "
          f"median {res['import_ref_s']:.4g} s (reference speed: {IMPORT_NOMINAL_S:g} s); "
          "raw wall-clock "
          f"setup {res['setup_raw_s']:.4g} s, latency p50 "
          f"{summary['raw_latency_p50_s']:.4g} s, {summary['raw_certs_per_s']:.4g} ops/s")
    for failure in res["failures"]:
        print("FAILED:", failure)
    units = declared_units("end_to_end")
    for name, value in res["end_to_end"].items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, unit in REPORTED_ONLY.items():
        print(f"metric {name} = {summary[name]:.6g} {unit}")
    if args.trace:
        metrics = res["per_layer"]
        units = declared_units("per_layer")
        for name, value in metrics.items():
            note = " (absent)" if name.rsplit(".", 1)[0] in res["absent"] else ""
            print(f"metric {name} = {value:.6g} {units[name]}{note}")
        print(f"spans recorded: {res['spans']}")
    else:
        metrics = res["end_to_end"]
    result = {
        "correct": res["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
