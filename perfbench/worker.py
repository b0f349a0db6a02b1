"""One workload process: import the package from ``src/``, warm up, run the
closed loop, check every output, and print the raw results as one JSON line.

Started by ``perfbench/run.py``; not meant to be run by hand.  With
``--setup-only`` it stops after the first warm-up op and reports the set-up
time.  With ``--trace 1`` the untraced loop gets half of ``--seconds`` and
the traced replay of the same ops the other half.

Host speed.  The benchmark runs on shared machines, where the speed of a
core changes by 1.4-1.8x from one second to the next and a whole run can
fall in a slow stretch.  So a fixed reference kernel (``Reference``) is
timed before every op and after the last, and each op's time is rescaled to
the reference speed: multiplied by ``REF_NOMINAL_S`` over the mean reference
time around the op (see ``speed_factors``).  The reported times are these
rescaled ones ("seconds at reference speed"); the raw wall times are printed
beside them.  ``run.py`` rescales the set-up time in the same way, against
a process that imports what the package imports.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from before the package import

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Executor, OracleFailure  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RERUNS = 3  # seeded subset of ops re-run for the byte-identity check
REF_NOMINAL_S = 0.003  # reference kernel time that defines "reference speed"
REF_REACH = 2.0  # reference timings this many op durations away still count


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--known-defects", action="store_true")
    p.add_argument("--spans", default=None, help="where the traced run writes spans")
    return p.parse_args(argv)


def import_package():
    """Import elastodual from the checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import elastodual
    from elastodual import cli, dual1d, fem3d, primal1d, tensor3d

    where = Path(elastodual.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"elastodual imported from {where}, not from {ROOT / 'src'}")
    return {"cli": cli, "primal1d": primal1d, "dual1d": dual1d,
            "tensor3d": tensor3d, "fem3d": fem3d}


class Reference:
    """Fixed work in the proportions the certifier spends its time on:
    interpreted Python, many small numpy calls, and one small dense LU
    solve.  It does not touch the package, so a change to the program
    leaves it alone."""

    def __init__(self, np):
        import scipy.linalg

        rng = np.random.default_rng(0)
        self.np, self.solve = np, scipy.linalg.solve
        self.a = rng.standard_normal((160, 160)) + 160.0 * np.eye(160)
        self.b = rng.standard_normal(160)
        self()  # first call pays one-off costs

    def __call__(self) -> float:
        """Seconds this process takes for the fixed work right now: the
        faster of two back-to-back timings, so that the caches the last op
        left cold, or one interrupt, do not count."""
        return min(self._once(), self._once())

    def _once(self) -> float:
        np = self.np
        t = time.perf_counter()
        acc = 0
        for i in range(12000):
            acc += i * i % 7
        x = np.linspace(0.0, 1.0, 256)
        for _ in range(110):
            x = np.sin(x) * 0.5 + np.cos(x) * 0.5
        self.solve(self.a, self.b + x[:160])
        return time.perf_counter() - t


def speed_factors(refs, records) -> list[float]:
    """Per-op factor to reference speed.  ``refs`` holds (time, seconds) of
    the reference timings taken before each op and after the last.  An op's
    factor is ``REF_NOMINAL_S`` over the mean of the two timings beside it
    and of every other timing within ``REF_REACH`` op durations of it: the
    two beside a short op describe the host while it ran, and a long op,
    through which the host's speed changes, is matched against a longer
    stretch."""
    times = [t for t, _ in refs]
    values = [v for _, v in refs]
    factors = []
    for i, rec in enumerate(records):
        reach = REF_REACH * (rec.end - rec.start)
        lo = min(i, bisect.bisect_left(times, rec.start - reach))
        hi = max(i + 2, bisect.bisect_right(times, rec.end + reach))
        factors.append(REF_NOMINAL_S / statistics.fmean(values[lo:hi]))
    return factors


class Record:
    """Outcome of one op: ``latency`` is the call alone; ``start`` and
    ``end`` also take in input preparation and the output check."""

    __slots__ = ("latency", "start", "end", "ok", "error", "digest", "report_bytes")

    def __init__(self, latency, ok, error="", digest="", report_bytes=0):
        self.latency, self.ok, self.error = latency, ok, error
        self.digest, self.report_bytes = digest, report_bytes
        self.start = self.end = 0.0

    @property
    def total(self) -> float:
        return self.end - self.start


def run_one(executor, op, tracer=None, index=-1) -> Record:
    """Prepare, call and check one op.  A failure is recorded, never
    raised."""
    start = time.perf_counter()
    rec = _run_one(executor, op, tracer, index)
    rec.start, rec.end = start, time.perf_counter()
    return rec


def _run_one(executor, op, tracer, index) -> Record:
    try:
        call = executor.prepare(op)
    except Exception as exc:  # input preparation failed: the op fails
        return Record(0.0, False, f"prepare: {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.op_index = index
    t = time.perf_counter()
    try:
        result = call()
    except Exception as exc:
        return Record(time.perf_counter() - t, False, f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.op_index = -1
    latency = time.perf_counter() - t
    try:
        digest, nbytes = executor.check(op, result)
    except OracleFailure as exc:
        return Record(latency, False, str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return Record(latency, False, f"malformed report: {type(exc).__name__}: {exc}")
    return Record(latency, True, digest=digest, report_bytes=nbytes)


def closed_loop(executor, ref, workload, rng, seconds, smoke, known_defects):
    """Run whole cycles for about ``seconds``; one client, each op starts
    when the previous one has returned.  A cycle is started only if, at the
    mean cycle time so far, it ends less than half a cycle past the window.
    Returns the ops, their records, the cycle of each op and the reference
    times, one before each op and one after the last."""
    ops, records, cycle_of, refs, walls = [], [], [], [], []
    start = time.perf_counter()
    while True:
        k = len(walls)
        batch = workloads.warmup(workload, rng) if smoke else workloads.cycle(workload, rng)
        if k == 0 and known_defects:
            batch += workloads.known_defects(rng)
        t = time.perf_counter()
        for op in batch:
            refs.append((time.perf_counter(), ref()))
            ops.append(op)
            records.append(run_one(executor, op))
            cycle_of.append(k)
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if smoke or elapsed + statistics.fmean(walls) / 2 >= seconds:
            refs.append((time.perf_counter(), ref()))
            return ops, records, cycle_of, refs


def _per_cycle(ops, members, latency, total):
    """Median over cycles of (median op latency, ops/s, elems/s), where a
    cycle's time is the sum of its ops' ``total`` times."""
    p50, certs, elems = [], [], []
    for m in members:
        wall = sum(total[i] for i in m)
        p50.append(statistics.median(latency[i] for i in m))
        certs.append(len(m) / wall)
        elems.append(sum(ops[i].elems for i in m) / wall)
    return statistics.median(p50), statistics.median(certs), statistics.median(elems)


def summarize(ops, records, cycle_of, refs, tail_beyond) -> dict:
    """End-to-end figures of one pass, at reference speed.  The median
    latency and the throughputs are taken per cycle (a cycle has the same
    size mix in every run) and their median over cycles is reported, so one
    disturbed cycle does not move them.  A cycle's time is its ops' calls,
    input preparation and output checks, without the reference timings.
    The tail pools every op of the run: it is the op with ``tail_beyond``
    ops per cycle slower than it, which keeps it inside one class of ops
    however many cycles the run holds."""
    factor = speed_factors(refs, records)
    lat = [r.latency * f for r, f in zip(records, factor)]
    total = [r.total * f for r, f in zip(records, factor)]
    n = len(lat)
    members = [[i for i, c in enumerate(cycle_of) if c == k]
               for k in range(cycle_of[-1] + 1)]
    beyond = min(n - 1, tail_beyond * len(members))
    p50, certs, elems = _per_cycle(ops, members, lat, total)
    raw_p50, raw_certs, _ = _per_cycle(ops, members, [r.latency for r in records],
                                       [r.total for r in records])
    failed = [i for i, r in enumerate(records) if not r.ok]
    return {
        "attempted": n,
        "failed": len(failed),
        "failures": [f"{ops[i].label()}: {records[i].error}" for i in failed[:20]],
        "latency_p50_s": p50,
        "latency_tail_s": sorted(lat)[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
        "certs_per_s": certs,
        "elems_per_s": elems,
        "fail_frac": len(failed) / n,
        "busy_s": sum(lat),
        "cycle_wall_s": [sum(total[i] for i in m) for m in members],
        "raw_latency_p50_s": raw_p50,
        "raw_certs_per_s": raw_certs,
        "ref_median_s": statistics.median(v for _, v in refs),
        "ref_nominal_s": REF_NOMINAL_S,
        "ops_by_kind": {k: sum(op.kind == k for op in ops)
                        for k in sorted({op.kind for op in ops})},
    }


def rerun_subset(executor, ops, records, seed) -> int:
    """Re-run a seeded subset and mark ops whose output bytes differ."""
    picks = random.Random(f"rerun:{seed}").sample(range(len(ops)), min(RERUNS, len(ops)))
    for i in picks:
        again = run_one(executor, ops[i])
        if records[i].ok and (not again.ok or again.digest != records[i].digest):
            records[i].ok = False
            records[i].error = "seeded re-run is not byte-identical"
    return len(picks)


def traced_pass(executor, ref, modules, ops, records, spans_path) -> dict:
    """Replay the same ops with every layer wrapped; every op doubles as a
    byte-identity re-run of the untraced pass."""
    tracer = Tracer(modules)
    refs, traced = [], []
    tracer.install()
    try:
        for i, op in enumerate(ops):
            refs.append((time.perf_counter(), ref()))
            traced.append(run_one(executor, op, tracer, i))
        refs.append((time.perf_counter(), ref()))
    finally:
        tracer.uninstall()
    for first, again in zip(records, traced):
        if first.ok and (not again.ok or again.digest != first.digest):
            first.ok = False
            first.error = "traced re-run is not byte-identical"
    stats = tracer.layer_stats()
    busy = sum(r.latency * f for r, f in zip(traced, speed_factors(refs, traced)))
    if spans_path:
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    return {
        "layers": stats,
        "traced_busy_s": busy,
        "traced_raw_busy_s": sum(r.latency for r in traced),
        "root_busy_s": tracer.root_busy_s(),
        "report_bytes": sum(r.report_bytes for r in traced),
        "spans": len(tracer.start),
    }


def blas_info() -> list[dict]:
    """Name and thread count of each OpenBLAS loaded into this process."""
    import ctypes
    import re

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return [{"library": "unknown", "threads": None}]
    found = []
    for path in sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))):
        lib = ctypes.CDLL(path)
        threads = config = None
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is not None and threads is None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                if cfg is not None and config is None:
                    cfg.restype = ctypes.c_char_p
                    config = cfg().decode(errors="replace").strip()
        found.append({"library": Path(path).name, "config": config, "threads": threads})
    return found


def environment(workload, seed, np, scipy) -> dict:
    import os
    import platform

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "workload": workload,
        "seed": seed,
        "client_threads": 1,
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_package()
    import numpy as np
    import scipy

    rng = random.Random(f"{args.workload}:{args.seed}")
    executor = Executor(modules["cli"], modules["dual1d"], modules["primal1d"], np)
    first, *rest = workloads.warmup(args.workload, rng)
    warm = [run_one(executor, first)]
    out = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        ref = Reference(np)
        warm += [run_one(executor, op) for op in rest]
        window = args.seconds / 2 if args.trace else args.seconds
        ops, records, cycle_of, refs = closed_loop(
            executor, ref, args.workload, rng, window, args.smoke, args.known_defects)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["reruns"] = rerun_subset(executor, ops, records, args.seed)
        if args.trace:
            out["trace"] = traced_pass(executor, ref, modules, ops, records, args.spans)
        out["summary"] = summarize(ops, records, cycle_of, refs,
                                   workloads.TAIL_BEYOND[args.workload])
        out["env"] = environment(args.workload, args.seed, np, scipy)
    out["warmup_failures"] = [r.error for r in warm if not r.ok]
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
