"""Which end-to-end metric each per-layer metric is expected to move, on
which workload, and what it is predicted to read elsewhere.

Names, units and bounds of every reported metric, and the workloads, are
declared once, in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

# Printed with the end-to-end metrics but not part of the JSON result: it is
# 0 on every workload of the default mix (a ratio with median 0 has no share
# bound), and the result's "failed"/"attempted" carry the same count.
REPORTED_ONLY = {"fail_frac": "ratio"}

ONE_D = ("bar1d_certify", "bar1d_recover")
THREE_D = ("box3d_certify",)
ALL = ONE_D + THREE_D


def _layer(workloads, moves, prediction=""):
    return {"workloads": workloads, "moves": moves, "prediction": prediction}


_CERTIFY, _RECOVER = ("bar1d_certify",), ("bar1d_recover",)
_P50 = ("latency_p50_s", "elems_per_s")
_KKT = ("latency_tail_s", "peak_rss_mb")
_DESCENT = ("latency_tail_s", "fail_frac")
_TAIL = ("latency_tail_s",)
_3D_THROUGHPUT = ("latency_p50_s", "certs_per_s", "elems_per_s")
_ZERO_3D = "reads 0 on box3d_certify (no 1D code runs there)"
_ZERO_1D = "reads 0 on bar1d_certify and bar1d_recover (no 3D code runs there)"

# Per-layer metrics of the traced run.  Times and counts are per op of the
# workload (the traced pass replays exactly the ops of the untraced pass), so
# a faster commit that completes more ops in the window still compares.
LAYER_MAP = {
    # bar1d_certify
    "primal1d.solve_newton.busy_s": _layer(_CERTIFY, _P50, _ZERO_3D),
    "primal1d.solve_tridiagonal.busy_s": _layer(_CERTIFY, _P50, _ZERO_3D),
    "primal1d.solve_tridiagonal.calls": _layer(_CERTIFY, _P50, _ZERO_3D),
    "primal1d.energy.busy_s": _layer(_CERTIFY, _P50, _ZERO_3D),
    "primal1d.energy.calls": _layer(_CERTIFY, _P50, _ZERO_3D),
    "dual1d.saddle_verify.self_s": _layer(_CERTIFY, _P50, _ZERO_3D),
    "dual1d.minimize_in_z_ball.busy_s": _layer(_CERTIFY, _P50, _ZERO_3D),
    "dual1d.minimize_in_z_ball.calls": _layer(_CERTIFY, _P50, _ZERO_3D),
    "dual1d.dual_functional.busy_s": _layer(_CERTIFY, _P50, _ZERO_3D),
    "dual1d.dual_functional.calls": _layer(_CERTIFY, _P50, _ZERO_3D),
    "dual1d.certify.self_s": _layer(_CERTIFY, _P50, _ZERO_3D),
    "primal1d.second_variation_min_eig.busy_s": _layer(_CERTIFY, (), _ZERO_3D),
    # bar1d_recover
    "dual1d.kkt_solve.busy_s": _layer(_RECOVER, _KKT, _ZERO_3D),
    "dual1d.kkt_solve.calls": _layer(_RECOVER, _KKT, _ZERO_3D),
    "dual1d.kkt_solve.iters": _layer(
        _RECOVER, _KKT, _ZERO_3D + "; 0 on bar1d_certify, where KKT converges at iteration 0"),
    "dual1d.kkt_solve.dense_bytes": _layer(
        _RECOVER, ("peak_rss_mb",),
        "computed as (4n-1)^2*8 for the largest iterating call; " + _ZERO_3D),
    "primal1d.solve_descent.busy_s": _layer(_RECOVER, _DESCENT, _ZERO_3D),
    "primal1d.solve_descent.calls": _layer(_RECOVER, _DESCENT, _ZERO_3D),
    "primal1d.fallback_frac": _layer(
        _RECOVER, _DESCENT, "descent runs / certify1d ops (wasted Newton work); " + _ZERO_3D),
    # box3d_certify
    **{
        f"tensor3d.{fn}.{stat}": _layer(THREE_D, _3D_THROUGHPUT, _ZERO_1D)
        for fn in ("g_star_k_density", "construct_duals_pointwise", "pd_margin",
                   "f_star_3d_density", "dstar_hessian_z_3d")
        for stat in ("busy_s", "calls")
    },
    "fem3d.certify_3d.self_s": _layer(THREE_D, _3D_THROUGHPUT, _ZERO_1D),
    "fem3d.hessian_3d.busy_s": _layer(THREE_D, _TAIL, _ZERO_1D),
    "fem3d.hessian_3d.calls": _layer(THREE_D, _TAIL, _ZERO_1D),
    "fem3d.hessian_3d.dense_bytes": _layer(
        THREE_D, ("peak_rss_mb",), "computed as n_dof^2*8 for the largest mesh; " + _ZERO_1D),
    "fem3d.solve_newton_3d.self_s": _layer(THREE_D, _TAIL, "mostly the dense LU; " + _ZERO_1D),
    "fem3d.residual_3d.busy_s": _layer(THREE_D, _TAIL, _ZERO_1D),
    "fem3d.residual_3d.calls": _layer(THREE_D, _TAIL, _ZERO_1D),
    "fem3d.energy_3d.busy_s": _layer(THREE_D, _TAIL, _ZERO_1D),
    "fem3d.energy_3d.calls": _layer(THREE_D, _TAIL, _ZERO_1D),
    "tensor3d.admissible_k_max.busy_s": _layer(THREE_D, (), _ZERO_1D),
    "tensor3d.admissible_k_max.calls": _layer(THREE_D, (), _ZERO_1D),
    # all workloads
    "cli.self_s": _layer(
        ALL, ("latency_p50_s",),
        "parsing, model set-up, serialisation and the write; 0 for KKT restarts"),
    "cli.report_bytes": _layer(ALL, ("latency_p50_s",)),
    "trace_overhead_frac": _layer(
        ALL, (), "traced certs_per_s loss relative to the untraced pass"),
    "trace_residual_frac": _layer(
        ALL, (), "share of op wall time outside every wrapped span (harness overhead)"),
}

KKT_CAP_REASON = (
    "KKT restarts stop at n = 1024: kkt_solve builds a dense (4n-1)^2 Jacobian, "
    "134 MB at n = 1024 and about 2.1 GB at n = 4096, which does not fit a "
    "small shared machine.  The O(n^3) growth still shows through peak_rss_mb "
    "and dual1d.kkt_solve.dense_bytes."
)
