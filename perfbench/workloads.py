"""Operation mixes of the three benchmark workloads and the output oracle.

Every workload is an endless sequence of *cycles*.  A cycle holds a fixed
list of input sizes in a fixed order, so the mix and the allocation pattern
are identical from seed to seed; the seed draws the physical parameters and
the certifier seed of every op.  A run measures whole cycles, so its size
mix does not depend on where the clock ran out.

Each cycle has an odd number of ops and a single cost class at its middle,
so the median latency of a cycle sits inside one class rather than between
two.  The tail latency of a run is the op with ``TAIL_BEYOND`` ops per cycle
slower than it, which puts it inside the class of equal-size ops near the
top of every cycle whatever the number of cycles; ``perfbench/README.md``
has the numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass

# Documented certificate tolerances (dual1d.certify, fem3d.certify_3d).  The
# oracle keeps its own copy so that a change to a default cannot loosen it.
GAP_TOL_1D = 1e-10
GAP_TOL_3D = 1e-8
CONSTRAINT_TOL = 1e-9
SLOPE_LIMIT_1D = 0.25
GRADIENT_LIMIT_3D = 0.125
KKT_RECONVERGE_TOL = 1e-8
KKT_PERTURBATION = 1e-3

# bar1d_certify: sizes spanning the CLI range 64..4096.  The three n = 1024
# ops hold the median, the two n = 4096 ops the tail.
CERTIFY_1D_SIZES = (64, 128, 256, 512, 1024, 1024, 1024, 2048, 3072, 4096, 4096)
# Dimensionless load amp*L/(E*A); up to 0.5 keeps ||u_x|| below ~0.19 < 1/4.
CERTIFY_1D_LOAD = (0.05, 0.5)

# bar1d_recover, KKT restarts.  The dense Jacobian is (4n-1)^2 doubles, so
# n = 4096 would need about 2.1 GB; the restarts stop at n = 1024 (134 MB).
# One n = 1024 restart per cycle sets the peak memory.  The host's speed
# moves the big dense solves less than it moves interpreted code, so they
# follow the speed correction (worker.py) less closely; a cycle has one.
KKT_SIZES = (128, 256, 256, 512, 512, 512, 1024)
KKT_MAX_N = 1024
# bar1d_recover, past-the-limit-point certify1d ops (E = A = L = 1), each
# checked to exit 2 at the seed commit.  amp >= 2 at n <= 512 runs the
# Barzilai-Borwein descent fallback; amp <= 1.5 at n >= 1024 is solved by
# Newton on the far branch.  amp >= 2 at n >= 1024 (and amp = 2 at n = 2048)
# currently ends in a 200 000-iteration descent stall with exit 1; those are
# the KNOWN_DEFECT_CASES below and are not part of the default mix.  The
# three amp = 1 ops at n = 4096 hold the median of a 17-op cycle.
PAST_LIMIT_CASES = (
    (10.0, 64), (2.0, 128), (3.0, 256), (10.0, 512),
    (1.0, 1024), (1.5, 2048), (1.0, 4096), (1.0, 4096), (1.0, 4096), (1.5, 4096),
)
# Documented to exit 2; the descent stalls and they exit 1 after ~6 s and ~11 s.
KNOWN_DEFECT_CASES = ((10.0, 1024), (10.0, 4096))

# box3d_certify: the 8- and 12-element meshes (about 0.3-0.45 s each) hold
# the median of a cycle, and the three 32-element meshes (about 1.1 s, one of
# them 8 elements long) the tail.  Every axis is in 2..8; all but the first
# mesh are non-cubic.  A cycle takes about 5 s, so a run holds 5-9 cycles and
# the tail falls inside the 32-element class.
BOX_MESHES = (
    (2, 2, 2),
    (3, 2, 2), (2, 3, 2), (2, 2, 3),
    (8, 2, 2), (4, 4, 2), (2, 4, 4),
)
KTENSOR_PER_CYCLE = 2
MODES = ("identity", "spherical")

WORKLOADS = ("bar1d_certify", "bar1d_recover", "box3d_certify")

# Ops per cycle slower than the tail op: one of the two n = 4096 certify1d
# ops; the n = 1024 restart, the n = 512 descent, and one of the n = 256
# descent and the n = 4096, amp 1.5 op; two of the three 32-element meshes.
TAIL_BEYOND = {"bar1d_certify": 1, "bar1d_recover": 3, "box3d_certify": 2}


class OracleFailure(Exception):
    """An op's output broke one of the benchmark's checks."""


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a CLI call, or a KKT restart."""

    kind: str  # certify1d | certify3d | ktensor | kkt
    argv: tuple[str, ...] = ()
    expected_exit: int = 0
    elems: int = 0
    # KKT restart inputs: (E, A, L, amp, n, perturbation seed)
    kkt: tuple[float, float, float, float, int, int] | None = None

    def label(self) -> str:
        if self.kind == "kkt":
            return f"kkt n={self.kkt[4]}"
        return " ".join(self.argv)


def _f(x: float) -> str:
    return repr(float(x))


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _bar_params(rng: random.Random) -> tuple[float, float, float, float]:
    E = _loguniform(rng, 0.5, 2.0)
    A = _loguniform(rng, 0.5, 2.0)
    L = _loguniform(rng, 0.5, 2.0)
    amp = rng.uniform(*CERTIFY_1D_LOAD) * E * A / L
    return E, A, L, amp


def _certify1d(rng: random.Random, n: int) -> Op:
    E, A, L, amp = _bar_params(rng)
    argv = ("certify1d", f"--E={_f(E)}", f"--A={_f(A)}", f"--L={_f(L)}",
            f"--amp={_f(amp)}", f"--n={n}", f"--seed={rng.randrange(2**31)}")
    return Op("certify1d", argv, 0, n)


def _past_limit(rng: random.Random, amp: float, n: int) -> Op:
    argv = ("certify1d", f"--amp={_f(amp)}", f"--n={n}",
            f"--seed={rng.randrange(2**31)}")
    return Op("certify1d", argv, 2, n)


def _kkt(rng: random.Random, n: int) -> Op:
    if n > KKT_MAX_N:
        raise ValueError(f"KKT restarts are capped at n = {KKT_MAX_N}")
    E, A, L, amp = _bar_params(rng)
    return Op("kkt", elems=n, kkt=(E, A, L, amp, n, rng.randrange(2**31)))


def _certify3d(rng: random.Random, mesh: tuple[int, int, int], mode: str) -> Op:
    lam = _loguniform(rng, 0.5, 3.0)
    mu = _loguniform(rng, 0.5, 2.0)
    box = [rng.uniform(0.8, 1.25) for _ in range(3)]
    # Loads scale with mu.  At twice these magnitudes max|u_i,j| reached 0.13
    # on some draws; at these it stays near 0.05, well inside the 1/8 bound.
    tau = rng.uniform(0.005, 0.02) * mu
    traction = [tau, 0.8 * tau * rng.uniform(-1.0, 1.0), 0.8 * tau * rng.uniform(-1.0, 1.0)]
    body = [0.008 * mu * rng.uniform(-1.0, 1.0) for _ in range(3)]
    # "--flag=value" keeps a leading minus sign from reading as an option
    argv = ["certify3d", f"--lam={_f(lam)}", f"--mu={_f(mu)}",
            "--box=" + ",".join(map(_f, box)),
            "--mesh=" + ",".join(map(str, mesh)),
            "--traction=" + ",".join(map(_f, traction)),
            "--body=" + ",".join(map(_f, body)),
            f"--mode={mode}", f"--seed={rng.randrange(2**31)}"]
    if mode == "spherical":
        # The default K (0.999 K_max) fails the Hessian-versus-M check in
        # spherical mode; well inside the admissible interval it certifies.
        k_max = min(2.0 * mu, (23.0 / 32.0) * (3.0 * lam + 2.0 * mu))
        argv.append(f"--K={_f(rng.uniform(0.2, 0.3) * k_max)}")
    return Op("certify3d", tuple(argv), 0, mesh[0] * mesh[1] * mesh[2])


def _ktensor(rng: random.Random) -> Op:
    argv = ("ktensor", f"--lam={_f(_loguniform(rng, 0.5, 3.0))}",
            f"--mu={_f(_loguniform(rng, 0.5, 2.0))}")
    return Op("ktensor", argv, 0, 0)


def cycle(workload: str, rng: random.Random) -> list[Op]:
    """One cycle of ``workload``: its fixed size mix with seeded parameters."""
    if workload == "bar1d_certify":
        ops = [_certify1d(rng, n) for n in CERTIFY_1D_SIZES]
    elif workload == "bar1d_recover":
        ops = [_kkt(rng, n) for n in KKT_SIZES]
        ops += [_past_limit(rng, amp, n) for amp, n in PAST_LIMIT_CASES]
    elif workload == "box3d_certify":
        first = rng.randrange(2)
        ops = [_certify3d(rng, mesh, MODES[(first + k) % 2])
               for k, mesh in enumerate(BOX_MESHES)]
        ops += [_ktensor(rng) for _ in range(KTENSOR_PER_CYCLE)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def warmup(workload: str, rng: random.Random) -> list[Op]:
    """One op of each kind in ``workload`` on its smallest input; the first
    is the one that ``setup_s`` times."""
    if workload == "bar1d_certify":
        return [_certify1d(rng, CERTIFY_1D_SIZES[0])]
    if workload == "bar1d_recover":
        smallest = min(PAST_LIMIT_CASES, key=lambda c: c[1])
        return [_past_limit(rng, *smallest), _kkt(rng, KKT_SIZES[0])]
    if workload == "box3d_certify":
        return [_certify3d(rng, BOX_MESHES[0], mode) for mode in MODES] + [
            _ktensor(rng)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def known_defects(rng: random.Random) -> list[Op]:
    return [_past_limit(rng, amp, n) for amp, n in KNOWN_DEFECT_CASES]


# ----------------------------------------------------------------- execution


class Executor:
    """Runs ops against an imported ``elastodual`` and checks each output."""

    def __init__(self, cli, dual1d, primal1d, np):
        self.cli, self.dual1d, self.primal1d, self.np = cli, dual1d, primal1d, np

    def prepare(self, op: Op):
        """Untimed input preparation; returns the zero-argument op call."""
        if op.kind != "kkt":
            return lambda: self._cli_call(op)
        np, dual1d = self.np, self.dual1d
        E, A, L, amp, n, pseed = op.kkt
        m = dual1d.sine_load_model(E, A, L, amp, n)
        cfg = dual1d.DualConfig(K=m.EA / 2.0)
        u0 = self.primal1d.solve_newton(m)
        d = dual1d.construct_duals(m, u0, cfg)
        rng = np.random.default_rng(pseed)
        zp = d.z + KKT_PERTURBATION * rng.uniform(-1, 1, n)
        v1p = d.v1 + KKT_PERTURBATION * rng.uniform(-1, 1, n)
        v2p = d.v2 + KKT_PERTURBATION * rng.uniform(-1, 1, n)
        up = u0.u.copy()
        up[1:-1] += KKT_PERTURBATION * rng.uniform(-1, 1, n - 1)
        start = (dual1d.DualState1D(v1p, v2p, zp), up)
        ref = (d, u0.u)
        return lambda: (self.dual1d.kkt_solve(m, cfg, start), ref)

    def _cli_call(self, op: Op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse and size caps exit this way
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()

    def check(self, op: Op, result) -> tuple[str, int]:
        """Oracle; returns (digest of the output, report bytes) or raises
        ``OracleFailure``."""
        if op.kind == "kkt":
            return self._check_kkt(result), 0
        code, text = result
        if code != op.expected_exit:
            raise OracleFailure(f"exit {code}, expected {op.expected_exit}")
        doc = parse_strict(text)
        if op.kind == "certify1d":
            _check_certify1d(doc, op)
        elif op.kind == "certify3d":
            _check_certify3d(doc)
        else:
            _check_ktensor(doc)
        raw = text.encode()
        return hashlib.sha256(raw).hexdigest(), len(raw)

    def _check_kkt(self, result) -> str:
        np = self.np
        (d2, u2, iters), (d, u) = result
        arrays = (d2.v1, d2.v2, d2.z, u2)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise OracleFailure("non-finite KKT solution")
        delta = max(
            float(np.max(np.abs(d2.v1 - d.v1))), float(np.max(np.abs(d2.v2 - d.v2))),
            float(np.max(np.abs(d2.z - d.z))), float(np.max(np.abs(u2 - u))),
        )
        if not delta <= KKT_RECONVERGE_TOL:
            raise OracleFailure(f"KKT reconverged to {delta:.3e} > {KKT_RECONVERGE_TOL}")
        h = hashlib.sha256(str(int(iters)).encode())
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return h.hexdigest()


def _reject_constant(name: str):
    raise OracleFailure(f"non-standard JSON constant {name}")


def parse_strict(text: str) -> dict:
    """Parse a report, rejecting NaN/Infinity."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OracleFailure(f"report is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise OracleFailure("report is not a JSON object")
    return doc


def _check_certify1d(doc: dict, op: Op) -> None:
    primal, dual = doc["primal"], doc["dual"]
    if doc["config_echo"]["n"] != op.elems:
        raise OracleFailure("config echo does not match the request")
    if op.expected_exit == 2:
        if primal["condition_ok"] or not primal["condition_norm"] >= SLOPE_LIMIT_1D:
            raise OracleFailure("exit 2 without a violated slope condition")
        return
    if not doc["passed"] or doc["errors"]:
        raise OracleFailure(f"exit 0 but passed={doc['passed']} errors={doc['errors']}")
    if not abs(dual["gap"]) <= GAP_TOL_1D * (1.0 + abs(primal["J"])):
        raise OracleFailure(f"gap {dual['gap']:.3e} breaks its tolerance")
    if not dual["constraint_residual_norm"] <= CONSTRAINT_TOL:
        raise OracleFailure("constraint residual breaks its tolerance")
    if not primal["condition_norm"] < SLOPE_LIMIT_1D:
        raise OracleFailure("exit 0 with the slope condition violated")


def _check_certify3d(doc: dict) -> None:
    if not doc["passed"] or doc["errors"]:
        raise OracleFailure(f"exit 0 but passed={doc['passed']} errors={doc['errors']}")
    if not abs(doc["gap"]) <= GAP_TOL_3D * (1.0 + abs(doc["J_primal"])):
        raise OracleFailure(f"gap {doc['gap']:.3e} breaks its tolerance")
    if not doc["constraint_residual_norm"] <= CONSTRAINT_TOL:
        raise OracleFailure("constraint residual breaks its tolerance")
    if not doc["condition_max"] < GRADIENT_LIMIT_3D:
        raise OracleFailure("exit 0 with the 1/8 gradient condition violated")


def _check_ktensor(doc: dict) -> None:
    if set(doc["modes"]) != set(MODES):
        raise OracleFailure("ktensor report lacks a mode")
    for mode in doc["modes"].values():
        k_max = mode["K_max"]
        if not 0.0 < k_max < math.inf:
            raise OracleFailure(f"K_max {k_max} is not a positive finite number")
        for s in mode["samples"]:
            if (s["K"] < k_max) != (s["min_eig_sym"] > 0):
                raise OracleFailure("M-tensor margin sign disagrees with K_max")
