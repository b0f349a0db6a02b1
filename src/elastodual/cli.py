"""Command-line front end: runs the 1D/3D certifications, amplitude sweeps,
and the K-feasibility exploration, emitting machine-readable JSON/CSV.

Exit codes: 0 all checks pass, 1 solver error (or a numpy whose libraries
lack the box's LAPACK routines, or a report that could not be written),
2 hypothesis violated, 3 no admissible K, 4 invalid input.  stdout carries
data only; DUALITY_LOG (quiet | info | debug) controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import dual1d, fem3d, tensor3d
from .errors import MissingRoutine, ReportNotWritten
from .primal1d import reported
from .tensor3d import LameParams

EXIT_PASS = 0
EXIT_SOLVER_ERROR = 1
EXIT_HYPOTHESIS_VIOLATED = 2
EXIT_NO_ADMISSIBLE_K = 3
EXIT_INVALID_INPUT = 4
SWEEP_STATUS = {EXIT_PASS: "OK", EXIT_HYPOTHESIS_VIOLATED: "HYPOTHESIS"}

MAX_ELEMS_1D = 4096
SEED_HELP = "echoed in the report; the certificates draw no samples"

def _fmt(x: float) -> str:
    """Locale-free scientific notation with 17 significant digits."""
    return f"{x:.16e}"


def _emit(text: str, out_path: str | None) -> None:
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:  # flushed here, so that a failure is raised here, not at exit
            if sys.stdout is None:  # started with fd 1 closed
                raise OSError("stdout is closed")
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
    except OSError as exc:
        if not out_path and sys.stdout:  # send what a buffered stdout kept to
            # devnull, or the flush at exit retries it: "Exception ignored", exit 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ReportNotWritten(f"cannot write the report: {exc}") from None


def _number(kind: type, text: str):
    """int or finite float of text; argparse prints a plain message if it is neither."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


_finite = functools.partial(_number, float)


def _modulus(text: str) -> float:
    """A finite K, with a finite 4/K if K > 0 (the box forms 29/(32K) and 3/K)."""
    value = _finite(text)
    if value > 0.0 and not 4.0 / value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a K with a finite 4/K, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = _number(int, text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _values(kind: type, count: int | None = None):
    """Parser of comma-separated numbers of ``kind``, exactly ``count`` of
    them if given; the empty string is no numbers."""

    def parse(text: str) -> list:
        values = [_number(kind, v) for v in text.split(",")] if text else []
        if count is not None and len(values) != count:
            words = {3: "three"}.get(count, count)
            raise argparse.ArgumentTypeError(f"expected {words} comma-separated values")
        return values
    return parse


_SLOT = object()  # a template's leaf: ``_json`` writes NUL, which no escaped string holds


def _json(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    writes it at the line break and indentation ``indent``: floats (subclasses
    too) by float.__repr__, a bool before an int, strings ASCII-escaped."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if value is _SLOT:
        return "\0"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=8)  # one per (report class, echo keys): per subcommand
def _template(cls: type, echo_keys: tuple) -> tuple[str, tuple]:
    """The report of ``cls`` with the config echo keys ``echo_keys``, a %s
    slot at each leaf (a % in a key doubled), and each slot's (source, name,
    indent): source 0 the report, 1 the echo, in path order, as ``_json``
    sorts keys.  A field's path is the (section, key) its declaration
    names, else (name,), the top level."""
    leaves = {("config_echo", k): (1, k) for k in echo_keys}
    leaves.update({f.metadata.get("json", (f.name,)): (0, f.name)
                   for f in dataclasses.fields(cls)})
    doc = {"version": cls.VERSION, "config_echo": {}}
    for path in leaves:
        (doc.setdefault(path[0], {}) if len(path) == 2 else doc)[path[-1]] = _SLOT
    text = _json(doc).replace("%", "%%").replace("\0", "%s")
    return text, tuple((*leaves[path], "\n" + "  " * len(path)) for path in sorted(leaves))


def report_json(report: dual1d.GapReport | fem3d.Gap3DReport, echo: dict) -> str:
    """The certify report as JSON of its schema ``VERSION``, with the config
    echo, each field at the place its class declares: its ``_template``
    with each leaf written by ``_json``."""
    text, slots = _template(type(report), tuple(echo))
    sources = (vars(report), echo)
    return text % tuple([_json(sources[s][name], indent) for s, name, indent in slots])


def _report_exit_code(report: dual1d.GapReport | fem3d.Gap3DReport) -> int:
    if any(e.startswith("newton:") for e in report.errors):
        return EXIT_SOLVER_ERROR
    if not report.condition_ok:
        return EXIT_HYPOTHESIS_VIOLATED
    if not getattr(report, "k_feasible", True):  # 1D: K = EA/2 is admissible
        return EXIT_NO_ADMISSIBLE_K
    return EXIT_PASS if report.passed else EXIT_SOLVER_ERROR


def _bar_models(args: argparse.Namespace, amps: list[float]) -> list:
    if args.n > MAX_ELEMS_1D:
        raise ValueError(f"1D mesh capped at {MAX_ELEMS_1D} elements")
    return [dual1d.sine_load_model(args.E, args.A, args.L, a, args.n) for a in amps]


def _solid_model(args: argparse.Namespace) -> fem3d.SolidModel:
    lame = LameParams(args.lam, args.mu)
    return fem3d.SolidModel(*args.box, *args.mesh, lame, args.body, args.traction)


def cmd_certify(args: argparse.Namespace, model) -> int:
    report = args.certify(args, model)
    echo = {k: v for k, v in vars(args).items()
            if k not in ("out", "func", "build", "certify")}
    _emit(report_json(report, echo), args.out)
    if os.environ.get("DUALITY_LOG") in ("info", "debug"):
        print(f"INFO elastodual: {args.subcommand} gap={report.gap:.3e}"
              f" passed={report.passed}", file=sys.stderr)
    return _report_exit_code(report)


def cmd_sweep1d(args: argparse.Namespace, models: list) -> int:
    header = (
        "amp,J_primal,J_dual,gap,ux_sup_norm,min_positivity_margin,"
        "min_hessian_z,saddle_bound,newton_iters,status"
    )
    rows = [header]
    worst = EXIT_PASS
    for amp, model in zip(args.amps, models):
        report = dual1d.certify(model)
        code = _report_exit_code(report)
        status = SWEEP_STATUS.get(code, "FAILED")
        values = (
            amp, report.J_primal, report.J_dual, report.gap, report.condition_norm,
            report.min_positivity_margin, report.min_hessian_z,
            max(report.z_deficit, report.v_excess),
        )
        rows.append(",".join([*map(_fmt, values), str(report.newton_iters), status]))
        worst = max(worst, code)
    _emit("\n".join(rows) + "\n", args.out)
    return worst


def cmd_ktensor(args: argparse.Namespace, lame: LameParams) -> int:
    doc: dict = {"lam": args.lam, "mu": args.mu, "modes": {}}
    for mode in tensor3d.M_TENSOR_MODES:
        k_max = tensor3d.admissible_k_max(lame, mode)
        samples = []
        for frac in (0.25, 0.5, 0.75, 0.9, 1.1, 2.0):
            K = k_max * frac
            eig = min(tensor3d.m_tensor_eigs(lame, K, mode))
            samples.append({"K": reported(K), "min_eig_sym": reported(eig)})
        doc["modes"][mode] = {"K_max": reported(k_max), "samples": samples}
    _emit(_json(doc), args.out)
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse's own exit code 2 is taken
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # string defaults go through ``type``: fresh lists per call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elastodual",
        description="Duality-gap certification for 1D and 3D nonlinear elasticity",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # options shared by several subcommands, each declared once
    shared = functools.partial(argparse.ArgumentParser, add_help=False)
    report, bar, lame = shared(), shared(), shared()
    report.add_argument("--out", default=None, help="report file (default stdout)")
    certifying = shared(parents=[report])
    certifying.add_argument("--seed", type=_seed, default=0, help=SEED_HELP)
    for name in ("--E", "--A", "--L"):
        bar.add_argument(name, type=_finite, default=1.0)
    bar.add_argument("--n", type=functools.partial(_number, int), default=64,
                     help="number of elements")
    for name in ("--lam", "--mu"):
        lame.add_argument(name, type=_finite, default=1.0)

    p1 = sub.add_parser("certify1d", parents=[bar, certifying],
                        help="certify the 1D bar duality principle")
    p1.add_argument("--amp", type=_finite, default=0.1, help="sine load amplitude")
    p1.set_defaults(func=cmd_certify, build=lambda a: _bar_models(a, [a.amp])[0],
                    certify=lambda a, m: dual1d.certify(m))

    ps = sub.add_parser("sweep1d", parents=[bar, certifying],
                        help="certification sweep over amplitudes")
    ps.add_argument("--amps", type=_values(float), default="", help="e.g. 0,0.05,0.1")
    ps.set_defaults(func=cmd_sweep1d, build=lambda a: _bar_models(a, a.amps))

    p3 = sub.add_parser("certify3d", parents=[lame, certifying],
                        help="certify the 3D solid duality principle")
    p3.add_argument("--box", type=_values(float, 3), default="1,1,1")
    p3.add_argument("--mesh", type=_values(int, 3), default="4,4,4")
    p3.add_argument("--body", type=_values(float, 3), default="0,0,0")
    p3.add_argument("--traction", type=_values(float, 3), default="0.02,0,0",
                    help="traction vector on the x = lx face")
    p3.add_argument("--K", type=_modulus, default=None)
    p3.add_argument("--mode", choices=tensor3d.M_TENSOR_MODES, default="identity")
    p3.set_defaults(func=cmd_certify, build=_solid_model,
                    certify=lambda a, m: fem3d.certify_3d(m, K=a.K, mode=a.mode))

    pk = sub.add_parser("ktensor", parents=[lame, report],
                        help="explore the admissible K interval")
    pk.set_defaults(func=cmd_ktensor, build=lambda a: LameParams(a.lam, a.mu))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # the models check the parsed values; the solve runs outside
        model = args.build(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.out:
        try:  # refuse an unwritable report path before the solve, not after
            open(args.out, "a").close()
        except OSError as exc:
            parser.error(f"cannot write --out: {exc}")
    try:
        return args.func(args, model)
    except (MissingRoutine, ReportNotWritten) as exc:  # no LAPACK; no report
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
