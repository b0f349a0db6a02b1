"""Tests for the command-line interface: subcommands, exit codes, report
formats, and determinism."""

import collections
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastodual import banded, cli, dual1d, fem3d, primal1d, tensor3d
from elastodual.errors import NonConvergence

from conftest import reference_hessian_certificate, reference_report_json


def run_cli(args):
    return cli.main(args)


SRC = Path(__file__).resolve().parent.parent / "src"
# runs cli.main in a fresh interpreter, then prints its exit code and whether
# scipy and logging were imported
COLD_START = ("import sys; from elastodual import cli; code = cli.main(sys.argv[1:]); "
              "print(code, 'scipy' in sys.modules, 'logging' in sys.modules)")


class TestCertify1D:
    def test_pass_case(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            ["certify1d", "--E", "1", "--A", "1", "--L", "1",
             "--amp", "0.1", "--n", "64", "--seed", "7", "--out", str(out)]
        )
        assert code == cli.EXIT_PASS
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert abs(doc["dual"]["gap"]) <= 1e-10
        for key in ("version", "config_echo", "primal", "dual", "saddle"):
            assert key in doc
        assert doc["version"] == "1.3" and "seed" not in doc
        assert doc["config_echo"]["seed"] == 7
        assert set(doc["primal"]) == {
            "J", "residual_norm", "min_eig_floor", "newton_iters",
            "condition_norm", "condition_ok",
        }
        assert doc["primal"]["min_eig_floor"] > 0.0
        assert 1 <= doc["primal"]["newton_iters"] <= 5
        assert set(doc["saddle"]) == {
            "r", "r1", "r2", "z_curvature_floor", "z_deficit", "v_excess"
        }
        assert set(doc["local_min"]) == {"slope_radius", "energy_deficit"}

    def test_zero_amplitude_gap_exactly_zero(self, capsys):
        code = run_cli(["certify1d", "--amp", "0"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PASS
        doc = json.loads(captured.out)
        assert doc["dual"]["gap"] == 0.0

    def test_hypothesis_violation_exit_code(self, capsys):
        code = run_cli(["certify1d", "--amp", "10"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        doc = json.loads(captured.out)
        assert doc["primal"]["condition_ok"] is False

    @pytest.mark.parametrize("n", ["2048", "4096"])
    def test_far_branch_exit_code(self, n, capsys):
        # past the limit point: no equilibrium has every slope on the stable
        # branch, which the force solve proves before any Newton step
        code = run_cli(["certify1d", "--amp", "1.5", "--n", n])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        assert doc["primal"]["condition_ok"] is False

    @pytest.mark.parametrize(
        "amp,n", [("10", "1024"), ("1.5", "4"), ("2", "4"), ("3", "4")]
    )
    def test_past_limit_point_exit_code(self, amp, n, capsys):
        # no stable root: the report carries the proven bound 1 - 1/sqrt(3)
        # on the slopes of every equilibrium, and no solved state
        code = run_cli(["certify1d", "--amp", amp, "--n", n])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        assert doc["primal"]["condition_ok"] is False
        assert doc["primal"]["condition_norm"] == primal1d.FAR_SLOPE
        assert doc["primal"]["newton_iters"] == 0
        assert doc["primal"]["residual_norm"] == 0.0
        assert len(doc["errors"]) == 1
        assert doc["errors"][0].startswith("hypothesis: no equilibrium on the stable branch")

    @pytest.mark.parametrize(
        "E, amp, n, code",
        [
            ("1e-300", "1e-10", "4096", cli.EXIT_HYPOTHESIS_VIOLATED),  # a traceback before
            ("1e-150", "1", "64", cli.EXIT_HYPOTHESIS_VIOLATED),
            ("1", "1e150", "64", cli.EXIT_HYPOTHESIS_VIOLATED),
            # max |C|/(E*A) = 6.4e299, inside the 1e306 bound on the load
            ("1e-300", "1", "64", cli.EXIT_HYPOTHESIS_VIOLATED),
        ],
    )
    def test_extreme_scales(self, E, amp, n, code, capsys):
        # loads far past the limit for their E*A are proven to have no stable
        # root, within the double range and without a warning
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["certify1d", "--E", E, "--amp", amp, "--n", n]) == code
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["primal"]["condition_norm"] == primal1d.FAR_SLOPE

    def test_small_ea_fails_on_curvature(self, capsys):
        # the 1e-2 ball is wide against den ~ EA/2: it holds points where the
        # z-problem is not convex, so the saddle proof fails.  At E = 1e-300
        # den^2 underflows; r_v2 is formed from a = v1/den, so v_excess stays
        # finite and the report is strict JSON
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for E, amp, n in (("0.1", "0.03", "512"), ("1e-300", "0", "64")):
            code = run_cli(["certify1d", "--E", E, "--amp", amp, "--n", n])
            doc = json.loads(capsys.readouterr().out, parse_constant=reject)
            assert code == cli.EXIT_SOLVER_ERROR
            assert doc["primal"]["condition_ok"] is True
            assert doc["saddle"]["z_curvature_floor"] <= 0.0
            assert {e.split(":")[0] for e in doc["errors"]} == {"saddle_z"}
            assert doc["errors"][0].startswith("saddle_z: z-curvature floor")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_bounds_fail_as_the_largest_double(self, capsys):
        # at E = 1e-307 the saddle and local-minimality bounds overflow (inf
        # floor and deficit, NaN energy deficit): a bound with no proof is
        # reported as the largest double, a floor as its negative, and fails
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code = run_cli(["certify1d", "--E", "1e-307", "--amp", "0"])
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        big = np.finfo(float).max
        assert code == cli.EXIT_SOLVER_ERROR
        assert doc["saddle"]["z_curvature_floor"] == -big
        assert doc["saddle"]["z_deficit"] == doc["local_min"]["energy_deficit"] == big
        assert [e.split(":")[0] for e in doc["errors"]] == ["saddle_z", "saddle_z", "local_min"]

    def test_overflowing_eigenvalue_floor(self, capsys):
        # at L = 1e-155 the unit chain's eigenvalue (2 sin(pi/2n)/h)^2 leaves
        # the double range: the floor is reported as the largest double, a
        # positive floor still proven, and nothing raises or warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["certify1d", "--L", "1e-155", "--amp", "0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_PASS and doc["passed"]
        assert doc["primal"]["min_eig_floor"] == primal1d.BIG

    def test_mesh_cap(self):
        with pytest.raises(SystemExit):
            run_cli(["certify1d", "--n", "5000"])


class TestSweep1D:
    def test_empty_list_header_only(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep1d", "--amps", "", "--out", str(out)])
        assert code == cli.EXIT_PASS
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("amp,J_primal,J_dual,gap")

    def test_three_amplitudes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep1d", "--amps", "0,0.05,0.1", "--n", "32", "--out", str(out)]
        )
        assert code == cli.EXIT_PASS
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[0].split(",")[7] == "saddle_bound"
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[-1] == "OK"
            assert abs(float(fields[3])) <= 1e-10  # gap column
            assert 0.0 <= float(fields[7]) <= dual1d.SADDLE_TOL

    def test_duplicate_amplitudes_identical_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["sweep1d", "--amps", "0.1,0.1", "--n", "32", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[1] == lines[2]

    def test_failed_rows_do_not_stop_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep1d", "--amps", "0.05,10,0.1", "--n", "32", "--out", str(out)]
        )
        assert code != cli.EXIT_PASS
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[2].endswith("HYPOTHESIS")
        assert lines[1].endswith("OK") and lines[3].endswith("OK")

    def test_past_limit_statuses(self, tmp_path):
        # the CI sweep: one pass in one joint force-solve step, and three bars
        # past the limit point, proven to have no stable root before any step
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep1d", "--amps=0.3,1,1.5,3", "--n=4096", "--out", str(out)])
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        assert [row[-1] for row in rows] == ["OK", "HYPOTHESIS", "HYPOTHESIS", "HYPOTHESIS"]
        assert [row[-2] for row in rows] == ["1", "0", "0", "0"]

    def test_solver_failure_row(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NonConvergence("stalled")

        monkeypatch.setattr(primal1d, "solve_newton", fail)
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep1d", "--amps", "0.1", "--out", str(out)])
        assert code == cli.EXIT_SOLVER_ERROR
        assert out.read_text().strip().split("\n")[1].endswith(",FAILED")


class TestCertify3D:
    def test_zero_loads(self, capsys):
        code = run_cli(["certify3d", "--traction", "0,0,0"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PASS
        doc = json.loads(captured.out)
        assert doc["gap"] == 0.0

    def test_default_case(self, tmp_path):
        out = tmp_path / "report3d.json"
        code = run_cli(["certify3d", "--out", str(out)])
        assert code == cli.EXIT_PASS
        doc = json.loads(out.read_text())
        assert abs(doc["gap"]) <= 1e-8 * (1.0 + abs(doc["J_primal"]))
        assert doc["mode"] == "identity"

    def test_infeasible_k_exit_code(self, capsys):
        code = run_cli(["certify3d", "--K", "100"])
        capsys.readouterr()
        assert code == cli.EXIT_NO_ADMISSIBLE_K

    @pytest.mark.parametrize("K", ["-1", "0"])
    def test_nonpositive_k_exit_code(self, K, capsys):
        code = run_cli(["certify3d", "--mesh", "2,2,2", f"--K={K}"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_NO_ADMISSIBLE_K
        assert doc["k_feasible"] is False
        assert doc["errors"] == ["K hypotheses infeasible: K must be positive"]

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_bound_fails(self, capsys):
        # at mu = 3e-308 the z-side bound's rounding term 12 (3|lam'| + 2 mu')
        # ||S|| is inf * 0 at every point: a NaN z deficit proves nothing, so
        # it is reported as the largest double and fails its check
        argv = "certify3d --mu=3e-308 --lam=0 --traction=0,0,0 --mesh=2,2,2".split()
        code = run_cli(argv)
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == cli.EXIT_SOLVER_ERROR
        assert "NaN" not in out and "Infinity" not in out
        assert doc["z_deficit"] == np.finfo(float).max
        assert doc["errors"] == ["z_convex: z deficit 1.798e+308 > 1.000e-10"]

    def test_default_k_held_to_the_k_rule(self, capsys):
        # the default K ~ 5.4e-309 has 4/K past the double range, which --K
        # may not have: no admissible K, before any dual field is formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["certify3d", "--mu=3e-309", "--lam=0", "--traction=0,0,0",
                            "--mesh=2,2,2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_NO_ADMISSIBLE_K
        assert doc["errors"] == ["K hypotheses infeasible: 4/K is not finite at K = 5.432e-309"]
        assert doc["k_feasible"] is False and doc["K_used"] == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv, fields, failed", [
        # bound 2's shift overflows, and the shifted Cholesky fails
        pytest.param("--mu=1e307", {"local_min_shift": 1, "energy_deficit": 1},
                     ["local_min"], id="mu=1e307"),
    ])
    def test_non_finite_values_fail_as_the_largest_double(self, argv, fields, failed, capsys):
        # a value with no proof or no finite value is reported as the largest
        # double, a floor as its negative: strict JSON, and its check fails
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code = run_cli(["certify3d", argv, "--lam=0", "--traction=0,0,0", "--mesh=2,2,2"])
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == cli.EXIT_SOLVER_ERROR
        assert {k: doc[k] for k in fields} == {
            k: sign * np.finfo(float).max for k, sign in fields.items()}
        assert [e.split(":")[0] for e in doc["errors"]] == failed

    def test_failed_check_is_named(self, capsys):
        # the default K (0.999 K_max) fails the Hessian-versus-M check here
        code = run_cli(["certify3d", "--mesh", "2,2,2", "--mode", "spherical"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_SOLVER_ERROR
        assert doc["passed"] is False
        assert len(doc["errors"]) == 1
        assert doc["errors"][0].startswith("hessian: min z-Hessian eig ")
        assert f"< M min eig {doc['m_min_eig']:.3e}" in doc["errors"][0]

    def test_spherical_corner_case_passes(self, capsys):
        # inside the benchmark's parameter box, with z_curvature_floor 2.2585
        # < m_min_eig 2.2958 < the z-Hessian's smallest eigenvalue 2.3004: a
        # check of the z-curvature floor alone against the M tensor would fail
        # this case, so bound 3 leaves points open and eigensolves them
        argv = ["certify3d", "--lam=3", "--mu=0.5", "--box=1.25,0.8,0.8",
                "--mesh=3,2,2", "--traction=0.01,0.008,0.008",
                "--body=0.004,0.004,0.004", "--mode=spherical", "--K=0.3"]
        code = run_cli(argv)
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_PASS
        assert doc["passed"] is True and doc["errors"] == []
        args = cli.build_parser().parse_args(argv)
        _, errors, min_eig = reference_hessian_certificate(
            cli._solid_model(args), args.K, args.mode)
        assert errors == []
        assert doc["z_curvature_floor"] < doc["m_min_eig"] < min_eig

    @pytest.mark.parametrize(
        "scale, exit_code",
        [("1e-110", cli.EXIT_PASS), ("1e160", cli.EXIT_PASS),
         ("1e-200", cli.EXIT_PASS), ("1e-300", cli.EXIT_PASS),
         ("1e300", cli.EXIT_PASS)],
    )
    def test_extreme_lame_scale(self, scale, exit_code, capsys):
        # the compliance and the z-side bound's q and ||A^-1|| are formed over
        # powers of two, and LAPACK's inverse of A scales exactly, so no
        # 2 mu (3 lam + 2 mu), low^3, square or inverse leaves the double
        # range, and nothing warns; the z-side ball's radius scales with K,
        # so it fits inside the PD margin at every scale
        args = ["certify3d", f"--mu={scale}", f"--lam={scale}",
                "--traction=0,0,0", "--mesh=2,2,2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(args)
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert [str(w.message) for w in caught] == []
        assert captured.err == ""
        assert code == exit_code
        assert doc["passed"] is (exit_code == cli.EXIT_PASS)
        assert bool(doc["errors"]) is not doc["passed"]
        assert all(e.startswith("z_convex: ") for e in doc["errors"])

    def test_tiny_k_certifies(self, capsys):
        # at K = 1e-300 an absolute term in the z-side ball's radius would
        # make the ball outgrow the PD margin K/2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["certify3d", "--mesh=4,4,2", "--traction=0,0,0", "--K=1e-300"])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == [] and captured.err == ""
        assert code == cli.EXIT_PASS
        assert json.loads(captured.out)["K_used"] == 1e-300

    def test_hypothesis_exit_code(self, capsys):
        code = run_cli(["certify3d", "--traction", "2,0,0"])
        capsys.readouterr()
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED

    def test_one_stage_newton_reaches_hypothesis_check(self, capsys):
        # the line-search Newton converges from u = 0 at the full load, to a
        # state that breaks the gradient bound
        code = run_cli(["certify3d", "--mesh=4,4,4", "--traction=-0.5,0,0"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        assert len(doc["errors"]) == 1
        assert doc["errors"][0].startswith("hypothesis: max |u_i,j| = ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "mesh, exit_code",
        [
            ("2,2,2", cli.EXIT_HYPOTHESIS_VIOLATED),
            ("8,2,2", cli.EXIT_HYPOTHESIS_VIOLATED),
            ("3,2,2", cli.EXIT_HYPOTHESIS_VIOLATED),
        ],
    )
    def test_indefinite_tangent_exit_code(self, mesh, exit_code, monkeypatch, capsys):
        # a compressive load makes the tangent indefinite on some Newton
        # steps; banded Cholesky fails there and the step solves the
        # tensile-stress tangent instead
        cholesky, failures = banded.factor, []

        def counted(*args, **kwargs):
            try:
                return cholesky(*args, **kwargs)
            except np.linalg.LinAlgError:
                failures.append(mesh)
                raise

        monkeypatch.setattr(banded, "factor", counted)
        code = run_cli(["certify3d", f"--mesh={mesh}", "--traction=-0.5,0,0"])
        json.loads(capsys.readouterr().out)
        assert code == exit_code
        assert failures

    def test_traction_sweep_exit_codes(self, capsys):
        # 99 loads on three meshes, most far outside the hypothesis: each
        # certifies, breaks the hypothesis or (one case) stops at the
        # 50-iteration cap.  Exit 0 exactly where |tx| <= 0.2 with ty = 0, and
        # at ty = 0.05 for tx = 0.2, and for tx = 0.1 off the 4^3 mesh.
        txs = (-0.5, -0.2, -0.1, -0.05, -0.03, 0.03, 0.1, 0.2, 0.5, 1, 2)
        codes = {}
        for mesh in ("8,2,2", "4,4,4", "2,4,4"):
            for tx in txs:
                for ty in (0, 0.05, 0.3):
                    argv = ["certify3d", f"--mesh={mesh}", f"--traction={tx},{ty},0"]
                    codes[mesh, tx, ty] = run_cli(argv)
                    assert "Traceback" not in capsys.readouterr().err
        assert collections.Counter(codes.values()) == {
            cli.EXIT_HYPOTHESIS_VIOLATED: 72, cli.EXIT_PASS: 26, cli.EXIT_SOLVER_ERROR: 1
        }
        passed = {key for key, code in codes.items() if code == cli.EXIT_PASS}
        assert passed == {
            (mesh, tx, ty)
            for mesh in ("8,2,2", "4,4,4", "2,4,4")
            for tx, ty in [(tx, 0) for tx in txs if abs(tx) <= 0.2]
            + [(0.2, 0.05)] + ([(0.1, 0.05)] if mesh != "4,4,4" else [])
        }
        assert codes["8,2,2", -0.2, 0.05] == cli.EXIT_SOLVER_ERROR

    @pytest.mark.parametrize("lam", ["1e16", "1e17"])
    def test_nearly_incompressible_material(self, lam, capsys):
        code = run_cli(["certify3d", "--mesh", "2,2,2", "--lam", lam])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_PASS
        assert doc["errors"] == []

    def test_solver_failure_exit_code(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NonConvergence("stalled")

        monkeypatch.setattr(fem3d, "solve_newton_3d", fail)
        code = run_cli(["certify3d", "--mesh", "2,2,2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_SOLVER_ERROR
        assert doc["errors"] == ["newton: stalled"]


class TestKTensor:
    def test_both_modes_reported(self, tmp_path):
        out = tmp_path / "ktensor.json"
        code = run_cli(["ktensor", "--lam", "1", "--mu", "1", "--out", str(out)])
        assert code == cli.EXIT_PASS
        doc = json.loads(out.read_text())
        assert set(doc["modes"]) == {"identity", "spherical"}
        for mode in doc["modes"].values():
            assert mode["K_max"] > 0
            # margin is negative beyond K_max, positive below
            for s in mode["samples"]:
                if s["K"] < mode["K_max"]:
                    assert s["min_eig_sym"] > 0
                else:
                    assert s["min_eig_sym"] <= 0

    def test_overflowing_eigenvalue_is_the_largest_double(self, capsys):
        # at mu = 1e-308, K = K_max/4 has 1/K = inf: the sample's eigenvalue
        # is reported as the largest double, so the report stays strict JSON
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["ktensor", "--mu=1e-308", "--lam=0"])
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == cli.EXIT_PASS
        for mode in doc["modes"].values():
            assert mode["samples"][0]["min_eig_sym"] == primal1d.BIG
            for s in mode["samples"]:
                assert (s["min_eig_sym"] > 0) == (s["K"] < mode["K_max"])

    def test_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["ktensor", "--out", str(a)])
        run_cli(["ktensor", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDeterminism:
    def test_certify1d_independent_of_the_blas_kernel(self):
        # the bar's report calls no BLAS routine: OpenBLAS's Haswell, Nehalem
        # and Sandybridge kernels print the bytes that the host's kernel does
        def report(kernel):
            env = dict(os.environ, PYTHONPATH=str(SRC))
            env.pop("OPENBLAS_CORETYPE", None)
            if kernel:
                env["OPENBLAS_CORETYPE"] = kernel
            return subprocess.run(
                [sys.executable, "-m", "elastodual.cli", "certify1d", "--n", "4096",
                 "--amp", "0.3"], env=env, capture_output=True, timeout=120, check=True,
            ).stdout

        host = report(None)
        assert json.loads(host)["passed"] is True
        for kernel in ("Haswell", "Nehalem", "Sandybridge"):
            assert report(kernel) == host

    def test_certify1d_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["certify1d", "--amp", "0.1", "--n", "64", "--seed", "3"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mesh", ["2,2,2", "8,2,2"])
    @pytest.mark.parametrize(
        "mode", [["--mode", "identity"], ["--mode", "spherical", "--K", "0.5"]],
        ids=["identity", "spherical"],
    )
    def test_certify3d_byte_identical(self, tmp_path, mesh, mode):
        # spherical mode at about 0.25 K_max: the default K fails there
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["certify3d", "--mesh", mesh, "--seed", "5"] + mode
        assert run_cli(args + ["--out", str(a)]) == cli.EXIT_PASS
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_certify3d_seed_is_only_echoed(self, capsys):
        # the 3D bounds draw no samples: at the 8^3 mesh cap, --seed 1 and
        # --seed 2 print the same report apart from the config echo
        docs = []
        for seed in (1, 2):
            args = ["certify3d", "--mesh", "8,8,8", "--seed", str(seed)]
            assert run_cli(args) == cli.EXIT_PASS
            doc = json.loads(capsys.readouterr().out)
            assert doc.pop("config_echo")["seed"] == seed
            docs.append(json.dumps(doc, indent=2, sort_keys=True))
        assert docs[0] == docs[1]

    def test_reused_parser(self, capsys):
        # one parser serves every call of the process: a report must not
        # depend on the calls before it, failed ones included
        certify3d = ["certify3d", "--mesh", "2,2,2"]
        assert run_cli(certify3d) == cli.EXIT_PASS
        first = capsys.readouterr().out
        assert run_cli(["certify1d"]) == cli.EXIT_PASS
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify1d", "--n", "1"])
        assert exc.value.code == cli.EXIT_INVALID_INPUT
        capsys.readouterr()
        assert run_cli(certify3d) == cli.EXIT_PASS
        assert capsys.readouterr().out == first
        parser = cli.build_parser()
        assert parser is cli.build_parser()
        a, b = (parser.parse_args(certify3d) for _ in range(2))
        for name in ("box", "body", "traction"):
            assert getattr(a, name) is not getattr(b, name)


# every value a report field can hold: finite floats (+-0.0 and subnormals
# among them), bools, ints, strings and error lists
_FIELD_VALUES = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "int": st.integers(),
    "str": st.text(),
    "list[str]": st.lists(st.text(), max_size=4),
}
_REPORTS = st.sampled_from([dual1d.GapReport, fem3d.Gap3DReport]).flatmap(
    lambda cls: st.builds(
        cls, **{f.name: _FIELD_VALUES[f.type] for f in dataclasses.fields(cls)}
    )
)
# every value argparse puts in the config echo: finite floats (-0.0,
# subnormals and 1.7e308 among them), ints, lists of floats and of ints,
# None (an unset --K), and strings and keys with quotes, backslashes, % and
# non-ASCII characters
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2e-308, 1.7e308, -1.7e308])
_TEXT = st.text() | st.text(alphabet='"\\%sé☃\x00\n ab')
_ECHOES = st.dictionaries(
    _TEXT,
    _FLOATS | st.integers() | st.lists(_FLOATS, max_size=3)
    | st.lists(st.integers(), max_size=3) | st.none() | _TEXT,
)
# any document of JSON values, float subclasses among the floats
_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _FLOATS.map(np.float64) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=12,
)
# the document ktensor writes
_KTENSOR_SAMPLE = st.fixed_dictionaries({"K": _FLOATS, "min_eig_sym": _FLOATS})
_KTENSOR = st.fixed_dictionaries({
    "lam": _FLOATS, "mu": _FLOATS,
    "modes": st.fixed_dictionaries({
        mode: st.fixed_dictionaries({
            "K_max": _FLOATS, "samples": st.lists(_KTENSOR_SAMPLE, min_size=6, max_size=6)})
        for mode in tensor3d.M_TENSOR_MODES}),
})


def _stdlib_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


class TestReportJson:
    """``cli.report_json`` writes both reports as their former serializers
    did (``conftest.reference_report_json``), byte for byte."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("certify1d --n 64 --amp 0.1", cli.EXIT_PASS),
            ("certify1d --amp 10 --n 2048", cli.EXIT_HYPOTHESIS_VIOLATED),  # no stable root
            ("certify1d --amp 10 --n 1024", cli.EXIT_HYPOTHESIS_VIOLATED),  # past the limit
            ("certify1d --E 0.1 --amp 0.03 --n 512", cli.EXIT_SOLVER_ERROR),
            ("certify1d --E 1e-300 --amp 0", cli.EXIT_SOLVER_ERROR),
            ("certify3d --mesh 2,2,2", cli.EXIT_PASS),
            ("certify3d --mesh 2,2,2 --K=-1", cli.EXIT_NO_ADMISSIBLE_K),
            ("certify3d --mesh 2,2,2 --traction=-0.5,0,0", cli.EXIT_HYPOTHESIS_VIOLATED),
            ("certify3d --mesh=8,2,2 --traction=-0.2,0.05,0", cli.EXIT_SOLVER_ERROR),  # cap
        ],
    )
    def test_cli_reports_match_the_reference(self, argv, code, monkeypatch, capsys):
        seen, serialize = [], cli.report_json

        def record(report, echo):
            seen.append((report, echo))
            return serialize(report, echo)

        monkeypatch.setattr(cli, "report_json", record)
        assert run_cli(argv.split()) == code
        (report, echo), = seen
        assert capsys.readouterr().out == reference_report_json(report, echo) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(report=_REPORTS, echo=_ECHOES)
    def test_drawn_reports_match_the_reference(self, report, echo):
        assert cli.report_json(report, echo) == reference_report_json(report, echo)

    @settings(max_examples=200, deadline=None)
    @given(doc=_DOCUMENTS | _KTENSOR)
    def test_writer_matches_the_stdlib(self, doc):
        # the one writer of the reports and of ktensor's document
        assert cli._json(doc) == _stdlib_json(doc)

    @settings(max_examples=20, deadline=None)
    @given(value=st.sampled_from([math.nan, math.inf, -math.inf]), wrap=st.booleans())
    def test_writer_refuses_non_finite_floats(self, value, wrap):
        with pytest.raises(ValueError):
            cli._json({"x": [np.float64(value)]} if wrap else value)

    def test_ktensor_document_matches_the_stdlib(self, capsys):
        assert run_cli(["ktensor", "--lam=0.7", "--mu=1.3"]) == cli.EXIT_PASS
        out = capsys.readouterr().out
        assert out == _stdlib_json(json.loads(out)) + "\n"

    def test_template_built_once_per_subcommand(self, capsys):
        cli._template.cache_clear()
        outs = []
        for _ in range(3):
            assert run_cli(["certify1d", "--n", "8"]) == cli.EXIT_PASS
            outs.append(capsys.readouterr().out)
        info = cli._template.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert outs[0] == outs[1] == outs[2]
        # one template per (report class, echo keys), and no more than the bound
        for k in range(3 * info.maxsize):
            report, echo = dual1d.GapReport(), {f"key%{k}": k}
            assert cli.report_json(report, echo) == reference_report_json(report, echo)
            assert cli._template.cache_info().currsize <= info.maxsize
        assert cli._template.cache_info().currsize == info.maxsize

    @settings(max_examples=50, deadline=None)
    @given(report=_REPORTS, value=st.sampled_from([math.nan, math.inf, -math.inf]),
           data=st.data())
    def test_non_finite_field_raises(self, report, value, data):
        floats = [f.name for f in dataclasses.fields(report) if f.type == "float"]
        setattr(report, data.draw(st.sampled_from(floats)), value)
        with pytest.raises(ValueError):
            cli.report_json(report, {})

    @pytest.mark.parametrize("cls", [dual1d.GapReport, fem3d.Gap3DReport])
    def test_each_field_once_at_its_place(self, cls):
        fields = dataclasses.fields(cls)
        # a distinct value per field shows one written twice or elsewhere
        doc = json.loads(cli.report_json(cls(**{f.name: [f.name] for f in fields}), {}))
        assert doc.pop("version") == cls.VERSION and doc.pop("config_echo") == {}
        leaves = {}
        for key, value in doc.items():
            if isinstance(value, dict):
                leaves.update({(key, k): v for k, v in value.items()})
            else:
                leaves[(key,)] = value
        places = {f.metadata.get("json", (f.name,)): [f.name] for f in fields}
        assert len(places) == len(fields)
        assert leaves == places
        # an unset field is written as its default: an int as 0, not 0.0
        for f in fields:
            if f.default is not dataclasses.MISSING:
                assert type(f.default).__name__ == f.type, f.name


MESH_STEP_OUT_OF_RANGE = (
    "certify1d --L 1e-320 --n 64",  # 1/h overflows
    "certify1d --L 5e-324 --n 64",  # h underflows to 0
    "certify3d --box 5e-324,1,1 --mesh 2,2,2",  # hx underflows to 0
    "certify3d --box 1e308,1e308,1e308 --mesh 2,2,2 --traction=0,0,0",  # volume overflows
)


@pytest.mark.parametrize(
    "args",
    [
        "certify1d --n 1",
        "certify1d --n 5000",
        "certify1d --E -1",
        "certify1d --amp nan",
        "certify1d --bogus",
        "sweep1d --amps 0.1,x",
        "sweep1d --amps 0.1 --n 1",
        "certify3d --mesh 9,9,9",
        "certify3d --mesh 2,2",  # expected three comma-separated values
        "certify3d --K nan --mesh 2,2,2",
        "certify3d --lam inf --mesh 2,2,2",
        "certify3d --box 1,0,1 --mesh 2,2,2",
        "ktensor --mu 0",
        "certify1d --seed -2",
        "certify1d --seed -1",
        "certify3d --mesh 2,2,2 --seed -1",
        "sweep1d --amps 0.1 --seed -1",
        # (3|lam| + 2 mu)/mu is not a finite double
        "certify3d --lam=1e300 --mu=1e-300 --traction=0,0,0 --mesh=2,2,2",
        "certify3d --lam=1e9 --mu=1e-300 --traction=0,0,0 --mesh=2,2,2",
        "certify3d --lam=1e308 --mu=1 --traction=0,0,0 --mesh=2,2,2",
        "ktensor --lam=1e308 --mu=1e308",
        # the compliance's 1/(3 lam + 2 mu) leaves the double range
        "certify3d --mu=1e-300 --lam=-6.66666666666e-301 --traction=0,0,0 --mesh=2,2,2",
        "ktensor --mu=1e-300 --lam=-6.66666666666e-301",
        # 4/K is not a finite double: M's 29/(32K) or the bounds' 3/K overflow
        "certify3d --mesh=2,2,2 --K=1e-320",
        "certify3d --mesh=2,2,2 --K=6e-309 --traction=0,0,0",
        # E*A underflows to 0 or overflows to inf
        "certify1d --E 1e-300 --A 1e-300",
        "certify1d --E 1e308 --A 10",
        # 8/(E*A) overflows: K = EA/2 breaks the --K rule, a finite 4/K
        "certify1d --E 1e-308 --amp 0",
        "certify1d --E 1e-309 --amp 0",
        "certify1d --E 1e-323 --amp 0",
        # the prefix loads over E*A pass 1e306: the force solve's closed form
        # would leave the double range
        "certify1d --E=1e-300 --amp=1e10 --n=64",
        "certify1d --E=1e-150 --amp=-1e300 --n=2",
        "certify1d --E=1e-50 --amp=-1e300 --n=4096",
        # a mesh step whose 1/h, 2/h or volume leaves the double range
        *MESH_STEP_OUT_OF_RANGE,
    ],
)
def test_invalid_input_exit_code(args, capsys):
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        warnings.simplefilter("error")
        run_cli(args.split())
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "error:" in captured.err


@pytest.mark.parametrize("args", MESH_STEP_OUT_OF_RANGE)
def test_mesh_step_out_of_range_warns_nothing(args, capsys):
    # rejected before numpy forms 1/h, 2/h or the volume, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run_cli(args.split())
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert "mesh step" in capsys.readouterr().err


@pytest.mark.parametrize("traction", ["0,0,0", "0.02,0,0"])
def test_smallest_k_warns_nothing(traction, capsys):
    # the least K with a finite 4/K: the box certifies unloaded and refuses
    # the K-feasibility gate loaded, and neither warns or leaves strict JSON
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    K = 4.0 / sys.float_info.max  # 2.225073858507202e-308; below it 4/K rounds to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["certify3d", "--mesh=2,2,2", f"--K={K!r}", f"--traction={traction}"])
    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == (cli.EXIT_PASS if traction == "0,0,0" else cli.EXIT_NO_ADMISSIBLE_K)
    assert doc["K_used"] == K
    with pytest.raises(SystemExit) as exc:
        run_cli(["certify3d", "--mesh=2,2,2", f"--K={math.nextafter(K, 0.0)!r}"])
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert "argument --K: expected a K with a finite 4/K" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        ("certify1d --seed x", "argument --seed: expected an integer, got 'x'"),
        ("certify1d --amp x", "argument --amp: expected a number, got 'x'"),
        ("sweep1d --amps 0.1,x", "argument --amps: expected a number, got 'x'"),
        ("certify3d --mesh 2,x,2", "argument --mesh: expected an integer, got 'x'"),
        ("certify3d --box 1,y,1", "argument --box: expected a number, got 'y'"),
        ("certify1d --n x", "argument --n: expected an integer, got 'x'"),
    ],
)
def test_unparsable_number_message(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args.split())
    err = capsys.readouterr().err
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert message in err
    # argparse's fallback "invalid <type name> value" would name a private parser
    assert "invalid" not in err and " _" not in err


@pytest.mark.parametrize(
    "args, echo",
    [
        (
            "certify1d --n 8 --seed 3",
            {"subcommand": "certify1d", "E": 1.0, "A": 1.0, "L": 1.0, "amp": 0.1,
             "n": 8, "seed": 3},
        ),
        (
            "certify3d --mesh 2,2,2 --K 0.3 --seed 4",
            {"subcommand": "certify3d", "lam": 1.0, "mu": 1.0, "box": [1.0, 1.0, 1.0],
             "mesh": [2, 2, 2], "body": [0.0, 0.0, 0.0], "traction": [0.02, 0.0, 0.0],
             "K": 0.3, "mode": "identity", "seed": 4},
        ),
    ],
)
def test_config_echo_is_the_parsed_options(args, echo, tmp_path):
    # the echo is every parsed option but --out: nothing the parser sets
    # for its own use may reach the report
    out = tmp_path / "report.json"
    assert run_cli([*args.split(), "--out", str(out)]) == cli.EXIT_PASS
    assert json.loads(out.read_text())["config_echo"] == echo


def test_unwritable_out_exits_before_the_solve(tmp_path, monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(dual1d, "certify", solve)
    out = tmp_path / "missing" / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["certify1d", "--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert "Traceback" not in captured.err
    assert "error:" in captured.err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "level, lines",
    [(None, 0), ("quiet", 0), ("1", 0), ("INFO", 0), ("info", 1), ("debug", 1)],
)
def test_logging_switch(level, lines):
    # a fresh interpreter, whose environment holds no DUALITY_LOG but the one
    # set here
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DUALITY_LOG", None)
    if level is not None:
        env["DUALITY_LOG"] = level
    run = subprocess.run(
        [sys.executable, "-m", "elastodual.cli", "certify1d", "--n", "8"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(run.stdout)["passed"] is True
    err = run.stderr.splitlines()
    assert len(err) == lines
    assert all(re.fullmatch(r"INFO elastodual: certify1d gap=\S+ passed=True", e) for e in err)


class TestReportWriteErrors:
    """A report that cannot be written (a closed stdout pipe, a full disk)
    exits 1 with one error line on stderr: no traceback, and nothing from the
    interpreter's flush of stdout at exit.  The stdout cases run with a
    buffered stdout, which keeps the bytes that its flush could not write,
    and with an unbuffered one (PYTHONUNBUFFERED)."""

    PIPE = "elastodual: error: cannot write the report: [Errno 32] Broken pipe"
    FULL = "elastodual: error: cannot write the report: [Errno 28] No space left on device"

    @staticmethod
    def _run(stdout, *args, unbuffered=False, **popen):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        run = subprocess.run(
            [sys.executable, "-m", "elastodual.cli", "certify1d", "--n", "64", *args],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
            **popen,
        )
        return run.returncode, run.stderr.splitlines()

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout(self, unbuffered):
        # started with fd 1 closed (`certify1d >&-`), the interpreter sets
        # sys.stdout to None: there is no fd 1 to point at devnull
        code, err = self._run(None, unbuffered=unbuffered, preexec_fn=lambda: os.close(1))
        assert code == cli.EXIT_SOLVER_ERROR
        assert err == ["elastodual: error: cannot write the report: stdout is closed"]

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_pipe(self, unbuffered):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the report is written
        try:
            code, err = self._run(write, unbuffered=unbuffered)
        finally:
            os.close(write)
        assert code == cli.EXIT_SOLVER_ERROR
        assert err == [self.PIPE]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout(self, unbuffered):
        with open("/dev/full", "w") as full:
            code, err = self._run(full, unbuffered=unbuffered)
        assert code == cli.EXIT_SOLVER_ERROR
        assert err == [self.FULL]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_out_file(self):
        code, err = self._run(subprocess.DEVNULL, "--out", "/dev/full")
        assert code == cli.EXIT_SOLVER_ERROR
        assert err == [self.FULL]


class TestColdStart:
    """Every subcommand runs on numpy alone: the box's banded Cholesky calls
    the LAPACK that numpy bundles; and none imports logging, whose import
    took 3 ms of a cold start for one stderr line.  Each case runs in a fresh
    interpreter, because pytest has imported scipy and logging already."""

    @pytest.mark.parametrize(
        "args, exit_code",
        [
            (["certify1d", "--n", "64"], cli.EXIT_PASS),
            (["sweep1d", "--amps=0.1,3"], cli.EXIT_HYPOTHESIS_VIOLATED),
            (["ktensor"], cli.EXIT_PASS),
            (["certify3d", "--mesh", "2,2,2"], cli.EXIT_PASS),
        ],
        ids=["certify1d", "sweep1d", "ktensor", "certify3d"],
    )
    def test_scipy_never_loads(self, args, exit_code, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = ["--out", str(tmp_path / "report")]
        run = subprocess.run(
            [sys.executable, "-c", COLD_START, *args, *out],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert run.stdout.split() == [str(exit_code), "False", "False"]


class TestSharedTopology:
    """Mesh topology is cached per shape across ops in one process: each op
    prints exactly the bytes that a fresh interpreter prints for it, whatever
    the shapes before it."""

    BENCHMARK_MESHES = ["2,2,2", "3,2,2", "2,3,2", "2,2,3", "8,2,2", "4,4,2", "2,4,4"]

    def test_ops_print_what_a_fresh_interpreter_prints(self, capsys):
        meshes, others = self.BENCHMARK_MESHES, ["3,3,2", "2,2,5", "5,2,3"]
        # one op per shape with Lame parameters of its own, every other one
        # in spherical mode with its own box and loads; run in two orders,
        # each interleaved with other shapes
        ops = {}
        for k, mesh in enumerate(meshes + others):
            ops[mesh] = ("certify3d", f"--mesh={mesh}", f"--lam={1.0 + 0.125 * k}")
            if k % 2:
                ops[mesh] += (f"--mu={0.8 + 0.0625 * k}", "--box=1.1,0.9,1.2",
                              "--traction=0.012,0.004,-0.003", "--body=0.002,0,0.001",
                              "--mode=spherical", "--K=0.3")
        first = [x for pair in zip(meshes, others * 3) for x in pair]
        second = [x for pair in zip(meshes[::-1], others[::-1] * 3) for x in pair]
        printed = {}
        for mesh in first + second:
            assert run_cli(list(ops[mesh])) == cli.EXIT_PASS
            printed.setdefault(ops[mesh], set()).add(capsys.readouterr().out)
        assert len(printed) == len(ops)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for argv, outs in printed.items():
            fresh = subprocess.run(
                [sys.executable, "-m", "elastodual.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            assert outs == {fresh.stdout}, argv
