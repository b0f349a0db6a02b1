"""Tests for the command-line interface: subcommands, exit codes, report
formats, and determinism."""

import collections
import json

import pytest
from scipy.linalg import LinAlgError

from elastodual import cli, dual1d, fem3d, primal1d
from elastodual.errors import NonConvergence


def run_cli(args):
    return cli.main(args)


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
        for key in ("version", "config_echo", "primal", "dual", "saddle", "kkt"):
            assert key in doc
        assert doc["version"] == "1.2" and "seed" not in doc
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
        # Newton at the full load crosses the limit point; the line search
        # needs 14 of its 50 iterations.
        code = run_cli(["certify1d", "--amp", "1.5", "--n", n])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        assert doc["primal"]["condition_ok"] is False

    @pytest.mark.parametrize(
        "amp,n", [("10", "1024"), ("1.5", "4"), ("2", "4"), ("3", "4")]
    )
    def test_past_limit_point_exit_code(self, amp, n, capsys):
        code = run_cli(["certify1d", "--amp", amp, "--n", n])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        assert doc["primal"]["condition_ok"] is False
        assert doc["primal"]["residual_norm"] <= 1e-12

    def test_small_ea_fails_on_curvature(self, capsys):
        # the 1e-2 ball is wide against den ~ EA/2: it holds points where the
        # z-problem is not convex, so the saddle proof fails
        code = run_cli(["certify1d", "--E", "0.1", "--amp", "0.03", "--n", "512"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_SOLVER_ERROR
        assert doc["primal"]["condition_ok"] is True
        assert doc["saddle"]["z_curvature_floor"] <= 0.0
        assert doc["errors"][0].startswith("saddle_z: z-curvature floor")

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
        # the CI sweep: one pass, two far-branch minima and one solve stopped
        # at the residual floor after all 50 Newton iterations
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep1d", "--amps=0.3,1,1.5,3", "--n=4096", "--out", str(out)])
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        assert [row[-1] for row in rows] == ["OK", "HYPOTHESIS", "HYPOTHESIS", "FAILED"]
        assert [row[-2] for row in rows] == ["4", "16", "14", "50"]

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
        # < m_min_eig 2.2958 < min_hessian_z_eig 2.3004: a check of the
        # z-curvature floor against the M tensor would fail this case
        code = run_cli(
            ["certify3d", "--lam=3", "--mu=0.5", "--box=1.25,0.8,0.8",
             "--mesh=3,2,2", "--traction=0.01,0.008,0.008",
             "--body=0.004,0.004,0.004", "--mode=spherical", "--K=0.3"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_PASS
        assert doc["passed"] is True and doc["errors"] == []
        assert (doc["z_curvature_floor"] < doc["m_min_eig"]
                < doc["min_hessian_z_eig"])

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
        cholesky, failures = fem3d.cholesky_banded, []

        def counted(*args, **kwargs):
            try:
                return cholesky(*args, **kwargs)
            except LinAlgError:
                failures.append(mesh)
                raise

        monkeypatch.setattr(fem3d, "cholesky_banded", counted)
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

    def test_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["ktensor", "--out", str(a)])
        run_cli(["ktensor", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDeterminism:
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
        "certify3d --K nan --mesh 2,2,2",
        "certify3d --lam inf --mesh 2,2,2",
        "certify3d --box 1,0,1 --mesh 2,2,2",
        "ktensor --mu 0",
        "certify1d --seed -2",
        "certify1d --seed -1",
        "certify3d --mesh 2,2,2 --seed -1",
        "sweep1d --amps 0.1 --seed -1",
    ],
)
def test_invalid_input_exit_code(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args.split())
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    assert "Traceback" not in captured.err
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        ("certify1d --seed x", "argument --seed: expected an integer, got 'x'"),
        ("certify1d --amp x", "argument --amp: expected a number, got 'x'"),
        ("sweep1d --amps 0.1,x", "argument --amps: expected a number, got 'x'"),
        ("certify3d --mesh 2,x,2", "argument --mesh: expected an integer, got 'x'"),
        ("certify3d --box 1,y,1", "argument --box: expected a number, got 'y'"),
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
