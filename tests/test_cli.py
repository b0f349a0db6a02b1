"""Tests for the command-line interface: subcommands, exit codes, report
formats, and determinism."""

import json

import pytest

from elastodual import cli


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
        # The continuation Newton needs 41 (n = 2048) and 49 (n = 4096) of
        # its 50 iterations in one stage here; a tridiagonal solve that
        # rounds differently tips it into the descent fallback and exit 1.
        code = run_cli(["certify1d", "--amp", "1.5", "--n", n])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED
        assert doc["primal"]["condition_ok"] is False

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
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[-1] == "OK"
            assert abs(float(fields[3])) <= 1e-10  # gap column

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

    def test_hypothesis_exit_code(self, capsys):
        code = run_cli(["certify3d", "--traction", "2,0,0"])
        capsys.readouterr()
        assert code == cli.EXIT_HYPOTHESIS_VIOLATED


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
