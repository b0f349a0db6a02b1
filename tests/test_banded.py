"""The box's banded Cholesky, solve and transposed triangular solve, called
from numpy's bundled LAPACK, against scipy.linalg's wrappers of the same
routines, and the CLI's answer on a numpy that lacks them."""

import _ctypes
import types

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dtbtrs

from elastodual import banded, cli, fem3d
from elastodual.fem3d import SolidModel
from elastodual.tensor3d import LameParams

MESHES = [(2, 2, 2), (4, 4, 2), (8, 2, 2)]


def _bands(dims):
    """The converged tangent, the shifted local-minimality matrix that
    ``certify_3d`` factors last, and the converged free residual R0."""
    m = SolidModel(1.0, 1.0, 1.0, *dims, LameParams(1.0, 1.0),
                   np.zeros(3), np.array([0.02, 0.0, 0.0]))
    mesh, _, g, sigma, R0 = fem3d.solve_newton_3d(m)
    factored, factor = [], banded.factor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(banded, "factor", lambda ab: factored.append(ab.copy()) or factor(ab))
        assert fem3d.certify_3d(m).passed
    return {"tangent": fem3d.band_tangent_3d(m, mesh, g, sigma),
            "local_min": factored[-1]}, R0


@pytest.fixture(scope="module", params=MESHES, ids=lambda d: ",".join(map(str, d)))
def bands(request):
    return _bands(request.param)


@pytest.mark.parametrize("which", ["tangent", "local_min"])
def test_matches_scipy_bit_for_bit(bands, which):
    (abs_, R0), rng = bands, np.random.default_rng(0)
    ab = abs_[which]
    c, reference = banded.factor(ab), scipy.linalg.cholesky_banded(ab, check_finite=False)
    assert np.array_equal(c, reference)
    for b in (R0, rng.standard_normal(R0.size)):
        want = scipy.linalg.cho_solve_banded((reference, False), b, check_finite=False)
        assert np.array_equal(banded.solve(c, b), want)
        want = dtbtrs(reference, b[:, None], uplo="U", trans="T")[0][:, 0]
        assert np.array_equal(banded.solve_transposed(c, b), want)
    assert np.array_equal(ab, abs_[which])  # the inputs are copied, not overwritten


@pytest.mark.parametrize("k", [0, 7, -1])
def test_indefinite_band_raises_scipys_error(bands, k):
    ab = bands[0]["tangent"].copy()
    ab[-1, k] = -1.0  # the k-th leading minor is the first that is not positive
    with pytest.raises(np.linalg.LinAlgError) as ours:
        banded.factor(ab)
    with pytest.raises(scipy.linalg.LinAlgError) as theirs:
        scipy.linalg.cholesky_banded(ab, check_finite=False)
    assert str(ours.value) == str(theirs.value) == \
        f"{k % ab.shape[1] + 1}-th leading minor not positive definite"


def test_illegal_argument_is_a_value_error(capfd):
    c = np.ones((1, 1), order="F")
    with pytest.raises(ValueError, match=r"^illegal value in -2-th argument of internal pbtrf$"):
        banded._lapack("dpbtrf", b"U", -1, 0, c, 1)
    capfd.readouterr()  # LAPACK's xerbla writes its own line


def test_shapes_are_checked_before_lapack(monkeypatch):
    ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0]])
    c = banded.factor(ab)

    def unreachable(*args):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(banded, "_lapack", unreachable)
    with pytest.raises(ValueError, match=r"^expected a band of shape \(band \+ 1, n\)$"):
        banded.factor(ab[1])
    for solve in (banded.solve, banded.solve_transposed):
        for b in (np.ones(2), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValueError, match="^shapes of the factor and the right-hand"):
                solve(c, b)


@pytest.fixture
def no_lapack(monkeypatch):
    """A numpy whose extension's libraries export no LAPACK: the lookup goes
    through _ctypes' shared object, which links none."""
    stand_in = types.SimpleNamespace(__file__=_ctypes.__file__)
    monkeypatch.setattr(banded, "_multiarray_umath", stand_in)
    banded._routine.cache_clear()
    yield
    banded._routine.cache_clear()


def test_missing_routine_exits_1_with_one_line(no_lapack, capsys):
    code = cli.main(["certify3d", "--mesh", "2,2,2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_SOLVER_ERROR
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "elastodual: error: this numpy does not export LAPACK's dpbtrf as scipy_dpbtrf_64_;"
        " the 3D solve needs a numpy wheel that bundles scipy-openblas64 (PyPI, numpy >= 2.0)"
    ]
    # the bar and ktensor never call it
    assert cli.main(["certify1d", "--n", "64"]) == cli.EXIT_PASS
    assert cli.main(["ktensor"]) == cli.EXIT_PASS
