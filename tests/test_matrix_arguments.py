"""One symmetric-matrix rule for every covariance and correlation matrix.

errors.checked_symmetric takes every matrix the library factors,
diagonalizes or solves against.  Each entry point below refuses a matrix
with a NaN or an infinite entry with DomainError naming the entry, before
any arithmetic on it, so no RuntimeWarning is raised and no NaN comes
back as a factor, an eigenvalue or a weight; an asymmetric matrix raises
NotSymmetric naming its gap and bound wherever it arrives.
"""
import numpy as np
import pytest

from corrstat import dataio, errors, portfolio, spectral, synthgen
from corrstat.errors import DomainError, InvalidParameter, NotSymmetric, checked_symmetric
from corrstat.synthgen import TrueCorrelation


def _covariance(entries):
    return dataio.CovarianceMatrix(("A", "B", "C"), entries)


# (what the message names, the entry point called with the matrix)
ENTRY_POINTS = [
    ("entries", TrueCorrelation),
    ("entries", _covariance),
    ("entries", lambda m: portfolio.min_variance_weights(_covariance(m))),
    ("matrix", synthgen.cholesky),
    ("matrix", spectral.eig_sym),
    ("matrix", spectral.spectral_snapshot),
]


IDS = ["TrueCorrelation", "CovarianceMatrix", "min_variance_weights", "cholesky", "eig_sym",
       "spectral_snapshot"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("what, call", ENTRY_POINTS, ids=IDS)
def test_every_matrix_argument_refuses_a_non_finite_entry(what, call, bad):
    matrix = np.eye(3)
    matrix[0, 1] = matrix[1, 0] = bad
    with pytest.raises(DomainError) as info:
        call(matrix)
    assert str(info.value) == f"{what} has non-finite entry {bad} at (0, 1)"


@pytest.mark.parametrize("what, call", ENTRY_POINTS, ids=IDS)
def test_every_asymmetric_matrix_raises_not_symmetric(what, call):
    matrix = np.eye(3)
    matrix[0, 1] = 0.2
    with pytest.raises(NotSymmetric) as info:
        call(matrix)
    assert str(info.value) == f"{what} asymmetry 2.000e-01 exceeds 1.000e-12"


def test_the_rule_checks_finiteness_then_shape_then_symmetry():
    lopsided = np.full((2, 3), 0.5)
    with pytest.raises(InvalidParameter, match=r"^m must be square and at least 1 x 1, "
                                               r"got shape \(2, 3\)$"):
        checked_symmetric("m", lopsided)
    lopsided[1, 2] = np.nan  # checked_array names the entry before the shape is read
    with pytest.raises(DomainError, match=r"^m has non-finite entry nan at \(1, 2\)$"):
        checked_symmetric("m", lopsided)
    asymmetric_inf = np.array([[1.0, np.inf], [0.0, 1.0]])  # the entry is named, not the gap
    with pytest.raises(DomainError, match=r"^m has non-finite entry inf at \(0, 1\)$"):
        checked_symmetric("m", asymmetric_inf)
    square = [[2, 1], [1, 2]]
    got = checked_symmetric("m", square)
    assert got.dtype == np.float64 and np.array_equal(got, square)


@pytest.mark.parametrize("build", [TrueCorrelation, _covariance],
                         ids=["TrueCorrelation", "CovarianceMatrix"])
def test_a_frozen_matrix_is_copied_and_checked_once(monkeypatch, build):
    calls, rule = [], errors.checked_array

    def counted(*args):
        calls.append(args[0])
        return rule(*args)

    # freeze reads dataio's name and checked_symmetric reads errors'
    monkeypatch.setattr(dataio, "checked_array", counted)
    monkeypatch.setattr(errors, "checked_array", counted)
    frozen = build(np.eye(3))
    assert calls == ["entries"]
    assert not frozen.entries.flags.writeable
