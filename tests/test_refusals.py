"""The library's argument refusals, each message checked whole."""

import numpy as np
import pytest

from curverecon import affine, euclidean, series
from curverecon.curvatures import TableCurvature, parse_spec
from curverecon.quadrature import cumulative_simpson

ONE = parse_spec("const:1")
NEAR = parse_spec("const:1.1")
MONO = parse_spec("monomial:1,1")
TOL = "tol must be a positive finite number"


@pytest.mark.parametrize("call, message", [
    (lambda: euclidean.reconstruct(ONE, 0.0), "length must be positive"),
    (lambda: affine.picard(ONE, -1.0), "length must be positive"),
    (lambda: euclidean.classify_closure(ONE, 0.0), "a positive period is required"),
    (lambda: euclidean.classify_closure(ONE, -6.0), "a positive period is required"),
    (lambda: euclidean.bound_check(ONE, ONE, 1.0, norm="l2"), "norm must be 'linf' or 'l1'"),
    (lambda: cumulative_simpson(np.zeros(5), 0.0), "dx must be positive"),
    (lambda: cumulative_simpson(np.zeros(5), -0.1), "dx must be positive"),
    (lambda: TableCurvature([0.0, 1.0, 2.0], [1.0, 2.0]), "table needs matching grid/value columns with >= 2 rows"),
    (lambda: TableCurvature([0.0], [1.0]), "table needs matching grid/value columns with >= 2 rows"),
    (lambda: TableCurvature([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]), "table grid must be strictly increasing"),
    (lambda: TableCurvature([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]), "table grid must be strictly increasing"),
    (lambda: affine.bound_check(ONE, NEAR, 0.0), "length must be positive"),
    (lambda: affine.bound_check(ONE, NEAR, -1.0), "length must be positive"),
    (lambda: affine.bound_check(ONE, NEAR, np.nan), "length must be positive"),
    (lambda: affine.bound_check(ONE, NEAR, np.inf), "length must be positive"),
    (lambda: euclidean.bound_check(ONE, NEAR, np.nan), "length must be positive"),
    (lambda: euclidean.reconstruct(ONE, np.inf), "length must be positive"),
    (lambda: affine.picard(ONE, np.nan), "length must be positive"),
    (lambda: series.curve(MONO, 0.0, 101), "length must be positive"),
    (lambda: euclidean.classify_closure(MONO, np.nan), "a positive period is required"),
    (lambda: affine.picard(ONE, 1.0, tol=-1.0), TOL),
    (lambda: affine.picard(ONE, 1.0, tol=np.nan), TOL),
    (lambda: affine.picard(ONE, 1.0, tol=0.0), TOL),
    (lambda: affine.picard(ONE, 1.0, tol=np.inf), TOL),
    (lambda: series.curve(MONO, 1.0, 101, tol=0.0), TOL),
    (lambda: series.truncation_count(MONO, 1.0, np.nan), TOL),
    (lambda: affine.picard(ONE, 1.0, iterations=-3), "iterations must be at least 0, got -3"),
    (lambda: affine.picard(ONE, 1.0, iterations=-1), "iterations must be at least 0, got -1"),
    (lambda: affine.picard(ONE, 1.0, n_grid=1025, tol=1e-10), "n_grid and tol exclude each other"),
    (lambda: affine.picard(ONE, 1.0, n_grid=0), "n_grid must be at least 16, got 0"),
    (lambda: affine.picard(ONE, 1.0, n_grid=-5), "n_grid must be at least 16, got -5"),
    (lambda: affine.picard(ONE, 1.0, n_grid=15, iterations=2), "n_grid must be at least 16, got 15"),
    (lambda: euclidean.reconstruct(ONE, 1.0, 5), "n must be at least 16, got 5"),
    (lambda: euclidean.reconstruct(ONE, 1.0, 15), "n must be at least 16, got 15"),
    (lambda: euclidean.reconstruct(ONE, 1.0, -1), "n must be at least 16, got -1"),
], ids=[
    "reconstruct-length-0", "picard-length-negative", "classify-period-0", "classify-period-negative",
    "bound-check-norm", "simpson-dx-0", "simpson-dx-negative", "table-mismatched-columns", "table-one-row",
    "table-repeated-node", "table-decreasing-grid",
    "affine-bound-check-length-0", "affine-bound-check-length-negative", "affine-bound-check-length-nan",
    "affine-bound-check-length-inf", "euclid-bound-check-length-nan", "reconstruct-length-inf",
    "picard-length-nan", "series-length-0", "classify-period-nan", "picard-tol-negative", "picard-tol-nan",
    "picard-tol-0", "picard-tol-inf", "series-tol-0", "series-truncation-tol-nan", "picard-iterations-minus-3",
    "picard-iterations-minus-1", "picard-n-grid-with-tol", "picard-n-grid-0", "picard-n-grid-minus-5",
    "picard-n-grid-15-sweeps", "reconstruct-n-5", "reconstruct-n-15", "reconstruct-n-minus-1",
])
def test_argument_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_subnormal_tol_runs_on_the_capped_grid():
    # the smallest positive tol is still a tolerance: the h^4 rule's step underflows, so the grid takes the cap
    _, res = affine.picard(ONE, 1.0, tol=5e-324)
    assert res.grid_size == 300_001


def test_sixteen_samples_run_on_seventeen_nodes():
    # 16 is the smallest count taken; it is made odd, as every grid is
    assert len(euclidean.reconstruct(ONE, 1.0, 16)) == 17
    _, res = affine.picard(ONE, 1.0, n_grid=16)
    assert res.grid_size == 17
