"""The library's argument refusals, each message checked whole."""

import numpy as np
import pytest

from curverecon import affine, euclidean
from curverecon.curvatures import TableCurvature, parse_spec
from curverecon.quadrature import cumulative_simpson

ONE = parse_spec("const:1")


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
], ids=[
    "reconstruct-length-0", "picard-length-negative", "classify-period-0", "classify-period-negative",
    "bound-check-norm", "simpson-dx-0", "simpson-dx-negative", "table-mismatched-columns", "table-one-row",
    "table-repeated-node", "table-decreasing-grid",
])
def test_argument_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
