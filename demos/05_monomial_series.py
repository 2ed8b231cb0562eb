#!/usr/bin/env python3
"""Power-series route for affine curvature c * alpha^k, cross-checked.

The tangent series has nonzero coefficients only at powers 0 or 1 mod k+2;
they follow a two-term multiplicative recurrence, and equivalently a
rising-factorial closed form through the gamma function.  Both are computed
here and compared, and the summed curve is checked against the iterative
solver.
"""

import numpy as np

from curverecon import affine, hausdorff_distance, parse_spec, series
from support import gamma_ratio_check

# series curve vs fixed-point solver
for k in (1, 2):
    mu = parse_spec(f"monomial:1,{k}")
    sc = series.curve(mu, 3.0, 4097)
    pc, result = affine.picard(mu, 3.0, tol=1e-10)
    print(f"mu = alpha^{k}: series terms={series.truncation_count(mu, 3.0)} "
          f"distance-to-solver={hausdorff_distance(sc, pc):.2e}")

# coefficient factors: direct product vs gamma-function form
print("\nproduct vs gamma-form coefficient factors:")
for K, i in ((2, 1), (3, 2), (4, 3), (8, 20)):
    pm, pp, gm, gp = gamma_ratio_check(K, i)
    print(f"  K={K} i={i:2d}: psi- {pm:.6e} vs {gm:.6e}   psi+ {pp:.6e} vs {gp:.6e}")

# the coefficient ladder fills only the powers 0,1 mod K: u_i at K i, v_i at K i + 1
u, v = series.tangent_coefficients(parse_spec("monomial:1,1"), 3.0)
b = np.zeros((13, 2))
b[0::3, 0] = u[:5]
b[1::3, 1] = v[:4]
nonzero = [n for n in range(13) if np.abs(b[n]).max() > 0]
print("\nnonzero tangent coefficients for k=1 (K=3):", nonzero)
