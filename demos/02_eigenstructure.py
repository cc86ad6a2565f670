"""
Eigenvalues, eigenpolynomials, and their large-n limits
=======================================================

The operator preserves polynomial degree, so its matrix is upper
triangular and the whole eigenstructure falls out of one
back-substitution. This script inspects the finite eigensystem and
how it approaches the limiting one.
"""

import numpy as np

from bernseries import (
    FunctionHandle,
    Polynomial,
    asymptotic_report,
    compute_eigensystem,
    dual_coefficients,
    eigenvalue,
    limit_dual,
    limit_eigenpoly,
    limit_eigenvalue,
    poly_eval,
)

n, rho = 12, 0.5

# The eigenvalues come from a closed-form product; indices 0 and 1 are
# exactly one (constants and affine functions are reproduced).
print(f"eigenvalues for n={n}, rho={rho}:")
print(np.array2string(
    np.array([eigenvalue(n, rho, j) for j in range(n + 1)]), precision=6))

# Monic eigenpolynomials via back-substitution on the triangular
# matrix. Those of index >= 2 vanish at both endpoints.
sys_ = compute_eigensystem(n, rho)
p4 = sys_.eigenpolys[4]
print(f"\nindex-4 eigenpolynomial coefficients:\n{p4.coeffs}")
print(f"values at the endpoints: {poly_eval(p4, 0.0):.2e}, "
      f"{poly_eval(p4, 1.0):.2e}")

# Any polynomial expands over the eigenbasis; the coefficients are the
# dual functionals applied to it.
p = Polynomial([0.0, 1.0, 2.0, -3.0])
mu = dual_coefficients(sys_, p)
print(f"\ndual coefficients of {p.coeffs}:")
print(np.array2string(mu[: 5], precision=6))

# The scaled eigenvalue gap n (lambda - 1) tends to a quadratic
# expression in the index; the eigenpolynomials tend to fixed monic
# polynomials tied to Jacobi(1,1) orthogonality.
j = 4
print(f"\nlimit slope for index {j}: {limit_eigenvalue(rho, j)}")
print("convergence of the index-4 eigendata:")
print("   n    scaled-gap   poly-distance")
for rec in asymptotic_report(rho, j, [20, 40, 80, 160]):
    print(f"  {rec.n:4d}   {rec.eigenvalue_gap:.6f}     "
          f"{rec.poly_distance:.6f}")

# The limit duals are explicit: endpoint evaluations plus a weighted
# Jacobi integral. They are biorthogonal to the limit polynomials.
f = FunctionHandle.from_polynomial(limit_eigenpoly(3))
row = [limit_dual(k, f) for k in range(5)]
print("\nlimit duals applied to the third limit polynomial:")
print(np.array2string(np.array(row), precision=6, suppress_small=True))
