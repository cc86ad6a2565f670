"""
Applying the blending operators
===============================

A first walk through the operator family: images of polynomials,
endpoint interpolation, the operator norm on the pinned space, and the
two classical neighbours reached at extreme parameter values.
"""

import math

import numpy as np

from bernseries import (
    PSI,
    FunctionHandle,
    Polynomial,
    apply_U,
    apply_U_poly,
    central_moment,
    deflate_by_psi,
    u_matrix_leading_block,
    u_norm0,
)

n, rho = 8, 1.0

# The operator restricted to polynomials is a matrix in the monomial
# basis. Column m holds the coefficients of the image of x^m; the block
# of columns 0..n is the whole matrix on polynomials of degree <= n.
M = u_matrix_leading_block(n, rho, n)
print(f"matrix for n={n}, rho={rho}: shape {M.shape}")
print("diagonal (the eigenvalues):")
print(np.array2string(np.diag(M), precision=6))

# Affine functions are reproduced exactly; the weight x(1-x) is an
# eigenfunction, so its image is again a multiple of the weight.
img = apply_U_poly(n, rho, PSI)
cof = deflate_by_psi(img)
print(f"\nimage of x(1-x) has cofactor {cof.coeffs}, "
      f"norm factor {u_norm0(n, rho):.6f}")

# Generic functions go through Beta-weight Gauss rules at the interior
# nodes. Both endpoints are interpolated exactly.
f = FunctionHandle.from_callable(lambda x: np.sin(np.pi * np.asarray(x)))
xs = np.linspace(0, 1, 9)
vals = apply_U(n, rho, f, xs)
print("\n  x      f(x)      image")
for x, v in zip(xs, vals):
    print(f"  {x:.3f}  {float(f(x)):8.5f}  {v:8.5f}")

# Second and fourth centered moments have closed forms; they drive the
# asymptotic analysis later on.
y = 0.3
print(f"\ncentered moments at y={y}: "
      f"m2={central_moment(n, rho, y, 2):.6f}, "
      f"m4={central_moment(n, rho, y, 4):.6f}")

# Extreme parameters: rho = inf samples at the nodes k/n, which is the
# classical Bernstein operator, and large values come close to it; very
# small values collapse onto the chord between the endpoint values.
cube = Polynomial([0.0, 0.0, 0.0, 1.0])
fc = FunctionHandle.from_polynomial(cube)
sampled = apply_U(n, math.inf, fc, xs)
chord = xs  # the chord of x^3 between (0,0) and (1,1)
big = apply_U(n, 1e4, fc, xs)
small = apply_U(n, 1e-4, fc, xs)
print(f"\nmax distance to the sampling operator at rho=1e4:  "
      f"{np.max(np.abs(big - sampled)):.2e}")
print(f"max distance to the chord at rho=1e-4:             "
      f"{np.max(np.abs(small - chord)):.2e}")
