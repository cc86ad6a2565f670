"""
Summing the geometric operator series
=====================================

On functions vanishing at both endpoints the operator is a contraction,
so the scaled geometric series converges in norm. This script sums it
three ways: term-by-term through the interior-node transfer matrix,
in closed form through the eigensystem, and in the sampling limit.
"""

import numpy as np

from bernseries import (
    PSI,
    C0Function,
    Polynomial,
    apply_series,
    apply_series_bernstein,
    apply_series_poly,
    poly_eval,
    poly_limit,
    u_norm0,
)

n, rho = 16, 1.0
xs = np.linspace(0, 1, 7)

# Pinned functions are stored through their cofactor h with f = Psi h;
# the series contracts at rate q below one.
f = C0Function(Polynomial([1.0, -1.0, 0.5]))
print(f"contraction factor q at n={n}, rho={rho}: {u_norm0(n, rho):.6f}")

# The whole series is one exact solve; the tolerance only sets the
# truncation count K reported alongside, with the bound on its tail.
res = apply_series(n, rho, f, tol=1e-10)
print(f"a sum truncated after {res.iterations} applications would "
      f"leave a tail below {res.tail_bound:.2e}")
print("series values on a coarse grid:")
print(np.array2string(res.value(xs), precision=8))

# The closed form expands over the eigenpolynomials and divides each
# component by one minus its eigenvalue; no truncation is involved.
closed = apply_series_poly(n, rho, PSI * Polynomial([1.0, -1.0, 0.5]))
print("closed-form values:")
print(np.array2string(poly_eval(closed, xs), precision=8))

# The weight itself is an eigenfunction, so its summed series has a
# constant cofactor rho/(rho+1) whatever n is.
w = apply_series(32, 2.0, C0Function(Polynomial([1.0])), tol=1e-12)
print(f"\nweight cofactor after summing at n=32, rho=2: "
      f"{float(np.asarray(w.h(0.3))):.12f} (expect {2/3:.12f})")

# The sampling-operator variant replaces the interior averages by point
# evaluations at k/n; the same machinery sums it.
sb = apply_series_bernstein(12, f, tol=1e-10)
print(f"\nsampling-series at n=12: truncation count {sb.iterations}")
print(np.array2string(sb.value(xs), precision=8))

# As n grows both sums approach an explicit limit polynomial.
lim = poly_limit(PSI * Polynomial([1.0, -1.0, 0.5]), rho)
for m in (8, 32):
    r = apply_series(m, rho, f, tol=1e-12)
    d = np.max(np.abs(r.value(xs) - poly_eval(lim, xs)))
    print(f"distance to the limit at n={m}: {d:.2e}")
