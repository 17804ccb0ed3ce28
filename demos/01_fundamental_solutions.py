"""Fundamental solutions three ways.

The constant rank-one scenario ships with a logarithmic closed form, so
we can compare the adaptive integrator and the multiplicative-integral
(ordered product) route against an exact answer.  The product's factors
integrate the weight 1/(z - t) exactly, so for this constant H every
factor is exact and the product matches the closed form to rounding at
any partition.
"""

import numpy as np

from cansys import fundamental_solution, j_monotonicity_defect, product_integral
from cansys import rank_one
from cansys.linalg import fro

system = rank_one.make_system(b=1.0)
z = 2j

# 1. adaptive Runge-Kutta, normalised to the identity at the base point
grid = np.linspace(0.0, 1.0, 5)
sol = fundamental_solution(system, z, grid=grid, tol=1e-11)
print("W(0, z) =\n", np.round(sol.values[0], 12))
print("W(1, z) =\n", np.round(sol.values[-1], 6))

# 2. the exact logarithmic form: W = I + ln(z/(z-x)) N with N nilpotent
exact = rank_one.fundamental_matrix(1.0, z)
print("closed-form deviation:", fro(sol.values[-1] - exact))

# 3. multiplicative integral: ordered product of fourth-order Magnus
#    factors over a partition, exact for constant H even with one factor
for num in (1, 8, 32):
    prod = product_integral(system, z, np.linspace(0.0, 1.0, num + 1))
    print(f"product integral, {num:4d} factors: "
          f"error {fro(prod.values[-1] - exact):.3e} "
          f"(estimate {prod.error_estimate:.3e})")

# off the real axis the solution is J-expanding (Im z > 0); on the real
# axis away from the cut it is exactly J-unitary
print("J-monotonicity defect at z = i:",
      j_monotonicity_defect(fundamental_solution(system, 1j, tol=1e-11)))
print("J-unitarity defect at z = 3:",
      j_monotonicity_defect(fundamental_solution(system, 3.0, tol=1e-11)))
