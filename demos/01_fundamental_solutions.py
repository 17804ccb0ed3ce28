"""Fundamental solutions three ways.

The constant rank-one scenario ships with a logarithmic closed form, so
we can compare the default Magnus route, the adaptive Runge-Kutta
integrator and the multiplicative integral over a user partition against
an exact answer.  The Magnus factors integrate the weight 1/(z - t)
exactly, so for this constant H every factor is exact and both product
routes match the closed form to rounding; RK45 is the independent route.
"""

import numpy as np

from cansys import fundamental_solution, j_monotonicity_defect, product_integral
from cansys import rank_one
from cansys.linalg import fro

system = rank_one.make_system(b=1.0)
z = 2j

# 1. the default route: an ordered product of Magnus factors on panels
#    graded towards Re z, refined until two products agree to tol
grid = np.linspace(0.0, 1.0, 5)
sol = fundamental_solution(system, z, grid=grid, tol=1e-11)
print("W(0, z) =\n", np.round(sol.values[0], 12))
print("W(1, z) =\n", np.round(sol.values[-1], 6))
print(f"Magnus route: {sol.panels} panels, estimate {sol.error_estimate:.3e}, "
      f"converged {sol.converged}")

# 2. the exact logarithmic form W = I + ln(z/(z-x)) N, N nilpotent, against
#    both the Magnus route and adaptive Runge-Kutta
exact = np.stack([rank_one.fundamental_matrix(x, z) for x in grid])
ode = fundamental_solution(system, z, grid=grid, tol=1e-11, method="rk45")
print("worst closed-form deviation on the grid, Magnus:",
      max(fro(w - e) for w, e in zip(sol.values, exact)))
print("worst closed-form deviation on the grid, RK45:  "
      f"{max(fro(w - e) for w, e in zip(ode.values, exact)):.3e} "
      f"(estimate {ode.error_estimate:.3e} from {ode.panels} steps)")

# 3. multiplicative integral: ordered product of fourth-order Magnus
#    factors over a partition, exact for constant H even with one factor
for num in (1, 8, 32):
    prod = product_integral(system, z, np.linspace(0.0, 1.0, num + 1))
    print(f"product integral, {num:4d} factors: "
          f"error {fro(prod.values[-1] - exact[-1]):.3e} "
          f"(estimate {prod.error_estimate:.3e})")

# off the real axis the solution is J-expanding (Im z > 0); on the real
# axis away from the cut it is exactly J-unitary
print("J-monotonicity defect at z = i:",
      j_monotonicity_defect(fundamental_solution(system, 1j, tol=1e-11)))
print("J-unitarity defect at z = 3:",
      j_monotonicity_defect(fundamental_solution(system, 3.0, tol=1e-11)))
