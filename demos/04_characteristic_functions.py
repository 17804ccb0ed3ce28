"""Triangular model operators and characteristic matrix functions.

The model operator x f(x) + i * integral of beta(x) J beta(t)* f(t)
carries the same data as the canonical system with H = beta* beta: its
characteristic function W(z) = I - i J K* (A - z)^{-1} K equals the
fundamental solution W(b, z).  We discretise the operator with a
midpoint rule (exact discrete node identity).  The discrete operator is
block lower triangular with a rank-m part below the diagonal, so W_N(z)
is a forward sweep: an ordered product of N small factors, O(N) in time
and memory, which reaches N = 32768 here.  We confirm the equality under
refinement, check the sweep against a dense resolvent solve, and dress
the operator through the kernel factor.
"""

import numpy as np

from cansys import (
    char_fn,
    char_fn_via_fundamental,
    discretize,
    evolve,
    resolvent_identity_check,
    transfer,
    transform_model,
    TriangularModel,
)
from cansys import rank_one
from cansys.linalg import fro

model = TriangularModel.from_constant_beta(rank_one.BETA, (0.0, 1.0), rank_one.J)
z = 2j

op = discretize(model, 256)
print("discrete node identity defect:", op.node_identity_defect())

reference = char_fn_via_fundamental(model, z, tol=1e-11)
for num in (128, 256, 512, 1024, 32768):
    sample = char_fn(discretize(model, num), z)
    print(f"N = {num:5d}: |W_N(z) - W(b, z)| = "
          f"{fro(sample.value - reference.value):.3e}")

# the resolvent acts on the kernel columns exactly like multiplication
# by (x - z)^{-1} followed by the fundamental solution; this check solves
# with the dense matrix, independently of the sweep
check = resolvent_identity_check(discretize(model, 256), model, z)
print("resolvent identity residual:", check.max_residual)

# dressing the kernel factor conjugates the characteristic function by
# the multiplier v: W~ = v(b, z) W v(a, z)^{-1}
traj = evolve(
    rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0]).to_gbdt_params(),
    rank_one.make_system(1.0), grid=np.linspace(0, 1, 201), tol=1e-11,
)
dressed = transform_model(model, traj)
w_t = char_fn(discretize(dressed, 1024), z).value
v_b = transfer(traj, 1.0, z).v
v_a_inv = np.linalg.inv(transfer(traj, 0.0, z).v)
w = char_fn(discretize(model, 1024), z).value
print("dressed char fn vs multiplier relation:",
      fro(w_t - v_b @ w @ v_a_inv))
