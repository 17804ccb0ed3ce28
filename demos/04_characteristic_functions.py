"""Triangular model operators and characteristic matrix functions.

The model operator x f(x) + i * integral of beta(x) J beta(t)* f(t)
carries the same data as the canonical system with H = beta* beta: its
characteristic function W(z) = I - i J K* (A - z)^{-1} K equals the
fundamental solution W(b, z).  We discretise the operator by two-node
Gauss-Legendre collocation on N / 2 panels (exact discrete node
identity, error falling like N^-4).  The discrete operator is block
lower triangular with a rank-m part below the panels' diagonal blocks,
so W_N(z) is a forward sweep: an ordered product of N / 2 small
factors, O(N) in time and memory, which reaches N = 32768 here.  We
confirm the equality under refinement against the closed form (the RK45
route at tol 1e-11 is about 1e-12 off it), check the sweep against a
dense resolvent solve, and dress the operator through the kernel factor.
"""

import numpy as np

from cansys import (
    char_fn,
    char_fn_via_fundamental,
    discretize,
    evolve,
    resolvent_identity_check,
    transfer,
    transformed_system,
    TriangularModel,
)
from cansys import rank_one
from cansys.linalg import fro

model = TriangularModel.from_constant_beta(rank_one.BETA, (0.0, 1.0), rank_one.J)
z = 2j

op = discretize(model, 256)
print("discrete node identity defect:", op.node_identity_defect())

reference = rank_one.fundamental_matrix(1.0, z)
rk45 = char_fn_via_fundamental(model, z, tol=1e-11)
print(f"RK45 route:  |W(b, z) - closed form| = {fro(rk45.value - reference):.3e}")
for num in (16, 32, 64, 128, 32768):
    sample = char_fn(discretize(model, num), z)
    print(f"N = {num:5d}: |W_N(z) - closed form| = "
          f"{fro(sample.value - reference):.3e}")

# the resolvent acts on the kernel columns exactly like multiplication
# by (x - z)^{-1} followed by the fundamental solution; this check solves
# with the dense matrix, independently of the sweep
check = resolvent_identity_check(discretize(model, 256), model, z)
print("resolvent identity residual:", check.max_residual)

# the dressed system of the same data is a factored system with the kernel
# factor beta w0, which discretize takes as it takes the model; its
# characteristic function is W~ = v(b, z) W v(a, z)^{-1}
traj = evolve(
    rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0]).to_gbdt_params(),
    rank_one.make_system(1.0), grid=np.linspace(0, 1, 201), tol=1e-11,
)
dressed = transformed_system(traj)
w_t = char_fn(discretize(dressed, 1024), z).value
v_b = transfer(traj, 1.0, z).v
v_a_inv = np.linalg.inv(transfer(traj, 0.0, z).v)
w = char_fn(discretize(model, 1024), z).value
print("dressed char fn vs multiplier relation:",
      fro(w_t - v_b @ w @ v_a_inv))
