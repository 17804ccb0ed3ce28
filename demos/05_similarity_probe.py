"""Spectral probe for the multiplication-similarity regime.

With J = I and a PSD square factor beta, the triangular model operator
acts like multiplication by x: its spectrum should be (close to) the
real interval.  The probe measures how real and how localised the
discretised spectrum is, for the plain operator and for the conjugated
dressing w0* beta w0 (with J = I the factor w0 is unitary).

The discretised operator is block lower triangular, so its spectrum is
the union of the spectra of its diagonal blocks x_j + (i w_j / 2) beta_j^2
and the probe reads it off those blocks.  The numbers are therefore
fixed by the discretisation alone: max |Im| is max w_j |beta_j|^2 / 2,
exactly 0.5 / N below, and it falls like 1/N for any bounded beta.
They show what the discrete spectrum looks like, not that the model is
similar to multiplication.
"""

import numpy as np

from cansys import (
    TriangularModel,
    conjugate_transform_model,
    evolve,
    sample_params,
    similarity_probe,
)

interval = (0.0, 1.0)

# constant identity factor: the discrete spectrum hugs the interval and
# the imaginary parts are exactly w / 2 = 0.5 / N
model = TriangularModel.from_constant_beta(np.eye(2), interval, np.eye(2))
for num in (64, 128, 256):
    report = similarity_probe(model, num)
    print(f"N = {num:4d}: max |Im eig| = {report.max_imag:.3e}, "
          f"inside fraction = {report.inside_fraction:.3f}")

# a varying PSD factor plus dressing: conjugating each block by the
# unitary w0 leaves its spectrum as it is, so the two columns agree.
# The model is the canonical system with H = beta* beta and base point a,
# so it is also the system the dressing evolves along
x = np.linspace(*interval, 65)
beta = np.stack([(1.0 + 0.5 * xx) * np.eye(2) for xx in x]).astype(complex)
varying = TriangularModel(interval=interval, J=np.eye(2), x=x, beta=beta)
traj = evolve(sample_params(42, varying, n=2), varying, tol=1e-10)
dressed = conjugate_transform_model(varying, traj)
for num in (64, 128):
    print(f"N = {num:4d}: plain max |Im| = {similarity_probe(varying, num).max_imag:.3e}, "
          f"dressed max |Im| = {similarity_probe(dressed, num).max_imag:.3e}")
