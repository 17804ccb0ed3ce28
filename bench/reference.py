"""Fixed reference work that measures how fast the machine runs right now.

The benchmark's host is a small share of a machine whose speed swings by
up to 2x, from one second to the next and from one minute to the next,
with process CPU time equal to wall time throughout: the code does not
wait, it runs slower.  A run's raw op times follow those swings more than
they follow the program.  So the benchmark runs reference work before
and after every op and every set-up and reports times in *reference
seconds*: measured seconds times ``UNIT_S`` over the time one reference
unit took around that op.  A swing that slows the op slows the reference
next to it as well and cancels; a change that slows the program does not.

Swings do not slow every kind of work alike, so each workload is
measured against the kind of work it mostly does (``KINDS``):

* ``ode`` -- scipy's RK45 on a small complex matrix ODE, interpreter-bound
  like every cut limit and fundamental solution (``scenario``, ``cut``,
  and set-up, which is mostly imports);
* ``lu`` -- a dense complex LAPACK solve at n = 1024, like the resolvent
  solves of ``triangular``.

Both use numpy and scipy only, never ``cansys``, so no change to the
program moves them.
"""

from __future__ import annotations

import functools
import time

import numpy as np
from scipy.integrate import solve_ivp

#: Nominal seconds of one unit.  A time in reference seconds is its wall
#: time times UNIT_S over the seconds one unit took around it: what it
#: would take on a machine that runs one unit in UNIT_S.
UNIT_S = 0.1
#: Reference time run next to each timed piece, as a share of its length.
DUTY = 0.25
#: Reference time before the first piece; it also warms the reference up.
FIRST_S = 0.5

_J = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_H0 = np.array([[1.0, 1j], [-1j, 1.0]])
_X = np.linspace(0.0, 1.0, 17)
_C = 1.0 + 0.3 * np.sin(5.0 * _X)
_Z = 0.4 + 0.05j


def _rhs(x, y):
    c = np.interp(x, _X, _C)
    return (_Z * c * c * (_J @ _H0) @ y.reshape(2, 2)).ravel()


def _ode():
    for _ in range(4):
        sol = solve_ivp(_rhs, (0.0, 1.0), np.eye(2, dtype=complex).ravel(),
                        method="RK45", rtol=1e-9, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")


@functools.cache
def _lu_system():
    # built on first use, so workloads measured against ``ode`` never hold it
    rng = np.random.default_rng(0)
    n = 1024
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 20.0 * np.eye(n)
    return a, np.ones((n, 2), dtype=complex)


def _lu():
    np.linalg.solve(*_lu_system())


KINDS = {"ode": _ode, "lu": _lu}


def unit(kind):
    """Run one unit of reference work of ``kind``; returns its seconds."""
    work = KINDS[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def block(kind, seconds):
    """Run whole units, at least one, until ``seconds`` have passed;
    returns the mean seconds of one unit."""
    times = [unit(kind)]
    while sum(times) < seconds:
        times.append(unit(kind))
    return sum(times) / len(times)


class Sandwich:
    """Times pieces of work with a block of reference work of ``kind``
    before and after each.

    ``time(fn)`` runs ``fn`` between two blocks (the block after one piece
    is the block before the next) and records its wall seconds and its
    reference seconds: wall seconds times UNIT_S over the mean unit time
    of the two blocks around it.
    """

    def __init__(self, kind):
        self.kind = kind
        self.wall = []
        self._units = []  # mean unit seconds of each block, in order

    def time(self, fn):
        if not self._units:
            self._units.append(block(self.kind, FIRST_S))
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall.append(time.perf_counter() - start)
            self._units.append(block(self.kind, DUTY * self.wall[-1]))

    @property
    def ref(self):
        """Reference seconds of every piece timed so far."""
        u = self._units
        return [w * UNIT_S * 2.0 / (u[i] + u[i + 1]) for i, w in enumerate(self.wall)]
