"""Fixed reference computations that gauge the machine's current speed.

A shared VM's speed for the same code drifts by 20-30% over tens of seconds
(other tenants, frequency), and in the same way for the program and for
any other code of the same kind.  A worker therefore times one of these
kernels right after set-up and between passes, in its own process, and
run.py scales each time by ``NOMINAL_S / kernel time``: times then read as
seconds on a machine where the kernel takes its nominal 0.1 s.  On a
2-vCPU VM with numpy 2.4.6 / OpenBLAS 0.3.31 both take 0.06-0.1 s.

The kernels never call irsmimo, so a change to the program cannot change
them.  ``interp`` is like the map and the small optimizer: interpreted
loops around numpy calls on arrays of a few dozen elements.  ``blas`` is
like the Q = 961 MM: dense complex matrix-vector products on a 15 MB
matrix, on the process's pinned BLAS threads.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

NOMINAL_S = {"interp": 0.1, "blas": 0.1}

_X = np.linspace(0.0, 1.0, 25)
_A = np.arange(25.0).reshape(5, 5) * (1.0 + 0.5j) / 25.0
_DENSE = None


def _interp(n: int) -> float:
    s = 0.0
    last = {}
    for k in range(n):
        v = np.exp(1j * (_X * (k % 97)))
        m = _A @ _A.conj().T + np.outer(v[:5], v[5:10].conj())
        s += abs(np.linalg.det(m[:3, :3])) + math.hypot(k, s % 7.0)
        last[k % 50] = s
    return s


def _blas(n: int) -> float:
    global _DENSE
    if _DENSE is None:
        rng = np.random.default_rng(0)
        _DENSE = rng.standard_normal((961, 961)) + 1j * rng.standard_normal((961, 961))
    v = np.ones(961, dtype=complex)
    for _ in range(n):
        v = _DENSE @ v
        v /= np.linalg.norm(v)
    return float(np.real(np.vdot(v, _DENSE @ v)))


_KERNELS = {"interp": (_interp, 5000), "blas": (_blas, 240)}


def warm_up(kind: str) -> None:
    """One untimed call: a process's first call can take several times longer."""
    fn, n = _KERNELS[kind]
    fn(n)


def kernel_s(kind: str) -> float:
    """Seconds one call of the ``kind`` kernel takes now."""
    fn, n = _KERNELS[kind]
    t0 = perf_counter()
    fn(n)
    return perf_counter() - t0
