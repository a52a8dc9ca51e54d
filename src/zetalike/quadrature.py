"""Tensor tanh-sinh quadrature on the unit square, tolerant of endpoint
singularities (logarithmic at 0, algebraic/log at 1).

Nodes come from x(t) = (1 + tanh((pi/2) sinh t))/2 on a uniform t-grid of
spacing h = 2^-level; the double-exponential decay of the weights makes
endpoint blowups integrable without any special casing, provided integrands
are evaluated through the *complement* coordinate 1-x, which we generate
directly as 1/(1 + exp(2g)) to avoid cancellation.

Refinement doubles the node density per level; the error estimate is the
difference between consecutive levels (a strongly conservative estimate for
tanh-sinh once in the convergent regime), and refinement is budget-capped.

numpy is imported inside the two functions, on their first call, so importing
this module (and with it zetalike and its CLI) does not load numpy; only the
``quadrature`` suite of ``verify`` pays for it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .errors import QuadratureConvergenceError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["tanh_sinh_nodes_unit", "integrate_unit_square"]

# |t| beyond this underflows weights/complements in float64
_T_MAX = 6.115
# refinement levels tried, and the rows of u evaluated per integrand call
_MIN_LEVEL = 4
_MAX_LEVEL = 9
_CHUNK = 512


def tanh_sinh_nodes_unit(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, complements 1-x, and weights for the unit interval at the
    given refinement level (h = 2**-level)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    import numpy as np

    h = 2.0 ** (-level)
    k_max = int(math.floor(_T_MAX / h))
    # nonnegative half only: exp(-2g) stays in (0, 1], so nothing overflows;
    # the t < 0 nodes are the mirror images (x, 1-x swapped, same weights)
    t = h * np.arange(0, k_max + 1)
    g = 0.5 * math.pi * np.sinh(t)
    e2g = np.exp(-2.0 * g)
    upper = 1.0 / (1.0 + e2g)
    lower = e2g / (1.0 + e2g)  # complement, stable near x = 1
    w_half = h * math.pi * np.cosh(t) * e2g / (1.0 + e2g) ** 2
    x = np.concatenate([lower[:0:-1], upper])
    comp = np.concatenate([upper[:0:-1], lower])
    w = np.concatenate([w_half[:0:-1], w_half])
    keep = (w > 0.0) & (comp > 0.0) & (x > 0.0)
    return x[keep], comp[keep], w[keep]


def integrate_unit_square(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    tol: float,
) -> tuple[float, float, int]:
    """Integrate f over (0,1)^2; f(u, uc, v, vc) gets broadcast coordinate
    arrays with uc = 1-u, vc = 1-v precomputed stably.

    Returns (value, error_estimate, level).  Raises
    :class:`QuadratureConvergenceError` if consecutive levels never agree to
    tol within the level budget.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    import numpy as np

    prev = None
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        x, xc, w = tanh_sinh_nodes_unit(level)
        total = 0.0
        for lo in range(0, len(x), _CHUNK):
            hi = min(lo + _CHUNK, len(x))
            u = x[lo:hi, None]
            uc = xc[lo:hi, None]
            vals = f(u, uc, x[None, :], xc[None, :])
            total += float(np.einsum("i,ij,j->", w[lo:hi], vals, w))
        if prev is not None:
            est = abs(total - prev)
            if est <= tol:
                return total, est, level
        prev = total
    raise QuadratureConvergenceError(
        f"no convergence to {tol} within level budget {_MAX_LEVEL}"
    )
