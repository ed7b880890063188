"""Log-domain hyperbolic helpers, which no route calls.

Every route scales its hyperbolic ratios so that each exponent is <= 0,
and so does the tests' cosine-sum reference. These stay only for the
benchmark tracer, which looks them up by name, until it drops them.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)


def log_cosh(z):
    """log(cosh(z)), elementwise, finite for arbitrarily large ``|z|``."""
    z = np.abs(np.asarray(z, dtype=float))
    return z + np.log1p(np.exp(-2.0 * z)) - _LN2


def log_sinh(z):
    """log(sinh(z)) for z > 0, elementwise, finite for large ``z``; ``expm1``
    keeps small ``z`` accurate, and z = 0 gives -inf."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        return z + np.log(-np.expm1(-2.0 * z)) - _LN2


def larger_root(coeff):
    """Greater solution of ``g*g - coeff*g + 1 = 0`` for ``coeff >= 2``.

    The sqrt argument is clamped at zero so round-off at coeff = 2 cannot
    produce a NaN; the smaller root is never formed, avoiding cancellation.
    """
    coeff = np.asarray(coeff, dtype=float)
    half = coeff / 2.0
    return half + np.sqrt(np.maximum(half * half - 1.0, 0.0))
