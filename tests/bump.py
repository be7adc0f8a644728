"""A compactly supported bump perturbation of a roof, for the tests.

It gives the witness search a roof without a coefficient table, and the
suspension sampler a narrow peak its envelope must cover.
"""

import math
from dataclasses import replace
from fractions import Fraction
from numbers import Rational

import numpy as np

from mixlab.errors import InvalidRoof
from mixlab.roof import RoofFunction

# sup of |d/du (1-u^2)^3| on [-1,1] is 96/(25*sqrt(5)), attained at u=1/sqrt(5)
_BUMP_SLOPE_SUP = 96.0 / (25.0 * math.sqrt(5.0))


def perturb_bump(roof: RoofFunction, center, radius, amplitude) -> RoofFunction:
    """Add a compactly supported bump a*(1 - u^2)^3, u = (x-center)/radius.

    The bump is C^2 with support [center-radius, center+radius] and peaks
    at `amplitude` on the center, so the certified bounds move by closed
    forms: a positive amplitude raises the upper bound by exactly that
    much, a negative one lowers the lower bound by |amplitude|, and the
    Lipschitz constant grows by the bump's slope bound.  Positivity
    requires |amplitude| < the roof's lower bound.  The result has no
    coefficient table, and stays exact when the roof and the bump data are.
    """
    if not radius > 0:
        raise InvalidRoof("bump radius must be positive")
    if abs(amplitude) >= float(roof.lower_bound):
        raise InvalidRoof("bump |amplitude| must stay below the roof lower bound")
    if amplitude == 0:
        return roof

    exact = roof.exact and all(isinstance(v, Rational) for v in (center, radius, amplitude))
    if exact:
        c, rad, amp = Fraction(center), Fraction(radius), Fraction(amplitude)
    else:
        c, rad, amp = float(center), float(radius), float(amplitude)
    old_value = roof.value

    def value(x):
        base_val = old_value(x)
        u = (x - c) / rad
        if not -1 < u < 1:
            return base_val
        w = 1 - u * u
        return base_val + amp * w * w * w

    old_many = roof.value_many
    fc, frad, famp = float(center), float(radius), float(amplitude)

    def value_many(xs):
        vals = np.asarray(old_many(xs), dtype=float).copy()
        u = (np.asarray(xs, dtype=float) - fc) / frad
        mask = np.abs(u) < 1.0
        w = 1.0 - u[mask] * u[mask]
        vals[mask] += famp * w * w * w
        return vals

    new_lower = float(roof.lower_bound) + min(0.0, float(amplitude))
    new_lip = float(roof.branch_lipschitz) + (
        _BUMP_SLOPE_SUP * abs(float(amplitude)) / float(radius)
    ) * roof.base.expansion_bound * (1.0 + 1e-6)
    return replace(
        roof,
        value=value,
        lower_bound=new_lower,
        upper_bound=roof.upper_bound + max(0, amplitude),
        branch_lipschitz=new_lip,
        exact=exact,
        value_many=value_many,
        cell_coefficients=None,
    )
