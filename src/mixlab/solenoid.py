"""Solid-torus solenoid models.

The circle angle expands by an integer degree while the disk fiber
contracts by 1/c and translates along a circle of radius rho, so the
forward images wrap the solid torus around itself degree-many times.  The
module validates the geometry inequalities at build time, checks the
domination product that controls stable-foliation smoothness, and samples
the attractor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryViolation
from .skew_product import AffineFiberFamily, HyperbolicSkewProduct

_DOMINATION_PROBES = 256  # probe angles of the empirical domination product
BURN_IN = 30  # attractor_sample's default steps; the CLI bounds its cloud by kappa**BURN_IN


@dataclass(frozen=True)
class SolenoidModel:
    """Angle-expansion degree, fiber contraction c, wobble radius rho."""

    expansion: int
    contraction: float
    offset: float
    fiber_radius: float = 1.0
    # built once: suspend needs a roof over the skew's own base map, so every read must agree
    _skew: HyperbolicSkewProduct = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.expansion < 2:
            raise GeometryViolation("expansion degree must be >= 2")
        if not self.contraction > 1:
            raise GeometryViolation("contraction factor must exceed 1")
        if not 0 < self.offset < 1:
            raise GeometryViolation("offset must lie in (0,1)")
        r, c, rho = self.fiber_radius, self.contraction, self.offset
        if r / c + rho > r:
            raise GeometryViolation(
                "invariance violated: fiber_radius/contraction + offset = "
                f"{float(r / c + rho):.6g} > fiber_radius = {float(r):.6g}"
            )
        gap = 2.0 * float(rho) * math.sin(math.pi / self.expansion)
        if not gap > 2.0 * float(r / c):
            raise GeometryViolation(
                "injectivity violated: adjacent image disks overlap, "
                f"2*offset*sin(pi/degree) = {gap:.6g} <= 2*fiber_radius/contraction = "
                f"{2.0 * float(r / c):.6g}"
            )
        # floats: a Fraction broadcast into an ndarray would force elementwise
        # object arithmetic at every transport step
        fiber_map = AffineFiberFamily(float(self.kappa), float(self.offset))
        object.__setattr__(self, "_skew", HyperbolicSkewProduct(self.expansion, float(r), fiber_map))

    @property
    def kappa(self) -> float:
        return 1.0 / self.contraction

    @property
    def image_radius_bound(self) -> float:
        """sup |G| over the torus: fiber_radius/c + rho."""
        return self.fiber_radius / self.contraction + self.offset

    @property
    def skew(self) -> HyperbolicSkewProduct:
        return self._skew


def build(
    expansion: int, contraction: float, offset: float, fiber_radius: float = 1.0
) -> SolenoidModel:
    """Construct and geometry-check a solenoid model."""
    return SolenoidModel(expansion, contraction, offset, fiber_radius)


@dataclass(frozen=True)
class DominationReport:
    """Return-map domination product and its verdict.

    The product is the discrete-time stand-in sup |DF restricted to the
    fiber| * |DF|^2 evaluated on the return map instead of a time-t flow
    map, since the suspension carries no ambient flow derivative; the
    certified bound uses the worst-case entries of the derivative block
    matrix [[degree, 0], [dG/dtheta, 1/c]] and the Frobenius norm, which
    dominates the spectral norm.
    """

    product_bound: float
    empirical_product: float
    passed: bool

    def to_csv(self) -> str:
        # threshold column: domination requires the product below 1
        return (
            "quantity,value,threshold\n"
            f"product_bound,{self.product_bound:.17g},1\n"
            f"empirical_product,{self.empirical_product:.17g},1\n"
            f"passed,{int(self.passed)},1\n"
        )


def check_domination(model: SolenoidModel) -> DominationReport:
    """Evaluate the fiber-contraction times squared-expansion product."""
    d = float(model.expansion)
    c = model.contraction
    rho = model.offset
    wobble = 2.0 * math.pi * rho  # sup |dG/dtheta| over the circle
    frob_sq = d * d + wobble * wobble + 1.0 / (c * c)
    bound = frob_sq / c

    # empirical route: spectral norm of the full 3x3 Jacobian at probe angles
    theta = 2.0 * np.pi * ((np.arange(_DOMINATION_PROBES) + 0.5) / _DOMINATION_PROBES)
    jac = np.zeros((_DOMINATION_PROBES, 3, 3))
    jac[:, 0, 0] = d
    jac[:, 1, 0] = -wobble * np.sin(theta)
    jac[:, 2, 0] = wobble * np.cos(theta)
    jac[:, 1, 1] = jac[:, 2, 2] = 1.0 / c
    norm = np.linalg.svd(jac, compute_uv=False)[:, 0]
    worst = float(np.max(norm * norm / float(c)))
    return DominationReport(product_bound=bound, empirical_product=worst, passed=bound < 1.0)


def attractor_sample(
    model: SolenoidModel, n: int, burn_in: int = BURN_IN, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, z) cloud after burn-in iterations from seeded random starts.

    All returned fiber points satisfy the invariance bound once burn_in
    is at least 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 1.0, size=n)
    # uniform over the disk via radius sqrt
    ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
    rad = float(model.fiber_radius) * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    z = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)
    model.skew.push(theta, z, burn_in)
    return theta, z


def cloud_csv(theta: np.ndarray, z: np.ndarray, attractor_dist_bound: float) -> str:
    """Point rows with the shared distance-to-attractor bound column."""
    lines = ["theta,z1,z2,attractor_dist_bound"]
    for t, (a, b) in zip(theta, z):
        lines.append(f"{t:.17g},{a:.17g},{b:.17g},{attractor_dist_bound:.17g}")
    return "\n".join(lines) + "\n"
