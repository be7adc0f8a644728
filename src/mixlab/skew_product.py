"""Hyperbolic skew products over full-branch circle maps.

F(x, z) = (d x mod 1, G(x, z)) with G(x, z) = kappa z + rho (cos, sin)(2 pi x)
contracting a disk into itself: the solenoid's fiber family, the only one a
config, CLI subcommand or acceptance criterion builds.  The module validates
the contraction and invariance axioms by probing, computes the family of
fiber measures eta_x as depth-n inverse-branch sums, and integrates them
against normalized Lebesgue measure, the invariant measure of the base.

Observables are callables v(x, z) with z an array of fiber points, shape
(..., 2); they must broadcast over the leading axes.  eta_x(v) is the
weighted sum of v over the fiber points reached by pushing the fiber
origin up every inverse branch chain of length depth; the truncation error
is kappa^depth times the observable's fiber Lipschitz constant times the
fiber diameter.

The level-k preimages of x are (x + J)/d^k, and the translation there is
the translation at x/d^k rotated by 2 pi J/d^k.  A tree therefore costs one
translation of the depth phases x/d^k plus one complex multiply and one
parent add per node, against one table of d^depth roots of unity.  Its top
levels, up to _TOP_NODES nodes, are built whole; below them the subtrees of
a run of top positions are grown together down to _BLOCK_LEAVES leaves, so
that a 2^20-leaf tree touches each node while its block is in cache instead
of streaming 16 MB levels through memory.  evaluate, the only reader of a
tree, calls v once per block and sums the block at once, so beyond the
roots table its memory is a few blocks, not the tree.  The sum is fixed by the top level, not the blocking:
each top position's leaves are summed pairwise (np.add.reduce), then those
d^top sums pairwise, then divided by d^depth.  The forward pushes of
sandwich_estimate run _PUSH_BLOCK samples through every step at a time for
the same reason.  Blocking reorders the work, not the arithmetic: every
node and every sample sees the same operations as the level-by-level and
step-by-step loops, so the results are bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DepthOverflow, NotFullBranch
from .markov_maps import ExpandingMarkovMap, expanding_circle_map, low_discrepancy

NODE_BUDGET = 2_000_000
# Cache blocking (see the module docstring), set by timing depth-20 trees
# and 200,000-sample pushes on the solenoid; constants, not options.
_TOP_NODES = 1 << 10
_BLOCK_LEAVES = 1 << 16
_PUSH_BLOCK = 1 << 14


@dataclass(frozen=True)
class FiberBall:
    """Closed Euclidean ball serving as the fiber space."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:
            raise ValueError("fiber ball radius must be positive")

    @property
    def dimension(self) -> int:
        return self.center.shape[-1]

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, z, tol: float = 1e-9) -> bool:
        return bool(np.linalg.norm(np.asarray(z) - self.center) <= self.radius + tol)


@dataclass(frozen=True)
class AffineFiberFamily:
    """G(x, z) = contraction * z + offset * (cos, sin)(2 pi x) on a 2-D fiber.

    The translation has period 1, so at (x + J)/d^k it is the translation at
    x/d^k rotated by 2 pi J/d^k: the closed form the disintegration builds
    every tree level from.
    """

    contraction: float
    offset: float

    def __call__(self, x, z):
        return self.contraction * np.asarray(z, dtype=float) + self.translation_at(x)

    def translation_at(self, x) -> np.ndarray:
        # offset * (cos, sin)(2 pi x), written column by column into one array
        angle = 2.0 * np.pi * np.asarray(x, dtype=float)
        out = np.empty(np.shape(angle) + (2,))
        np.cos(angle, out=out[..., 0])
        np.sin(angle, out=out[..., 1])
        np.multiply(self.offset, out, out=out)
        return out


@dataclass(frozen=True)
class HyperbolicSkewProduct:
    """Affine disk fiber family over the full-branch circle map x -> d x mod 1."""

    base: ExpandingMarkovMap
    fiber_space: FiberBall
    fiber_map: AffineFiberFamily
    base_point: np.ndarray | None = None

    def __post_init__(self):
        branches = self.base.branches
        if len(branches) < 2 or branches != expanding_circle_map(len(branches)).branches:
            raise NotFullBranch(f"base {self.base.name} is not x -> d x mod 1 on [0, 1)")
        if self.fiber_space.dimension != 2:
            raise NotFullBranch(f"fiber has dimension {self.fiber_space.dimension}, not 2")
        if not 0 < self.kappa < 1:
            raise ValueError("kappa must lie in (0,1)")
        origin = self.fiber_space.center if self.base_point is None else self.base_point
        object.__setattr__(self, "base_point", np.asarray(origin, dtype=float))
        if not self.fiber_space.contains(self.base_point):
            raise ValueError("fiber origin must lie in the fiber ball")

    @property
    def degree(self) -> int:
        """Expansion degree d of the base circle map."""
        return len(self.base.branches)

    @property
    def kappa(self) -> float:
        """Fiber contraction rate |G(x, z) - G(x, w)| / |z - w|."""
        return abs(self.fiber_map.contraction)


def _ball_probes(ball: FiberBall, count: int, seed: int = 12345) -> np.ndarray:
    """Deterministic points of the ball, shape (count, d)."""
    rng = np.random.default_rng(seed)
    d = ball.dimension
    out = np.empty((count, d))
    have = 0
    while have < count:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (count - have) + 8, d))
        keep = np.flatnonzero(np.einsum("ij,ij->i", cand, cand) <= 1.0)[: count - have]
        # mode="clip" writes straight into out; the default "raise" buffers it
        np.take(cand, keep, axis=0, out=out[have : have + len(keep)], mode="clip")
        have += len(keep)
    out *= ball.radius
    out += ball.center
    return out


def validate_contraction(skew: HyperbolicSkewProduct, pairs: int = 100_000) -> float:
    """Worst fiber contraction ratio over sampled same-base pairs."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    diff = _ball_probes(skew.fiber_space, pairs, seed=12345)
    diff -= _ball_probes(skew.fiber_space, pairs, seed=54321)
    # translation cancels on same-base pairs; ratio is |contraction| exactly
    sep = np.linalg.norm(diff, axis=1)
    ok = sep > 0
    num = abs(skew.fiber_map.contraction) * sep[ok]
    return float(np.max(num / sep[ok]))


def validate_invariance(skew: HyperbolicSkewProduct, probes: int = 1_000) -> float:
    """Worst overshoot of G(x, Omega) outside the ball; <= 0 passes."""
    lo = float(skew.base.domain_lo)
    hi = float(skew.base.domain_hi)
    xs = low_discrepancy(probes, lo, hi, phase=0.43)
    zs = _ball_probes(skew.fiber_space, probes, seed=777)
    # include boundary points of the ball, where invariance is tightest
    boundary = zs - skew.fiber_space.center
    norms = np.linalg.norm(boundary, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    zs_boundary = skew.fiber_space.center + skew.fiber_space.radius * boundary / norms
    worst = -math.inf
    trans = skew.fiber_map.translation_at(xs)
    for z_set in (zs, zs_boundary):
        imgs = skew.fiber_map.contraction * z_set + trans
        over = np.linalg.norm(imgs - skew.fiber_space.center, axis=1) - skew.fiber_space.radius
        worst = max(worst, float(np.max(over)))
    return worst


@dataclass(frozen=True)
class Disintegration:
    """Depth-n approximation of the fiber measures eta_x.

    evaluate(x, v) sums v over the fiber points carried to x along every
    inverse branch chain of length `depth`, each weighted d^-depth.  The
    node budget caps the widest tree level: a depth whose level d^k exceeds
    it raises DepthOverflow, naming the first such level, before any node
    is built.

    Levels are held in digit-reversed order: position p of level k is the
    node (x + J)/d^k with J the k base-d digits of p reversed.  Level k's
    rotations are then the prefix [:d^k] of one table of d^depth roots of
    unity, and the children of position p are d p .. d p + d - 1, so each
    child slice [i::d] adds the parent level as it stands.  The table is
    built at the first tree, not with the Disintegration, and serves every
    later tree.

    The descendants of the top positions p0 .. p0 + B - 1 are one run of
    positions at every deeper level, and their rotations the matching run
    of the table, so the tree is built in blocks: the levels up to
    _TOP_NODES nodes whole, then each run of B top positions, with about
    _BLOCK_LEAVES leaves below it, down to the leaves through two small
    buffers, adding the transported origin to the block's leaves last.
    evaluate reads each block as it is built, and no tree is ever kept whole.
    """

    skew: HyperbolicSkewProduct
    depth: int
    node_budget: int = NODE_BUDGET

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def truncation_bound(self, fiber_lipschitz: float) -> float:
        """Certified |eta_x(v) - lim| bound for v with the given fiber Lipschitz constant."""
        return self.skew.kappa**self.depth * fiber_lipschitz * self.skew.fiber_space.diameter

    def evaluate(self, x, v: Callable, origin: np.ndarray | None = None) -> float:
        """eta_x(v), with v called once per block of leaves.

        v sees a read-only broadcast of x and the block's fiber points.
        Each top position's leaf values are summed pairwise, then the d^top
        position sums, then divided by d^depth: the value is the same for
        every blocking, and eta_x(1) is exactly 1.
        """
        x = float(x)
        sums = []
        for block in self._leaf_blocks(*self._phases(x, origin)):
            vals = v(np.broadcast_to(x, (block.size,)), block.view(float).reshape(-1, 2))
            sums.append(np.add.reduce(np.asarray(vals, dtype=float).reshape(block.shape), axis=1))
        return float(np.add.reduce(np.concatenate(sums)) / self.skew.degree**self.depth)

    def _phases(self, x: float, origin):
        """Level k+1's rotation factor, for each k, and the transported origin.

        Checks the origin, x and the node budget first.  Level k+1's factor
        is its translation, transported by contraction^k.
        """
        skew = self.skew
        start = skew.base_point if origin is None else np.asarray(origin, dtype=float)
        if not skew.fiber_space.contains(start):
            raise ValueError("origin must lie in the fiber ball")
        skew.base.cell_index(x)  # raises BoundaryPoint outside/on edges
        d = skew.degree
        over = next((k for k in range(1, self.depth + 1) if d**k > self.node_budget), None)
        if over is not None:
            raise DepthOverflow(f"level {over} holds {d**over} nodes, budget {self.node_budget}")
        trans = skew.fiber_map.translation_at(x / float(d) ** np.arange(1, self.depth + 1))
        steps = []
        scale = 1.0
        for k in range(self.depth):
            steps.append(scale * complex(*trans[k]))
            scale *= skew.fiber_map.contraction
        return steps, scale * complex(*start)

    def _leaf_blocks(self, steps, shift):
        """The leaves, in runs of whole top-position subtrees.

        Each block is shaped (top positions, leaves under one).  One block
        buffer is reused, so a block is valid until the next one is asked
        for.
        """
        d = self.skew.degree
        top = max(k for k in range(self.depth + 1) if d**k <= _TOP_NODES)
        sub = d ** (self.depth - top)  # leaves under one level-top position
        head = np.empty(d**top, dtype=complex)
        tree = self._grow(steps, np.zeros(1, dtype=complex), 0, 0, top, head, _level_buffers(d**top, d))
        if top == self.depth:
            tree += shift
            yield tree[:, None]
            return
        width = max(1, _BLOCK_LEAVES // sub)  # level-top positions per block
        dest = np.empty(width * sub, dtype=complex)
        bufs = _level_buffers(width * sub, d)
        for p0 in range(0, d**top, width):
            block = dest[: min(width, d**top - p0) * sub]
            self._grow(steps, tree[p0 : p0 + width], p0, top, self.depth, block, bufs)
            block += shift
            yield block.reshape(-1, sub)

    def _grow(self, steps, parent, p0: int, level: int, last: int, out, bufs):
        """Levels level+1 .. last under the level positions p0, p0 + 1, ..
        holding `parent`.

        Their descendants are a run of positions at every level, so each
        level multiplies one contiguous slice of the roots table.  Level
        `last` lands in `out` and is returned; the levels between alternate
        in `bufs`, whose first buffer holds level last - 1.
        """
        d = self.skew.degree
        for k in range(level, last):
            span = len(parent) * d
            lo = p0 * d ** (k + 1 - level)
            dest = out if k + 1 == last else bufs[(last - 2 - k) % 2][:span]
            child = np.multiply(self._roots[lo : lo + span], steps[k], out=dest)
            for i in range(d):
                child[i::d] += parent
            parent = child
        return parent

    @cached_property
    def _roots(self) -> np.ndarray:
        """exp(2 pi i J / d^depth) at position p, J the digit reversal of p.

        The digit reversals are whole floats, so dividing them needs no
        cast buffer, and the angles are built in the table's imaginary half,
        where cos and sin read them: the build holds no more than the table
        and the reversals.
        """
        d = self.skew.degree
        rev = np.zeros(1)
        for k in range(self.depth):
            rev = (rev[:, None] + d**k * np.arange(d, dtype=float)).ravel()
        roots = np.empty(len(rev), dtype=complex)
        angle = np.divide(rev, float(len(rev)), out=roots.imag)
        angle *= 2.0 * np.pi
        np.cos(angle, out=roots.real)
        np.sin(angle, out=angle)
        return roots


def _level_buffers(leaves: int, d: int):
    """Buffers for the two levels above `leaves` nodes of a degree-d tree."""
    return np.empty(leaves // d, dtype=complex), np.empty(leaves // d**2, dtype=complex)


def eta_integral(dis: Disintegration, v: Callable, panels: int = 64) -> float:
    """Integral of x -> eta_x(v) against normalized Lebesgue measure.

    Composite midpoint quadrature per partition cell; panel count is per
    cell.
    """
    base = dis.skew.base
    total = 0.0
    span = float(base.domain_hi) - float(base.domain_lo)
    for b in base.branches:
        a, c = float(b.lo), float(b.hi)
        xs = a + (c - a) * (np.arange(panels) + 0.5) / panels
        for x in xs:
            val = dis.evaluate(float(x), v)
            total += (c - a) / panels * val
    return total / span


@dataclass(frozen=True)
class SandwichEstimate:
    """Bracket [lower, upper] around eta(v), plus sampling uncertainty.

    The bracket width (gap) is the exact distance between the upper and
    lower enclosing observables; stat_error is the standard error of the
    bracket's location coming from the base-point sample.
    """

    lower: float
    upper: float
    stat_error: float
    samples: int

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def sandwich_estimate(
    skew: HyperbolicSkewProduct,
    v: Callable,
    depth: int,
    fiber_lipschitz: float,
    samples: int = 200_000,
    seed: int = 0,
) -> SandwichEstimate:
    """Bracket eta(v) between averages of fiberwise sup/inf enclosures.

    Works through forward orbits, not the inverse-branch tree, so it is an
    independent cross-check of eta_integral.  Over each sampled base point
    the whole fiber ball lands, after `depth` steps, inside the ball of
    radius kappa^depth * radius around the pushed center, so the center
    value widened by kappa^depth * Lip * radius encloses the fiberwise sup
    and inf.  The bracket width is kappa^depth * Lip * diam(ball) exactly.

    The average over starting points is Monte Carlo: the integrand mixes
    at the base expansion scale, so no fixed grid of affordable size can
    resolve it at useful depths (dyadic grids collapse onto periodic
    orbits of the circle map).  Base points are drawn uniformly, and the
    returned stat_error is the standard error of the mean.

    The pushes run in place, _PUSH_BLOCK samples through all `depth` steps
    at a time; v is then called once, on the whole sample.
    """
    base = skew.base
    ball = skew.fiber_space
    pad = skew.kappa**depth * fiber_lipschitz * ball.radius
    lo_b, hi_b = float(base.domain_lo), float(base.domain_hi)

    rng = np.random.default_rng([seed])
    y = rng.random(samples)
    y *= hi_b - lo_b
    y += lo_b
    zs = np.empty((samples, ball.dimension))
    zs[:] = ball.center
    for a in range(0, samples, _PUSH_BLOCK):
        yb, zb = y[a : a + _PUSH_BLOCK], zs[a : a + _PUSH_BLOCK]
        for _ in range(depth):
            zb[...] = skew.fiber_map(yb, zb)
            yb[...] = base.evaluate_many(yb)
    vals = np.asarray(v(y, zs), dtype=float)

    mean = float(vals.mean())
    err = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return SandwichEstimate(mean - pad, mean + pad, err, samples)

