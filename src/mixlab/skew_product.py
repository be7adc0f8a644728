"""Hyperbolic skew products over full-branch circle maps.

F(x, z) = (d x mod 1, G(x, z)) with G(x, z) = kappa z + rho (cos, sin)(2 pi x)
contracting the disk of radius r centred at 0 into itself: the solenoid's
fiber family, the only one a config, CLI subcommand or acceptance criterion
builds.  The module validates the contraction and invariance axioms by
probing, computes the fiber measures eta_x as depth-n inverse-branch sums,
and integrates them against Lebesgue measure, the base's invariant measure.

Observables are callables v(x, z) with z an array of fiber points, shape
(..., 2); they must broadcast over the leading axes.  eta_x(v) is the
weighted sum of v over the fiber points reached by pushing the centre up
every inverse branch chain of length depth: every tree starts at the
centre.  The truncation error is kappa^depth times the observable's fiber
Lipschitz constant times the fiber diameter.

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
d^top sums pairwise, then divided by d^depth.  For the same reason `push`
runs _PUSH_BLOCK points through every step at a time, each fiber step in
place, and the sandwich and the disk probes draw and read that many at once.
Blocking reorders the work, not the arithmetic: every node and every
point sees the same operations as the level-by-level and step-by-step
loops, so the results are bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DepthOverflow
from .markov_maps import ExpandingMarkovMap, expanding_circle_map, low_discrepancy

NODE_BUDGET = 2_000_000
# Cache blocking (see the module docstring), set by timing depth-20 trees
# and 200,000-sample pushes on the solenoid; constants, not options.
_TOP_NODES = 1 << 10
_BLOCK_LEAVES = 1 << 16
_PUSH_BLOCK = 1 << 14
_ETA_PANELS = 64  # eta_integral's midpoint panels per partition cell


@dataclass(frozen=True)
class AffineFiberFamily:
    """G(x, z) = contraction * z + offset * (cos, sin)(2 pi x) on a 2-D fiber.

    The translation has period 1, so at (x + J)/d^k it is the translation at
    x/d^k rotated by 2 pi J/d^k: the closed form the disintegration builds
    every tree level from.
    """

    contraction: float
    offset: float

    def __call__(self, x, z, out=None):
        """G(x, z); given `out` (which may be z), the same sums written there."""
        if out is None:
            return self.contraction * np.asarray(z, dtype=float) + self.translation_at(x)
        np.multiply(self.contraction, z, out=out)
        out += self.translation_at(x)
        return out

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
    """Affine fiber family on the radius-r disk about 0 over x -> degree x mod 1."""

    degree: int
    radius: float
    fiber_map: AffineFiberFamily
    base: ExpandingMarkovMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("fiber radius must be positive")
        if not 0 < self.kappa < 1:
            raise ValueError("kappa must lie in (0,1)")
        object.__setattr__(self, "base", expanding_circle_map(self.degree))

    @property
    def kappa(self) -> float:
        """Fiber contraction rate |G(x, z) - G(x, w)| / |z - w|."""
        return abs(self.fiber_map.contraction)

    def push(self, y: np.ndarray, z: np.ndarray, steps: int) -> None:
        """Apply F `steps` times to the points y, shape (n,), and z, shape (n, 2),
        in place (fiber steps too), _PUSH_BLOCK points through every step at a time."""
        for a in range(0, len(y), _PUSH_BLOCK):
            yb, zb = y[a : a + _PUSH_BLOCK], z[a : a + _PUSH_BLOCK]
            for _ in range(steps):
                self.fiber_map(yb, zb, out=zb)
                yb[...] = self.base.evaluate_many(yb)


def _ball_blocks(radius: float, count: int, seed: int):
    """The rows of `_ball_probes(radius, count, seed)`, _PUSH_BLOCK at a time: accepted
    candidates a block leaves go to the next, so they are one stream's first count."""
    rng = np.random.default_rng(seed)
    keep = ()
    for a in range(0, count, _PUSH_BLOCK):
        block = np.empty((min(_PUSH_BLOCK, count - a), 2))
        have = 0
        while have < len(block):
            if not len(keep):
                cand = rng.uniform(-1.0, 1.0, size=(min(2 * (count - a) + 8, _PUSH_BLOCK), 2))
                keep = np.flatnonzero(np.einsum("ij,ij->i", cand, cand) <= 1.0)
            take, keep = keep[: len(block) - have], keep[len(block) - have :]
            # mode="clip" writes straight into block; the default "raise" buffers it
            np.take(cand, take, axis=0, out=block[have : have + len(take)], mode="clip")
            have += len(take)
        block *= radius
        yield block


def _ball_probes(radius: float, count: int, seed: int = 12345) -> np.ndarray:
    """Deterministic points of the disk of the given radius, shape (count, 2)."""
    return np.concatenate(list(_ball_blocks(radius, count, seed)))


def validate_contraction(skew: HyperbolicSkewProduct, pairs: int = 100_000) -> float:
    """Worst fiber contraction ratio over sampled same-base pairs, drawn a block at a time."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    # translation cancels on same-base pairs; ratio is |contraction| exactly
    kappa = abs(skew.fiber_map.contraction)
    worst = -math.inf
    for z, w in zip(_ball_blocks(skew.radius, pairs, 12345), _ball_blocks(skew.radius, pairs, 54321)):
        sep = np.linalg.norm(np.subtract(z, w, out=z), axis=1)
        sep = sep[sep > 0]
        worst = max(worst, float(np.max(kappa * sep / sep, initial=-math.inf)))
    return worst


def validate_invariance(skew: HyperbolicSkewProduct, probes: int = 1_000) -> float:
    """Worst overshoot of G(x, Omega) outside the disk; <= 0 passes."""
    lo = float(skew.base.domain_lo)
    hi = float(skew.base.domain_hi)
    xs = low_discrepancy(probes, lo, hi, phase=0.43)
    zs = _ball_probes(skew.radius, probes, seed=777)
    # include boundary points of the disk, where invariance is tightest
    norms = np.linalg.norm(zs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    zs_boundary = skew.radius * zs / norms
    worst = -math.inf
    trans = skew.fiber_map.translation_at(xs)
    for z_set in (zs, zs_boundary):
        imgs = skew.fiber_map.contraction * z_set + trans
        over = np.linalg.norm(imgs, axis=1) - skew.radius
        worst = max(worst, float(np.max(over)))
    return worst


@dataclass(frozen=True)
class Disintegration:
    """Depth-n approximation of the fiber measures eta_x.

    evaluate(x, v) sums v over the fiber points carried to x from the
    disk's centre along every inverse branch chain of length `depth`, each
    weighted d^-depth.  NODE_BUDGET caps the widest tree level: a depth
    whose level d^k exceeds it raises DepthOverflow, naming the first such
    level, before any node is built.

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
    buffers.  evaluate reads each block as it is built, and no tree is ever kept whole.
    """

    skew: HyperbolicSkewProduct
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def truncation_bound(self, fiber_lipschitz: float) -> float:
        """Certified |eta_x(v) - lim| bound for v with the given fiber Lipschitz constant."""
        return self.skew.kappa**self.depth * fiber_lipschitz * (2.0 * self.skew.radius)

    def evaluate(self, x, v: Callable) -> float:
        """eta_x(v), with v called once per block of leaves.

        v sees a read-only broadcast of x and the block's fiber points.
        Each top position's leaf values are summed pairwise, then the d^top
        position sums, then divided by d^depth: the value is the same for
        every blocking, and eta_x(1) is exactly 1.
        """
        x = float(x)
        sums = []
        for block in self._leaf_blocks(self._phases(x)):
            vals = v(np.broadcast_to(x, (block.size,)), block.view(float).reshape(-1, 2))
            sums.append(np.add.reduce(np.asarray(vals, dtype=float).reshape(block.shape), axis=1))
        return float(np.add.reduce(np.concatenate(sums)) / self.skew.degree**self.depth)

    def _phases(self, x: float):
        """Level k+1's rotation factor, for each k.

        Checks x and the node budget first.  Level k+1's factor is its
        translation, transported by contraction^k.
        """
        skew = self.skew
        skew.base.cell_index(x)  # raises BoundaryPoint outside/on edges
        d = skew.degree
        over = next((k for k in range(1, self.depth + 1) if d**k > NODE_BUDGET), None)
        if over is not None:
            raise DepthOverflow(f"level {over} holds {d**over} nodes, budget {NODE_BUDGET}")
        trans = skew.fiber_map.translation_at(x / float(d) ** np.arange(1, self.depth + 1))
        steps = []
        scale = 1.0
        for k in range(self.depth):
            steps.append(scale * complex(*trans[k]))
            scale *= skew.fiber_map.contraction
        return steps

    def _leaf_blocks(self, steps):
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
            yield tree[:, None]
            return
        width = max(1, _BLOCK_LEAVES // sub)  # level-top positions per block
        dest = np.empty(width * sub, dtype=complex)
        bufs = _level_buffers(width * sub, d)
        for p0 in range(0, d**top, width):
            block = dest[: min(width, d**top - p0) * sub]
            self._grow(steps, tree[p0 : p0 + width], p0, top, self.depth, block, bufs)
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

        With p = q d^lo + s (s < d^lo), J is the reversal of s times
        d^(depth - lo) plus the reversal of q: whole floats, added exactly
        into the table's imaginary half, a run of d^lo positions at a time,
        where the angles are built and cos and sin read them.
        """
        d, n = self.skew.degree, self.skew.degree**self.depth
        lo = max(k for k in range(self.depth + 1) if d**k <= _BLOCK_LEAVES)
        low = _reversals(d, lo) * d ** (self.depth - lo)
        roots = np.empty(n, dtype=complex)
        for q, high in enumerate(_reversals(d, self.depth - lo).tolist()):
            run = roots[q * len(low) : (q + 1) * len(low)]
            angle = np.add(low, high, out=run.imag)
            angle /= float(n)
            angle *= 2.0 * np.pi
            np.cos(angle, out=run.real)
            np.sin(angle, out=angle)
        return roots


def _reversals(d: int, digits: int) -> np.ndarray:
    """The base-d digit reversals of 0 .. d^digits - 1, as whole floats."""
    rev = np.zeros(1)
    for k in range(digits):
        rev = (rev[:, None] + d**k * np.arange(d, dtype=float)).ravel()
    return rev


def _level_buffers(leaves: int, d: int):
    """Buffers for the two levels above `leaves` nodes of a degree-d tree."""
    return np.empty(leaves // d, dtype=complex), np.empty(leaves // d**2, dtype=complex)


def eta_integral(dis: Disintegration, v: Callable) -> float:
    """Integral of x -> eta_x(v) against normalized Lebesgue measure.

    Composite midpoint quadrature, _ETA_PANELS panels per partition cell.
    """
    base = dis.skew.base
    total = 0.0
    span = float(base.domain_hi) - float(base.domain_lo)
    for b in base.branches:
        a, c = float(b.lo), float(b.hi)
        xs = a + (c - a) * (np.arange(_ETA_PANELS) + 0.5) / _ETA_PANELS
        for x in xs:
            val = dis.evaluate(float(x), v)
            total += (c - a) / _ETA_PANELS * val
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
    and inf.  The bracket width is kappa^depth * Lip * diam(disk) exactly.

    The average over starting points is Monte Carlo: the integrand mixes
    at the base expansion scale, so no fixed grid of affordable size can
    resolve it at useful depths (dyadic grids collapse onto periodic
    orbits of the circle map).  Base points are drawn uniformly, and the
    returned stat_error is the standard error of the mean.

    The sample is drawn, pushed in place (`HyperbolicSkewProduct.push`)
    and read a block at a time: v is called once per block.
    """
    pad = skew.kappa**depth * fiber_lipschitz * skew.radius
    rng = np.random.default_rng([seed])
    vals = np.empty(samples)
    for a in range(0, samples, _PUSH_BLOCK):
        # uniform on the circle [0, 1); one stream, however it is cut up
        y = rng.random(min(_PUSH_BLOCK, samples - a))
        zs = np.zeros((len(y), 2))
        skew.push(y, zs, depth)
        vals[a : a + len(y)] = v(y, zs)

    mean = float(vals.mean())
    err = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return SandwichEstimate(mean - pad, mean + pad, err, samples)

