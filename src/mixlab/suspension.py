"""Suspension semiflows over Markov maps and hyperbolic skew products.

A suspension places a point (w, u) under a roof r and flows it upward at
unit speed; hitting the roof applies the base dynamics and resets u.  The
module provides vectorized flow advancement, a seeded sampler for the
normalized invariant measure over the base map's exact `cell_density`,
Monte Carlo correlation series with batch-means error bars, a log-linear
decay-rate fit with an explicit noise floor, and the temporal-distance
functional whose vanishing characterizes roofs cohomologous to locally
constant ones.

An observable that declares its height frequency (``phi.omega``, see
`correlation`) is read once per roof lap, each round moving every sample one
lap on; any other callable is read at every sample on every grid step.

All randomness is generated per batch from ``default_rng([seed, batch])``
and batches are merged in index order, so results are byte-identical for
any worker count.  `correlation` spreads its batches over worker processes
forked from the caller (POSIX ``fork`` only); the caller runs every
``workers``-th batch itself, and the children inherit the observables by
fork, so observables need not be picklable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryPoint, BracketUndefined, CrossingBudgetExceeded, WindowTooShort
from .markov_maps import ExpandingMarkovMap
from .roof import RoofFunction
from .skew_product import HyperbolicSkewProduct
from .transfer_operator import cell_density, integrate

DEFAULT_DT = 0.1
DEFAULT_SPAN_MULT = 30.0
DEFAULT_BATCH = 50_000
# base steps a skew-base sample is pushed from the disk centre before it is read
FIBER_DEPTH = 30
# fit_rate's noise floor, in multiples of the largest standard error
NOISE_FLOOR_MULT = 3.0
# most worker processes `correlation` takes, and so the bound on --threads
MAX_THREADS = 256
# Gauss-Legendre nodes for the roof average over the base
_QUAD_SAMPLES = 4096
_SVG_WIDTH, _SVG_HEIGHT = 640, 420  # svg_log_plot's canvas, in pixels


@dataclass(frozen=True)
class SuspensionSemiflow:
    """Semiflow on {(w, u): 0 <= u < r(w)} with base map or skew product.

    The roof lives over the base interval map and is constant along fibers
    when the base is a skew product.  ``mean_roof`` is the roof average
    against the base map's exact `cell_density` and sets the default time
    scale; ``roof_sup`` is the roof's certified ``upper_bound``, the
    envelope of the rejection sampler; because r <= roof_sup everywhere,
    accepting with probability r(x)/roof_sup draws exactly from the
    length-biased measure.
    """

    base: object
    roof: RoofFunction
    mean_roof: float
    roof_sup: float
    # the base cells' invariant masses cumulated in Fraction: 0, ..., exactly 1.0
    _mass_cuts: np.ndarray = field(init=False, repr=False, compare=False)
    # temporal_distance's backward roof sums, keyed by (exact, point, depth)
    _backward_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def skew(self) -> HyperbolicSkewProduct | None:
        return self.base if isinstance(self.base, HyperbolicSkewProduct) else None

    @property
    def base_map(self) -> ExpandingMarkovMap:
        sk = self.skew
        return sk.base if sk is not None else self.base

    def default_times(self, dt: float = DEFAULT_DT, t_max: float | None = None) -> np.ndarray:
        if t_max is None:
            t_max = DEFAULT_SPAN_MULT * self.mean_roof
        steps = int(round(t_max / dt))
        return np.linspace(0.0, steps * dt, steps + 1)


def suspend(base, roof: RoofFunction) -> SuspensionSemiflow:
    """Build a suspension and precompute its base measure, roof average and envelope.

    The roof average and the sampler read the base map's exact
    `cell_density` (NotAffineMarkov if it has none).  The sampling envelope
    is the roof's certified upper bound.
    """
    base_map = base.base if isinstance(base, HyperbolicSkewProduct) else base
    if roof.base is not base_map:
        raise ValueError("roof must be defined over the suspension's base map")
    density = cell_density(base_map)
    mean = integrate(base_map, roof.value_many, _QUAD_SAMPLES, [float(h) for h in density])
    susp = SuspensionSemiflow(base, roof, mean, float(roof.upper_bound))
    masses = (h * (hi - lo) for h, lo, hi in zip(density, base_map.edges, base_map.edges[1:]))
    cuts = [float(c) for c in itertools.accumulate(masses, initial=Fraction(0))]
    object.__setattr__(susp, "_mass_cuts", np.array(cuts))
    return susp


# ---------------------------------------------------------------------------
# flow advancement

def _advance_arrays(susp: SuspensionSemiflow, x, z, u, r, dt: float, roof_many: Callable):
    """In-place vectorized advance of a state batch by dt, for `_step_means`.

    The state is (x, z, u, r) with r equal to roof_many(x) elementwise; a
    point's roof changes only when it crosses, so r is refreshed at the
    crossed indices alone and the invariant holds again on return.  Each
    round of crossings gathers the crossing points once, moves them in the
    gathered arrays and scatters them back once; the next round takes only
    those still at or above their new roof.
    """
    bm = susp.base_map
    sk = susp.skew
    u += dt
    idx = np.flatnonzero(u >= r)
    guard = int(dt / float(susp.roof.lower_bound)) + 2
    while len(idx):
        guard -= 1
        if guard < 0:
            raise CrossingBudgetExceeded("crossing count exceeded the roof lower-bound budget")
        xi = x[idx]
        ui = u[idx]
        ui -= r[idx]
        if sk is not None:
            zi = z[idx]
            z[idx] = sk.fiber_map(xi, zi, out=zi)
        xi = bm.evaluate_many(xi)
        ri = roof_many(xi)
        x[idx] = xi
        u[idx] = ui
        r[idx] = ri
        idx = idx[ui >= ri]


# ---------------------------------------------------------------------------
# invariant sampling

def _draw_base(susp: SuspensionSemiflow, rng, m: int) -> np.ndarray:
    """Draw m base points from the base invariant measure.

    A uniform v in [0, 1) takes the cell whose mass interval holds it, counting
    cuts as `cells_many` counts edges, and is carried affinely onto that cell:
    on doubling's halves, of density 1, every step is exact and returns v.
    """
    cuts = susp._mass_cuts
    edges = susp.base_map.edges_f
    v = rng.random(m)
    k = np.zeros(m, dtype=np.min_scalar_type(len(cuts) - 2))
    for c in cuts[1:-1]:
        k += v >= c
    k = k.astype(np.intp)  # np.take reads intp indices several times faster
    v -= np.take(cuts, k)
    v /= np.take(np.diff(cuts), k)
    v *= np.take(np.diff(edges), k)
    v += np.take(edges, k)
    return v


def _sample_arrays(susp: SuspensionSemiflow, rng, n: int):
    """Length-biased sampler for the normalized suspension measure.

    Proposes base points from the invariant density, pushed FIBER_DEPTH
    base steps on skew bases, accepts with probability r(x)/roof_sup, and
    draws the height uniformly on [0, r(x)).  Only accepted proposals carry
    a fiber point, pushed from the disk centre along their own base orbit.
    """
    bm = susp.base_map
    sk = susp.skew
    roof_many = susp.roof.value_many
    env = susp.roof_sup

    xs = np.empty(n)
    us = np.empty(n)
    zs = np.zeros((n, 2)) if sk is not None else None
    filled = 0
    while filled < n:
        m = max(1024, int(1.5 * (n - filled)))
        cand0 = cand = _draw_base(susp, rng, m)
        if sk is not None:
            for _ in range(FIBER_DEPTH):
                cand = bm.evaluate_many(cand)
        r = roof_many(cand)
        u01 = rng.random(m)
        accept = rng.random(m) * env < r
        take = min(n - filled, int(accept.sum()))
        sel = np.nonzero(accept)[0][:take]
        xs[filled : filled + take] = cand[sel]
        us[filled : filled + take] = u01[sel] * r[sel]
        if sk is not None:
            sk.push(cand0[sel], zs[filled : filled + take], FIBER_DEPTH)
        filled += take
    return xs, zs, us


# ---------------------------------------------------------------------------
# correlation series

@dataclass(frozen=True)
class CorrelationSeries:
    """Mean-subtracted correlation estimates on a time grid.

    A series from `correlation` keeps its per-batch means, one row per
    batch of E[phi o X^t . psi] and E[phi o X^t], and one E[psi] each.
    """

    times: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    sample_count: int
    batch_means: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_batches(cls, times, prod, phim, psim, per_batch: int) -> "CorrelationSeries":
        """The estimate and its batch-means standard error over the given batches."""
        n_batches = len(psim)
        rho = prod.mean(axis=0) - phim.mean(axis=0) * psim.mean()
        batch_rho = prod - phim * psim[:, None]
        stderr = batch_rho.std(axis=0, ddof=1) / math.sqrt(n_batches)
        return cls(times, rho, stderr, n_batches * per_batch, (prod, phim, psim))

    def head(self, n_batches: int) -> "CorrelationSeries":
        """The series over this run's first n_batches batches.

        Batch b draws from its own stream ([seed, b]), so this is the
        series that `correlation` gives for n_batches * per_batch samples
        with the same seed, whenever that call lays out batches of the same
        size (as every call with samples a multiple of batch_size does).
        """
        prod, phim, psim = self.batch_means
        if not 2 <= n_batches <= len(psim):
            raise ValueError(f"need 2 to {len(psim)} batches, got {n_batches}")
        per_batch = self.sample_count // len(psim)
        return CorrelationSeries.from_batches(
            self.times, prod[:n_batches], phim[:n_batches], psim[:n_batches], per_batch
        )

    def to_csv(self) -> str:
        lines = ["t,rho,stderr"]
        for t, v, e in zip(self.times, self.values, self.std_errors):
            lines.append(f"{float(t)!r},{float(v)!r},{float(e)!r}")
        return "\r\n".join(lines) + "\r\n"


def _eval_obs(f: Callable, x, u, z):
    return f(x, u) if z is None else f(x, u, z)


def correlation(
    susp: SuspensionSemiflow,
    phi: Callable,
    psi: Callable,
    times: Sequence | None = None,
    samples: int = 200_000,
    seed: int = 0,
    threads: int = 1,
    batch_size: int = DEFAULT_BATCH,
) -> CorrelationSeries:
    """Monte Carlo correlation rho(t) = E[phi o X^t . psi] - E[phi] E[psi].

    Observables take (x, u) over a map base and (x, u, z) over a skew base
    and must accept numpy arrays.  Means are subtracted in control-variate
    form using the same sample; standard errors come from batch means.
    Over a skew base each sample's fiber point starts at the disk centre
    and is pushed FIBER_DEPTH base steps along its own orbit.
    The batch layout depends only on (samples, batch_size, seed), so the
    thread count never changes the output.

    `phi` may declare its height frequency as a float attribute ``omega``,
    a promise that phi(x, u, z) = phi(x, 0, z) cos(omega u) for 0 <= u < r(x).
    Such a phi is read once per roof lap, one lap of every sample per round
    (see `_lap_means`).  Each batch first checks the promise on its initial
    sample and raises ValueError, naming phi, when phi(x, u, z) and
    phi(x, 0, z) cos(omega u) differ by more than 1e-9 max(1, max |phi(x, 0, z)|).
    A phi without ``omega`` is evaluated at every sample on every grid step.
    The two routes agree to rounding, not bit for bit.  The lap route's grid
    sums come from ``np.bincount`` and one ``cumsum``, which add in input
    order, not from BLAS, whose summation order may follow the BLAS thread
    count, so a batch's bytes never depend on the process that runs it.  A
    ``functools.wraps`` wrapper copies ``omega`` with the function's
    ``__dict__`` and so takes the same route.

    `threads` (1 to MAX_THREADS) is the number of worker processes, capped
    at the batch count.  The caller runs batches 0, workers, 2 workers, ...
    itself and workers - 1 children forked from it run the rest (POSIX
    ``fork`` only), so the observables reach them by fork and need not be
    picklable.  An error raised in a child reaches the caller with its
    type, and no child outlives the call.
    """
    if times is None:
        times = susp.default_times()
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("need a one-dimensional, nonempty time grid")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing and start at t >= 0")
    if samples < 2:
        raise ValueError("need at least two samples")
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be 1 to {MAX_THREADS}, got {threads}")

    n_batches = max(2, math.ceil(samples / batch_size))
    per_batch = math.ceil(samples / n_batches)
    omega = getattr(phi, "omega", None)

    def run_batch(b: int):
        rng = np.random.default_rng([int(seed), int(b)])
        x, z, u = _sample_arrays(susp, rng, per_batch)
        # a copy: psi may return a view of the state, which the advance overwrites
        psi0 = np.array(_eval_obs(psi, x, u, z), dtype=float)
        psi_mean = float(np.mean(psi0))  # taken first: the lap route compacts psi0 in place
        if omega is None:
            return *_step_means(susp, phi, times, x, z, u, psi0), psi_mean
        return *_lap_means(susp, phi, float(omega), times, x, z, u, psi0), psi_mean

    results = _map_batches(run_batch, n_batches, min(threads, n_batches))
    prod = np.stack([r[0] for r in results])
    phim = np.stack([r[1] for r in results])
    psim = np.asarray([r[2] for r in results])
    return CorrelationSeries.from_batches(times, prod, phim, psim, per_batch)


def _step_means(susp: SuspensionSemiflow, phi: Callable, times, x, z, u, psi0):
    """E[phi o X^t . psi] and E[phi o X^t] over one batch, phi read at every grid step."""
    roof_many = susp.roof.value_many
    r = roof_many(x)
    n = len(x)
    prod = np.empty(n)
    prod_means = np.empty(len(times))
    phi_means = np.empty(len(times))
    prev = 0.0
    for j, t in enumerate(times):
        if t > prev:
            _advance_arrays(susp, x, z, u, r, t - prev, roof_many)
            prev = t
        ph = np.asarray(_eval_obs(phi, x, u, z), dtype=float)
        # np.mean's own sum and division, without its wrapper
        prod_means[j] = np.add.reduce(np.multiply(ph, psi0, out=prod)) / n
        phi_means[j] = np.add.reduce(ph, axis=None) / ph.size
    return prod_means, phi_means


def _lap_means(susp: SuspensionSemiflow, phi: Callable, omega: float, times, x, z, u, psi0):
    """The same means for phi(x, u, z) = a(x, z) cos(omega u), every sample moved a lap a round.

    On a lap [tau, tau + r), phi o X^t = a cos(omega t) cos(omega tau) + a sin(omega t)
    sin(omega tau), so the rows a cos(omega tau), a sin(omega tau) and both times psi0
    go into a difference array, added at the first grid index with t_j >= tau and taken
    off at the first with t_j >= tau + r; one cumsum gives the grid sums.  A sample
    leaves once its next lap would start after the grid.
    """
    roof_many = susp.roof.value_many
    n, m = len(x), len(times)
    r = roof_many(x)
    a = np.array(_eval_obs(phi, x, np.zeros(n), z), dtype=float)
    _check_declaration(phi, omega, a, x, u, z)
    tau = np.negative(u, out=u)
    start = np.zeros(n, dtype=np.intp)  # tau <= 0 <= t_0
    diff = np.zeros((4, m + 1))

    def spread(at, row):  # bincount sums in input order: the same bytes in every process
        diff[at] += np.bincount(start, row, m + 1)
        diff[at] -= np.bincount(end, row, m + 1)

    for _ in range(int((times[-1] + susp.roof_sup) / float(susp.roof.lower_bound)) + 2):
        phase = np.multiply(omega, tau)
        rows = np.cos(phase), np.sin(phase, out=phase)
        for row in rows:
            row *= a
        tau += r
        del a, r  # peak memory: a round holds two lap rows, freed before the next lap is read
        end = _grid_index(times, tau)
        for k, row in enumerate(rows):
            spread(k, row)
            row *= psi0
            spread(k + 2, row)
        del rows, row, phase
        live = end < m
        if not live.any():
            break
        if not live.all():  # live samples move to the front of the batch's own arrays
            k, end = np.count_nonzero(live), end[live]
            for v in (x, tau, psi0) if z is None else (x, tau, psi0, z):
                v[:k] = v[live]
            x, tau, psi0, z = x[:k], tau[:k], psi0[:k], None if z is None else z[:k]
        if z is not None:
            susp.skew.fiber_map(x, z, out=z)
        x[:] = susp.base_map.evaluate_many(x)
        r = roof_many(x)
        a = np.asarray(_eval_obs(phi, x, np.zeros(len(x)), z), dtype=float)
        start = end
    else:
        raise CrossingBudgetExceeded("lap count exceeded the roof lower-bound budget")
    ca, sa, pca, psa = np.cumsum(diff[:, :m], axis=1)
    c, s = np.cos(omega * times), np.sin(omega * times)
    return (c * pca + s * psa) / n, (c * ca + s * sa) / n


def _grid_index(times, t):
    """For each t the first j with times[j] >= t, or len(times): ceil((t - t_0) / step),
    corrected by comparisons until t_{j-1} < t <= t_j (once, on a uniform grid)."""
    m = len(times)
    j = np.subtract(t, times[0])
    j *= (m - 1) / (times[-1] - times[0]) if m > 1 else 1.0
    j = np.clip(np.ceil(j, out=j), 0, m, out=j).astype(np.intp)
    padded = np.concatenate(([-np.inf], times, [np.inf]))
    while (high := padded[j] >= t).any() | (low := padded[j + 1] < t).any():
        j -= high
        j += low
    return j


def _check_declaration(phi: Callable, omega: float, a, x, u, z) -> None:
    """Raise ValueError unless phi(x, u, z) = a cos(omega u) on the sample, a = phi(x, 0, z)."""
    worst = float(np.max(np.abs(_eval_obs(phi, x, u, z) - a * np.cos(omega * u)), initial=0.0))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(a), initial=0.0)))
    if not worst <= tol:
        name = getattr(phi, "__name__", repr(phi))
        raise ValueError(
            f"observable {name} declares omega={omega!r}, but differs from "
            f"phi(x, 0, z) cos(omega u) by {worst:.3g} (tol {tol:.3g})"
        )


# the batch function of the `correlation` call that forked this worker process
_forked_batch = None


def _adopt_batch(run_batch: Callable) -> None:
    global _forked_batch
    _forked_batch = run_batch


def _run_forked_batch(b: int):
    return _forked_batch(b)


def _map_batches(run_batch: Callable, n_batches: int, workers: int) -> list:
    """[run_batch(b) for b in range(n_batches)], spread over `workers` processes.

    run_batch reaches the children through the pool initializer, which fork
    hands over without pickling, so only batch indices and results cross
    the pipes.  A child that dies raises BrokenProcessPool instead of
    leaving the call waiting.
    """
    own = range(0, n_batches, workers)
    if workers == 1:
        return [run_batch(b) for b in own]
    # imported here: one-worker runs, and every run's set-up, skip the import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    theirs = [b for b in range(n_batches) if b % workers]
    with ProcessPoolExecutor(
        workers - 1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_batch,
        initargs=(run_batch,),
    ) as pool:
        pending = [pool.submit(_run_forked_batch, b) for b in theirs]
        try:
            mine = [run_batch(b) for b in own]
            forked = [f.result() for f in pending]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    results = [None] * n_batches
    results[::workers] = mine
    for b, res in zip(theirs, forked):
        results[b] = res
    return results


def default_observables(susp: SuspensionSemiflow) -> list[tuple[str, Callable, Callable]]:
    """Named observable pairs used by the correlation experiments.

    The leading pair mixes the flow height with the base coordinate; skew
    bases add two fiber-dependent pairs.  Each observable declares its
    height frequency ``omega`` (2 pi / rbar for the two that carry
    cos(2 pi u / rbar), 0 for fiber_last, which does not read u), so
    `correlation` reads it only where a sample crosses the roof.
    """
    rbar = susp.mean_roof
    omega = 2.0 * np.pi / rbar

    def height_mix(x, u, z=None):
        # cos(2 pi u / rbar) * (1 + x), the same operations on one buffer
        out = np.multiply(2.0 * np.pi, u, out=np.empty(np.shape(u)))
        np.divide(out, rbar, out=out)
        np.cos(out, out=out)
        np.multiply(out, 1.0 + x, out=out)
        return out

    height_mix.omega = omega
    pairs = [("height_mix", height_mix, height_mix)]
    if susp.skew is not None:

        def fiber_first(x, u, z):
            return z[..., 0] * np.cos(2.0 * np.pi * u / rbar)

        def fiber_last(x, u, z):
            return (1.0 + z[..., -1]) * (x - 0.5)

        fiber_first.omega = omega
        fiber_last.omega = 0.0
        pairs += [("fiber_first", fiber_first, fiber_first), ("fiber_last", fiber_last, fiber_last)]
    return pairs


# ---------------------------------------------------------------------------
# decay-rate fit

@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of |rho(t)| over the window above the noise floor."""

    decay_rate: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]
    verdict: str
    slope_stderr: float
    noise_floor: float
    points_used: int

    def summary(self) -> str:
        names = ("gamma", "gamma_stderr", "C", "r2", "window_lo", "window_hi", "noise_floor")
        values = (self.decay_rate, self.slope_stderr, self.prefactor, self.r_squared, *self.window,
                  self.noise_floor)
        lines = [f"{k}={v!r}" for k, v in zip(names, values)]
        return "\n".join(lines + [f"points_used={self.points_used}", f"verdict={self.verdict}"]) + "\n"


def fit_rate(series: CorrelationSeries) -> DecayFit:
    """Fit log |rho| = log C - gamma t on points above the noise floor.

    The floor is NOISE_FLOOR_MULT times the largest standard error; fewer
    than eight points above it raises WindowTooShort.  The verdict is
    NoDecay whenever the 95 percent slope interval reaches zero, and
    ExponentialDecay otherwise.
    """
    vals = np.asarray(series.values, dtype=float)
    errs = np.asarray(series.std_errors, dtype=float)
    times = np.asarray(series.times, dtype=float)
    floor = NOISE_FLOOR_MULT * float(errs.max(initial=0.0))
    idx = np.nonzero(np.abs(vals) > floor)[0]
    if len(idx) < 8:
        raise WindowTooShort(
            f"{len(idx)} points above noise floor {floor:.3g}, need at least 8"
        )
    t = times[idx]
    y = np.log(np.abs(vals[idx]))

    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * tbar)
    resid = y - (intercept + slope * t)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    dof = len(idx) - 2
    slope_se = math.sqrt(ss_res / dof / sxx) if dof > 0 else math.inf

    no_decay = slope >= 0.0 or abs(slope) <= 1.96 * slope_se
    verdict = "NoDecay" if no_decay else "ExponentialDecay"
    window = (float(t[0]), float(t[-1]))
    return DecayFit(-slope, math.exp(intercept), r2, window, verdict, slope_se, floor, len(idx))


# ---------------------------------------------------------------------------
# temporal distance

@dataclass(frozen=True)
class TemporalDistance:
    """Truncated two-sided roof-difference sum along the branch-0 past."""

    value: float
    truncation_bound: float
    depth: int


def temporal_distance(susp: SuspensionSemiflow, x, y, depth: int) -> TemporalDistance:
    """Temporal-distance functional of two base points to the given depth.

    Both points are pulled back `depth` times along inverse branch 0, the
    shared past coding, and the roof differences are accumulated:

        sum_{k=1}^{depth} [ r(H_k y) - r(H_k x) ] = B(y) - B(x),

    with H_k the k-step pull and B(p) = sum_{k=1}^{depth} r(H_k p) one
    point's backward roof sum along the chain.  The regrouping is exact
    in Fraction arithmetic; on the float path (an inexact roof or a float
    point) the difference of the two sums may round differently in its
    last bits from the sum of differences.  B is memoised on the
    suspension under the key (exact, point, depth), so an n x n grid pulls
    back n points; the memo lives and dies with the suspension, and a
    float point never reads an exact entry.

    Forward-orbit terms cancel exactly because the bracket point shares
    the future coding whose roof values it is compared against, so only
    the backward sums carry content.  The functional vanishes identically
    when the roof is constant on partition cells.  A pull that branch 0
    cannot take (from a cell outside its image, as three_branch's cell 0)
    raises BracketUndefined, x's chain first, and stores nothing.  The
    truncation bound uses the roof branch constant and the expansion bound.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    bm = susp.base_map
    exact = susp.roof.exact and isinstance(x, Rational) and isinstance(y, Rational)
    px = Fraction(x) if exact else float(x)
    py = Fraction(y) if exact else float(y)
    bx = _backward_sum(susp, exact, px, depth)
    total = _backward_sum(susp, exact, py, depth) - bx

    # |r(H_k y) - r(H_k x)| <= K lam^(k-1) |y - x| with lam the inverse-branch
    # contraction bound, so the dropped tail is K |y-x| lam^depth / (1 - lam)
    lam = float(bm.expansion_bound)
    bound = (
        float(susp.roof.branch_lipschitz) * abs(float(y) - float(x)) * lam**depth / (1.0 - lam)
    )
    return TemporalDistance(total if exact else float(total), bound, depth)


def _tdist_grid(susp: SuspensionSemiflow, points: Sequence, depth: int):
    """Largest |temporal distance| over the points x points grid, and its CSV.

    The CSV has one row per (x, y), x outermost, with the value and its
    truncation bound.
    """
    worst = Fraction(0)
    rows = ["x,y,value,truncation_bound"]
    for x in points:
        for y in points:
            td = temporal_distance(susp, x, y, depth=depth)
            worst = max(worst, abs(td.value))
            rows.append(
                f"{float(x):.17g},{float(y):.17g},{float(td.value):.17g},{float(td.truncation_bound):.17g}"
            )
    return worst, "\n".join(rows) + "\n"


def _backward_sum(susp: SuspensionSemiflow, exact: bool, p, depth: int):
    """B(p) = sum of r(H_k p) over `depth` branch-0 pulls, memoised on the suspension."""
    key = (exact, p, depth)
    hit = susp._backward_sums.get(key)
    if hit is not None:
        return hit
    bm = susp.base_map
    value = susp.roof.value
    pull = bm.branches[0].inverse
    total = Fraction(0) if exact else 0.0
    for _ in range(depth):
        try:
            cell = bm.cell_index(p)
        except BoundaryPoint as exc:
            raise BracketUndefined(f"pullback hit a partition boundary at {float(p)!r}") from exc
        if not bm.admissible(0, cell):
            raise BracketUndefined(
                f"past symbol 0 cannot precede cell {cell}; no inverse branch applies"
            )
        p = pull(p)
        total += value(p)
    susp._backward_sums[key] = total
    return total


# ---------------------------------------------------------------------------
# plotting

def svg_log_plot(series: CorrelationSeries, fit: DecayFit | None = None) -> str:
    """Hand-rolled SVG of log10 |rho(t)| with the fitted decay line."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    vals = np.asarray(series.values, dtype=float)
    times = np.asarray(series.times, dtype=float)
    mask = np.abs(vals) > 0
    if not mask.any():
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            '<text x="20" y="30">empty series</text></svg>'
        )
    t = times[mask]
    logv = np.log10(np.abs(vals[mask]))
    pad = 48
    t0, t1 = float(times[0]), float(times[-1])
    y0, y1 = float(logv.min()), float(logv.max())
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0

    def sx(tv):
        return pad + (tv - t0) / (t1 - t0) * (width - 2 * pad)

    def sy(yv):
        return height - pad - (yv - y0) / (y1 - y0) * (height - 2 * pad)

    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(t, logv))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle">t</text>',
        f'<text x="14" y="{height // 2}" transform="rotate(-90 14 {height // 2})" '
        'text-anchor="middle">log10 |rho|</text>',
    ]
    if fit is not None and fit.noise_floor > 0:
        fy = sy(math.log10(fit.noise_floor))
        if pad <= fy <= height - pad:
            parts.append(
                f'<line x1="{pad}" y1="{fy:.2f}" x2="{width - pad}" y2="{fy:.2f}" '
                'stroke="gray" stroke-dasharray="4 3"/>'
            )
    if fit is not None and fit.verdict == "ExponentialDecay":
        a, b = fit.window
        ya = math.log10(fit.prefactor) - fit.decay_rate * a / math.log(10.0)
        yb = math.log10(fit.prefactor) - fit.decay_rate * b / math.log(10.0)
        parts.append(
            f'<line x1="{sx(a):.2f}" y1="{sy(ya):.2f}" x2="{sx(b):.2f}" y2="{sy(yb):.2f}" '
            'stroke="crimson" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
