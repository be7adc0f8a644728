"""The benchmark's three workloads, driven through mixlab's public functions.

Construction is the set-up every CLI call pays (models, roofs, ``suspend``).
``run_pass`` is one timed pass over the seeded inputs and returns the raw
outputs; ``check`` compares them with known answers outside the timed region
and digests them, so equal digests mean identical results.

Why these three: ``mixing`` is the float Monte Carlo path the lab exists for;
``attractor`` is the skew-product tree and the same suspension layer run over
a skew base on a thread pool; ``certify`` is exact ``Fraction`` arithmetic
with no Monte Carlo, the bypass workload for every float-path change.  Sizes
are the acceptance criteria's shapes scaled down so that a pass takes a few
seconds; README.md lists which criterion each one scales.

Monte Carlo tolerances come from the sample count and a variance known in
closed form or by quadrature, never from the estimator's own batch-means
standard error (with a handful of batches that has a handful of degrees of
freedom and puts honest points many sigma off).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from mixlab import (
    Disintegration,
    attractor_sample,
    build_ulam,
    check_domination,
    constant_roof,
    correlation,
    default_observables,
    doubling_map,
    duality_check,
    fit_rate,
    invariant_density,
    per_branch_polynomial_roof,
    polynomial_roof,
    sandwich_estimate,
    spectral_gap,
    suspend,
    tail_statistics,
    temporal_distance,
    three_branch_map,
    validate_contraction,
    witness_search,
)
from mixlab.solenoid import build as build_solenoid

# Monte Carlo checks allow this many standard deviations; with a few hundred
# compared points the chance of a false failure stays below 1e-6.
SIGMAS = 6.0
# fiber steps correlation's invariant sampler takes from the centre of the disk
SAMPLER_FIBER_DEPTH = 30
# temporal distance is taken on the TDIST_GRID x TDIST_GRID grid of cell midpoints
TDIST_GRID = 16


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PassOutput:
    outputs: dict
    facts: dict  # counts and stage timings read by the metrics, not checked


def traced_roof(tracer, roof):
    """The roof with its scalar and array evaluators recorded by the tracer."""
    if not tracer.active:
        return roof
    return replace(
        roof,
        value=tracer.wrap("roof.value", roof.value),
        value_many=tracer.wrap("roof.value_many", roof.value_many, points_arg=0),
    )


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _gauss01(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


# ---------------------------------------------------------------------------
# mixing: criterion 5 (and 4) at a reduced sample count


def height_mix_moments(mean_roof: float) -> tuple[float, float]:
    """rho(0) of height_mix under the length-biased measure of r = 1+x^2, and
    the asymptotic variance of its plug-in estimator, by product quadrature.

    The measure has density 1/int(r) on {0 <= u < r(x)}; with u = s r(x) both
    integrands are smooth on the unit square.
    """
    x, wx = _gauss01(64)
    s, ws = _gauss01(64)
    X, S = np.meshgrid(x, s, indexing="ij")
    r = 1.0 + X * X
    weight = np.outer(wx, ws) * r / (4.0 / 3.0)
    phi = np.cos(2.0 * np.pi * S * r / mean_roof) * (1.0 + X)
    mu = float(np.sum(weight * phi))
    centred_sq = (phi - mu) ** 2
    rho0 = float(np.sum(weight * centred_sq))
    var = float(np.sum(weight * centred_sq**2)) - rho0**2
    return rho0, var


def _phase_wave(x, u):
    return np.cos(2.0 * np.pi * u)


class Mixing:
    """suspend(doubling, 1+x^2): height_mix correlation at 1 and nproc threads,
    a constant-roof correlation as in criterion 4, and both decay fits."""

    def __init__(
        self, seed: int, tracer, threads: int, samples: int = 100_000, batch_size: int = 25_000
    ):
        self.seed, self.tr, self.threads = seed, tracer, threads
        self.samples, self.batch_size = samples, batch_size
        base = doubling_map()
        with tracer.span("suspension.suspend"):
            self.susp = suspend(base, traced_roof(tracer, polynomial_roof(base, (1, 0, 1))))
        with tracer.span("suspension.suspend"):
            self.susp_const = suspend(base, traced_roof(tracer, constant_roof(base, 1)))
        _name, phi, _psi = default_observables(self.susp)[0]
        self.phi = tracer.wrap("suspension.observable", phi, points_arg=0)
        self.phase = tracer.wrap("suspension.observable", _phase_wave, points_arg=0)
        self.times = self.susp.default_times()
        self.times_const = np.round(np.arange(0.0, 30.0 + 1e-9, 0.1), 10)

    def _correlate(self, susp, phi, times, threads):
        with self.tr.span("suspension.correlation"):
            return correlation(
                susp, phi, phi, times=times, samples=self.samples, seed=self.seed,
                threads=threads, batch_size=self.batch_size,
            )

    def run_pass(self) -> PassOutput:
        t0 = time.perf_counter()
        series = self._correlate(self.susp, self.phi, self.times, 1)
        t1 = time.perf_counter()
        series_mt = self._correlate(self.susp, self.phi, self.times, self.threads)
        t2 = time.perf_counter()
        series_const = self._correlate(self.susp_const, self.phase, self.times_const, 1)
        with self.tr.span("suspension.fit_rate"):
            fit = fit_rate(series)
        with self.tr.span("suspension.fit_rate"):
            fit_const = fit_rate(series_const)
        steps = series.sample_count * len(series.times)
        sample_steps = sum(
            s.sample_count * (len(s.times) - 1) for s in (series, series_mt, series_const)
        )
        return PassOutput(
            outputs=dict(
                series=series, series_mt=series_mt, series_const=series_const,
                fit=fit, fit_const=fit_const,
            ),
            facts={
                "mc_steps_per_s": steps / (t1 - t0),
                "mc_steps_per_s_mt": steps / (t2 - t1),
                "sample_steps": sample_steps,
                "suspension.fit_rate.points_used": fit.points_used,
                "suspension.sampler_acceptance": self.susp.mean_roof / self.susp.roof_sup,
            },
        )

    def check(self, out: dict) -> tuple[list[Check], str]:
        series, const = out["series"], out["series_const"]
        n = series.sample_count
        rho0, var = height_mix_moments(self.susp.mean_roof)
        dev0 = abs(float(series.values[0]) - rho0)
        tol0 = SIGMAS * math.sqrt(var / n)

        nc = const.sample_count
        # (phi_t psi_0) = cos(2 pi t)/2 + cos(2 pi (2u+t))/2 has variance 1/8; the
        # product of the two sample means adds at most SIGMAS^2 / (2 n)
        tol_c = SIGMAS * math.sqrt(1.0 / (8.0 * nc)) + SIGMAS**2 / (2.0 * nc)
        dev_c = float(np.max(np.abs(const.values - 0.5 * np.cos(2.0 * np.pi * const.times))))

        csv, csv_mt = series.to_csv(), out["series_mt"].to_csv()
        checks = [
            Check(
                "rho0_height_mix_quadrature", dev0 <= tol0,
                f"|rho(0) - {rho0:.6f}| = {dev0:.2e} <= {tol0:.2e}",
            ),
            Check(
                "const_roof_cos_wave", dev_c <= tol_c,
                f"max |rho(t) - cos(2 pi t)/2| = {dev_c:.2e} <= {tol_c:.2e}",
            ),
            Check("threads_byte_identical", csv == csv_mt, f"1 vs {self.threads} threads"),
            Check("fit_xsq_decays", out["fit"].verdict == "ExponentialDecay", out["fit"].verdict),
            Check(
                "fit_const_no_decay", out["fit_const"].verdict == "NoDecay", out["fit_const"].verdict
            ),
        ]
        digest = _digest(
            [csv, const.to_csv(), out["fit"].summary(), out["fit_const"].summary()]
        )
        return checks, digest


# ---------------------------------------------------------------------------
# attractor: criteria 7-9 and `mixlab correlate` on configs/solenoid.cfg


def solenoid_rho0(offset: float, kappa: float) -> dict[str, float]:
    """rho(0) of the three default observables on the constant-roof solenoid.

    The sampler pushes z from the centre SAMPLER_FIBER_DEPTH steps along
    x_j = 2^j x0, so z = sum_j kappa^(depth-1-j) offset (cos, sin)(2 pi x_j) with
    x0 uniform,
    and the height u is uniform and independent.  Distinct dyadic frequencies
    are orthogonal, which leaves one geometric sum per observable; fiber_last
    keeps one cross term between the last step and x = x_depth.
    """
    geo = (1.0 - kappa ** (2 * SAMPLER_FIBER_DEPTH)) / (1.0 - kappa**2)
    return {
        "height_mix": 7.0 / 6.0,  # E[cos^2] E[(1+x)^2] = (1/2)(7/3)
        "fiber_first": offset**2 * geo / 4.0,
        "fiber_last": 1.0 / 12.0 + offset**2 * (geo / 24.0 - 1.0 / (4.0 * math.pi**2)),
    }


def _re_z_plain(xs, zs):
    return zs[..., 0]


class Attractor:
    """Solenoid (2, 20, 1/4, radius 1/3): disintegration trees, sandwich,
    contraction, attractor cloud, domination, and the threaded correlation of
    all three default observables on the constant-roof suspension."""

    def __init__(
        self, seed: int, tracer, threads: int, grid_points: int = 4, depth: int = 20,
        samples: int = 20_000, sandwich_samples: int = 200_000,
    ):
        self.seed, self.tr, self.threads = seed, tracer, threads
        self.depth, self.samples, self.sandwich_samples = depth, samples, sandwich_samples
        self.model = build_solenoid(2, 20, Fraction(1, 4), fiber_radius=Fraction(1, 3))
        # each access to .skew builds a new base map, and suspend requires the
        # roof's base to be the skew's own, so read it once
        self.skew = self.model.skew
        self.dis = Disintegration(self.skew, depth=depth)
        with tracer.span("suspension.suspend"):
            self.susp = suspend(self.skew, traced_roof(tracer, constant_roof(self.skew.base, 1)))
        self.observables = [
            (name, tracer.wrap("suspension.observable", phi, points_arg=0))
            for name, phi, _psi in default_observables(self.susp)
        ]
        rng = np.random.default_rng([seed, 9])
        picks = rng.choice(16, size=grid_points, replace=False)
        self.thetas = sorted((int(i) + 0.5) / 16 for i in picks)

    def run_pass(self) -> PassOutput:
        tr = self.tr
        leaves = []

        def re_z(xs, zs):
            leaves.append(len(xs))
            return zs[..., 0]

        def one(xs, zs):
            leaves.append(len(xs))
            return np.ones(np.shape(xs))

        t0 = time.perf_counter()
        eta_re, eta_one = [], []
        for theta in self.thetas:
            with tr.span("skew_product.disintegration"):
                eta_re.append(self.dis.evaluate(theta, re_z))
            with tr.span("skew_product.disintegration"):
                eta_one.append(self.dis.evaluate(theta, one))
        tree_wall = time.perf_counter() - t0
        with tr.span("skew_product.sandwich_estimate"):
            sandwich = sandwich_estimate(
                self.skew, _re_z_plain, depth=self.depth, fiber_lipschitz=1.0,
                samples=self.sandwich_samples, seed=self.seed,
            )
        with tr.span("skew_product.validate_contraction"):
            ratio = validate_contraction(self.skew, pairs=100_000)
        with tr.span("solenoid.attractor_sample"):
            cloud = attractor_sample(self.model, n=5_000, burn_in=30, seed=self.seed)
        with tr.span("solenoid.check_domination"):
            domination = check_domination(self.model)
        t1 = time.perf_counter()
        series = {}
        for name, phi in self.observables:
            with tr.span("suspension.correlation"):
                series[name] = correlation(
                    self.susp, phi, phi, samples=self.samples, seed=self.seed, threads=self.threads
                )
        mc_wall = time.perf_counter() - t1
        mc_steps = sum(s.sample_count * len(s.times) for s in series.values())
        return PassOutput(
            outputs=dict(
                eta_re=eta_re, eta_one=eta_one, sandwich=sandwich, ratio=ratio, cloud=cloud,
                domination=domination, series=series,
            ),
            facts={
                "tree_leaves_per_s": sum(leaves) / tree_wall,
                "mc_steps_per_s_mt": mc_steps / mc_wall,
                "skew_product.tree_leaves": sum(leaves),
            },
        )

    def check(self, out: dict) -> tuple[list[Check], str]:
        kappa = float(self.model.kappa)
        offset = float(self.model.offset)
        z_sup = offset / (1.0 - kappa)  # |z| bound on every pushed fiber point
        sw = out["sandwich"]
        mean_tol = SIGMAS * z_sup / math.sqrt(sw.samples)
        theta, z = out["cloud"]
        cloud_r = float(np.max(np.linalg.norm(z, axis=1)))
        mass_dev = max(abs(v - 1.0) for v in out["eta_one"])
        re_max = max(abs(v) for v in out["eta_re"])
        dom = out["domination"]
        checks = [
            Check("eta_mass_one", mass_dev <= 1e-9, f"max |eta(1) - 1| = {mass_dev:.2e}"),
            Check("eta_re_z_zero", re_max <= 1e-3, f"max |eta(Re z)| = {re_max:.2e}"),
            Check(
                "sandwich_gap", sw.gap <= kappa**self.depth,
                f"gap {sw.gap:.2e} <= kappa^{self.depth}",
            ),
            Check(
                "sandwich_mean_zero", abs(sw.midpoint) <= mean_tol,
                f"|mid| {abs(sw.midpoint):.2e} <= {mean_tol:.2e}",
            ),
            Check(
                "contraction_ratio", abs(out["ratio"] - 0.05) <= 1e-12, f"{out['ratio']!r} vs 1/20"
            ),
            Check(
                "domination", dom.passed and dom.product_bound <= 0.35,
                f"bound {dom.product_bound:.4f}",
            ),
            Check(
                "cloud_invariant",
                cloud_r <= float(self.model.image_radius_bound) + 1e-12
                and bool(np.all((theta >= 0) & (theta < 1))),
                f"max |z| {cloud_r:.6f}",
            ),
        ]
        # |phi| <= b for each observable bounds the variance of phi^2 by b^4 / 4;
        # the squared sample mean adds at most SIGMAS^2 b^2 / n
        bounds = {"height_mix": 2.0, "fiber_first": z_sup, "fiber_last": 0.5 * (1.0 + z_sup)}
        exact = solenoid_rho0(offset, kappa)
        for name, s in out["series"].items():
            b, n = bounds[name], s.sample_count
            tol = SIGMAS * b * b / (2.0 * math.sqrt(n)) + SIGMAS**2 * b * b / n
            dev = abs(float(s.values[0]) - exact[name])
            checks.append(Check(
                f"rho0_{name}_closed_form", dev <= tol,
                f"|rho(0) - {exact[name]:.6f}| = {dev:.2e} <= {tol:.2e}",
            ))
        digest = _digest(
            [
                repr(out["eta_re"]), repr(out["eta_one"]),
                repr((sw.lower, sw.upper, sw.stat_error)), repr(out["ratio"]),
                theta.tobytes(), z.tobytes(), dom.to_csv(),
            ]
            + [s.to_csv() for s in out["series"].values()]
        )
        return checks, digest


# ---------------------------------------------------------------------------
# certify: criteria 1, 2, 3, 6 and 10 in exact arithmetic


def _cubic(coeffs):
    return lambda x: float(np.polynomial.polynomial.polyval(float(x), coeffs))


class Certify:
    """Ulam densities and gap, duality sweep, witness search, first-return
    tails and temporal distance; no Monte Carlo."""

    def __init__(
        self, seed: int, tracer, threads: int, duality_pairs: int = 6, depth_cap: int = 12
    ):
        self.tr, self.depth_cap = tracer, depth_cap
        self.doubling = doubling_map()
        self.three = three_branch_map()
        d = self.doubling
        self.roof_sq = traced_roof(tracer, polynomial_roof(d, (1, 0, 1)))
        self.roof_lin = traced_roof(tracer, polynomial_roof(d, (1, 1)))
        roof_lc = traced_roof(tracer, per_branch_polynomial_roof(d, [(1,), (Fraction(3, 2),)]))
        with tracer.span("suspension.suspend"):
            self.susp_lc = suspend(d, roof_lc)
        with tracer.span("suspension.suspend"):
            self.susp_sq = suspend(d, self.roof_sq)
        rng = np.random.default_rng([seed, 3])
        self.duality_pairs = [
            (rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, 4)) for _ in range(duality_pairs)
        ]
        self.grid = [Fraction(2 * i + 1, 2 * TDIST_GRID) for i in range(TDIST_GRID)]

    def _tdist(self, susp):
        values = []
        for x in self.grid:
            for y in self.grid:
                with self.tr.span("suspension.temporal_distance"):
                    values.append(temporal_distance(susp, x, y, depth=30).value)
        return values

    def run_pass(self) -> PassOutput:
        tr = self.tr
        with tr.span("transfer_operator.build_ulam"):
            op_d = build_ulam(self.doubling, 1024)
        with tr.span("transfer_operator.build_ulam"):
            op_t = build_ulam(self.three, 1023)
        with tr.span("transfer_operator.invariant_density"):
            dens_d = invariant_density(op_d)
        with tr.span("transfer_operator.invariant_density"):
            dens_t = invariant_density(op_t)
        with tr.span("transfer_operator.spectral_gap"):
            lam2 = spectral_gap(op_d)
        duality = []
        for gc, vc in self.duality_pairs:
            with tr.span("transfer_operator.duality_check"):
                duality.append(
                    duality_check(self.doubling, _cubic(gc), _cubic(vc), samples=2_000)
                )
        with tr.span("roof.witness_search"):
            witness_sq = witness_search(self.roof_sq, max_period=4)
        with tr.span("roof.witness_search"):
            witness_lin = witness_search(self.roof_lin, max_period=12)
        with tr.span("markov_maps.induce_first_return"):
            induced = self.three.induce_first_return(0, self.depth_cap)
        with tr.span("markov_maps.tail_statistics"):
            tails = tail_statistics(induced)
        td_lc = self._tdist(self.susp_lc)
        td_sq = self._tdist(self.susp_sq)
        return PassOutput(
            outputs=dict(
                dens_d=dens_d, dens_t=dens_t, lam2=lam2, duality=duality, witness_sq=witness_sq,
                witness_lin=witness_lin, tails=tails, td_lc=td_lc, td_sq=td_sq,
            ),
            facts={
                "markov_maps.return_branches": len(induced.branches),
                "transfer_operator.power_iterations": dens_d.iterations + dens_t.iterations,
            },
        )

    def check(self, out: dict) -> tuple[list[Check], str]:
        dens_d, dens_t = out["dens_d"], out["dens_t"]
        uniform_dev = float(np.max(np.abs(dens_d.values - 1.0)))
        # three_branch: L maps cell-constant densities to cell-constant ones, and
        # the fixed point is 3/4 on [0, 1/3) and 9/8 on [1/3, 1)
        mids = 0.5 * (dens_t.bin_edges[:-1] + dens_t.bin_edges[1:])
        expected = np.where(mids < 1.0 / 3.0, 0.75, 1.125)
        three_dev = float(np.max(np.abs(dens_t.values - expected)))
        worst_duality = max(out["duality"])
        w_sq, w_lin = out["witness_sq"], out["witness_lin"]
        tail = out["tails"].tail
        tails_exact = tail[0] == 1 and all(
            tail[n - 1] == Fraction(2, 3) ** (n - 2) for n in range(2, self.depth_cap + 1)
        )
        alpha = out["tails"].alpha
        td_sq_max = max(abs(v) for v in out["td_sq"])
        checks = [
            Check(
                "doubling_density_uniform", uniform_dev <= 1e-8,
                f"sup |rho - 1| = {uniform_dev:.2e}",
            ),
            Check(
                "three_branch_density", three_dev <= 1e-8,
                f"sup |rho - (3/4 | 9/8)| = {three_dev:.2e}",
            ),
            Check("duality", worst_duality <= 1e-6, f"worst {worst_duality:.2e}"),
            Check(
                "witness_gap_4_45", w_sq.found and w_sq.witness.gap == Fraction(4, 45),
                str(w_sq.witness and w_sq.witness.gap),
            ),
            Check(
                "no_witness_1_plus_x",
                w_lin.verdict == "NoWitnessUpToPeriod" and w_lin.searched_periods == 12,
                w_lin.verdict,
            ),
            Check(
                "tail_masses_exact", tails_exact, f"m(R>=n) = (2/3)^(n-2), n <= {self.depth_cap}"
            ),
            Check(
                "tail_rate", abs(alpha - math.log(1.5)) <= 0.1 * math.log(1.5), f"alpha {alpha:.4f}"
            ),
            Check("tdist_locally_constant_zero", all(v == 0 for v in out["td_lc"]), "exact zeros"),
            Check("tdist_xsq_positive", td_sq_max > 0, f"max {float(td_sq_max):.6f}"),
        ]
        digest = _digest([
            dens_d.to_csv(), dens_t.to_csv(), repr(out["lam2"]), repr(out["duality"]),
            w_sq.to_csv(), w_lin.to_csv(), repr(tail), repr(alpha),
            repr(out["td_lc"]), repr(out["td_sq"]),
        ])
        return checks, digest


WORKLOADS = {"mixing": Mixing, "attractor": Attractor, "certify": Certify}
