"""End-to-end checks with pinned tolerances, shared by the test suite
and the `mixlab repro` subcommand.

Each check builds its own models, runs the relevant pipelines, and
returns its clauses' verdict, a detail string that holds only values
that are deterministic for a given seed, and its artifacts.  The
`_criterion` decorator does the rest for every check: it times the
body, fails a check that overruns its wall-clock budget, wraps the
result in a CheckResult, and registers the check in `CHECKS` in
definition order.  Wall-clock timings live in a separate field, so
emitted artifacts stay byte-identical across runs and thread counts.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .markov_maps import doubling_map, tail_statistics, three_branch_map
from .roof import (
    certify_coboundary,
    constant_roof,
    per_branch_polynomial_roof,
    polynomial_roof,
    witness_search,
)
from .skew_product import (
    Disintegration,
    eta_integral,
    sandwich_estimate,
    validate_contraction,
    validate_invariance,
)
from .solenoid import build as build_solenoid
from .solenoid import check_domination
from .suspension import DEFAULT_BATCH, correlation, default_observables, fit_rate, suspend
from .suspension import _tdist_grid
from .transfer_operator import (
    cell_density,
    duality_check,
    polynomial_operator,
    resonance,
    resonances,
    spectral_gap,
)


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str  # deterministic for a fixed seed; safe to write to disk
    elapsed: float  # wall seconds; never written into artifacts
    artifacts: tuple[tuple[str, str], ...] = ()

    @property
    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} criterion {self.criterion:2d} [{self.name}] {self.detail}"


CHECKS = []  # every check, in criterion order, as `_criterion` registers it


def _criterion(number: int, name: str, budget_s: float | None = None):
    """Register a check body as criterion `number`.

    The body takes (seed, threads) and returns (passed, detail,
    artifacts).  The registered check times it, ANDs in elapsed <
    budget_s when a budget is given, and returns the CheckResult.
    """

    def register(body):
        @functools.wraps(body)
        def check(seed: int = 42, threads: int = 1) -> CheckResult:
            t0 = time.perf_counter()
            passed, detail, artifacts = body(seed, threads)
            elapsed = time.perf_counter() - t0
            if budget_s is not None:
                passed = passed and elapsed < budget_s
            return CheckResult(number, name, passed, detail, elapsed, tuple(artifacts))

        CHECKS.append(check)
        return check

    return register


def _grid16():
    return [Fraction(2 * i + 1, 32) for i in range(16)]


@_criterion(1, "witness_gap", budget_s=1.0)
def check_witness_gap(seed, threads):
    """Exact periodic-orbit witness for the 1+x^2 roof over doubling."""
    base = doubling_map()
    roof = polynomial_roof(base, (1, 0, 1))
    report = witness_search(roof, max_period=4)
    want = Fraction(26, 5) - Fraction(46, 9)
    exact_ok = report.found and report.witness.gap == want

    roof_f = polynomial_roof(base, (1.0, 0.0, 1.0))
    report_f = witness_search(roof_f, max_period=4)
    float_ok = report_f.found and abs(float(report_f.witness.gap) - float(want)) <= 1e-12

    gap = report.witness.gap if report.found else None
    fgap = float(report_f.witness.gap) if report_f.found else math.nan
    return (
        exact_ok and float_ok,
        f"exact gap {gap} (want 4/45), float gap {fgap!r}, budget 1s",
        [("witness.csv", report.to_csv())],
    )


@_criterion(2, "coboundary_soundness")
def check_coboundary(seed, threads):
    """r = 1+x is a coboundary off the locally constant part; no witness."""
    base = doubling_map()
    roof = polynomial_roof(base, (1, 1))
    residual = certify_coboundary(roof, lambda x: x)
    report = witness_search(roof, max_period=8)
    no_witness = report.verdict == "NoWitnessUpToPeriod"
    text = (
        "quantity,value,tolerance\n"
        f"coboundary_residual,{residual:.17g},1e-12\n"
        f"witness_periods_searched,{report.searched_periods},0\n"
    )
    return (
        residual <= 1e-12 and no_witness,
        f"residual {residual:.3e} (tol 1e-12), verdict {report.verdict} at period 8",
        [("coboundary.csv", text)],
    )


@_criterion(3, "transfer_operator", budget_s=30.0)
def check_transfer_operator(seed, threads):
    """Doubling: spectrum, uniform density, operator duality.

    The leading-eigenvalue and density clauses read the exact invariant
    density `cell_density` and the cell matrix M[j][k] = T[k][j]/|slope_k|
    it solves h = M h on, for L keeps functions constant on the cells of
    an affine Markov map.  The cell lengths are a positive left fixed
    vector of M for every such map, so its leading eigenvalue is 1 on any
    of them.  The subleading-eigenvalue clause targets 0.5, the decay
    rate of L on smooth observables, and reads it from the
    piecewise-polynomial operator: deflated power iteration at degree 16
    and a dense eigensolve at degree 8.  That space is invariant under L
    too, so both read 1/2 up to roundoff at any degree.
    """
    base = doubling_map()
    density, edges = cell_density(base), base.edges
    slopes = np.array([abs(float(b.slope)) for b in base.branches])
    cells = np.array(base.transition, dtype=float).T / slopes  # M[j][k] = T[k][j] / |slope_k|
    leading = float(np.max(np.abs(np.linalg.eigvals(cells))))
    leading_ok = abs(leading - 1.0) <= 1e-10
    h = np.array(density, dtype=float)
    # L1 defect of h = M h, and the density's distance from uniform
    residual = float(np.abs(cells @ h - h) @ np.diff(np.array(edges, dtype=float)))
    sup_dev = float(np.max(np.abs(h - 1.0)))
    uniform_ok = sup_dev <= 1e-8

    rng = np.random.default_rng([seed, 3])
    worst_duality = 0.0
    for _ in range(20):
        gc = rng.uniform(-1.0, 1.0, size=4)
        vc = rng.uniform(-1.0, 1.0, size=4)
        g = lambda x, c=gc: float(np.polynomial.polynomial.polyval(float(x), c))
        v = lambda x, c=vc: float(np.polynomial.polynomial.polyval(float(x), c))
        worst_duality = max(worst_duality, duality_check(base, g, v, samples=2_000))
    duality_ok = worst_duality <= 1e-6

    lam2 = spectral_gap(polynomial_operator(base, 16))
    lam2_dense = float(np.sort(np.abs(np.linalg.eigvals(polynomial_operator(base, 8).matrix)))[-2])
    lam2_ok = abs(lam2 - 0.5) <= 0.01 and abs(lam2_dense - 0.5) <= 0.01

    summary = (
        "quantity,value,tolerance\n"
        f"leading_eigenvalue,{leading:.17g},1e-10\n"
        f"density_sup_deviation,{sup_dev:.17g},1e-8\n"
        f"worst_duality,{worst_duality:.17g},1e-6\n"
        f"lambda2_power_poly16,{lam2:.17g},0.01\n"
        f"lambda2_dense_poly8,{lam2_dense:.17g},0.01\n"
    )
    density_csv = "bin_left,bin_right,value,residual\n" + "".join(
        f"{lo},{hi},{value},{residual:.17g}\n" for lo, hi, value in zip(edges, edges[1:], density)
    )
    return (
        leading_ok and uniform_ok and duality_ok and lam2_ok,
        f"leading {leading:.12f}, sup|rho-1| {sup_dev:.2e}, duality {worst_duality:.2e}, "
        f"|lam2| {lam2:.4f} vs dense {lam2_dense:.4f} on piecewise polynomials (target 0.5, "
        f"tol 0.01), budget 30s",
        [("srb_summary.csv", summary), ("density.csv", density_csv)],
    )


@_criterion(4, "constant_roof_no_mixing", budget_s=120.0)
def check_constant_roof(seed, threads):
    """Suspension with r = 1 never mixes: rho(t) = cos(2 pi t)/2."""
    base = doubling_map()
    susp = suspend(base, constant_roof(base, 1))

    def phase_wave(x, u):
        return np.cos(2.0 * np.pi * u)

    phase_wave.omega = 2.0 * np.pi
    times = np.round(np.arange(0.0, 30.0 + 1e-9, 0.1), 10)
    series = correlation(
        susp, phase_wave, phase_wave, times=times, samples=1_000_000, seed=seed, threads=threads
    )
    probe_ts = (0.0, 0.5, 1.0, 2.0)
    worst = 0.0
    probe_rows = []
    for t in probe_ts:
        j = int(np.argmin(np.abs(times - t)))
        target = 0.5 * math.cos(2.0 * math.pi * t)
        dev = abs(float(series.values[j]) - target)
        worst = max(worst, dev)
        probe_rows.append(f"{t!r},{float(series.values[j])!r},{target!r},{dev!r}")
    fit = fit_rate(series)

    probes_csv = "t,rho,target,abs_dev\n" + "\n".join(probe_rows) + "\n"
    return (
        worst <= 0.01 and fit.verdict == "NoDecay",
        f"worst |rho - cos(2 pi t)/2| {worst:.4f} (tol 0.01), verdict {fit.verdict}, budget 120s",
        [("correlation_const_roof.csv", series.to_csv()), ("const_roof_probes.csv", probes_csv)],
    )


# Newton starts for the resonance scan: Re s = 0, 0 < Im s <= 40
_RESONANCE_STARTS = tuple(1j * (0.5 * k) for k in range(1, 81))


@_criterion(5, "exponential_mixing", budget_s=600.0)
def check_exponential_mixing(seed, threads):
    """Suspension with r = 1+x^2: fitted decay rate and its stability.

    The clauses: a decaying log-linear fit of |rho| at 1M samples
    (`fit_rate`), R^2 >= 0.9 on that fit, and a fitted rate that moves by
    at most 15% at 2M samples.  The R^2 clause fails, and more samples do
    not mend it: R^2 reads 0.584, 0.623 and 0.628 at 1M, 2M and 4M, while
    the fitted rate drifts down with the lengthening window (0.410, 0.391,
    0.320).  The noise floor is not the cause.

    The cause is the shape of rho itself, read from the noise-free
    Pollicott-Ruelle resonances of the flow, the zeros s of
    det(I - L_s) with L_s v = L(e^{-s r} v).  Newton's method on the
    twisted piecewise-polynomial operator, started along Re s = 0 for
    0 < Im s <= 40, puts the rightmost nontrivial resonance at
    s = -0.1210 + 7.1709i (the same to 1e-10 at degrees 19 and 39), with
    a dense ladder just behind it (-0.154 + 9.75i, -0.162 + 12.68i, ...).
    Over t <= 15 rho is therefore a fast transient followed by beating,
    slowly damped oscillations, which no single exponential fits well.
    The paper bounds |rho(t)| by C e^{-gamma t}; it does not promise that
    shape.  The check keeps the clause as stated, and writes the
    resonances to ``resonances.csv`` as a diagnostic.
    """
    base = doubling_map()
    roof = polynomial_roof(base, (1, 0, 1))
    susp = suspend(base, roof)
    name, phi, psi = default_observables(susp)[0]

    # batch b draws from [seed, b] in either run, so the 1M series is the
    # estimator over the 2M run's first 1M / DEFAULT_BATCH batches
    series2 = correlation(susp, phi, psi, samples=2_000_000, seed=seed, threads=threads)
    series1 = series2.head(1_000_000 // DEFAULT_BATCH)
    fit1 = fit_rate(series1)
    fit2 = fit_rate(series2)

    gamma_ok = fit1.verdict == "ExponentialDecay" and fit1.decay_rate > 0.0
    r2_ok = fit1.r_squared >= 0.9
    drift = abs(fit2.decay_rate - fit1.decay_rate) / fit1.decay_rate if fit1.decay_rate else math.inf
    stable_ok = drift <= 0.15

    # diagnostic, not a clause: scan at degree 19, refine the rightmost at 39
    scan = resonances(polynomial_operator(base, 19), roof, _RESONANCE_STARTS)
    found = [s for s in scan if 0.0 < s.imag <= 40.0]
    rightmost = resonance(polynomial_operator(base, 39), roof, found[0])

    rows = [(19, s) for s in found] + [(39, rightmost)]
    resonance_csv = "degree,re_s,im_s\n" + "".join(
        f"{degree},{s.real:.10f},{s.imag:.10f}\n" for degree, s in rows
    )
    return (
        gamma_ok and r2_ok and stable_ok,
        f"gamma {fit1.decay_rate:.4f} ({fit1.verdict}), R2 {fit1.r_squared:.3f} (need 0.9), "
        f"doubled-N gamma {fit2.decay_rate:.4f}, drift {100 * drift:.1f}% (tol 15%), budget 600s; "
        f"rightmost resonance {rightmost.real:.4f}{rightmost.imag:+.4f}i (diag)",
        [
            (f"correlation_{name}_1m.csv", series1.to_csv()),
            (f"fit_{name}_1m.txt", fit1.summary()),
            (f"correlation_{name}_2m.csv", series2.to_csv()),
            (f"fit_{name}_2m.txt", fit2.summary()),
            ("resonances.csv", resonance_csv),
        ],
    )


@_criterion(6, "inducing_tails")
def check_inducing_tails(seed, threads):
    """First-return tails of the 3-branch model: exact masses, fitted rate."""
    base = three_branch_map()
    induced = base.induce_first_return(0, depth_cap=12)
    masses = induced.tail_masses()

    worst = Fraction(0)
    rows = []
    for n in range(2, 13):
        want = Fraction(2, 3) ** (n - 2)
        got = masses[n - 1]
        worst = max(worst, abs(got - want))
        rows.append(f"{n},{float(got):.17g},{float(want):.17g},0")
    exact_ok = worst <= Fraction(1, 10**12)

    stats = tail_statistics(induced)
    target = math.log(1.5)
    alpha_ok = abs(stats.alpha - target) <= 0.1 * target

    tail_csv = "n,mass,predicted,tolerance\n" + "\n".join(rows) + "\n"
    summary = (
        "quantity,value,error\n"
        f"alpha,{stats.alpha:.17g},{stats.alpha_stderr:.17g}\n"
        f"sigma0,{stats.sigma0:.17g},{stats.alpha_stderr / 2:.17g}\n"
    )
    return (
        exact_ok and alpha_ok,
        f"worst |m(R>=n) - (2/3)^(n-2)| = {float(worst):.2e} (tol 1e-12), "
        f"alpha {stats.alpha:.4f} vs ln(3/2) {target:.4f} (tol 10%)",
        [("tails.csv", tail_csv), ("tails_summary.csv", summary)],
    )


@_criterion(7, "skew_axioms")
def check_skew_axioms(seed, threads):
    """Solenoid (2, 20, 1/4): contraction ratio and fiber invariance."""
    skew = build_solenoid(2, 20, Fraction(1, 4)).skew
    worst = validate_contraction(skew, pairs=100_000)
    ratio_ok = abs(worst - 0.05) <= 1e-12 and worst <= 0.05 + 1e-12
    overshoot = validate_invariance(skew, probes=1_000)
    invariance_ok = overshoot <= 1e-9

    text = (
        "axiom,status,worst_probe,location,tolerance\n"
        f"fiber_contraction,{'pass' if ratio_ok else 'fail'},{worst:.17g},0,{0.05 + 1e-12:.17g}\n"
        f"fiber_invariance,{'pass' if invariance_ok else 'fail'},{overshoot:.17g},0,1e-09\n"
    )
    return (
        ratio_ok and invariance_ok,
        f"worst ratio {worst:.12f} (want 1/20, zero violations over 1e5 pairs), "
        f"invariance overshoot {overshoot:.3e} <= 0",
        [("solenoid_axioms.csv", text)],
    )


@_criterion(8, "domination")
def check_domination_criterion(seed, threads):
    """Domination product passes at (2,20,1/4) and fails at (2,10,1/2)."""
    good = check_domination(build_solenoid(2, 20, Fraction(1, 4)))
    bad = check_domination(build_solenoid(2, 10, Fraction(1, 2)))
    good_ok = good.product_bound <= 0.35 and good.passed
    bad_ok = bad.product_bound > 1.0 and not bad.passed
    text = (
        "model,product_bound,threshold\n"
        f"solenoid_2_20_quarter,{good.product_bound:.17g},0.35\n"
        f"solenoid_2_10_half,{bad.product_bound:.17g},1\n"
    )
    return (
        good_ok and bad_ok,
        f"(2,20,1/4) bound {good.product_bound:.4f} <= 0.35 pass; "
        f"(2,10,1/2) bound {bad.product_bound:.4f} > 1 fail as intended",
        [("domination.csv", text)],
    )


@_criterion(9, "disintegration")
def check_disintegration(seed, threads):
    """Fiber measures of the solenoid: barycenter, mass, route agreement.

    The fiber disk radius is 1/3 so the forward sandwich bracket, whose
    width is kappa^depth * Lip * diam, fits under the kappa^depth * Lip
    budget; the default unit disk would double it.
    """
    depth = 20
    skew = build_solenoid(2, 20, Fraction(1, 4), fiber_radius=Fraction(1, 3)).skew
    dis = Disintegration(skew, depth=depth)

    def re_z(xs, zs):
        return zs[..., 0]

    def one(xs, zs):
        return np.ones(np.shape(xs))

    grid = [(i + 0.5) / 16 for i in range(16)]
    re_vals, mass_devs = [], []
    for th in grid:
        # evaluate streams one tree per observable, so no tree is held whole
        re_vals.append(dis.evaluate(th, re_z))
        mass_devs.append(abs(dis.evaluate(th, one) - 1.0))
    re_ok = max(abs(v) for v in re_vals) <= 1e-3
    mass_ok = max(mass_devs) <= 1e-9

    lip = 1.0
    integral = eta_integral(dis, re_z)
    trunc = dis.truncation_bound(lip)
    sw = sandwich_estimate(skew, re_z, depth=depth, fiber_lipschitz=lip, seed=seed)
    combined = trunc + sw.gap / 2.0 + 3.0 * sw.stat_error
    agree_ok = abs(integral - sw.midpoint) <= combined
    gap_ok = sw.gap <= skew.kappa**depth * lip

    grid_csv = "theta,eta_re_z,error_bound\n" + "\n".join(
        f"{th:.17g},{v:.17g},{trunc:.17g}" for th, v in zip(grid, re_vals)
    ) + "\n"
    sandwich_csv = (
        "quantity,value,error\n"
        f"eta_integral,{integral:.17g},{trunc:.17g}\n"
        f"sandwich_lower,{sw.lower:.17g},{sw.stat_error:.17g}\n"
        f"sandwich_upper,{sw.upper:.17g},{sw.stat_error:.17g}\n"
        f"gap,{sw.gap:.17g},0\n"
    )
    return (
        re_ok and mass_ok and agree_ok and gap_ok,
        f"max|eta(Re z)| {max(abs(v) for v in re_vals):.2e} (tol 1e-3), "
        f"max|eta(1)-1| {max(mass_devs):.2e} (tol 1e-9), "
        f"|integral - sandwich| {abs(integral - sw.midpoint):.2e} <= {combined:.2e}, "
        f"gap {sw.gap:.2e} <= {skew.kappa ** depth * lip:.2e}",
        [("eta_grid.csv", grid_csv), ("sandwich.csv", sandwich_csv)],
    )


@_criterion(10, "temporal_distance_dichotomy")
def check_temporal_distance(seed, threads):
    """Dichotomy: zero for locally constant roofs, stable nonzero for 1+x^2."""
    base = doubling_map()
    grid = _grid16()

    susp_lc = suspend(base, per_branch_polynomial_roof(base, [(1,), (Fraction(3, 2),)]))
    worst_lc, lc_csv = _tdist_grid(susp_lc, grid, depth=30)
    lc_ok = worst_lc <= Fraction(1, 10**9)

    susp_sq = suspend(base, polynomial_roof(base, (1, 0, 1)))
    m30, csv30 = _tdist_grid(susp_sq, grid, depth=30)
    m40, csv40 = _tdist_grid(susp_sq, grid, depth=40)
    nonzero_ok = m30 > 0
    rel = abs(float(m40 - m30)) / max(float(m30), float(m40)) if m30 > 0 else math.inf
    stable_ok = rel <= 0.01

    return (
        lc_ok and nonzero_ok and stable_ok,
        f"locally constant max {float(worst_lc):.1e} (tol 1e-9); "
        f"1+x^2 max {float(m30):.6f} at depth 30 vs {float(m40):.6f} at 40, "
        f"rel change {100 * rel:.2e}% (tol 1%)",
        [
            ("tdist_locally_constant.csv", lc_csv),
            ("tdist_xsq_depth30.csv", csv30),
            ("tdist_xsq_depth40.csv", csv40),
        ],
    )


@_criterion(11, "determinism")
def check_determinism(seed, threads):
    """Thread-count independence of the threaded estimator, in process.

    Reduced-scale sibling of the shell-level check (`mixlab repro` run
    under --threads 1 and --threads 8 must emit byte-identical CSVs);
    the full comparison lives in the test suite.  This row guards the
    lap route of `correlation`, the one every declared observable
    (``height_mix`` here) takes, and the place where a worker count could
    leak into results; the per-step route has its own test.
    """
    base = doubling_map()
    susp = suspend(base, polynomial_roof(base, (1, 0, 1)))
    name, phi, psi = default_observables(susp)[0]
    times = np.round(np.arange(0.0, 3.0 + 1e-9, 0.1), 10)
    run = dict(times=times, samples=40_000, seed=seed, batch_size=5_000)
    csv1, csv8 = (correlation(susp, phi, psi, threads=n, **run).to_csv() for n in (1, 8))
    identical = csv1 == csv8
    return (
        identical,
        f"threads 1 vs 8 correlation CSVs byte-identical: {identical} (40000 samples, 8 batches)",
        [(f"determinism_{name}.csv", csv1)],
    )


def run_all(seed: int = 42, threads: int = 1) -> list[CheckResult]:
    return [check(seed=seed, threads=threads) for check in CHECKS]
