"""End-to-end checks with pinned tolerances, shared by the test suite
and the `mixlab repro` subcommand.

Each check builds its own models, runs the relevant pipelines, and
returns a CheckResult whose detail string contains only values that are
deterministic for a given seed; wall-clock timings live in a separate
field so emitted artifacts stay byte-identical across runs and thread
counts.
"""

from __future__ import annotations

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
    build_ulam,
    duality_check,
    invariant_density,
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


def _grid16():
    return [Fraction(2 * i + 1, 32) for i in range(16)]


def check_witness_gap(seed: int = 42, threads: int = 1) -> CheckResult:
    """Exact periodic-orbit witness for the 1+x^2 roof over doubling."""
    t0 = time.perf_counter()
    base = doubling_map()
    roof = polynomial_roof(base, (1, 0, 1))
    report = witness_search(roof, max_period=4)
    want = Fraction(26, 5) - Fraction(46, 9)
    exact_ok = report.found and report.witness.gap == want

    roof_f = polynomial_roof(base, (1.0, 0.0, 1.0))
    report_f = witness_search(roof_f, max_period=4)
    float_ok = report_f.found and abs(float(report_f.witness.gap) - float(want)) <= 1e-12

    elapsed = time.perf_counter() - t0
    gap = report.witness.gap if report.found else None
    fgap = float(report_f.witness.gap) if report_f.found else math.nan
    return CheckResult(
        criterion=1,
        name="witness_gap",
        passed=exact_ok and float_ok and elapsed < 1.0,
        detail=f"exact gap {gap} (want 4/45), float gap {fgap!r}, budget 1s",
        elapsed=elapsed,
        artifacts=(("witness.csv", report.to_csv()),),
    )


def check_coboundary(seed: int = 42, threads: int = 1) -> CheckResult:
    """r = 1+x is a coboundary off the locally constant part; no witness."""
    t0 = time.perf_counter()
    base = doubling_map()
    roof = polynomial_roof(base, (1, 1))
    residual = certify_coboundary(roof, lambda x: x)
    report = witness_search(roof, max_period=8)
    no_witness = report.verdict == "NoWitnessUpToPeriod"
    elapsed = time.perf_counter() - t0
    text = (
        "quantity,value,tolerance\n"
        f"coboundary_residual,{residual:.17g},1e-12\n"
        f"witness_periods_searched,{report.searched_periods},0\n"
    )
    return CheckResult(
        criterion=2,
        name="coboundary_soundness",
        passed=residual <= 1e-12 and no_witness,
        detail=f"residual {residual:.3e} (tol 1e-12), verdict {report.verdict} at period 8",
        elapsed=elapsed,
        artifacts=(("coboundary.csv", text),),
    )


def check_transfer_operator(seed: int = 42, threads: int = 1) -> CheckResult:
    """Doubling: spectrum, uniform density, operator duality.

    The leading-eigenvalue, density and duality clauses read the Ulam
    matrix at 1024 bins.  The subleading-eigenvalue clause targets 0.5,
    the decay rate of the transfer operator on smooth observables, and
    reads it from the piecewise-polynomial operator: deflated power
    iteration at degree 16 and a dense eigensolve at degree 8.  For an
    affine Markov map that space is invariant under L, so both read 1/2
    up to roundoff at any degree.

    Ulam cannot give that number on the pinned grids, so its readings
    are kept only as diagnostic rows.  Bin averaging turns doubling on
    2**k bins into a chain that is exactly uniform after k steps: the
    matrix is nilpotent away from the leading eigenvalue, and both the
    power iteration at 1024 and the dense solve at 64 see only roundoff
    (roughly eps**(1/k) smearing of the Jordan blocks).  Every even bin
    count with an odd factor carries eigenvalues of modulus exactly 0.5:
    over a cycle k -> 2k mod N of length L the multipliers |cos(pi k/N)|
    telescope to 2**-L by the sine doubling identity, which the N=96 row
    shows.
    """
    t0 = time.perf_counter()
    base = doubling_map()
    op = build_ulam(base, 1024)
    dens = invariant_density(op)

    widths = np.diff(op.bin_edges)
    masses = dens.values * widths  # converged mass vector, left eigenvector
    pushed = masses @ op.matrix
    leading = float(pushed.sum() / masses.sum())  # L1 Rayleigh quotient
    leading_ok = abs(leading - 1.0) <= 1e-10

    sup_dev = float(np.max(np.abs(dens.values - 1.0)))
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
    lam2_dense = _second_modulus(polynomial_operator(base, 8).matrix)
    lam2_ok = abs(lam2 - 0.5) <= 0.01 and abs(lam2_dense - 0.5) <= 0.01
    # Ulam diagnostics, not clauses
    ulam_1024 = spectral_gap(op)
    ulam_64 = _second_modulus(build_ulam(base, 64).matrix)
    ulam_96 = spectral_gap(build_ulam(base, 96))

    elapsed = time.perf_counter() - t0
    summary = (
        "quantity,value,tolerance\n"
        f"leading_eigenvalue,{leading:.17g},1e-10\n"
        f"density_sup_deviation,{sup_dev:.17g},1e-8\n"
        f"worst_duality,{worst_duality:.17g},1e-6\n"
        f"lambda2_power_poly16,{lam2:.17g},0.01\n"
        f"lambda2_dense_poly8,{lam2_dense:.17g},0.01\n"
        f"lambda2_power_1024_diag,{ulam_1024:.17g},0.01\n"
        f"lambda2_dense_64_diag,{ulam_64:.17g},0.01\n"
        f"lambda2_power_96_diag,{ulam_96:.17g},0.01\n"
    )
    return CheckResult(
        criterion=3,
        name="transfer_operator",
        passed=leading_ok and uniform_ok and duality_ok and lam2_ok and elapsed < 30.0,
        detail=(
            f"leading {leading:.12f}, sup|rho-1| {sup_dev:.2e}, duality {worst_duality:.2e}, "
            f"|lam2| {lam2:.4f} vs dense {lam2_dense:.4f} on piecewise polynomials (target 0.5, "
            f"tol 0.01; Ulam reads {ulam_1024:.4f} at N=1024, {ulam_64:.4f} dense at N=64, "
            f"{ulam_96:.4f} at N=96), budget 30s"
        ),
        elapsed=elapsed,
        artifacts=(("srb_summary.csv", summary), ("density.csv", dens.to_csv())),
    )


def _second_modulus(matrix: np.ndarray) -> float:
    """Second-largest eigenvalue modulus by a dense eigensolve."""
    return float(np.sort(np.abs(np.linalg.eigvals(matrix)))[-2])


def check_constant_roof(seed: int = 42, threads: int = 1) -> CheckResult:
    """Suspension with r = 1 never mixes: rho(t) = cos(2 pi t)/2."""
    t0 = time.perf_counter()
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

    elapsed = time.perf_counter() - t0
    probes_csv = "t,rho,target,abs_dev\n" + "\n".join(probe_rows) + "\n"
    return CheckResult(
        criterion=4,
        name="constant_roof_no_mixing",
        passed=worst <= 0.01 and fit.verdict == "NoDecay" and elapsed < 120.0,
        detail=f"worst |rho - cos(2 pi t)/2| {worst:.4f} (tol 0.01), verdict {fit.verdict}, budget 120s",
        elapsed=elapsed,
        artifacts=(
            ("correlation_const_roof.csv", series.to_csv()),
            ("const_roof_probes.csv", probes_csv),
        ),
    )


# Newton starts for the resonance scan: Re s = 0, 0 < Im s <= 40
_RESONANCE_STARTS = tuple(1j * (0.5 * k) for k in range(1, 81))


def check_exponential_mixing(seed: int = 42, threads: int = 1) -> CheckResult:
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
    t0 = time.perf_counter()
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

    elapsed = time.perf_counter() - t0
    rows = [(19, s) for s in found] + [(39, rightmost)]
    resonance_csv = "degree,re_s,im_s\n" + "".join(
        f"{degree},{s.real:.10f},{s.imag:.10f}\n" for degree, s in rows
    )
    return CheckResult(
        criterion=5,
        name="exponential_mixing",
        passed=gamma_ok and r2_ok and stable_ok and elapsed < 600.0,
        detail=(
            f"gamma {fit1.decay_rate:.4f} ({fit1.verdict}), R2 {fit1.r_squared:.3f} (need 0.9), "
            f"doubled-N gamma {fit2.decay_rate:.4f}, drift {100 * drift:.1f}% (tol 15%), budget 600s; "
            f"rightmost resonance {rightmost.real:.4f}{rightmost.imag:+.4f}i (diag)"
        ),
        elapsed=elapsed,
        artifacts=(
            (f"correlation_{name}_1m.csv", series1.to_csv()),
            (f"fit_{name}_1m.txt", fit1.summary()),
            (f"correlation_{name}_2m.csv", series2.to_csv()),
            (f"fit_{name}_2m.txt", fit2.summary()),
            ("resonances.csv", resonance_csv),
        ),
    )


def check_inducing_tails(seed: int = 42, threads: int = 1) -> CheckResult:
    """First-return tails of the 3-branch model: exact masses, fitted rate."""
    t0 = time.perf_counter()
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

    elapsed = time.perf_counter() - t0
    tail_csv = "n,mass,predicted,tolerance\n" + "\n".join(rows) + "\n"
    summary = (
        "quantity,value,error\n"
        f"alpha,{stats.alpha:.17g},{stats.alpha_stderr:.17g}\n"
        f"sigma0,{stats.sigma0:.17g},{stats.alpha_stderr / 2:.17g}\n"
    )
    return CheckResult(
        criterion=6,
        name="inducing_tails",
        passed=exact_ok and alpha_ok,
        detail=(
            f"worst |m(R>=n) - (2/3)^(n-2)| = {float(worst):.2e} (tol 1e-12), "
            f"alpha {stats.alpha:.4f} vs ln(3/2) {target:.4f} (tol 10%)"
        ),
        elapsed=elapsed,
        artifacts=(("tails.csv", tail_csv), ("tails_summary.csv", summary)),
    )


def check_skew_axioms(seed: int = 42, threads: int = 1) -> CheckResult:
    """Solenoid (2, 20, 1/4): contraction ratio and fiber invariance."""
    t0 = time.perf_counter()
    model = build_solenoid(2, 20, Fraction(1, 4))
    skew = model.skew
    worst = validate_contraction(skew, pairs=100_000)
    ratio_ok = abs(worst - 0.05) <= 1e-12 and worst <= 0.05 + 1e-12
    overshoot = validate_invariance(skew, probes=1_000)
    invariance_ok = overshoot <= 1e-9

    elapsed = time.perf_counter() - t0
    text = (
        "axiom,status,worst_probe,location,tolerance\n"
        f"fiber_contraction,{'pass' if ratio_ok else 'fail'},{worst:.17g},0,{0.05 + 1e-12:.17g}\n"
        f"fiber_invariance,{'pass' if invariance_ok else 'fail'},{overshoot:.17g},0,1e-09\n"
    )
    return CheckResult(
        criterion=7,
        name="skew_axioms",
        passed=ratio_ok and invariance_ok,
        detail=(
            f"worst ratio {worst:.12f} (want 1/20, zero violations over 1e5 pairs), "
            f"invariance overshoot {overshoot:.3e} <= 0"
        ),
        elapsed=elapsed,
        artifacts=(("solenoid_axioms.csv", text),),
    )


def check_domination_criterion(seed: int = 42, threads: int = 1) -> CheckResult:
    """Domination product passes at (2,20,1/4) and fails at (2,10,1/2)."""
    t0 = time.perf_counter()
    good = check_domination(build_solenoid(2, 20, Fraction(1, 4)))
    bad = check_domination(build_solenoid(2, 10, Fraction(1, 2)))
    good_ok = good.product_bound <= 0.35 and good.passed
    bad_ok = bad.product_bound > 1.0 and not bad.passed
    elapsed = time.perf_counter() - t0
    text = (
        "model,product_bound,threshold\n"
        f"solenoid_2_20_quarter,{good.product_bound:.17g},0.35\n"
        f"solenoid_2_10_half,{bad.product_bound:.17g},1\n"
    )
    return CheckResult(
        criterion=8,
        name="domination",
        passed=good_ok and bad_ok,
        detail=(
            f"(2,20,1/4) bound {good.product_bound:.4f} <= 0.35 pass; "
            f"(2,10,1/2) bound {bad.product_bound:.4f} > 1 fail as intended"
        ),
        elapsed=elapsed,
        artifacts=(("domination.csv", text),),
    )


def check_disintegration(seed: int = 42, threads: int = 1) -> CheckResult:
    """Fiber measures of the solenoid: barycenter, mass, route agreement.

    The fiber disk radius is 1/3 so the forward sandwich bracket, whose
    width is kappa^depth * Lip * diam, fits under the kappa^depth * Lip
    budget; the default unit disk would double it.
    """
    t0 = time.perf_counter()
    depth = 20
    model = build_solenoid(2, 20, Fraction(1, 4), fiber_radius=Fraction(1, 3))
    skew = model.skew
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

    elapsed = time.perf_counter() - t0
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
    return CheckResult(
        criterion=9,
        name="disintegration",
        passed=re_ok and mass_ok and agree_ok and gap_ok,
        detail=(
            f"max|eta(Re z)| {max(abs(v) for v in re_vals):.2e} (tol 1e-3), "
            f"max|eta(1)-1| {max(mass_devs):.2e} (tol 1e-9), "
            f"|integral - sandwich| {abs(integral - sw.midpoint):.2e} <= {combined:.2e}, "
            f"gap {sw.gap:.2e} <= {skew.kappa ** depth * lip:.2e}"
        ),
        elapsed=elapsed,
        artifacts=(("eta_grid.csv", grid_csv), ("sandwich.csv", sandwich_csv)),
    )


def check_temporal_distance(seed: int = 42, threads: int = 1) -> CheckResult:
    """Dichotomy: zero for locally constant roofs, stable nonzero for 1+x^2."""
    t0 = time.perf_counter()
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

    elapsed = time.perf_counter() - t0
    return CheckResult(
        criterion=10,
        name="temporal_distance_dichotomy",
        passed=lc_ok and nonzero_ok and stable_ok,
        detail=(
            f"locally constant max {float(worst_lc):.1e} (tol 1e-9); "
            f"1+x^2 max {float(m30):.6f} at depth 30 vs {float(m40):.6f} at 40, "
            f"rel change {100 * rel:.2e}% (tol 1%)"
        ),
        elapsed=elapsed,
        artifacts=(
            ("tdist_locally_constant.csv", lc_csv),
            ("tdist_xsq_depth30.csv", csv30),
            ("tdist_xsq_depth40.csv", csv40),
        ),
    )


def check_determinism(seed: int = 42, threads: int = 1) -> CheckResult:
    """Thread-count independence of the threaded estimator, in process.

    Reduced-scale sibling of the shell-level check (`mixlab repro` run
    under --threads 1 and --threads 8 must emit byte-identical CSVs);
    the full comparison lives in the test suite.  This row guards the
    lap route of `correlation`, the one every declared observable
    (``height_mix`` here) takes, and the place where a worker count could
    leak into results; the per-step route has its own test.
    """
    t0 = time.perf_counter()
    base = doubling_map()
    susp = suspend(base, polynomial_roof(base, (1, 0, 1)))
    name, phi, psi = default_observables(susp)[0]
    times = np.round(np.arange(0.0, 3.0 + 1e-9, 0.1), 10)
    csv1 = correlation(
        susp, phi, psi, times=times, samples=40_000, seed=seed, threads=1, batch_size=5_000
    ).to_csv()
    csv8 = correlation(
        susp, phi, psi, times=times, samples=40_000, seed=seed, threads=8, batch_size=5_000
    ).to_csv()
    identical = csv1 == csv8
    elapsed = time.perf_counter() - t0
    return CheckResult(
        criterion=11,
        name="determinism",
        passed=identical,
        detail=(
            f"threads 1 vs 8 correlation CSVs byte-identical: {identical} "
            f"(40000 samples, 8 batches)"
        ),
        elapsed=elapsed,
        artifacts=((f"determinism_{name}.csv", csv1),),
    )


CHECKS = (
    check_witness_gap,
    check_coboundary,
    check_transfer_operator,
    check_constant_roof,
    check_exponential_mixing,
    check_inducing_tails,
    check_skew_axioms,
    check_domination_criterion,
    check_disintegration,
    check_temporal_distance,
    check_determinism,
)


def run_all(seed: int = 42, threads: int = 1) -> list[CheckResult]:
    return [check(seed=seed, threads=threads) for check in CHECKS]
