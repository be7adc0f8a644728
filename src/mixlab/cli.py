"""Command-line experiment runner.

Each subcommand binds the config builders to one numerical routine and
dumps machine-checkable CSV artifacts (optionally SVG plots) under the
output directory.  A single seed drives every random draw, and artifact
bytes are identical across repeated runs and across thread counts.

Exit codes: 0 when every computed check passes, 1 when a check runs to
completion but fails, 2 for usage errors, malformed configs, and model
descriptions the modules reject as infeasible.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .acceptance import run_all
from .config import ExperimentConfig, build_map, build_roof, build_solenoid, load_config
from .errors import ConfigError, InsufficientDepth, MixlabError, WindowTooShort
from .markov_maps import ExpandingMarkovMap, tail_statistics
from .roof import witness_search
from .skew_product import validate_contraction, validate_invariance
from .solenoid import SolenoidModel, attractor_sample, check_domination, cloud_csv
from .suspension import (
    correlation,
    MAX_THREADS,
    default_observables,
    fit_rate,
    suspend,
    svg_log_plot,
    temporal_distance,
)
from .transfer_operator import build_ulam, invariant_density

_FORMATS = ("csv", "csv+svg")


# ---------------------------------------------------------------------------
# artifact plumbing


def _crlf(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\n", "\r\n")


def _write_artifact(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(_crlf(text))
    print(f"wrote {path}")
    return path


def _rows_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# flag resolution


class Runtime:
    """Effective seed/threads/output after flag-over-config resolution."""

    def __init__(self, args: argparse.Namespace, cfg: ExperimentConfig):
        self.seed = args.seed if args.seed is not None else cfg.run.seed
        if args.threads is not None:
            self.threads = args.threads
        elif cfg.run.threads is not None:
            self.threads = cfg.run.threads
        else:
            self.threads = min(os.cpu_count() or 1, MAX_THREADS)
        self.out_dir = args.out if args.out is not None else cfg.output.out_dir
        self.format = args.format if args.format is not None else cfg.output.format


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _thread_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_THREADS:
        raise argparse.ArgumentTypeError(f"threads must be 1 to {MAX_THREADS}")
    return value


def _flow_parts(cfg: ExperimentConfig):
    """Flow base (map or skew), its interval base, and the configured roof."""
    if cfg.model.get("kind") == "solenoid":
        flow_base = build_solenoid(cfg).skew
        base_map = flow_base.base
    else:
        base_map = build_map(cfg)
        flow_base = base_map
    if not cfg.roof:
        raise ConfigError(f"[roof] section required ({cfg.path})")
    return flow_base, base_map, build_roof(cfg, base_map)


def _preserves_lebesgue(m: ExpandingMarkovMap) -> bool:
    # provable by inverse-branch weights alone: full branching with
    # sum 1/|slope| = 1 makes the constant density a fixed point
    return m.is_full_branch and sum(1 / abs(Fraction(b.slope)) for b in m.branches) == 1


def _base_density(cfg: ExperimentConfig, base_map: ExpandingMarkovMap):
    if _preserves_lebesgue(base_map):
        return None
    return invariant_density(build_ulam(base_map, cfg.run.bins))


def _skew_axioms(cfg: ExperimentConfig, model: SolenoidModel, out_dir: str, name: str):
    """Probe fiber contraction and invariance and write the rows to `name`.

    Returns the worst contraction ratio, the worst overshoot, and the rows.
    """
    skew = model.skew
    worst = validate_contraction(skew, pairs=cfg.run.pairs)
    overshoot = validate_invariance(skew, probes=cfg.run.probes)
    checks = [
        ("fiber_contraction_ratio", worst, float(model.kappa) + 1e-12),
        ("fiber_invariance_overshoot", overshoot, 1e-9),
    ]
    rows = [(a, "pass" if v <= tol else "fail", f"{v:.17g}", f"{tol:.17g}") for a, v, tol in checks]
    _write_artifact(out_dir, name, _rows_csv(("axiom", "status", "worst", "tolerance"), rows))
    return worst, overshoot, rows


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg: ExperimentConfig, rt: Runtime) -> int:
    if cfg.model.get("kind") == "solenoid":
        model = build_solenoid(cfg)
        m = model.skew.base
        _, _, rows = _skew_axioms(cfg, model, rt.out_dir, "validate_skew.csv")
        for axiom, status, value, tol in rows:
            print(f"{axiom}: {status} (worst {value}, tolerance {tol})")
        ok = all(r[1] == "pass" for r in rows)
    else:
        m = build_map(cfg)
        report = m.validate_axioms()
        _write_artifact(rt.out_dir, "validate_map.csv", report.to_csv())
        for c in report.checks:
            print(f"{c.axiom}: {c.status} (worst {c.worst_probe:.6g} at {c.location:.6g})")
        ok = report.passed
    if cfg.roof:
        roof = build_roof(cfg, m)
        for name in ("lower_bound", "upper_bound", "branch_lipschitz"):
            print(f"roof {name}: {float(getattr(roof, name)):.17g} (certified)")
    return 0 if ok else 1


def cmd_srb(cfg: ExperimentConfig, rt: Runtime) -> int:
    m = build_map(cfg)
    op = build_ulam(m, cfg.run.bins)
    dens = invariant_density(op)
    widths = np.diff(op.bin_edges)
    integral = float(np.sum(dens.values * widths))
    minimum = float(dens.values.min())
    ok = dens.residual <= 1e-10 and abs(integral - 1.0) <= 1e-10 and minimum > 0.0
    summary = _rows_csv(
        ("quantity", "value", "tolerance"),
        [
            ("residual_l1", f"{dens.residual:.17g}", "1e-10"),
            ("integral_minus_one", f"{integral - 1.0:.17g}", "1e-10"),
            ("min_density", f"{minimum:.17g}", ">0"),
        ],
    )
    _write_artifact(rt.out_dir, "density.csv", dens.to_csv())
    _write_artifact(rt.out_dir, "srb_summary.csv", summary)
    print(f"bins {op.bins}, residual {dens.residual:.3e}, integral 1{integral - 1.0:+.3e}, min {minimum:.6g}")
    return 0 if ok else 1


def cmd_cohomology(cfg: ExperimentConfig, rt: Runtime) -> int:
    _, base_map, roof = _flow_parts(cfg)
    report = witness_search(roof, max_period=cfg.run.max_period)
    _write_artifact(rt.out_dir, "witness.csv", report.to_csv())
    if report.found:
        w = report.witness
        print(f"WitnessFound at period {w.period}: gap {w.gap} between {''.join(map(str, w.itinerary1))} and {''.join(map(str, w.itinerary2))}")
    else:
        print(f"NoWitnessUpToPeriod {report.searched_periods} (bounded search, not a certificate)")
    return 0


def cmd_tails(cfg: ExperimentConfig, rt: Runtime) -> int:
    m = build_map(cfg)
    induced = m.induce_first_return(cfg.run.base_cell, cfg.run.depth_cap)
    roof_upper = float(build_roof(cfg, m).upper_bound) if cfg.roof else 1.0
    try:
        stats = tail_statistics(induced, roof_upper_bound=roof_upper)
    except InsufficientDepth as exc:
        print(f"tail fit failed: {exc}", file=sys.stderr)
        return 1
    tail_rows = [(n + 1, str(mass), "0") for n, mass in enumerate(stats.tail)]
    _write_artifact(rt.out_dir, "tails.csv", _rows_csv(("n", "mass", "tolerance"), tail_rows))
    summary = _rows_csv(
        ("quantity", "value", "stderr"),
        [
            ("alpha", f"{stats.alpha:.17g}", f"{stats.alpha_stderr:.17g}"),
            ("sigma0", f"{stats.sigma0:.17g}", f"{stats.alpha_stderr / (2.0 * roof_upper):.17g}"),
            ("excursion_mass", str(induced.excursion_mass), "0"),
            ("max_return_time", str(induced.max_return_time), "0"),
        ],
    )
    _write_artifact(rt.out_dir, "tails_summary.csv", summary)
    print(f"alpha {stats.alpha:.6f} +- {stats.alpha_stderr:.6f}, sigma0 {stats.sigma0:.6f}, cap {cfg.run.depth_cap}")
    return 0


def cmd_correlate(cfg: ExperimentConfig, rt: Runtime) -> int:
    flow_base, base_map, roof = _flow_parts(cfg)
    susp = suspend(flow_base, roof, base_density=_base_density(cfg, base_map))
    times = susp.default_times(cfg.run.dt, cfg.run.t_max)
    for name, phi, psi in default_observables(susp):
        series = correlation(
            susp,
            phi,
            psi,
            times=times,
            samples=cfg.run.samples,
            seed=rt.seed,
            threads=rt.threads,
            batch_size=cfg.run.batch_size,
            fiber_depth=cfg.run.fiber_depth,
        )
        _write_artifact(rt.out_dir, f"correlation_{name}.csv", series.to_csv())
        try:
            fit = fit_rate(series, noise_floor_mult=cfg.run.noise_floor_mult)
            _write_artifact(rt.out_dir, f"fit_{name}.txt", fit.summary())
            print(f"{name}: {fit.verdict}, gamma {fit.decay_rate:.6f} +- {fit.slope_stderr:.6f}, r2 {fit.r_squared:.3f}")
        except WindowTooShort as exc:
            fit = None
            _write_artifact(rt.out_dir, f"fit_{name}.txt", f"verdict=WindowTooShort\nreason={exc}\n")
            print(f"{name}: WindowTooShort ({exc})")
        if rt.format == "csv+svg":
            _write_artifact(rt.out_dir, f"correlation_{name}.svg", svg_log_plot(series, fit))
    return 0


def cmd_tdist(cfg: ExperimentConfig, rt: Runtime) -> int:
    flow_base, base_map, roof = _flow_parts(cfg)
    susp = suspend(flow_base, roof)
    g = cfg.run.grid
    points = [Fraction(2 * i + 1, 2 * g) for i in range(g)]
    worst = Fraction(0)
    rows = []
    for x in points:
        for y in points:
            td = temporal_distance(susp, x, y, depth=cfg.run.depth)
            value = abs(td.value)
            worst = max(worst, value)
            rows.append(
                f"{float(x):.17g},{float(y):.17g},{float(td.value):.17g},{float(td.truncation_bound):.17g}"
            )
    body = "x,y,value,truncation_bound\n" + "\n".join(rows) + "\n"
    _write_artifact(rt.out_dir, "tdist.csv", body)
    print(f"max |temporal distance| {float(worst):.10g} over {g}x{g} grid at depth {cfg.run.depth}")
    return 0


def cmd_solenoid(cfg: ExperimentConfig, rt: Runtime) -> int:
    model = build_solenoid(cfg)
    kappa = float(model.kappa)
    worst, overshoot, rows = _skew_axioms(cfg, model, rt.out_dir, "solenoid_axioms.csv")
    domination = check_domination(model)
    _write_artifact(rt.out_dir, "domination.csv", domination.to_csv())
    theta, z = attractor_sample(model, n=cfg.run.samples, burn_in=cfg.run.burn_in, seed=rt.seed)
    dist_bound = kappa**cfg.run.burn_in * 2.0 * float(model.fiber_radius)
    _write_artifact(rt.out_dir, "cloud.csv", cloud_csv(theta, z, dist_bound))
    ok = all(r[1] == "pass" for r in rows) and domination.passed
    print(f"contraction worst {worst:.12g} (kappa {kappa:.12g}), invariance overshoot {overshoot:.3e}")
    print(
        f"domination bound {domination.product_bound:.6f} "
        f"(empirical {domination.empirical_product:.6f}) vs threshold 1: "
        f"{'pass' if domination.passed else 'fail'}"
    )
    print(f"cloud of {len(theta)} points within {dist_bound:.3e} of the attractor")
    return 0 if ok else 1


def cmd_repro(cfg: ExperimentConfig, rt: Runtime) -> int:
    results = run_all(seed=rt.seed, threads=rt.threads)
    report_rows = []
    for r in results:
        print(f"{r.line}  [{r.elapsed:.1f}s]")
        sub = os.path.join(rt.out_dir, f"criterion_{r.criterion:02d}")
        for name, text in r.artifacts:
            _write_artifact(sub, name, text)
        report_rows.append((r.criterion, r.name, "PASS" if r.passed else "FAIL", r.detail))
    _write_artifact(
        rt.out_dir,
        "repro_report.csv",
        _rows_csv(("criterion", "name", "status", "detail"), report_rows),
    )
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


_HANDLERS = {
    "validate": cmd_validate,
    "srb": cmd_srb,
    "cohomology": cmd_cohomology,
    "tails": cmd_tails,
    "correlate": cmd_correlate,
    "tdist": cmd_tdist,
    "solenoid": cmd_solenoid,
    "repro": cmd_repro,
}

_HELP = {
    "validate": "axiom reports for the configured map or skew product; certified roof constants",
    "srb": "invariant density of the configured map",
    "cohomology": "periodic-orbit witness search for the configured roof",
    "tails": "first-return tail masses and exponent for the configured map",
    "correlate": "correlation series and decay fit for the suspension",
    "tdist": "temporal-distance grid for the suspension",
    "solenoid": "geometry, domination, and attractor cloud for the solenoid",
    "repro": "run the acceptance suite and print its PASS/FAIL table",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", help="experiment config path (INI)")
        p.add_argument("--seed", type=_seed_value, help="64-bit unsigned master seed")
        p.add_argument(
            "--threads",
            type=_thread_count,
            help=f"worker processes, 1 to {MAX_THREADS} (default: logical cores)",
        )
        p.add_argument("--out", help="artifact directory")
        p.add_argument("--format", choices=_FORMATS, help="artifact formats")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        elif args.command == "repro":
            cfg = ExperimentConfig()
        else:
            raise ConfigError(f"{args.command} requires --config")
        return _HANDLERS[args.command](cfg, Runtime(args, cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MixlabError as exc:
        # infeasible model descriptions surface with their module error name
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
