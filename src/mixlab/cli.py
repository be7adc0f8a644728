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
import os
import sys
from typing import Iterable, Sequence

from .acceptance import _grid16, run_all
from .config import ExperimentConfig, build_map, build_roof, build_solenoid, load_config
from .errors import ConfigError, InsufficientDepth, MixlabError, WindowTooShort
from .markov_maps import tail_statistics
from .roof import witness_search
from .skew_product import validate_contraction, validate_invariance
from .solenoid import BURN_IN, SolenoidModel, attractor_sample, check_domination, cloud_csv
from .suspension import (
    _tdist_grid,
    correlation,
    MAX_THREADS,
    default_observables,
    fit_rate,
    suspend,
    svg_log_plot,
)
from .transfer_operator import apply_exact, cell_density

_FORMATS = ("csv", "csv+svg")
# the run sizes each subcommand uses, fixed for every config
_INVARIANCE_PROBES = 10_000
_WITNESS_PERIOD = 8


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
        else:
            self.threads = min(_usable_cores(), MAX_THREADS)
        self.out_dir = args.out if args.out is not None else cfg.output.out_dir
        self.format = args.format


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    """Flow base (map or skew) and the configured roof over its interval map."""
    if cfg.model.get("kind") == "solenoid":
        flow_base = build_solenoid(cfg).skew
        return flow_base, build_roof(cfg, flow_base.base)
    flow_base = build_map(cfg)
    return flow_base, build_roof(cfg, flow_base)


def _skew_axioms(model: SolenoidModel, out_dir: str, name: str):
    """Probe fiber contraction and invariance and write the rows to `name`.

    Returns the worst contraction ratio, the worst overshoot, and the rows.
    """
    skew = model.skew
    worst = validate_contraction(skew)
    overshoot = validate_invariance(skew, probes=_INVARIANCE_PROBES)
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
        _, _, rows = _skew_axioms(model, rt.out_dir, "validate_skew.csv")
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
    density = cell_density(m)
    cells = list(zip(m.edges, m.edges[1:], density))
    # L1 defect of L h = h, read by the pointwise operator at each cell's midpoint
    residual = sum(
        abs(apply_exact(m, lambda y: density[m.cell_index(y)], (lo + hi) / 2) - h) * (hi - lo)
        for lo, hi, h in cells
    )
    integral = sum(h * (hi - lo) for lo, hi, h in cells)
    minimum = min(density)
    ok = residual <= 1e-10 and abs(integral - 1) <= 1e-10 and minimum > 0
    rows = [(lo, hi, h, residual) for lo, hi, h in cells]
    _write_artifact(rt.out_dir, "density.csv", _rows_csv(("bin_left", "bin_right", "value", "residual"), rows))
    summary = _rows_csv(
        ("quantity", "value", "tolerance"),
        [
            ("residual_l1", residual, "1e-10"),
            ("integral_minus_one", integral - 1, "1e-10"),
            ("min_density", minimum, ">0"),
        ],
    )
    _write_artifact(rt.out_dir, "srb_summary.csv", summary)
    print(f"cells {len(cells)}, residual {residual}, integral {integral}, min {minimum}")
    return 0 if ok else 1


def cmd_cohomology(cfg: ExperimentConfig, rt: Runtime) -> int:
    _, roof = _flow_parts(cfg)
    report = witness_search(roof, max_period=_WITNESS_PERIOD)
    _write_artifact(rt.out_dir, "witness.csv", report.to_csv())
    if report.found:
        w = report.witness
        print(f"WitnessFound at period {w.period}: gap {w.gap} between {''.join(map(str, w.itinerary1))} and {''.join(map(str, w.itinerary2))}")
    else:
        print(f"NoWitnessUpToPeriod {report.searched_periods} (bounded search, not a certificate)")
    return 0


def cmd_tails(cfg: ExperimentConfig, rt: Runtime) -> int:
    m = build_map(cfg)
    induced = m.induce_first_return(0, cfg.run.depth_cap)  # returns to the leftmost cell
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
    susp = suspend(*_flow_parts(cfg))
    times = susp.default_times(t_max=cfg.run.t_max)
    for name, phi, psi in default_observables(susp):
        series = correlation(
            susp,
            phi,
            psi,
            times=times,
            samples=cfg.run.samples,
            seed=rt.seed,
            threads=rt.threads,
        )
        _write_artifact(rt.out_dir, f"correlation_{name}.csv", series.to_csv())
        try:
            fit = fit_rate(series)
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
    susp = suspend(*_flow_parts(cfg))
    points = _grid16()
    worst, body = _tdist_grid(susp, points, depth=cfg.run.depth)
    _write_artifact(rt.out_dir, "tdist.csv", body)
    print(f"max |temporal distance| {float(worst):.10g} over {len(points)}x{len(points)} grid at depth {cfg.run.depth}")
    return 0


def cmd_solenoid(cfg: ExperimentConfig, rt: Runtime) -> int:
    model = build_solenoid(cfg)
    kappa = float(model.kappa)
    worst, overshoot, rows = _skew_axioms(model, rt.out_dir, "solenoid_axioms.csv")
    domination = check_domination(model)
    _write_artifact(rt.out_dir, "domination.csv", domination.to_csv())
    theta, z = attractor_sample(model, n=cfg.run.samples, seed=rt.seed)
    dist_bound = kappa**BURN_IN * 2.0 * float(model.fiber_radius)
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
    "srb": "exact invariant density of the configured map, one value per Markov cell",
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
        p.add_argument("--format", choices=_FORMATS, default="csv", help="artifact formats")
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
