"""mixlab benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload mixing --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; mixlab is imported from its ``src/``.  The
process builds the workload (its set-up) and repeats timed passes over the
same seeded inputs until ``--seconds`` is spent, at least three passes.  With
``--trace 0`` the metrics are the end-to-end ones, and set-up is timed again
after every pass in a fresh process (``--setup-only``), so ``setup_s`` is a
median.  With ``--trace 1`` untraced and traced passes alternate on two
separately built workloads, and the metrics are the per-layer ones.  The last
line of standard output is the result object.  The full report, with the
machine it ran on, and with ``--trace 1`` the spans of set-up and the first
traced pass, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("mixing", "attractor", "certify")
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
SETUP_SPANS = ("suspension.suspend", "solenoid.skew_builds")

# name -> (source, key, field).  "span" reads the traced pass's summary: self
# seconds, calls, or points (events such as words enumerated count as calls);
# "fact" is a count the workload read off its own outputs; "untraced" is a
# throughput from the untraced passes.  Units and directions are in
# BENCHMARK.json, in the same order.
PER_LAYER = {
    "suspension.correlation.self_s": ("span", "suspension.correlation", "self_s"),
    "suspension.observable.s": ("span", "suspension.observable", "self_s"),
    "suspension.observable.points": ("span", "suspension.observable", "points"),
    "suspension.crossings_per_sample_step": ("crossings", None, None),
    "suspension.sampler_acceptance": ("fact", "suspension.sampler_acceptance", None),
    "suspension.suspend.s": ("span", "suspension.suspend", "self_s"),
    "suspension.fit_rate.s": ("span", "suspension.fit_rate", "self_s"),
    "suspension.fit_rate.points_used": ("fact", "suspension.fit_rate.points_used", None),
    "suspension.temporal_distance.s": ("span", "suspension.temporal_distance", "self_s"),
    "suspension.temporal_distance.calls": ("span", "suspension.temporal_distance", "calls"),
    "markov_maps.evaluate_many.s": ("span", "markov_maps.evaluate_many", "self_s"),
    "markov_maps.evaluate_many.points": ("span", "markov_maps.evaluate_many", "points"),
    "markov_maps.cell_index.s": ("span", "markov_maps.cell_index", "self_s"),
    "markov_maps.cell_index.calls": ("span", "markov_maps.cell_index", "calls"),
    "markov_maps.induce_first_return.s": ("span", "markov_maps.induce_first_return", "self_s"),
    "markov_maps.return_branches": ("fact", "markov_maps.return_branches", None),
    "markov_maps.tail_statistics.s": ("span", "markov_maps.tail_statistics", "self_s"),
    "roof.value_many.s": ("span", "roof.value_many", "self_s"),
    "roof.value_many.points": ("span", "roof.value_many", "points"),
    "roof.value.s": ("span", "roof.value", "self_s"),
    "roof.value.calls": ("span", "roof.value", "calls"),
    "roof.witness_search.s": ("span", "roof.witness_search", "self_s"),
    "roof.words_enumerated": ("span", "roof.words_enumerated", "calls"),
    "transfer_operator.build_ulam.s": ("span", "transfer_operator.build_ulam", "self_s"),
    "transfer_operator.invariant_density.s": ("span", "transfer_operator.invariant_density", "self_s"),
    "transfer_operator.power_iterations": ("fact", "transfer_operator.power_iterations", None),
    "transfer_operator.spectral_gap.s": ("span", "transfer_operator.spectral_gap", "self_s"),
    "transfer_operator.duality_check.s": ("span", "transfer_operator.duality_check", "self_s"),
    "transfer_operator.apply_exact.s": ("span", "transfer_operator.apply_exact", "self_s"),
    "transfer_operator.apply_exact.calls": ("span", "transfer_operator.apply_exact", "calls"),
    "skew_product.disintegration.s": ("span", "skew_product.disintegration", "self_s"),
    "skew_product.tree_leaves": ("fact", "skew_product.tree_leaves", None),
    "skew_product.translation.s": ("span", "skew_product.translation", "self_s"),
    "skew_product.translation.points": ("span", "skew_product.translation", "points"),
    "skew_product.fiber_map.s": ("span", "skew_product.fiber_map", "self_s"),
    "skew_product.fiber_map.points": ("span", "skew_product.fiber_map", "points"),
    "skew_product.sandwich_estimate.s": ("span", "skew_product.sandwich_estimate", "self_s"),
    "skew_product.validate_contraction.s": ("span", "skew_product.validate_contraction", "self_s"),
    "solenoid.attractor_sample.s": ("span", "solenoid.attractor_sample", "self_s"),
    "solenoid.check_domination.s": ("span", "solenoid.check_domination", "self_s"),
    "solenoid.skew_builds": ("span", "solenoid.skew_builds", "calls"),
    "mc_steps_per_s": ("untraced", "mc_steps_per_s", None),
    "mc_steps_per_s_mt": ("untraced", "mc_steps_per_s_mt", None),
    "tree_leaves_per_s": ("untraced", "tree_leaves_per_s", None),
    "trace.overhead_frac": ("overhead", None, None),
}


# Nested (wrapped) spans are reported only under these roots, the benchmark
# spans whose work they measure; elsewhere they are folded into the span that
# called them.  So fiber_map counts the Monte Carlo fiber pushes but not
# sandwich_estimate's, translation counts tree building but not the pushes
# (where it is part of fiber_map), and set-up's roof and cell probes stay in
# suspend.
CREDIT = {
    "suspension.observable": ("suspension.correlation",),
    "markov_maps.evaluate_many": ("suspension.correlation",),
    "roof.value_many": ("suspension.correlation",),
    "skew_product.fiber_map": ("suspension.correlation",),
    "skew_product.translation": ("skew_product.disintegration",),
    "markov_maps.cell_index": ("transfer_operator.duality_check", "suspension.temporal_distance"),
    "roof.value": ("roof.witness_search", "suspension.temporal_distance"),
    "transfer_operator.apply_exact": ("transfer_operator.duality_check",),
}


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh workload process."""
    argv = [
        sys.executable, __file__, "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Times passes of one workload and checks each pass's outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list[float] = []
        self.facts: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()

    def run(self) -> None:
        t0 = time.perf_counter()
        result = self.workload.run_pass()
        self.walls.append(time.perf_counter() - t0)
        self.facts.append(result.facts)
        checks, digest = self.workload.check(result.outputs)
        self.digests.add(digest)
        self.attempted += len(checks)
        self.failures += [f"{c.name}: {c.detail}" for c in checks if not c.passed]


def layer_metrics(summary: dict, facts: dict, untraced_facts: list[dict], overhead: float) -> dict:
    out = {}
    for name, (source, key, field) in PER_LAYER.items():
        if source == "span":
            value = summary.get(key, {}).get(field, 0)
        elif source == "fact":
            value = facts.get(key, 0)
        elif source == "untraced":
            value = _median([f[key] for f in untraced_facts if key in f])
        elif source == "crossings":
            steps = facts.get("sample_steps", 0)
            points = summary.get("markov_maps.evaluate_many", {}).get("points", 0)
            value = points / steps if steps else 0.0
        else:
            value = overhead
        out[name] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help="print set-up time and stop")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mixlab" / "__init__.py").is_file():
        print(f"no mixlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS as CLASSES

    cls = CLASSES[args.workload]
    threads = nproc()
    workload = cls(args.seed, NullTracer(), threads)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # with tracing off, set-up is timed again in a fresh process after every
    # pass, so the probes see the machine at moments spread over the whole run
    setups = [setup_s]

    plain = Runner(workload)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_workload = cls(args.seed, tracer, threads)
        tracer.uninstall()
        # set-up spans: suspend and the solenoid's skew builds happen only here
        setup_rows = {
            k: v for k, v in tracer.summary(CREDIT).items() if k in SETUP_SPANS
        }
        traced = Runner(traced_workload)
        pass_summaries = []

    budget_start = time.perf_counter()
    while True:
        plain.run()
        if args.trace:
            tracer.install()
            mark = tracer.mark()
            try:
                traced.run()
            finally:
                tracer.uninstall()
            pass_summaries.append({**tracer.summary(CREDIT, since=mark), **setup_rows})
            if len(traced.walls) > 1:  # keep set-up and the first pass for the spans file
                tracer.truncate(mark)
        else:
            try:
                setups.append(probe_setup(args.workload, args.seed))
            except subprocess.SubprocessError as exc:
                print(f"set-up probe failed: {exc}", file=sys.stderr)
                return 1
        elapsed = time.perf_counter() - budget_start
        per_round = elapsed / len(plain.walls)
        if len(plain.walls) >= MIN_PASSES and elapsed + per_round > args.seconds:
            break

    report = dict(
        environment(),
        seed=args.seed,
        seconds=args.seconds,
        threads=threads,
        setups=setups,
        setup_s=_median(setups),
        walls=plain.walls,
        wall_s=_median(plain.walls),
        peak_rss_mb=peak_rss_mb(),
        attempted=plain.attempted,
        failures=plain.failures,
        passes=len(plain.walls),
        facts=plain.facts,
    )
    digests = plain.digests
    if args.trace:
        tracer.write_jsonl(RESULTS / f"{tag}-spans.jsonl")
        overhead = _median(traced.walls) / _median(plain.walls) - 1.0
        rows = [
            layer_metrics(s, f, plain.facts, overhead) for s, f in zip(pass_summaries, traced.facts)
        ]
        report["per_layer"] = {name: _median([r[name] for r in rows]) for name in PER_LAYER}
        report["traced_walls"] = traced.walls
        report["attempted"] += traced.attempted
        report["failures"] += traced.failures
        digests = digests | traced.digests
    # every pass, traced or not, must reproduce the same outputs
    report["attempted"] += 1
    if len(digests) != 1:
        report["failures"].append(f"passes disagree: {len(digests)} distinct output digests")
    report["digest"] = sorted(digests)[0]

    if args.trace:
        metrics, wanted = report["per_layer"], spec["per_layer"]
    else:
        metrics, wanted = report, spec["end_to_end"]
    failures = report["failures"]
    result = {
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
