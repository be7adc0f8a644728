"""Tests of the benchmark itself: tracer wiring, traced/untraced agreement,
metric names, and that running it leaves the repository's artifacts alone.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import sweep  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "mixing": dict(samples=20_000, batch_size=5_000),
    "attractor": dict(grid_points=1, depth=12, samples=2_000, sandwich_samples=10_000),
    "certify": dict(duality_pairs=1, depth_cap=8),
}

# Per-layer metrics each workload's traced run must report as nonzero: the
# layer -> end-to-end prediction table in README.md, by workload.
ASSIGNED = {
    "mixing": [
        "suspension.correlation.self_s",
        "suspension.observable.s",
        "suspension.observable.points",
        "suspension.crossings_per_sample_step",
        "suspension.sampler_acceptance",
        "suspension.suspend.s",
        "suspension.fit_rate.s",
        "suspension.fit_rate.points_used",
        "markov_maps.evaluate_many.s",
        "markov_maps.evaluate_many.points",
        "roof.value_many.s",
        "roof.value_many.points",
        "mc_steps_per_s",
        "mc_steps_per_s_mt",
    ],
    "attractor": [
        "suspension.correlation.self_s",
        "suspension.suspend.s",
        "skew_product.disintegration.s",
        "skew_product.tree_leaves",
        "skew_product.translation.s",
        "skew_product.translation.points",
        "skew_product.fiber_map.s",
        "skew_product.fiber_map.points",
        "skew_product.sandwich_estimate.s",
        "skew_product.validate_contraction.s",
        "solenoid.attractor_sample.s",
        "solenoid.check_domination.s",
        "solenoid.skew_builds",
        "mc_steps_per_s_mt",
        "tree_leaves_per_s",
    ],
    "certify": [
        "suspension.suspend.s",
        "suspension.temporal_distance.s",
        "suspension.temporal_distance.calls",
        "markov_maps.cell_index.s",
        "markov_maps.cell_index.calls",
        "markov_maps.induce_first_return.s",
        "markov_maps.return_branches",
        "markov_maps.tail_statistics.s",
        "roof.value.s",
        "roof.value.calls",
        "roof.witness_search.s",
        "roof.words_enumerated",
        "transfer_operator.build_ulam.s",
        "transfer_operator.invariant_density.s",
        "transfer_operator.power_iterations",
        "transfer_operator.spectral_gap.s",
        "transfer_operator.duality_check.s",
        "transfer_operator.apply_exact.s",
        "transfer_operator.apply_exact.calls",
    ],
}


def _patched_attributes():
    from mixlab import roof, solenoid, transfer_operator
    from mixlab.markov_maps import ExpandingMarkovMap
    from mixlab.skew_product import AffineFiberFamily

    return [
        ExpandingMarkovMap.__dict__["evaluate_many"], ExpandingMarkovMap.__dict__["cell_index"],
        AffineFiberFamily.__dict__["__call__"], AffineFiberFamily.__dict__["translation_at"],
        roof.enumerate_cyclic_classes,
        transfer_operator.apply_exact,
        solenoid.SolenoidModel.__dict__["skew"],
    ]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request):
    """An untraced and a traced small pass of one workload, same seed."""
    name = request.param
    cls = WORKLOADS[name]
    plain = cls(3, NullTracer(), 2, **SMALL[name])
    plain_out = plain.run_pass()
    originals = _patched_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        traced = cls(3, tracer, 2, **SMALL[name])
        traced_out = traced.run_pass()
    finally:
        tracer.uninstall()
    assert _patched_attributes() == originals, "uninstall must restore every wrapped attribute"
    return name, (plain, plain_out), (traced, traced_out), tracer


def test_every_wrapper_fires_on_its_workload(passes):
    name, (_, plain_out), (_, traced_out), tracer = passes
    summary = tracer.summary(run.CREDIT)
    metrics = run.layer_metrics(summary, traced_out.facts, [plain_out.facts], overhead=0.0)
    assert set(metrics) == set(run.PER_LAYER)
    silent = [m for m in ASSIGNED[name] if not metrics[m] > 0]
    assert not silent, f"{name}: no trace for {silent}"


def test_traced_and_untraced_passes_agree(passes):
    name, (plain, plain_out), (traced, traced_out), _ = passes
    plain_checks, plain_digest = plain.check(plain_out.outputs)
    traced_checks, traced_digest = traced.check(traced_out.outputs)
    assert plain_digest == traced_digest
    assert [c for c in plain_checks + traced_checks if not c.passed] == []


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    rows = tracer.summary({"inner": ("outer",)})
    assert rows["inner"]["calls"] == 2
    children = sum(rec[3] - rec[2] for rec in tracer.spans if rec[0] == "inner")
    assert rows["outer"]["self_s"] == pytest.approx(outer[3] - outer[2] - children, abs=1e-9)


def test_uncredited_spans_fold_into_their_caller():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("counted") as counted:
            with tracer.span("folded"):
                with tracer.span("counted"):
                    pass
        with tracer.span("folded") as folded:
            pass
    rows = tracer.summary({"counted": ("root",)})
    assert "folded" not in rows
    assert rows["counted"]["calls"] == 2
    inner = tracer.spans[3]
    own = counted[3] - counted[2] - (inner[3] - inner[2])
    assert rows["root"]["self_s"] == pytest.approx(root[3] - root[2] - (counted[3] - counted[2]))
    assert rows["root"]["self_s"] > folded[3] - folded[2]
    assert rows["counted"]["self_s"] == pytest.approx(own + inner[3] - inner[2], abs=1e-9)
    # under another root nothing is credited, so the root keeps all of its time
    rows = tracer.summary({"counted": ("elsewhere",)})
    assert list(rows) == ["root"]
    assert rows["root"]["self_s"] == pytest.approx(root[3] - root[2])


def test_metric_names_and_units():
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    entries = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert all(unit_re.match(e["unit"]) for e in SPEC["end_to_end"] + SPEC["per_layer"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert run.WORKLOADS == tuple(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def _run_bench(cwd, workload, seed):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    return subprocess.run(
        [sys.executable, *argv, "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _tree_digest(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*")):
            h.update(str(path.relative_to(ROOT)).encode())
            if path.is_file():
                h.update(path.read_bytes())
    return h.hexdigest()


def test_run_prints_result_and_leaves_out_and_configs_alone():
    before = _tree_digest("out", "configs")
    proc = _run_bench(ROOT, "certify", seed=5)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert _tree_digest("out", "configs") == before


def test_sweep_writes_only_under_results():
    results = (HERE / "results").resolve()
    for _name, argv in sweep.subcommand_runs():
        out = Path(argv[argv.index("--out") + 1]).resolve()
        assert results in out.parents


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = _run_bench(tmp_path, "mixing", seed=1)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
