"""Acceptance gate: one test per shipped criterion, one status line each.

Every test reads its criterion's result at the pinned seed from a module
cache, filled on first read at THREADS workers, prints the check's
PASS/FAIL line (tolerances included) straight to the terminal, and then
asserts that the criterion holds.  One criterion stays red:
criterion 5 asks that a single exponential fit the Monte Carlo
correlation with R^2 >= 0.9, and the flow's correlation is not of that
shape (R^2 stays near 0.6 up to 4M samples).  Its check reports the honest measurement
and the noise-free resonance reading instead of loosening the threshold.
See the docstrings of ``check_transfer_operator`` and
``check_exponential_mixing`` for the mathematics behind each reading.

The repro-tree test writes the cached battery through the command
line's tree writer and byte-compares it with a ``mixlab repro --threads
1`` run in a separate process, so two processes and two worker counts
meet: the reproducibility contract stated in the module docstring of
``mixlab.cli``.
"""

import os
import subprocess
import sys

from mixlab import acceptance
from mixlab.acceptance import (
    CHECKS,
    check_coboundary,
    check_constant_roof,
    check_determinism,
    check_disintegration,
    check_domination_criterion,
    check_exponential_mixing,
    check_inducing_tails,
    check_skew_axioms,
    check_temporal_distance,
    check_transfer_operator,
    check_witness_gap,
)
from mixlab.cli import write_repro_tree

SEED = 42
# at least 2, so the cached battery and the --threads 1 subprocess differ
THREADS = max(2, len(os.sched_getaffinity(0)))
_RESULTS = {}  # check -> its CheckResult at SEED and THREADS, filled on first read


def _result(check):
    if check not in _RESULTS:
        _RESULTS[check] = check(seed=SEED, threads=THREADS)
    return _RESULTS[check]


def _run(check, number, capsys):
    result = _result(check)
    with capsys.disabled():
        print("\n" + result.line, flush=True)
    assert result.criterion == number
    return result


def test_criterion_01_witness_gap(capsys):
    r = _run(check_witness_gap, 1, capsys)
    assert r.passed, r.detail


def test_criterion_02_coboundary(capsys):
    r = _run(check_coboundary, 2, capsys)
    assert r.passed, r.detail


def test_criterion_03_transfer_operator(capsys):
    # The subleading modulus 1/2 is read on piecewise polynomials, and the
    # leading eigenvalue and density on the cell matrix: the doubling
    # operator acts on both spaces without discretization error.
    r = _run(check_transfer_operator, 3, capsys)
    assert r.passed, r.detail


def test_criterion_04_constant_roof(capsys):
    r = _run(check_constant_roof, 4, capsys)
    assert r.passed, r.detail


def test_criterion_05_exponential_mixing(capsys):
    # Red: the R^2 >= 0.9 clause fails (0.584 at 1M samples), and more
    # samples do not mend it (0.623 at 2M, 0.628 at 4M).  The noise-free
    # resonances explain why: the rightmost one sits at -0.1210 + 7.1709i
    # with a dense ladder behind it, so rho(t) is a fast transient and then
    # beating damped oscillations, not one exponential.  The check keeps
    # the clause and writes the resonances as a diagnostic artifact.
    r = _run(check_exponential_mixing, 5, capsys)
    assert r.passed, r.detail


def test_criterion_06_inducing_tails(capsys):
    r = _run(check_inducing_tails, 6, capsys)
    assert r.passed, r.detail


def test_criterion_07_skew_axioms(capsys):
    r = _run(check_skew_axioms, 7, capsys)
    assert r.passed, r.detail


def test_criterion_08_domination_criterion(capsys):
    r = _run(check_domination_criterion, 8, capsys)
    assert r.passed, r.detail


def test_criterion_09_disintegration(capsys, traced_peak):
    # evaluate streams each grid tree: one whole 2^20-leaf tree is 16 MB
    # of fiber points, and the roots table another 16 MB.  The check runs
    # afresh under the tracer, so the bound measures a run, not the cache
    _RESULTS.pop(check_disintegration, None)
    peak = traced_peak(lambda: _result(check_disintegration))
    r = _run(check_disintegration, 9, capsys)
    assert r.passed, r.detail
    assert peak < 32 * 2**20, peak


def test_criterion_10_temporal_distance(capsys):
    r = _run(check_temporal_distance, 10, capsys)
    assert r.passed, r.detail


def test_criterion_11_determinism(capsys):
    r = _run(check_determinism, 11, capsys)
    assert r.passed, r.detail


def _repro(out_dir, threads):
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "mixlab.cli",
            "repro",
            "--seed",
            str(SEED),
            "--threads",
            str(threads),
            "--out",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=1200,
    )


def test_checks_register_criteria_1_to_11_once_in_order():
    assert CHECKS == [
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
    ]
    # the names repro_report.csv carries
    names = [
        "witness_gap",
        "coboundary_soundness",
        "transfer_operator",
        "constant_roof_no_mixing",
        "exponential_mixing",
        "inducing_tails",
        "skew_axioms",
        "domination",
        "disintegration",
        "temporal_distance_dichotomy",
        "determinism",
    ]
    results = [_result(check) for check in CHECKS]
    assert [(r.criterion, r.name) for r in results] == list(enumerate(names, start=1))


def test_budget_fails_a_check_whose_clauses_pass(monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS", [])

    @acceptance._criterion(12, "over_budget", budget_s=0.0)
    def check_over_budget(seed, threads):
        return True, "every clause holds", [("a.csv", "x\n")]

    @acceptance._criterion(13, "no_budget")
    def check_no_budget(seed, threads):
        return True, "every clause holds", []

    assert acceptance.CHECKS == [check_over_budget, check_no_budget]
    over = check_over_budget()
    assert not over.passed and over.line.startswith("FAIL criterion 12 [over_budget]")
    assert over.detail == "every clause holds" and over.artifacts == (("a.csv", "x\n"),)
    assert check_no_budget(seed=1, threads=2).passed


def test_repro_trees_byte_identical_across_processes(tmp_path):
    """Same seed, different processes and worker counts: same bytes."""
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    code = write_repro_tree([_result(check) for check in CHECKS], str(a_dir))
    b = _repro(b_dir, threads=1)
    # the subprocess carries the cached verdicts, red criteria included
    assert b.returncode == code

    rel_a = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert rel_a and rel_a == rel_b
    assert any(p.name == "repro_report.csv" for p in rel_a)
    for rel in rel_a:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel
