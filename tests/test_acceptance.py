"""Acceptance gate: one test per shipped criterion, one status line each.

Every test runs its criterion's check at the pinned seed, prints the
check's PASS/FAIL line (tolerances included) straight to the terminal,
and then asserts that the criterion holds.  One criterion stays red:
criterion 5 asks that a single exponential fit the Monte Carlo
correlation with R^2 >= 0.9, and the flow's correlation is not of that
shape (R^2 stays near 0.6 up to 4M samples).  Its check reports the honest measurement
and the noise-free resonance reading instead of loosening the threshold.
See the docstrings of ``check_transfer_operator`` and
``check_exponential_mixing`` for the mathematics behind each reading.

The final test re-runs the whole battery through the command line in two
separate processes with different thread counts and byte-compares the
artifact trees, which is the reproducibility contract stated in the
module docstring of ``mixlab.cli``.
"""

import subprocess
import sys

from mixlab.acceptance import (
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

SEED = 42
THREADS = 1


def _run(check, number, capsys):
    result = check(seed=SEED, threads=THREADS)
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
    # The subleading modulus 1/2 is read on piecewise polynomials, where
    # the doubling operator acts without discretization error.  Ulam on
    # power-of-two bins is nilpotent off the leading eigenvalue and reads
    # about 0; those readings stay in the artifact as diagnostic rows.
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
    # of fiber points, and the roots table another 16 MB
    results = []
    peak = traced_peak(lambda: results.append(_run(check_disintegration, 9, capsys)))
    r = results[0]
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


def test_repro_trees_byte_identical_across_processes(tmp_path):
    """Same seed, different processes and thread counts: same bytes."""
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a = _repro(a_dir, threads=1)
    b = _repro(b_dir, threads=8)
    # both runs carry the same verdicts, red criteria included
    assert a.returncode == b.returncode

    rel_a = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert rel_a and rel_a == rel_b
    assert any(p.name == "repro_report.csv" for p in rel_a)
    for rel in rel_a:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel
