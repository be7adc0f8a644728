"""CLI tests: exit codes, artifact layout, and determinism across threads."""

import argparse
import os
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from mixlab import cli
from mixlab.cli import Runtime, main
from mixlab.config import ExperimentConfig, build_map, load_config
from mixlab.errors import CrossingBudgetExceeded, MixlabError
from mixlab.markov_maps import AffineBranch, ExpandingMarkovMap, doubling_map
from mixlab.roof import per_branch_polynomial_roof
from mixlab.suspension import correlation, default_observables, suspend
from mixlab.transfer_operator import cell_density


DOUBLING = """\
[model]
kind = builtin
name = doubling

[run]
seed = 5
"""

XSQ_ROOF = """\
[roof]
kind = polynomial
coeffs = 1, 0, 1

"""

THREE_BRANCH = """\
[model]
kind = builtin
name = three_branch

[run]
seed = 5
depth_cap = 12
"""

SOLENOID = """\
[model]
kind = solenoid
expansion = 2
contraction = 20
offset = 1/4
fiber_radius = 1/3

[roof]
kind = constant
value = 1

[run]
seed = 5
samples = 200
depth = 8
"""


ROOT = Path(__file__).resolve().parent.parent


def _cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read(tmp_path, name):
    return (tmp_path / "out" / name).read_bytes()


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path / "out")])


def _affine_map(edges, slopes, intercepts, transition, expansion_bound):
    # no config kind names an affine Markov map: tests that run the CLI on
    # one patch it in as `cli.build_map`
    branches = [
        AffineBranch(Fraction(lo), Fraction(hi), Fraction(s), Fraction(c))
        for lo, hi, s, c in zip(edges, edges[1:], slopes, intercepts)
    ]
    return ExpandingMarkovMap(branches, transition, expansion_bound=expansion_bound)


def _wide_tripling(expansion_bound=1 / 3):
    # x -> 3x mod 3*2^20 on three cells of width 2^20 = 1048576
    w = 1048576
    return _affine_map(
        [0, w, 2 * w, 3 * w], [3, 3, 3], [0, -3 * w, -6 * w], [[1, 1, 1]] * 3, expansion_bound
    )


# -- validate ------------------------------------------------------------------


def test_validate_map_pass(tmp_path):
    code = run(tmp_path, "validate", "--config", _cfg(tmp_path, DOUBLING))
    assert code == 0
    text = _read(tmp_path, "validate_map.csv")
    assert text.startswith(b"axiom,status,worst_probe,location,tolerance\r\n")
    assert b"\r\n" in text and b"fail" not in text


def test_validate_reads_markov_images_exactly_on_a_wide_domain(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_map", lambda cfg: _wide_tripling())
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, DOUBLING)) == 0
    assert _read(tmp_path, "validate_map.csv") == (
        b"axiom,status,worst_probe,location,tolerance\r\n"
        b"markov_images,pass,0,0,0\r\n"
        b"expansion,pass,0.33333333333333331,0,0.33333333333433329\r\n"
    )
    assert "bijectivity" not in capsys.readouterr().out


def test_validate_fails_on_an_expansion_bound_below_the_slopes(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_map", lambda cfg: _wide_tripling(expansion_bound=1 / 4))
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, DOUBLING)) == 1
    assert b"expansion,fail,0.33333333333333331,0," in _read(tmp_path, "validate_map.csv")


def test_validate_checks_roof_when_present(tmp_path, capsys):
    cfg = _cfg(tmp_path, DOUBLING + XSQ_ROOF)
    assert run(tmp_path, "validate", "--config", cfg) == 0
    out = capsys.readouterr().out
    for line in ("roof lower_bound: 1 ", "roof upper_bound: 2 ", "roof branch_lipschitz: 1 "):
        assert line in out
    assert not (tmp_path / "out" / "validate_roof.csv").exists()


def test_validate_prints_a_mixed_sign_roof(tmp_path, capsys):
    # 1 + x - x^2 >= 1 with equality at both ends of [0, 1]
    text = DOUBLING + XSQ_ROOF.replace("1, 0, 1", "1, 1, -1")
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, text)) == 0
    out = capsys.readouterr().out
    for line in ("roof lower_bound: 1 ", "roof upper_bound: 1.25 ", "roof branch_lipschitz: 0.5 "):
        assert line in out


def test_validate_fails_on_false_roof_claim(tmp_path, capsys):
    # the roof's constants are certified, so a config cannot claim them
    for key in ("lower_bound", "branch_lipschitz"):
        text = DOUBLING + XSQ_ROOF.rstrip() + f"\n{key} = 1/100\n"
        assert run(tmp_path, "validate", "--config", _cfg(tmp_path, text)) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "roof",
    [
        "kind = constant\nvalue = -1",
        "kind = polynomial\ncoeffs = ",
    ],
)
def test_rejected_roof_data_is_a_model_error(tmp_path, capsys, roof):
    text = DOUBLING + "\n[roof]\n" + roof + "\n"
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, text)) == 2
    assert "InvalidRoof" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["", "expansion_bound = 1/2\n"])
def test_zero_slope_is_a_config_error(tmp_path, capsys, extra):
    # no config kind takes slopes: affine data is refused at its first key,
    # with that key's line, before any slope is read
    text = (
        "[model]\nkind = affine_markov\nbreakpoints = 0, 1/2, 1\nslopes = 0, 2\n"
        "intercepts = 0, -1\ntransition = 1 1; 1 1\n" + extra
    )
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, text)) == 2
    err = capsys.readouterr().err
    assert "unknown key 'breakpoints' in section [model] (" in err and ", line 3)" in err
    assert not (tmp_path / "out").exists()


def test_validate_solenoid_geometry(tmp_path):
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, SOLENOID)) == 0
    text = _read(tmp_path, "validate_skew.csv")
    assert text.startswith(b"axiom,status,worst,tolerance\r\n")
    assert b"fiber_contraction_ratio" in text and b"fiber_invariance_overshoot" in text


def test_validate_solenoid_builds_its_roof(tmp_path, capsys):
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, SOLENOID)) == 0
    assert "roof branch_lipschitz: 0 (certified)" in capsys.readouterr().out
    bad = SOLENOID.replace("value = 1", "value = -1")
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, bad)) == 2
    assert "InvalidRoof" in capsys.readouterr().err


# -- srb -----------------------------------------------------------------------


def test_srb_writes_density_and_summary(tmp_path):
    assert run(tmp_path, "srb", "--config", _cfg(tmp_path, THREE_BRANCH)) == 0
    density = _read(tmp_path, "density.csv").decode()
    assert density.startswith("bin_left,bin_right,value,residual")
    assert len(density.strip().splitlines()) == 4  # one row per cell
    summary = _read(tmp_path, "srb_summary.csv").decode()
    rows = dict(
        line.split(",")[:2] for line in summary.strip().splitlines()[1:]
    )
    # exact: the density is solved in Fraction and written as Fractions
    assert Fraction(rows["residual_l1"]) == 0
    assert Fraction(rows["integral_minus_one"]) == 0
    assert Fraction(rows["min_density"]) == Fraction(3, 4)


# -- cohomology ------------------------------------------------------------------


def test_cohomology_reports_witness(tmp_path, capsys):
    assert run(tmp_path, "cohomology", "--config", _cfg(tmp_path, DOUBLING + XSQ_ROOF)) == 0
    out = capsys.readouterr().out
    assert "WitnessFound at period 4" in out
    assert "4/45" in out
    assert b"4/45" in _read(tmp_path, "witness.csv")


# -- tails -----------------------------------------------------------------------


def test_tails_exact_masses(tmp_path):
    assert run(tmp_path, "tails", "--config", _cfg(tmp_path, THREE_BRANCH)) == 0
    tails = _read(tmp_path, "tails.csv").decode().strip().splitlines()
    assert tails[0] == "n,mass,tolerance"
    # no return in one step; mass then decays like (2/3)^(n-2)
    assert tails[1].split(",") == ["1", "1", "0"]
    assert tails[2].split(",") == ["2", "1", "0"]
    assert tails[3].split(",") == ["3", "2/3", "0"]
    assert tails[4].split(",") == ["4", "4/9", "0"]
    summary = _read(tmp_path, "tails_summary.csv").decode()
    assert "alpha," in summary and "excursion_mass," in summary


def test_tails_without_depth_cap_exits_two_before_enumerating(tmp_path, capsys):
    # a cap of 40 would walk 2^40 - 1 excursion paths out of cell 0;
    # counting them from the transition matrix refuses the run at once
    text = THREE_BRANCH.replace("depth_cap = 12\n", "depth_cap = 40\n")
    t0 = time.perf_counter()
    assert run(tmp_path, "tails", "--config", _cfg(tmp_path, text)) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "DepthOverflow" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tails.csv").exists()
    # an omitted key takes the default cap 12, which fits the path budget
    text = THREE_BRANCH.replace("depth_cap = 12\n", "")
    assert run(tmp_path, "tails", "--config", _cfg(tmp_path, text)) == 0
    omitted = _read(tmp_path, "tails.csv")
    assert run(tmp_path, "tails", "--config", _cfg(tmp_path, THREE_BRANCH)) == 0
    assert omitted == _read(tmp_path, "tails.csv")


def _roof_upper_of_tails_fit(tmp_path):
    # tails writes sigma0 = alpha / (2 * roof upper bound)
    rows = _read(tmp_path, "tails_summary.csv").decode().strip().splitlines()[1:]
    values = {row.split(",")[0]: row.split(",")[1] for row in rows}
    return float(values["alpha"]) / (2.0 * float(values["sigma0"]))


def test_tails_reads_roof_bound_over_the_whole_domain(tmp_path, monkeypatch):
    # three_branch stretched onto [0, 3): the roof 1 + x^2 climbs to 10 there
    stretched = _affine_map(
        [0, 1, 2, 3], [2, 3, 3], [1, -3, -6], [[0, 1, 1], [1, 1, 1], [1, 1, 1]], 1 / 2
    )
    monkeypatch.setattr(cli, "build_map", lambda cfg: stretched)
    text = DOUBLING + "depth_cap = 12\n\n" + XSQ_ROOF
    assert run(tmp_path, "tails", "--config", _cfg(tmp_path, text)) == 0
    assert _roof_upper_of_tails_fit(tmp_path) == pytest.approx(10.0, rel=1e-3)


def test_tails_probes_a_domain_away_from_zero(tmp_path, monkeypatch):
    # doubling on [2, 4) under a roof equal to 1 on the left cell and 2 on the right
    shifted = _affine_map([2, 3, 4], [2, 2], [-2, -4], [[1, 1], [1, 1]], 1 / 2)
    monkeypatch.setattr(cli, "build_map", lambda cfg: shifted)
    monkeypatch.setattr(cli, "build_roof", lambda cfg, m: per_branch_polynomial_roof(m, [(1,), (2,)]))
    text = DOUBLING + "depth_cap = 12\n\n[roof]\nkind = constant\nvalue = 1\n"
    assert run(tmp_path, "tails", "--config", _cfg(tmp_path, text)) == 0
    assert _roof_upper_of_tails_fit(tmp_path) == pytest.approx(2.0, rel=1e-6)


def test_tails_roof_bound_is_certified_not_probed(tmp_path):
    # 1 + x^2 never reaches 2 on [0, 1), but its certified bound is 2, so
    # tails writes sigma0 = alpha / (2 * 2) exactly
    text = THREE_BRANCH + "\n" + XSQ_ROOF
    assert run(tmp_path, "tails", "--config", _cfg(tmp_path, text)) == 0
    rows = _read(tmp_path, "tails_summary.csv").decode().strip().splitlines()[1:]
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
    assert values["sigma0"] == values["alpha"] / 4.0


# -- correlate --------------------------------------------------------------------


CORR_RUN = """\
[run]
seed = 5
samples = 2000
t_max = 3
"""


def test_correlate_artifacts(tmp_path):
    cfg = _cfg(tmp_path, DOUBLING.split("[run]")[0] + XSQ_ROOF + CORR_RUN)
    assert run(tmp_path, "correlate", "--config", cfg) == 0
    series = _read(tmp_path, "correlation_height_mix.csv").decode()
    assert series.startswith("t,rho,stderr\r\n")
    assert len(series.strip().splitlines()) == 32  # header + 31 times, 0.1 apart
    fit = _read(tmp_path, "fit_height_mix.txt").decode()
    assert "verdict=" in fit


def test_correlate_svg_when_requested(tmp_path):
    cfg = _cfg(tmp_path, DOUBLING.split("[run]")[0] + XSQ_ROOF + CORR_RUN)
    assert run(tmp_path, "correlate", "--config", cfg) == 0
    assert not (tmp_path / "out" / "correlation_height_mix.svg").exists()
    assert run(tmp_path, "correlate", "--config", cfg, "--format", "csv+svg") == 0
    assert b"<svg" in _read(tmp_path, "correlation_height_mix.svg")


def test_correlate_thread_count_keeps_bytes(tmp_path):
    cfg = _cfg(tmp_path, DOUBLING.split("[run]")[0] + XSQ_ROOF + CORR_RUN)
    assert main(["correlate", "--config", cfg, "--threads", "1", "--out", str(tmp_path / "a")]) == 0
    assert main(["correlate", "--config", cfg, "--threads", "4", "--out", str(tmp_path / "b")]) == 0
    for name in ("correlation_height_mix.csv", "fit_height_mix.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_correlate_reweights_a_base_that_does_not_preserve_lebesgue(tmp_path):
    # three_branch's invariant density is 3/4 on [0, 1/3) and 9/8 on [1/3, 1),
    # so correlate samples the base from its exact cell density; no key sizes it
    text = THREE_BRANCH.split("[run]")[0] + XSQ_ROOF + CORR_RUN
    cfg = _cfg(tmp_path, text)
    assert main(["correlate", "--config", cfg, "--threads", "1", "--out", str(tmp_path / "a")]) == 0
    assert main(["correlate", "--config", cfg, "--threads", "4", "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "correlation_height_mix.csv" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    loaded = load_config(cfg)
    assert cell_density(build_map(loaded)) == (Fraction(3, 4), Fraction(9, 8), Fraction(9, 8))


def test_correlate_crossing_budget_is_a_model_error():
    # the roof sits far below a lower bound of 1, so one dt step crosses it
    # more often than that bound allows
    base = doubling_map()
    roof = replace(per_branch_polynomial_roof(base, [(Fraction(1, 100),)] * 2), lower_bound=1)
    susp = suspend(base, roof)
    _, phi, psi = default_observables(susp)[0]
    with pytest.raises(CrossingBudgetExceeded):
        correlation(susp, phi, psi, times=[0.0, 0.5, 1.0], samples=2000, seed=5, batch_size=500)
    assert issubclass(CrossingBudgetExceeded, MixlabError)  # the CLI exits 2 on it


def test_correlate_seed_changes_bytes(tmp_path):
    cfg = _cfg(tmp_path, DOUBLING.split("[run]")[0] + XSQ_ROOF + CORR_RUN)
    assert main(["correlate", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["correlate", "--config", cfg, "--seed", "6", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "correlation_height_mix.csv").read_bytes()
    b = (tmp_path / "b" / "correlation_height_mix.csv").read_bytes()
    assert a != b


# -- tdist ------------------------------------------------------------------------


def test_tdist_grid(tmp_path):
    text = DOUBLING.split("[run]")[0] + XSQ_ROOF + "[run]\nseed = 5\ndepth = 10\n"
    assert run(tmp_path, "tdist", "--config", _cfg(tmp_path, text)) == 0
    rows = _read(tmp_path, "tdist.csv").decode().strip().splitlines()
    assert rows[0] == "x,y,value,truncation_bound"
    assert len(rows) == 257  # 16x16 midpoint pairs


# -- solenoid ----------------------------------------------------------------------


def test_solenoid_artifacts(tmp_path):
    assert run(tmp_path, "solenoid", "--config", _cfg(tmp_path, SOLENOID)) == 0
    dom = _read(tmp_path, "domination.csv").decode()
    assert dom.startswith("quantity,value,threshold")
    assert "product_bound,0.32349" in dom
    cloud = _read(tmp_path, "cloud.csv").decode().strip().splitlines()
    assert cloud[0] == "theta,z1,z2,attractor_dist_bound"
    assert len(cloud) == 201
    axioms = _read(tmp_path, "solenoid_axioms.csv")
    assert b"fail" not in axioms


def test_solenoid_geometry_violation_exits_two(tmp_path, capsys):
    bad = SOLENOID.replace("offset = 1/4", "offset = 9/10")
    assert run(tmp_path, "solenoid", "--config", _cfg(tmp_path, bad)) == 2
    err = capsys.readouterr().err
    assert "GeometryViolation" in err


# -- exit codes and flag precedence -------------------------------------------------


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "validate") == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = _cfg(tmp_path, "[model]\nname = doubling\nbogus_key = 1\n")
    assert run(tmp_path, "validate", "--config", cfg) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("section, line", [("Run", "seed = 7"), ("Output", "out_dir = elsewhere")])
def test_capitalised_section_exits_two(tmp_path, capsys, section, line):
    # read case-blind, [Run] would validate and then be ignored for the defaults
    text = DOUBLING + f"\n[{section}]\n{line}\n"
    assert run(tmp_path, "validate", "--config", _cfg(tmp_path, text)) == 2
    assert f"unknown section [{section}] (" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_seed_flag_is_usage_error(tmp_path):
    cfg = _cfg(tmp_path, DOUBLING)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", cfg, "--seed", str(2**64)])
    assert exc.value.code == 2


@pytest.mark.parametrize("threads", ["0", "257"])
def test_threads_flag_out_of_range_is_usage_error(tmp_path, threads):
    cfg = _cfg(tmp_path, DOUBLING)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", cfg, "--threads", threads])
    assert exc.value.code == 2


def test_huge_bins_is_a_config_error(tmp_path, capsys):
    # srb solves for one value per cell, so no key sizes a grid
    cfg = _cfg(tmp_path, DOUBLING + "bins = 562949953421312\n")
    assert run(tmp_path, "srb", "--config", cfg) == 2
    assert "unknown key 'bins' in section [run]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("correlate", DOUBLING + "samples = 1\n" + XSQ_ROOF, "samples"),
        ("correlate", DOUBLING + "t_max = 1/100\n" + XSQ_ROOF, "t_max"),
    ],
)
def test_run_values_the_library_rejects_are_config_errors(tmp_path, capsys, command, text, key):
    # samples would otherwise reach a library ValueError and exit 1 with a
    # traceback; t_max rounds to a one-point time grid, whose plot reads nan
    line = next(i for i, ln in enumerate(text.splitlines(), start=1) if ln.startswith(key))
    assert run(tmp_path, command, "--config", _cfg(tmp_path, text)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and f"line {line})" in err


def test_default_workers_are_the_cores_this_process_may_use(monkeypatch):
    args = argparse.Namespace(seed=None, threads=None, out=None, format=None)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert Runtime(args, ExperimentConfig()).threads == 3
    # where the OS has no affinity call, the core count stands in
    monkeypatch.delattr(os, "sched_getaffinity")
    assert Runtime(args, ExperimentConfig()).threads == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert Runtime(args, ExperimentConfig()).threads == 1


def test_out_flag_overrides_config_dir(tmp_path):
    text = DOUBLING + "\n[output]\nout_dir = " + str(tmp_path / "from_cfg") + "\n"
    cfg = _cfg(tmp_path, text)
    assert main(["validate", "--config", cfg]) == 0
    assert (tmp_path / "from_cfg" / "validate_map.csv").exists()
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "validate_map.csv").exists()


# -- committed configs and artifacts --------------------------------------------------


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.cfg")))
def test_committed_configs_validate(tmp_path, config):
    # a config key the code drops would fail here for every config that still uses it
    assert main(["validate", "--config", str(ROOT / "configs" / config), "--out", str(tmp_path)]) == 0



@pytest.mark.parametrize(
    "command, config, artifact",
    [
        ("cohomology", "doubling_xsq", "witness.csv"),
        ("tdist", "doubling_xsq", "tdist.csv"),
        ("srb", "doubling", "density.csv"),
        ("srb", "doubling", "srb_summary.csv"),
        ("tails", "three_branch", "tails.csv"),
        ("validate", "doubling", "validate_map.csv"),
    ],
)
def test_exact_artifacts_match_committed_out(tmp_path, command, config, artifact):
    # these artifacts come from Fraction arithmetic, or from float arithmetic
    # with no BLAS or libm call, so their bytes do not depend on the numpy or
    # BLAS build; artifacts that need either are left out
    cfg = str(ROOT / "configs" / f"{config}.cfg")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / artifact).read_bytes() == (ROOT / "out" / config / artifact).read_bytes()
