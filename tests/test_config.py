"""Config parsing tests: defaults, diagnostics with line numbers, builders."""

from fractions import Fraction

import pytest

from mixlab.config import (
    ExperimentConfig,
    build_map,
    build_roof,
    build_solenoid,
    load_config,
    parse_config,
)
from mixlab.errors import ConfigError


BASE = """\
[model]
kind = builtin
name = doubling

[run]
seed = 7
bins = 128
dt = 1/10

[output]
out_dir = /tmp/x
format = csv+svg
"""


def test_defaults_without_any_config():
    cfg = ExperimentConfig()
    assert cfg.run.seed == 42
    assert cfg.run.bins == 1024
    assert cfg.run.samples == 200_000
    assert cfg.run.threads is None
    assert cfg.output.out_dir == "out"
    assert cfg.output.format == "csv"
    assert cfg.path == "<defaults>"


def test_parse_happy_path():
    cfg = parse_config(BASE, path="exp.cfg")
    assert cfg.model["name"] == "doubling"
    assert cfg.run.seed == 7
    assert cfg.run.bins == 128
    assert cfg.run.dt == pytest.approx(0.1)
    assert cfg.output.format == "csv+svg"
    assert cfg.lines[("run", "seed")] == 6
    assert "line 6" in cfg.where("run", "seed")


def test_unknown_key_names_key_and_line():
    text = "[model]\nkind = builtin\nname = doubling\nbogus_key = 3\n"
    with pytest.raises(ConfigError, match=r"unknown key 'bogus_key'.*line 4"):
        parse_config(text, path="bad.cfg")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        parse_config("[extras]\nx = 1\n", path="bad.cfg")


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError):
        parse_config("stray = 1\n", path="bad.cfg")


def test_seed_range_is_sixty_four_bit():
    ok = parse_config(f"[run]\nseed = {2**64 - 1}\n")
    assert ok.run.seed == 2**64 - 1
    with pytest.raises(ConfigError, match="above maximum"):
        parse_config(f"[run]\nseed = {2**64}\n")
    with pytest.raises(ConfigError, match="below minimum"):
        parse_config("[run]\nseed = -1\n")


def test_numeric_validation_messages():
    with pytest.raises(ConfigError, match="expected integer"):
        parse_config("[run]\nbins = many\n")
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config("[run]\ndt = 0\n")
    with pytest.raises(ConfigError, match="expected number"):
        parse_config("[run]\nt_max = soon\n")
    with pytest.raises(ConfigError, match="below minimum"):
        parse_config("[run]\nthreads = 0\n")


def test_allocating_sizes_have_a_maximum():
    assert parse_config("[run]\nthreads = 256\nbins = 8192\n").run.bins == 8192
    with pytest.raises(ConfigError, match="above maximum 256 for 'threads'"):
        parse_config("[run]\nthreads = 257\n")
    with pytest.raises(ConfigError, match="above maximum 8192 for 'bins'"):
        parse_config("[run]\nbins = 8193\n")


def test_format_whitelist():
    with pytest.raises(ConfigError, match="expected csv or csv\\+svg"):
        parse_config("[output]\nformat = pdf\n")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/path.cfg")


# -- model builders ------------------------------------------------------------


def test_build_map_builtins():
    assert build_map(parse_config("[model]\nname = doubling\n")).name == "doubling"
    assert build_map(parse_config("[model]\nname = three_branch\n")).n_cells == 3
    circle = build_map(parse_config("[model]\nname = circle\ndegree = 3\n"))
    assert circle.n_cells == 3
    with pytest.raises(ConfigError, match="unknown builtin map"):
        build_map(parse_config("[model]\nname = squaring\n"))
    with pytest.raises(ConfigError, match="missing required key"):
        build_map(parse_config("[model]\nname = circle\n"))


def test_build_map_requires_model_section():
    with pytest.raises(ConfigError, match="no \\[model\\] section"):
        build_map(ExperimentConfig())


def test_build_map_affine_markov_matches_builtin():
    text = (
        "[model]\n"
        "kind = affine_markov\n"
        "breakpoints = 0, 1/2, 1\n"
        "slopes = 2, 2\n"
        "intercepts = 0, -1\n"
        "transition = 1 1; 1 1\n"
    )
    custom = build_map(parse_config(text))
    assert custom.n_cells == 2
    assert custom.expansion_bound == pytest.approx(0.5)
    for x in (Fraction(1, 5), Fraction(7, 10)):
        assert custom.evaluate(x)[0] == build_map(
            parse_config("[model]\nname = doubling\n")
        ).evaluate(x)[0]


@pytest.mark.parametrize(
    "patch, message",
    [
        ("breakpoints = 0, 1\n", "need 3 breakpoints"),
        ("intercepts = 0\n", "need 2 intercepts"),
        ("breakpoints = 0, 1/2, 1/4\n", "breakpoints must increase"),
        ("transition = 1 1\n", "transition must be 2x2"),
        ("transition = 1 2; 1 1\n", "entries must be 0 or 1"),
        ("slopes = 1/2, 2\n", "slopes must all exceed 1"),
    ],
)
def test_build_map_affine_markov_diagnostics(patch, message):
    base = {
        "breakpoints": "breakpoints = 0, 1/2, 1\n",
        "intercepts": "intercepts = 0, -1\n",
        "transition": "transition = 1 1; 1 1\n",
        "slopes": "slopes = 2, 2\n",
    }
    key = patch.split(" ", 1)[0]
    base[key] = patch
    text = "[model]\nkind = affine_markov\n" + "".join(base.values())
    with pytest.raises(ConfigError, match=message):
        build_map(parse_config(text))


def test_solenoid_kind_routes_to_dedicated_builder():
    text = "[model]\nkind = solenoid\nexpansion = 2\ncontraction = 20\noffset = 1/4\n"
    cfg = parse_config(text)
    with pytest.raises(ConfigError, match="build_solenoid"):
        build_map(cfg)
    model = build_solenoid(cfg)
    assert model.expansion == 2
    assert model.kappa == pytest.approx(0.05)
    with pytest.raises(ConfigError, match="kind must be solenoid"):
        build_solenoid(parse_config("[model]\nname = doubling\n"))


# -- roof builders ---------------------------------------------------------------


def _doubling():
    return build_map(parse_config("[model]\nname = doubling\n"))


def test_build_roof_kinds():
    base = _doubling()
    const = build_roof(parse_config("[roof]\nkind = constant\nvalue = 2\n"), base)
    assert const.value(Fraction(1, 3)) == 2

    poly = build_roof(parse_config("[roof]\nkind = polynomial\ncoeffs = 1, 0, 1\n"), base)
    assert poly.value(Fraction(1, 2)) == Fraction(5, 4)
    assert poly.exact

    cos = build_roof(
        parse_config("[roof]\nkind = cosine\nmean = 2\namplitude = 1/2\n"), base
    )
    assert cos.value(0.0) == pytest.approx(2.5)

    pb = build_roof(
        parse_config("[roof]\nkind = per_branch\ncoeffs = 1 | 2\n"), base
    )
    assert pb.value(Fraction(1, 4)) == 1
    assert pb.value(Fraction(3, 4)) == 2


def test_build_roof_rejects_claimed_constants():
    # every roof constant is certified by its builder, so no key can claim one
    for key in ("lower_bound", "branch_lipschitz"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"[roof]\nkind = polynomial\ncoeffs = 1, 0, 1\n{key} = 1\n")


def test_build_roof_bump_needs_all_three_keys():
    with pytest.raises(ConfigError, match="bump_radius"):
        build_roof(
            parse_config("[roof]\nkind = constant\nvalue = 1\nbump_center = 1/2\n"),
            _doubling(),
        )
    bumped = build_roof(
        parse_config(
            "[roof]\nkind = constant\nvalue = 1\n"
            "bump_center = 1/4\nbump_radius = 1/8\nbump_amplitude = 1/10\n"
        ),
        _doubling(),
    )
    assert bumped.value(Fraction(1, 4)) == Fraction(11, 10)
    assert bumped.value(Fraction(3, 4)) == 1


def test_build_roof_diagnostics():
    base = _doubling()
    with pytest.raises(ConfigError, match="no \\[roof\\] section"):
        build_roof(ExperimentConfig(), base)
    with pytest.raises(ConfigError, match="unknown roof kind"):
        build_roof(parse_config("[roof]\nkind = staircase\nvalue = 1\n"), base)
    with pytest.raises(ConfigError, match="missing required key"):
        build_roof(parse_config("[roof]\nkind = constant\n"), base)
    with pytest.raises(ConfigError, match="expected rational list"):
        build_roof(parse_config("[roof]\nkind = polynomial\ncoeffs = a, b\n"), base)
