"""Config parsing tests: defaults, diagnostics with line numbers, builders."""

import configparser
from fractions import Fraction
from pathlib import Path

import pytest

from mixlab import config
from mixlab.config import (
    ExperimentConfig,
    build_map,
    build_roof,
    build_solenoid,
    load_config,
    parse_config,
)
from mixlab.errors import ConfigError
from mixlab.markov_maps import AffineBranch, ExpandingMarkovMap


BASE = """\
[model]
kind = builtin
name = doubling

[run]
seed = 7
t_max = 1/10

[output]
out_dir = /tmp/x
"""


def test_defaults_without_any_config():
    cfg = ExperimentConfig()
    assert cfg.run.seed == 42
    assert cfg.run.samples == 200_000
    assert cfg.run.t_max is None
    assert cfg.output.out_dir == "out"
    assert cfg.path == "<defaults>"


def test_parse_happy_path():
    cfg = parse_config(BASE, path="exp.cfg")
    assert cfg.model["name"] == "doubling"
    assert cfg.run.seed == 7
    assert cfg.run.t_max == pytest.approx(0.1)
    assert cfg.output.out_dir == "/tmp/x"
    assert cfg.lines[("run", "seed")] == 6
    assert "line 6" in cfg.where("run", "seed")


def test_unknown_key_names_key_and_line():
    text = "[model]\nkind = builtin\nname = doubling\nbogus_key = 3\n"
    with pytest.raises(ConfigError, match=r"unknown key 'bogus_key'.*line 4"):
        parse_config(text, path="bad.cfg")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        parse_config("[extras]\nx = 1\n", path="bad.cfg")
    # section names match exactly: [Run] is neither read as [run] nor dropped
    for section, line in (("Run", "seed = 7"), ("Output", "out_dir = elsewhere")):
        text = f"[model]\nname = doubling\n\n[{section}]\n{line}\n"
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\] \(bad\.cfg, line 4\)"):
            parse_config(text, path="bad.cfg")


def test_default_section_is_an_unknown_section():
    text = "[DEFAULT]\nseed = 7\n[model]\nname = doubling\n"
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\] \(bad\.cfg, line 1\)"):
        parse_config(text, path="bad.cfg")


def test_header_with_a_comment_files_its_keys():
    # configparser reads "[run] ; note" as [run]; so do the line numbers
    cfg = parse_config("[run] ; note\nseed = 5\n", path="x.cfg")
    assert cfg.run.seed == 5 and "line 2" in cfg.where("run", "seed")
    with pytest.raises(ConfigError, match=r"unknown key 'bogus' in section \[run\] \(bad\.cfg, line 3\)"):
        parse_config("[run] ; note\nseed = 5\nbogus = 1\n", path="bad.cfg")


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
        parse_config("[run]\ndepth = many\n")
    with pytest.raises(ConfigError, match="expected number"):
        parse_config("[run]\nt_max = soon\n")
    with pytest.raises(ConfigError, match="below minimum"):
        parse_config("[run]\nsamples = 1\n")


def test_t_max_is_at_least_one_grid_step():
    # a shorter span would round to a one-point time grid
    assert parse_config("[run]\nt_max = 1/10\n").run.t_max == 0.1
    for value in ("0", "-1", "1/100", "0.0999"):
        with pytest.raises(ConfigError, match=r"below the grid step 0\.1 for 't_max'.*line 3\)"):
            parse_config(f"[run]\nseed = 1\nt_max = {value}\n")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("run", "threads", "2"),
        ("run", "batch_size", "500"),
        ("run", "fiber_depth", "30"),
        ("run", "probes", "10000"),
        ("run", "noise_floor_mult", "3"),
        ("run", "grid", "16"),
        ("run", "pairs", "100000"),
        ("run", "burn_in", "30"),
        ("run", "dt", "0.1"),
        ("run", "max_period", "8"),
        ("run", "base_cell", "0"),
        ("run", "bins", "1024"),
        ("output", "format", "csv+svg"),
        ("model", "kind", "affine_markov"),
        ("model", "breakpoints", "0, 1/2, 1"),
        ("model", "slopes", "2, 2"),
        ("model", "intercepts", "0, -1"),
        ("model", "transition", "1 1; 1 1"),
        ("model", "expansion_bound", "1/2"),
        ("model", "name", "circle"),
        ("model", "degree", "3"),
        ("roof", "kind", "per_branch"),
        ("roof", "kind", "cosine"),
        ("roof", "mean", "1"),
        ("roof", "amplitude", "1/4"),
        ("roof", "frequency", "1"),
        ("roof", "bump_center", "1/2"),
        ("roof", "bump_radius", "1/8"),
        ("roof", "bump_amplitude", "1/2"),
    ],
)
def test_fixed_settings_are_not_config_keys(section, key, value):
    # no committed config varies them: each is a constant, a flag (threads,
    # format) or a library call (the affine and circle maps, the per-branch,
    # cosine and bumped roofs); bins would size an Ulam grid, which no
    # subcommand builds
    text = f"[{section}]\n{key} = {value}\n"
    if section != "model":
        text += "\n[model]\nname = doubling\n"
    with pytest.raises(ConfigError, match=rf"unknown .*'{key}' in section \[{section}\] \(bad\.cfg, line 2\)"):
        cfg = parse_config(text, path="bad.cfg")
        build_roof(cfg, build_map(cfg))


def test_every_config_key_and_kind_is_set_by_a_committed_config():
    # the config surface grows only with a committed config that uses it
    keys, kinds = set(), set()
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg")):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path)
        for section in parser.sections():
            keys.update((section, key) for key in parser[section])
            values = parser[section]
            kinds.update((section, key, values[key]) for key in ("kind", "name") if key in values)
    assert keys == {(section, key) for section, allowed in config._SECTIONS.items() for key in allowed}
    accepted = {("model", "kind", kind) for kind in config._MODEL_KINDS}
    accepted |= {("model", "name", name) for name in config._BUILTIN_MAPS}
    accepted |= {("roof", "kind", kind) for kind in config._ROOFS}
    assert kinds == accepted


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/path.cfg")


# -- model builders ------------------------------------------------------------


def test_build_map_builtins():
    assert build_map(parse_config("[model]\nname = doubling\n")).name == "doubling"
    assert build_map(parse_config("[model]\nname = three_branch\n")).n_cells == 3
    with pytest.raises(ConfigError, match="unknown builtin map 'squaring'.*; choose doubling or three_branch"):
        build_map(parse_config("[model]\nname = squaring\n"))
    with pytest.raises(ConfigError, match=r"missing required key 'name' in section \[model\] \(<string>, not set\)"):
        build_map(parse_config("[model]\nkind = builtin\n"))


def test_build_map_requires_model_section():
    with pytest.raises(ConfigError, match="no \\[model\\] section"):
        build_map(ExperimentConfig())


def test_build_map_affine_markov_matches_builtin():
    # an affine Markov map is a library call; on doubling's branch data it is
    # the map that `name = doubling` builds
    custom = ExpandingMarkovMap(
        [
            AffineBranch(Fraction(0), Fraction(1, 2), Fraction(2), Fraction(0)),
            AffineBranch(Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1)),
        ],
        [[1, 1], [1, 1]],
        expansion_bound=1 / 2,
    )
    doubling = build_map(parse_config("[model]\nname = doubling\n"))
    assert custom.n_cells == doubling.n_cells == 2
    assert custom.expansion_bound == doubling.expansion_bound
    for x in (Fraction(1, 5), Fraction(7, 10)):
        k = custom.cell_index(x)
        assert k == doubling.cell_index(x)
        assert custom.branches[k].forward(x) == doubling.branches[k].forward(x)


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
    # the config no longer reads affine branch data: whatever its values, it
    # is refused at its first key, with that key's line, before any is checked
    base = {
        "breakpoints": "breakpoints = 0, 1/2, 1\n",
        "intercepts": "intercepts = 0, -1\n",
        "transition": "transition = 1 1; 1 1\n",
        "slopes": "slopes = 2, 2\n",
    }
    key = patch.split(" ", 1)[0]
    base[key] = patch
    text = "[model]\nkind = affine_markov\n" + "".join(base.values())
    with pytest.raises(ConfigError, match=r"unknown key 'breakpoints' in section \[model\] \(bad\.cfg, line 3\)") as exc:
        build_map(parse_config(text, path="bad.cfg"))
    assert message not in str(exc.value)


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
    # polynomial is the kind a [roof] without one builds
    assert build_roof(parse_config("[roof]\ncoeffs = 1, 0, 1\n"), base).upper_bound == 2


def test_build_roof_rejects_claimed_constants():
    # every roof constant is certified by its builder, so no key can claim one
    for key in ("lower_bound", "branch_lipschitz"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"[roof]\nkind = polynomial\ncoeffs = 1, 0, 1\n{key} = 1\n")


def test_build_roof_diagnostics():
    base = _doubling()
    with pytest.raises(ConfigError, match="no \\[roof\\] section"):
        build_roof(ExperimentConfig(), base)
    with pytest.raises(ConfigError, match="unknown roof kind 'staircase'.*; choose constant or polynomial"):
        build_roof(parse_config("[roof]\nkind = staircase\nvalue = 1\n"), base)
    with pytest.raises(ConfigError, match="missing required key"):
        build_roof(parse_config("[roof]\nkind = constant\n"), base)
    with pytest.raises(ConfigError, match="expected rational list"):
        build_roof(parse_config("[roof]\nkind = polynomial\ncoeffs = a, b\n"), base)
