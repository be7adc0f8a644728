"""Experiment configuration: INI files with strict key checking.

A config has four sections.  [model] names a builtin base map (kind
builtin, the default, with name doubling or three_branch) or a solenoid
(kind solenoid), [roof] a constant or polynomial roof over that base,
[run] the numeric knobs (seed, sample count, depths, time span),
[output] the artifact destination.  Section names match exactly.
Unknown sections, keys, kinds and map names are rejected with the
offending line number so typos fail loudly instead of silently running
defaults.

Values that feed exact arithmetic (roof coefficients, solenoid geometry)
parse as Fractions, accepting both "1/3" and "0.25" spellings.  [run]
t_max, the span of the correlation time grid, parses as a float of at
least one grid step (DEFAULT_DT).  The worker count and artifact format
come from the command line alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError
from .markov_maps import ExpandingMarkovMap, doubling_map, three_branch_map
from .roof import RoofFunction, constant_roof, polynomial_roof
from .solenoid import SolenoidModel
from .solenoid import build as build_solenoid_model
from .suspension import DEFAULT_DT

_MODEL_KINDS = ("builtin", "solenoid")
_BUILTIN_MAPS = {"doubling": doubling_map, "three_branch": three_branch_map}

_MODEL_KEYS = {"kind", "name", "expansion", "contraction", "offset", "fiber_radius"}
_ROOF_KEYS = {"kind", "value", "coeffs"}
_RUN_KEYS = {"seed", "samples", "depth", "depth_cap", "t_max"}
_OUTPUT_KEYS = {"out_dir"}
_SECTIONS = {
    "model": _MODEL_KEYS,
    "roof": _ROOF_KEYS,
    "run": _RUN_KEYS,
    "output": _OUTPUT_KEYS,
}


@dataclass(frozen=True)
class RunSettings:
    seed: int = 42
    samples: int = 200_000
    depth: int = 20
    depth_cap: int = 40
    t_max: float | None = None


@dataclass(frozen=True)
class OutputSettings:
    out_dir: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; sections keep raw strings for audit."""

    model: dict[str, str] = field(default_factory=dict)
    roof: dict[str, str] = field(default_factory=dict)
    run: RunSettings = field(default_factory=RunSettings)
    output: OutputSettings = field(default_factory=OutputSettings)
    path: str = "<defaults>"
    lines: dict[tuple[str, str], int] = field(default_factory=dict)

    def where(self, section: str, key: str) -> str:
        return _where(self.path, self.lines, section, key)


def _where(path: str, lines: dict[tuple[str, str], int], section: str, key: str) -> str:
    """A key's place in a config, as every error message names it."""
    ln = lines.get((section, key))
    at = f"line {ln}" if ln is not None else "not set"
    return f"'{key}' in section [{section}] ({path}, {at})"


def _key_lines(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) to 1-based line numbers by a raw scan."""
    out: dict[tuple[str, str], int] = {}
    section = ""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        header = configparser.ConfigParser.SECTCRE.match(line)
        if header:
            section = header.group("header")  # as configparser reads it, case and all
            out.setdefault((section, ""), i)
            continue
        if raw[:1].isspace():
            continue  # continuation line of the previous value
        for sep in ("=", ":"):
            if sep in line:
                key = line.split(sep, 1)[0].strip().lower()
                out.setdefault((section, key), i)
                break
    return out


def parse_config(text: str, path: str = "<string>") -> ExperimentConfig:
    lines = _key_lines(text)
    # no one-line header names "\n", so [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            ln = lines.get((section, ""), 0)
            raise ConfigError(f"unknown section [{section}] ({path}, line {ln})")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {_where(path, lines, section, key)}")

    def section(name: str) -> dict[str, str]:
        return dict(parser[name]) if parser.has_section(name) else {}

    return ExperimentConfig(
        model=section("model"),
        roof=section("roof"),
        run=_parse_run(section("run"), path, lines),
        output=OutputSettings(**section("output")),
        path=path,
        lines=lines,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, path=path)


def _get_int(raw: dict[str, str], key: str, where: str, lo=None, hi=None) -> int:
    try:
        val = int(raw[key])
    except ValueError:
        raise ConfigError(f"expected integer, got {raw[key]!r} for {where}") from None
    if lo is not None and val < lo:
        raise ConfigError(f"value {val} below minimum {lo} for {where}")
    if hi is not None and val > hi:
        raise ConfigError(f"value {val} above maximum {hi} for {where}")
    return val


def _parse_run(raw: dict[str, str], path, lines) -> RunSettings:
    def where(key: str) -> str:
        return _where(path, lines, "run", key)

    kw = {}
    if "seed" in raw:
        kw["seed"] = _get_int(raw, "seed", where("seed"), lo=0, hi=2**64 - 1)
    for key, lo in (("samples", 2), ("depth", 1), ("depth_cap", 1)):
        if key in raw:
            kw[key] = _get_int(raw, key, where(key), lo=lo)
    if "t_max" in raw:
        try:
            t_max = float(Fraction(raw["t_max"]))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"expected number, got {raw['t_max']!r} for {where('t_max')}") from None
        if not t_max >= DEFAULT_DT:
            # a shorter span may round to a one-point time grid
            raise ConfigError(f"value {t_max} below the grid step {DEFAULT_DT} for {where('t_max')}")
        kw["t_max"] = t_max
    return RunSettings(**kw)


# -- builders -------------------------------------------------------------


def _fraction(cfg: ExperimentConfig, section: str, key: str) -> Fraction:
    raw = (cfg.model if section == "model" else cfg.roof)[key]
    try:
        return Fraction(raw.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected rational number, got {raw!r} for {cfg.where(section, key)}") from exc


def _fraction_list(cfg: ExperimentConfig, section: str, key: str) -> list[Fraction]:
    raw = (cfg.model if section == "model" else cfg.roof)[key]
    try:
        return [Fraction(part.strip()) for part in raw.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected rational list, got {raw!r} for {cfg.where(section, key)}") from exc


def _require(cfg: ExperimentConfig, section: str, keys: tuple[str, ...]):
    table = cfg.model if section == "model" else cfg.roof
    for key in keys:
        if key not in table:
            raise ConfigError(f"missing required key {cfg.where(section, key)}")


def build_map(cfg: ExperimentConfig) -> ExpandingMarkovMap:
    """Base map from [model]: kind builtin (the default), name doubling or three_branch."""
    model = cfg.model
    if not model:
        raise ConfigError(f"config {cfg.path} has no [model] section")
    kind = model.get("kind", "builtin").strip()
    if kind not in _MODEL_KINDS:
        raise ConfigError(
            f"unknown model kind {kind!r} for {cfg.where('model', 'kind')}; "
            f"choose {' or '.join(_MODEL_KINDS)}"
        )
    if kind == "solenoid":
        raise ConfigError(
            f"model kind 'solenoid' for {cfg.where('model', 'kind')}; this subcommand needs kind builtin"
        )
    _require(cfg, "model", ("name",))
    name = model["name"].strip()
    if name not in _BUILTIN_MAPS:
        raise ConfigError(
            f"unknown builtin map {name!r} for {cfg.where('model', 'name')}; "
            f"choose {' or '.join(_BUILTIN_MAPS)}"
        )
    return _BUILTIN_MAPS[name]()


def build_solenoid(cfg: ExperimentConfig) -> SolenoidModel:
    """Solenoid from [model] with kind=solenoid."""
    model = cfg.model
    kind = model.get("kind", "builtin").strip()
    if kind != "solenoid":
        raise ConfigError(
            f"model kind {kind!r} for {cfg.where('model', 'kind')}; this subcommand needs kind solenoid"
        )
    _require(cfg, "model", ("expansion", "contraction", "offset"))
    expansion = _get_int(model, "expansion", cfg.where("model", "expansion"), lo=2)
    contraction = _fraction(cfg, "model", "contraction")
    offset = _fraction(cfg, "model", "offset")
    radius = _fraction(cfg, "model", "fiber_radius") if "fiber_radius" in model else Fraction(1)
    return build_solenoid_model(expansion, contraction, offset, fiber_radius=radius)


# roof kind -> its one required key, that key's parser, and the roof builder
_ROOFS = {
    "constant": ("value", _fraction, constant_roof),
    "polynomial": ("coeffs", _fraction_list, polynomial_roof),
}


def build_roof(cfg: ExperimentConfig, base: ExpandingMarkovMap) -> RoofFunction:
    """Roof from [roof]: kind constant (key value) or polynomial (key coeffs, the default)."""
    if not cfg.roof:
        raise ConfigError(f"config {cfg.path} has no [roof] section")
    kind = cfg.roof.get("kind", "polynomial").strip()
    if kind not in _ROOFS:
        raise ConfigError(
            f"unknown roof kind {kind!r} for {cfg.where('roof', 'kind')}; "
            f"choose {' or '.join(_ROOFS)}"
        )
    key, parse, make = _ROOFS[kind]
    _require(cfg, "roof", (key,))
    return make(base, parse(cfg, "roof", key))
