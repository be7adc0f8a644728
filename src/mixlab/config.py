"""Experiment configuration: INI files with strict key checking.

A config has four sections.  [model] names a base map or a solenoid,
[roof] a roof function over that base, [run] the numeric knobs (seed,
sample counts, depths, grid sizes), [output] the artifact destination.
Unknown sections or keys are rejected with the offending line number so
typos fail loudly instead of silently running defaults.

Values that feed exact arithmetic (breakpoints, slopes, roof
coefficients, solenoid geometry) parse as Fractions, accepting both
"1/3" and "0.25" spellings.  [run] t_max, the span of the correlation
time grid, parses as a float of at least one grid step (DEFAULT_DT).
[run] bins allocates a bins x bins matrix and is at most MAX_BINS (8192).
The worker count and artifact format come from the command line alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError
from .markov_maps import (
    AffineBranch,
    ExpandingMarkovMap,
    doubling_map,
    expanding_circle_map,
    three_branch_map,
)
from .roof import (
    RoofFunction,
    constant_roof,
    cosine_roof,
    per_branch_polynomial_roof,
    perturb_bump,
    polynomial_roof,
)
from .solenoid import SolenoidModel
from .solenoid import build as build_solenoid_model
from .suspension import DEFAULT_DT

# build_ulam allocates a dense bins x bins float64 matrix: 8192 bins is 512 MB
MAX_BINS = 8192

_MODEL_KEYS = {
    "kind",
    "name",
    "degree",
    "breakpoints",
    "slopes",
    "intercepts",
    "transition",
    "expansion_bound",
    "expansion",
    "contraction",
    "offset",
    "fiber_radius",
}
_ROOF_KEYS = {
    "kind",
    "value",
    "coeffs",
    "mean",
    "amplitude",
    "frequency",
    "bump_center",
    "bump_radius",
    "bump_amplitude",
}
_RUN_KEYS = {"seed", "samples", "depth", "depth_cap", "t_max", "bins"}
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
    bins: int = 1024


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
        ln = self.lines.get((section, key))
        at = f"line {ln}" if ln is not None else "not set"
        return f"[{section}] {key} ({self.path}, {at})"


def _key_lines(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) to 1-based line numbers by a raw scan."""
    out: dict[tuple[str, str], int] = {}
    section = ""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
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
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        sec = section.lower()
        if sec not in _SECTIONS:
            ln = lines.get((sec, ""), 0)
            raise ConfigError(f"unknown section [{section}] ({path}, line {ln})")
        allowed = _SECTIONS[sec]
        for key in parser[section]:
            if key not in allowed:
                ln = lines.get((sec, key), 0)
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}] ({path}, line {ln})"
                )

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


def _fail(path, lines, section, key, message):
    ln = lines.get((section, key), 0)
    raise ConfigError(f"{message} for '{key}' in [{section}] ({path}, line {ln})")


def _get_int(raw, path, lines, section, key, lo=None, hi=None):
    try:
        val = int(raw[key])
    except ValueError:
        _fail(path, lines, section, key, f"expected integer, got {raw[key]!r}")
    if lo is not None and val < lo:
        _fail(path, lines, section, key, f"value {val} below minimum {lo}")
    if hi is not None and val > hi:
        _fail(path, lines, section, key, f"value {val} above maximum {hi}")
    return val


def _get_float(raw, path, lines, section, key):
    try:
        return float(Fraction(raw[key]))
    except (ValueError, ZeroDivisionError):
        _fail(path, lines, section, key, f"expected number, got {raw[key]!r}")


def _parse_run(raw: dict[str, str], path, lines) -> RunSettings:
    kw = {}
    if "seed" in raw:
        kw["seed"] = _get_int(raw, path, lines, "run", "seed", lo=0, hi=2**64 - 1)
    if "bins" in raw:
        kw["bins"] = _get_int(raw, path, lines, "run", "bins", lo=1, hi=MAX_BINS)
    for key, lo in (("samples", 2), ("depth", 1), ("depth_cap", 1)):
        if key in raw:
            kw[key] = _get_int(raw, path, lines, "run", key, lo=lo)
    if "t_max" in raw:
        t_max = _get_float(raw, path, lines, "run", "t_max")
        if not t_max >= DEFAULT_DT:
            # a shorter span may round to a one-point time grid
            _fail(path, lines, "run", "t_max", f"value {t_max} below the grid step {DEFAULT_DT}")
        kw["t_max"] = t_max
    return RunSettings(**kw)


# -- builders -------------------------------------------------------------


def _fraction(cfg: ExperimentConfig, section: str, key: str) -> Fraction:
    raw = (cfg.model if section == "model" else cfg.roof)[key]
    try:
        return Fraction(raw.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected rational number, got {raw!r} at {cfg.where(section, key)}") from exc


def _fraction_list(cfg: ExperimentConfig, section: str, key: str) -> list[Fraction]:
    raw = (cfg.model if section == "model" else cfg.roof)[key]
    try:
        return [Fraction(part.strip()) for part in raw.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected rational list, got {raw!r} at {cfg.where(section, key)}") from exc


def _require(cfg: ExperimentConfig, section: str, keys: tuple[str, ...]):
    table = cfg.model if section == "model" else cfg.roof
    for key in keys:
        if key not in table:
            raise ConfigError(f"missing required key at {cfg.where(section, key)}")


def build_map(cfg: ExperimentConfig) -> ExpandingMarkovMap:
    """Base map from [model]; kinds: builtin (default) or affine_markov."""
    model = cfg.model
    if not model:
        raise ConfigError(f"config {cfg.path} has no [model] section")
    kind = model.get("kind", "builtin").strip()
    if kind == "solenoid":
        raise ConfigError(
            f"[model] kind=solenoid needs build_solenoid, not build_map ({cfg.path})"
        )
    if kind == "builtin":
        _require(cfg, "model", ("name",))
        name = model["name"].strip()
        if name == "doubling":
            return doubling_map()
        if name == "three_branch":
            return three_branch_map()
        if name == "circle":
            _require(cfg, "model", ("degree",))
            return expanding_circle_map(_get_int(model, cfg.path, cfg.lines, "model", "degree", lo=2))
        raise ConfigError(
            f"unknown builtin map {name!r} at {cfg.where('model', 'name')}; "
            "choose doubling, three_branch, or circle"
        )
    if kind == "affine_markov":
        return _build_affine_markov(cfg)
    raise ConfigError(
        f"unknown model kind {kind!r} at {cfg.where('model', 'kind')}; "
        "choose builtin, affine_markov, or solenoid"
    )


def _build_affine_markov(cfg: ExperimentConfig) -> ExpandingMarkovMap:
    _require(cfg, "model", ("breakpoints", "slopes", "intercepts", "transition"))
    edges = _fraction_list(cfg, "model", "breakpoints")
    slopes = _fraction_list(cfg, "model", "slopes")
    intercepts = _fraction_list(cfg, "model", "intercepts")
    n = len(slopes)
    if len(edges) != n + 1:
        raise ConfigError(
            f"need {n + 1} breakpoints for {n} slopes at {cfg.where('model', 'breakpoints')}"
        )
    if len(intercepts) != n:
        raise ConfigError(
            f"need {n} intercepts for {n} slopes at {cfg.where('model', 'intercepts')}"
        )
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ConfigError(f"breakpoints must increase at {cfg.where('model', 'breakpoints')}")

    rows = []
    raw_rows = [r for r in cfg.model["transition"].split(";") if r.strip()]
    for r in raw_rows:
        try:
            rows.append(tuple(int(v) for v in r.replace(",", " ").split()))
        except ValueError as exc:
            raise ConfigError(
                f"transition rows must be 0/1 integers at {cfg.where('model', 'transition')}"
            ) from exc
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ConfigError(
            f"transition must be {n}x{n} at {cfg.where('model', 'transition')}"
        )
    if any(v not in (0, 1) for r in rows for v in r):
        raise ConfigError(
            f"transition entries must be 0 or 1 at {cfg.where('model', 'transition')}"
        )

    if any(abs(s) <= 1 for s in slopes):
        raise ConfigError(
            f"slopes must all exceed 1 in magnitude at {cfg.where('model', 'slopes')}"
        )
    branches = tuple(
        AffineBranch(lo, hi, s, c)
        for lo, hi, s, c in zip(edges, edges[1:], slopes, intercepts)
    )
    if "expansion_bound" in cfg.model:
        bound = float(_fraction(cfg, "model", "expansion_bound"))
        if not 0 < bound < 1:
            raise ConfigError(
                f"expansion_bound must lie in (0,1) at {cfg.where('model', 'expansion_bound')}"
            )
    else:
        bound = max(float(abs(1 / s)) for s in slopes)
    return ExpandingMarkovMap(
        branches=branches,
        transition_matrix=rows,
        expansion_bound=bound,
        name="affine_markov",
    )


def build_solenoid(cfg: ExperimentConfig) -> SolenoidModel:
    """Solenoid from [model] with kind=solenoid."""
    model = cfg.model
    if model.get("kind", "").strip() != "solenoid":
        raise ConfigError(f"[model] kind must be solenoid ({cfg.path})")
    _require(cfg, "model", ("expansion", "contraction", "offset"))
    expansion = _get_int(model, cfg.path, cfg.lines, "model", "expansion", lo=2)
    contraction = _fraction(cfg, "model", "contraction")
    offset = _fraction(cfg, "model", "offset")
    radius = _fraction(cfg, "model", "fiber_radius") if "fiber_radius" in model else Fraction(1)
    return build_solenoid_model(expansion, contraction, offset, fiber_radius=radius)


def build_roof(cfg: ExperimentConfig, base: ExpandingMarkovMap) -> RoofFunction:
    """Roof from [roof]; kinds: constant, polynomial, per_branch, cosine."""
    roof_cfg = cfg.roof
    if not roof_cfg:
        raise ConfigError(f"config {cfg.path} has no [roof] section")
    kind = roof_cfg.get("kind", "polynomial").strip()

    if kind == "constant":
        _require(cfg, "roof", ("value",))
        roof = constant_roof(base, _fraction(cfg, "roof", "value"))
    elif kind == "polynomial":
        _require(cfg, "roof", ("coeffs",))
        roof = polynomial_roof(base, _fraction_list(cfg, "roof", "coeffs"))
    elif kind == "per_branch":
        _require(cfg, "roof", ("coeffs",))
        cells = [c for c in cfg.roof["coeffs"].split("|")]
        try:
            table = [
                [Fraction(p.strip()) for p in cell.split(",") if p.strip()] for cell in cells
            ]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(
                f"expected '|'-separated rational lists at {cfg.where('roof', 'coeffs')}"
            ) from exc
        roof = per_branch_polynomial_roof(base, table)
    elif kind == "cosine":
        _require(cfg, "roof", ("mean", "amplitude"))
        freq = 1
        if "frequency" in roof_cfg:
            freq = _get_int(roof_cfg, cfg.path, cfg.lines, "roof", "frequency", lo=1)
        roof = cosine_roof(
            base,
            _get_float(roof_cfg, cfg.path, cfg.lines, "roof", "mean"),
            _get_float(roof_cfg, cfg.path, cfg.lines, "roof", "amplitude"),
            frequency=freq,
        )
    else:
        raise ConfigError(
            f"unknown roof kind {kind!r} at {cfg.where('roof', 'kind')}; "
            "choose constant, polynomial, per_branch, or cosine"
        )

    bump_keys = [k for k in ("bump_center", "bump_radius", "bump_amplitude") if k in roof_cfg]
    if bump_keys:
        if len(bump_keys) != 3:
            missing = {"bump_center", "bump_radius", "bump_amplitude"} - set(bump_keys)
            raise ConfigError(
                f"bump needs all of bump_center/bump_radius/bump_amplitude; "
                f"missing {sorted(missing)} in [roof] ({cfg.path})"
            )
        roof = perturb_bump(
            roof,
            _fraction(cfg, "roof", "bump_center"),
            _fraction(cfg, "roof", "bump_radius"),
            _fraction(cfg, "roof", "bump_amplitude"),
        )
    return roof
