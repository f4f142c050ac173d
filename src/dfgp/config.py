"""Run configuration: one INI-style file drives every CLI command.

Parsing and serialization round-trip exactly and are both derived from the
dataclass fields below, ``EstimatorConfig``'s, ``HoldoutPlan``'s and
``ScenarioConfig``'s, their types and defaults; all scientific choices live
in the file, the fixed-rank switch ([estimator] lowrank_only) included, so
runs are reproducible from (config, seed) alone.
"""

from __future__ import annotations

import configparser
import io as _io
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_type_hints

from . import io as dio
from .basis import layout_multires
from .cv import PROTOCOLS, HoldoutPlan, check_methods
from .estimate import EstimatorConfig
from .grid import build_grid
from .model import DEFAULT_COVARIATES, covariate_functions
from .synth import INSTRUMENT_NAMES, InstrumentSpec, ScenarioConfig


@dataclass(frozen=True)
class GridSection:
    nx: int = 40
    ny: int = 40
    cell_size: float = 1.0
    origin_x: float = 0.0
    origin_y: float = 0.0
    mask: str = ""


@dataclass(frozen=True)
class BasisSection:
    counts: tuple[int, ...] = (9,)
    radius_mult: float = 1.5
    centers_csv: str = ""


@dataclass(frozen=True)
class DataSection:
    """Data file paths; relative ones resolve against the config file's
    directory, for reading and for writing alike."""

    observations: str = "observations.csv"
    footprints: str = "footprints.csv"
    params: str = ""


@dataclass(frozen=True)
class CVSection:
    methods: tuple[str, ...] = ("dfgp", "lowrank", "localkrige")
    lk_k: int = 100
    lk_max_fit_evals: int = 150


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    protocol: str = "smoothing"
    grid: GridSection = field(default_factory=GridSection)
    covariates: tuple[str, ...] = DEFAULT_COVARIATES
    basis: BasisSection = field(default_factory=BasisSection)
    data: DataSection = field(default_factory=DataSection)
    estimator: EstimatorConfig = field(default_factory=lambda: EstimatorConfig(max_iter=60))
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    holdout: HoldoutPlan = field(default_factory=HoldoutPlan)
    cv: CVSection = field(default_factory=CVSection)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"[run] seed must be >= 0, got {self.seed}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"[run] protocol must be one of {PROTOCOLS}")
        if self.protocol == "filtering" and self.data.params:
            raise ValueError("[data] params applies to protocol = smoothing only; "
                             "protocol = filtering reads params_u<u>.csv per horizon")
        for prefix, check, value in (("[covariates] names: ", covariate_functions,
                                      self.covariates),
                                     ("[cv] ", check_methods, self.cv.methods)):
            try:
                check(value)
            except ValueError as exc:
                raise ValueError(f"{prefix}{exc}") from None
        for key, low in (("lk_k", 2), ("lk_max_fit_evals", 1)):
            if getattr(self.cv, key) < low:
                raise ValueError(f"[cv] {key} must be >= {low}, got {getattr(self.cv, key)}")

    # ---- derived objects -------------------------------------------------
    def build_grid(self):
        g = self.grid
        mask = dio.read_mask(g.mask, g.nx * g.ny) if g.mask else None
        return build_grid(g.nx, g.ny, g.cell_size, (g.origin_x, g.origin_y), mask)

    def build_basis(self, grid):
        if self.basis.centers_csv:
            return dio.read_basis_centers(self.basis.centers_csv)
        return layout_multires(grid.bbox, list(self.basis.counts), self.basis.radius_mult)

    def estimator_config(self) -> EstimatorConfig:
        return replace(self.estimator, seed=self.seed)

    def scenario_config(self) -> ScenarioConfig:
        """The [scenario] section on this config's grid, basis, covariates and
        seed.  It is checked here, when ``dfgp simulate`` asks for it, not when
        the config loads: a fit or smooth config need not describe a scenario
        its grid admits.  An error names the section and the key."""
        g, b = self.grid, self.basis
        scenario = replace(self.scenario, seed=self.seed, **dict(zip(_SCENARIO_SHARED, (
            g.nx, g.ny, g.cell_size, b.counts, b.radius_mult, self.covariates))))
        try:
            scenario.check()
        except ValueError as exc:
            raise ValueError(f"[scenario] {exc}") from None
        return scenario

    def holdout_plan(self) -> HoldoutPlan:
        return replace(self.holdout, seed=self.seed)


def _codec(hint):
    """(parse, format) between an INI string and a field of type ``hint``;
    tuples are comma-separated, floats are written with repr."""
    if hint is bool:
        return None, lambda b: str(b).lower()     # parsed by getboolean
    if hint in (int, str):
        return hint, str
    if hint is float:
        return float, repr
    item = get_args(hint)[0]                      # tuple[item, ...]
    return (lambda s: tuple(item(x.strip()) for x in s.split(",") if x.strip() != ""),
            lambda v: ",".join(map(repr if item is float else str, v)))


# ScenarioConfig fields that other sections set, in scenario_config's order
_SCENARIO_SHARED = ("nx", "ny", "cell_size", "basis_counts", "radius_mult", "covariates")


def _options():
    """(section, key, owner, name, type) for every INI option, in file order.

    A RunConfig field holding a dataclass is the section of that name, one key
    per field (owner = the RunConfig field) bar a ``seed`` field, which is
    [run] seed, and the ScenarioConfig fields of _SCENARIO_SHARED.  Field f of
    ``ScenarioConfig.instruments[i]`` is the [scenario] key
    ``<INSTRUMENT_NAMES[i]>_<f>``, owned by ("scenario", i).  ``covariates`` is
    [covariates] names, the rest are [run].
    """
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        hint = hints[f.name]
        if is_dataclass(hint):
            sub = get_type_hints(hint)
            shared = _SCENARIO_SHARED if hint is ScenarioConfig else ()
            for g in fields(hint):
                if g.name == "instruments":
                    spec = get_type_hints(InstrumentSpec)
                    for i, prefix in enumerate(INSTRUMENT_NAMES):
                        for h in fields(InstrumentSpec):
                            yield f.name, f"{prefix}_{h.name}", (f.name, i), h.name, spec[h.name]
                elif g.name != "seed" and g.name not in shared:
                    yield f.name, g.name, f.name, g.name, sub[g.name]
        elif f.name == "covariates":
            yield "covariates", "names", None, f.name, hint
        else:
            yield "run", f.name, None, f.name, hint


def parse_config(text: str) -> RunConfig:
    """RunConfig from INI text; absent options keep the defaults of
    ``RunConfig()``.  Unknown sections or keys and invalid values raise
    ValueError here, naming the section."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from None
    known: dict[str, set[str]] = {}
    for section, key, *_ in _options():
        known.setdefault(section, set()).add(cp.optionxform(key))
    if cp.defaults():
        raise ValueError("unknown config section [DEFAULT]")
    for section in cp.sections():
        if section not in known:
            raise ValueError(f"unknown config section [{section}]")
        unknown = sorted(set(cp.options(section)) - known[section])
        if unknown:
            raise ValueError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")
    top: dict = {}
    for section, key, owner, name, hint in _options():
        if cp.has_option(section, key):
            try:
                value = (cp.getboolean(section, key) if hint is bool
                         else _codec(hint)[0](cp.get(section, key)))
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from None
            (top.setdefault(owner, {}) if owner else top)[name] = value
    default = RunConfig()
    top.setdefault("scenario", {})["instruments"] = tuple(
        replace(spec, **top.pop(("scenario", i), {}))
        for i, spec in enumerate(default.scenario.instruments))
    for name, value in top.items():
        if isinstance(value, dict):
            try:
                top[name] = replace(getattr(default, name), **value)
            except ValueError as exc:
                raise ValueError(f"[{name}] {exc}") from None
    return RunConfig(**top)


def load_config(path) -> RunConfig:
    with open(path) as f:
        return parse_config(f.read())


def serialize_config(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    for section, key, owner, name, hint in _options():
        if not cp.has_section(section):
            cp.add_section(section)
        obj = (getattr(cfg, owner[0]).instruments[owner[1]] if isinstance(owner, tuple)
               else getattr(cfg, owner) if owner else cfg)
        cp.set(section, key, _codec(hint)[1](getattr(obj, name)))
    buf = _io.StringIO()
    cp.write(buf)
    return buf.getvalue()

