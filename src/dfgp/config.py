"""Run configuration: one INI-style file drives every CLI command.

Parsing and serialization round-trip exactly and are both derived from the
dataclass fields below, ``EstimatorConfig``'s and ``HoldoutPlan``'s, their
types and defaults; all scientific choices live in the file, the fixed-rank
switch ([estimator] lowrank_only) included, so runs are reproducible from
(config, seed) alone.
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
from .synth import InstrumentSpec, ScenarioConfig


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
class ScenarioSection:
    T: int = 8
    beta: tuple[float, ...] = (1.0, 0.5, -0.2)
    h_diag: float = 0.8
    u_scale: float = 0.25
    k0_scale: float = 1.0
    gamma: float = 0.75
    tau2: float = 1.0
    fine_sigma2: float = 0.25
    fine_v: float = 1.0
    fine_swath_width: int = 8
    fine_swath_period: int = 20
    fine_swath_shift: int = 7
    fine_drop_rate: float = 0.1
    coarse_block: int = 4
    coarse_sigma2: float = 0.04
    coarse_v: float = 1.0
    coarse_drop_rate: float = 0.05


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
    scenario: ScenarioSection = field(default_factory=ScenarioSection)
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
        """The [scenario] section as a ScenarioConfig.  It is checked here,
        when ``dfgp simulate`` asks for it, not when the config loads: a fit
        or smooth config need not describe a scenario its grid admits.  The
        errors are synth's, which name the fields at fault, under the
        section and instrument."""
        s, g = self.scenario, self.grid
        fine = _instrument("fine", block=1, sigma2_eps=s.fine_sigma2, v_factor=s.fine_v,
                           swath_width=s.fine_swath_width,
                           swath_period=s.fine_swath_period,
                           swath_shift=s.fine_swath_shift, drop_rate=s.fine_drop_rate)
        coarse = _instrument("coarse", block=s.coarse_block, sigma2_eps=s.coarse_sigma2,
                             v_factor=s.coarse_v, drop_rate=s.coarse_drop_rate)
        try:
            return ScenarioConfig(nx=g.nx, ny=g.ny, cell_size=g.cell_size, T=s.T,
                                  basis_counts=self.basis.counts,
                                  radius_mult=self.basis.radius_mult,
                                  covariates=self.covariates, beta=s.beta,
                                  h_diag=s.h_diag, u_scale=s.u_scale, k0_scale=s.k0_scale,
                                  gamma=s.gamma, tau2=s.tau2,
                                  instruments=(fine, coarse), seed=self.seed)
        except ValueError as exc:
            raise ValueError(f"[scenario] {exc}") from None

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


def _options():
    """(section, key, owner, name, type) for every INI option, in file order.

    A RunConfig field holding a dataclass is the section of that name, one key
    per field (owner = the RunConfig field) bar a ``seed`` field, which is
    [run] seed; ``covariates`` is [covariates] names, the rest are [run].
    """
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        hint = hints[f.name]
        if is_dataclass(hint):
            sub = get_type_hints(hint)
            for g in fields(hint):
                if g.name != "seed":
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
        value = getattr(getattr(cfg, owner) if owner else cfg, name)
        cp.set(section, key, _codec(hint)[1](value))
    buf = _io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _instrument(which: str, **fields) -> InstrumentSpec:
    """The [scenario] section's fine or coarse instrument; an error names it."""
    try:
        return InstrumentSpec(**fields)
    except ValueError as exc:
        raise ValueError(f"[scenario] {which} instrument: {exc}") from None
