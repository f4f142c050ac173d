import configparser
import csv
import dataclasses
import filecmp
import hashlib
import io
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import make_observations

from dfgp import io as dio
from dfgp.car import CARParams
from dfgp.cli import main
from dfgp.config import RunConfig, _options, load_config, parse_config
from dfgp.cv import HoldoutPlan
from dfgp.estimate import EstimatorConfig
from dfgp.grid import build_grid
from dfgp.model import DFGPParams, assemble
from dfgp.synth import InstrumentSpec, ScenarioConfig, scenario_data


@pytest.fixture(scope="module")
def scenario():
    cfg = ScenarioConfig(nx=8, ny=8, T=3, basis_counts=(4,), seed=9,
                         instruments=(InstrumentSpec(1, 0.25, drop_rate=0.1),
                                      InstrumentSpec(4, 0.04)))
    return scenario_data(cfg)


class TestObservationCSV:
    def test_round_trip(self, scenario, tmp_path):
        truth, obs, _ = scenario
        dio.write_observations(tmp_path / "o.csv", tmp_path / "f.csv", obs)
        back = dio.read_observations(tmp_path / "o.csv", tmp_path / "f.csv", truth.grid)
        assert back.n_times == obs.n_times
        for name in ("time", "instrument", "value", "var_factor"):
            assert np.array_equal(getattr(back, name), getattr(obs, name))

        def covers(o):
            return [o.fp_indices[o.fp_indptr[f]:o.fp_indptr[f + 1]].tolist()
                    for f in o.footprint]
        assert covers(back) == covers(obs)

    def test_round_trip_assembles_identical_slices(self, tmp_path):
        """CSV round trip + assemble (computing its own BAU design) gives
        scenario_data's slices bit for bit, and rewriting gives the same bytes."""
        cfg = ScenarioConfig(nx=8, ny=8, T=3, basis_counts=(4,), seed=4, instruments=(
            InstrumentSpec(1, 0.25, swath_width=2, swath_period=5, swath_shift=1,
                           drop_rate=0.2),
            InstrumentSpec(2, 0.04, drop_rate=0.1)))
        truth, obs, data = scenario_data(cfg)
        paths = [tmp_path / "o.csv", tmp_path / "f.csv"]
        dio.write_observations(*paths, obs)
        back = dio.read_observations(*paths, truth.grid)
        data2 = assemble(back, truth.grid, truth.basis, truth.structure,
                         covariates=cfg.covariates)
        assert np.array_equal(data2.X_bau, data.X_bau)
        assert np.array_equal(data2.S_bau, data.S_bau)
        assert len(data2.slices) == len(data.slices) == cfg.T
        for s1, s2 in zip(data.slices, data2.slices):
            for a, b in ((s1.z, s2.z), (s1.X, s2.X), (s1.v_factors, s2.v_factors)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in ((s1.S, s2.S), (s1.B, s2.B)):
                assert sp.issparse(b) and a.shape == b.shape
                for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
            assert s1.instrument_rows == s2.instrument_rows
        again = [tmp_path / "o2.csv", tmp_path / "f2.csv"]
        dio.write_observations(*again, back)
        for a, b in zip(paths, again):
            assert filecmp.cmp(a, b, shallow=False)

    def test_time_step_missing_one_instrument(self, tmp_path):
        # a fully swathed-out instrument at one time must survive the
        # CSV round trip and assembly
        from dfgp.basis import layout_multires
        from dfgp.car import build_adjacency
        grid = build_grid(3, 3, 1.0)
        obs = make_observations([(1, 1, [0], 1.0, 1.0), (1, 2, [4], 1.0, 1.0),
                                 (2, 2, [5], 1.0, 1.0)], 2)
        dio.write_observations(tmp_path / "o.csv", tmp_path / "f.csv", obs)
        back = dio.read_observations(tmp_path / "o.csv", tmp_path / "f.csv", grid)
        data = assemble(back, grid, layout_multires(grid.bbox, [1]),
                        build_adjacency(grid), covariates=("1",))
        assert data.slices[1].instrument_rows.keys() == {2}
        assert data.n_instruments == 2

    GRID = build_grid(8, 8, 1.0)

    @staticmethod
    def _write_rows(tmp_path, rows):
        obs, fps = tmp_path / "o.csv", tmp_path / "f.csv"
        fps.write_text("footprint_id,bau_index\n0,0\n1,1\n")
        obs.write_text("time,instrument,footprint_id,value,var_factor\n"
                       + "".join(",".join(r) + "\n" for r in rows))
        return obs, fps

    @pytest.mark.parametrize("bad_row, field", [
        (("1", "1", "1", "nan", "1.0"), "value"),
        (("1", "1", "1", "inf", "1.0"), "value"),
        (("1", "1", "1", "0.5", "0"), "var_factor"),
        (("1", "1", "1", "0.5", "nan"), "var_factor"),
        (("1", "1", "1", "", "1.0"), "value"),
        (("1", "x", "1", "0.5", "1.0"), "instrument"),
        (("0", "1", "1", "0.5", "1.0"), "time"),
        (("1", "0", "1", "0.5", "1.0"), "instrument"),
        (("99999999999999999999", "1", "1", "0.5", "1.0"), "time"),
        (("1", "9223372036854775808", "1", "0.5", "1.0"), "instrument"),
        (("1", "1", "1"), "value"),   # a short row names its first missing field
    ])
    def test_bad_number_names_file_row_field(self, tmp_path, bad_row, field):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "0", "0.1", "1.0"), bad_row])
        with pytest.raises(ValueError, match=rf"o\.csv: data row 2: {field} "):
            dio.read_observations(obs, fps, self.GRID)

    def test_bad_footprint_row_names_file_row_field(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "0", "0.1", "1.0")])
        fps.write_text("footprint_id,bau_index\n0,0\n0,x3\n")
        with pytest.raises(ValueError, match=r"f\.csv: data row 2: bau_index is not int: 'x3'"):
            dio.read_observations(obs, fps, self.GRID)

    @pytest.mark.parametrize("bau", ["99999", "-3", "9", "99999999999999999999"])
    def test_footprint_outside_grid_names_file_row(self, tmp_path, bau):
        # BAU 9 is the masked cell; the footprint is unused, and still checked
        grid = build_grid(8, 8, 1.0, mask=np.arange(64) != 9)
        obs, fps = self._write_rows(tmp_path, [("1", "1", "0", "0.1", "1.0")])
        fps.write_text(f"footprint_id,bau_index\n0,0\n1,{bau}\n")
        with pytest.raises(ValueError, match=rf"f\.csv: data row 2: bau_index {bau} is "
                                             r"outside the 8x8 grid or masked"):
            dio.read_observations(obs, fps, grid)

    @pytest.mark.parametrize("fid", ["99999999999999999999", "-9223372036854775809"])
    def test_footprint_id_beyond_int64_names_file_row(self, tmp_path, fid):
        obs, fps = self._write_rows(tmp_path, [("1", "1", fid, "0.1", "1.0")])
        fps.write_text(f"footprint_id,bau_index\n0,0\n{fid},1\n")
        with pytest.raises(ValueError, match=rf"f\.csv: data row 2: footprint_id does not "
                                             rf"fit in int64: '{fid}'"):
            dio.read_observations(obs, fps, self.GRID)

    def test_missing_column_names_file_and_field(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [])
        obs.write_text("time,instrument,footprint_id,value\n1,1,0,0.1\n")
        with pytest.raises(ValueError, match=r"o\.csv: header row lacks var_factor"):
            dio.read_observations(obs, fps, self.GRID)

    def test_blank_lines_are_not_data_rows(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "0", "0.1", "1.0")])
        obs.write_text(obs.read_text() + "\n\n1,1,1,0.2,1.0\n\n1,1,0,0.3,x\n")
        with pytest.raises(ValueError, match=r"o\.csv: data row 3: var_factor is not float: 'x'"):
            dio.read_observations(obs, fps, self.GRID)

    def test_first_bad_row_named_before_earlier_bad_field(self, tmp_path):
        # row 2 is bad in a later column than row 3
        obs, fps = self._write_rows(tmp_path, [("1", "1", "0", "0.1", "1.0"),
                                               ("1", "1", "0", "0.1", "x"),
                                               ("y", "1", "0", "0.1", "1.0")])
        with pytest.raises(ValueError, match=r"o\.csv: data row 2: var_factor is not float"):
            dio.read_observations(obs, fps, self.GRID)

    @pytest.mark.parametrize("bad_row", [1, 2, 3, 5])
    def test_chunks_keep_row_numbers(self, tmp_path, monkeypatch, bad_row):
        monkeypatch.setattr(dio, "_CHUNK_ROWS", 2)
        rows = [("1", "1", "0", f"0.{i}", "1.0") for i in range(5)]
        obs, fps = self._write_rows(tmp_path, rows)
        back = dio.read_observations(obs, fps, self.GRID)
        assert back.value.tolist() == [0.0, 0.1, 0.2, 0.3, 0.4]
        rows[bad_row - 1] = ("1", "1", "z", "0.1", "1.0")
        obs, fps = self._write_rows(tmp_path, rows)
        with pytest.raises(ValueError, match=rf"o\.csv: data row {bad_row}: footprint_id "
                                             r"is not int: 'z'"):
            dio.read_observations(obs, fps, self.GRID)

    def test_unknown_footprint_names_file_row_field(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "7", "0.1", "1.0")])
        with pytest.raises(ValueError, match=r"o\.csv: data row 1: footprint_id 7 .*f\.csv"):
            dio.read_observations(obs, fps, self.GRID)

    def test_unused_footprints_dropped(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "1", "0.1", "1.0")])
        back = dio.read_observations(obs, fps, self.GRID)
        assert back.fp_indptr.tolist() == [0, 1]
        assert back.fp_indices.tolist() == [1]
        assert back.footprint.tolist() == [0]

    def test_shared_footprints_deduplicated(self, scenario, tmp_path):
        truth, obs, _ = scenario
        dio.write_observations(tmp_path / "o.csv", tmp_path / "f.csv", obs)
        with open(tmp_path / "f.csv") as f:
            ids = {int(row["footprint_id"]) for row in csv.DictReader(f)}
        # fine cells + coarse blocks shared across times
        assert len(ids) <= 64 + 4


class TestReadTable:
    """The bulk parse accepts and rejects what Python's int() and float() do."""

    @pytest.mark.parametrize("kind, texts", [
        (int, [" 3", "+3", "1_000", "-7", "9223372036854775807", "-9223372036854775808"]),
        (float, ["nan", "inf", "-Infinity", "1e3", " 1.5", "1_0.5", "5e-324", "0.1"]),
    ], ids=["int", "float"])
    def test_accepts_what_python_accepts(self, tmp_path, kind, texts):
        (tmp_path / "t.csv").write_text("a,b\n" + "".join(f"{t},x\n" for t in texts))
        (col,) = dio._read_table(tmp_path / "t.csv", {"a": kind})
        expect = np.array([kind(t) for t in texts])
        assert col.dtype == expect.dtype and np.array_equal(col, expect, equal_nan=True)

    @pytest.mark.parametrize("kind, text", [(int, "3.0"), (int, "1e3"), (int, ""),
                                            (int, "0x10"), (float, ""), (float, "abc")])
    def test_rejects_what_python_rejects(self, tmp_path, kind, text):
        with pytest.raises(ValueError):
            kind(text)
        (tmp_path / "t.csv").write_text(f"a,b\n1,x\n{text},x\n")
        with pytest.raises(ValueError, match=rf"t\.csv: data row 2: a is not {kind.__name__}: "):
            dio._read_table(tmp_path / "t.csv", {"a": kind})


class TestParamsCSV:
    def test_round_trip_time_invariant(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2))
        p = DFGPParams(beta=rng.standard_normal((3, 2)),
                       H=0.5 * np.eye(2) + 0.01 * a,
                       U=np.eye(2) + 0.1 * a @ a.T,
                       K0=2 * np.eye(2),
                       car=tuple(CARParams(0.1 * t, 1.0 + t) for t in range(3)),
                       sigma2_eps=rng.uniform(0.1, 1.0, size=(3, 2)))
        dio.write_params(tmp_path / "p.csv", p)
        q = dio.read_params(tmp_path / "p.csv")
        assert np.array_equal(p.beta, q.beta)
        assert np.array_equal(np.asarray(p.H), np.asarray(q.H))
        assert np.array_equal(np.asarray(p.U), np.asarray(q.U))
        assert np.array_equal(p.K0, q.K0)
        assert p.car == q.car
        assert np.array_equal(p.sigma2_eps, q.sigma2_eps)

    def test_round_trip_per_time_hu(self, tmp_path):
        rng = np.random.default_rng(1)
        H = np.stack([np.eye(2) * (0.5 + 0.1 * t) for t in range(3)])
        U = np.stack([np.eye(2) * (1.0 + t) for t in range(3)])
        p = DFGPParams(beta=rng.standard_normal((3, 1)), H=H, U=U,
                       K0=np.eye(2),
                       car=tuple(CARParams(0.2, 1.0) for _ in range(3)),
                       sigma2_eps=np.full((3, 1), 0.3))
        dio.write_params(tmp_path / "p.csv", p)
        q = dio.read_params(tmp_path / "p.csv")
        assert np.array_equal(np.asarray(q.H), H)
        assert np.array_equal(np.asarray(q.U), U)

    def test_round_trip_fixed_rank(self, tmp_path):
        # the fixed-rank model has no CAR block: no gamma or tau2 rows
        p = DFGPParams(beta=np.ones((3, 2)), H=0.5 * np.eye(2), U=np.eye(2), K0=np.eye(2),
                       car=(), sigma2_eps=np.full((3, 2), 0.3))
        dio.write_params(tmp_path / "p.csv", p)
        assert not [l for l in (tmp_path / "p.csv").read_text().splitlines()
                    if l.startswith(("gamma", "tau2"))]
        q = dio.read_params(tmp_path / "p.csv")
        assert q.car == () and q.u == 3
        assert np.array_equal(q.flat(), p.flat())


    @staticmethod
    def _written(tmp_path):
        p = DFGPParams(beta=np.ones((3, 2)), H=0.5 * np.eye(2), U=np.eye(2), K0=np.eye(2),
                       car=tuple(CARParams(0.5, 1.0) for _ in range(3)),
                       sigma2_eps=np.full((3, 2), 0.3))
        dio.write_params(tmp_path / "p.csv", p)
        return (tmp_path / "p.csv").read_text().splitlines()

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: [l.replace("gamma,2,,,,0.5", "gamma,2,,,,abc") for l in ls],
         r"p\.csv: data row 27: value is not float: 'abc'"),
        (lambda ls: [l.replace("gamma,2,,,,0.5", "gamma,2,,,,inf") for l in ls],
         r"p\.csv: data row 27: value must be finite"),
        (lambda ls: [l.replace("beta,1,,,1,", "beta,1,x,,1,") for l in ls],
         r"p\.csv: data row 2: instrument is not int: 'x'"),
        # half a CAR block; a file with neither gamma nor tau2 is the fixed-rank model
        (lambda ls: [l for l in ls if not l.startswith("gamma")],
         r"p\.csv: no gamma rows, but tau2 rows"),
        (lambda ls: [l for l in ls if not l.startswith("tau2")],
         r"p\.csv: no tau2 rows, but gamma rows"),
        (lambda ls: [l for l in ls if not l.startswith("tau2,3")],
         r"p\.csv: tau2 lacks entries of its \(3,\) block"),
        (lambda ls: [l.replace("K0,,,1,0,", "K0,,,-1,0,") for l in ls],
         r"p\.csv: data row \d+: K0 needs row/col inside \(2, 2\)"),
        (lambda ls: [l.replace("gamma,2,,,,0.5", "gamma,2,,,,1.5") for l in ls],
         r"p\.csv: gamma must lie in"),
        (lambda ls: [ls[0].replace("value", "val")] + ls[1:], r"p\.csv: header row lacks value"),
        (lambda ls: [l.replace("beta,2,,,0,", "beta,99999999999999999999,,,0,") for l in ls],
         r"p\.csv: data row 3: time does not fit in int64"),
        (lambda ls: [l.replace("H,,,0,1,", "H,0,,0,1,") for l in ls],
         r"p\.csv: data row 7: H needs time/row/col inside \(3, 2, 2\)"),
    ], ids=["text", "inf", "bad-index", "no-gamma", "no-tau2", "short-tau2", "negative-row",
            "gamma-range", "header", "index-beyond-int64", "time-zero"])
    def test_bad_file_names_file_row_field(self, tmp_path, edit, message):
        lines = edit(self._written(tmp_path))
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            dio.read_params(tmp_path / "p.csv")


class TestTruthCSV:
    def test_round_trip(self, scenario, tmp_path):
        # the file loads as the benchmark reads it: (time, bau_index, y_true)
        # rows at every unmasked entry of the field, in time-major order
        truth, _, _ = scenario
        dio.write_truth(tmp_path / "t.csv", truth.y)
        back = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1, ndmin=2)
        t, b = np.nonzero(~np.isnan(truth.y))
        assert np.array_equal(back, np.column_stack([t + 1, b, truth.y[t, b]]))


BASE_CONFIG = """
[run]
seed = 3
out_dir = {out}
protocol = smoothing

[grid]
nx = 8
ny = 8
cell_size = 1.0

[basis]
counts = 4

[scenario]
T = 3
beta = 1.0,0.5,-0.2
coarse_block = 4
fine_drop_rate = 0.1
fine_swath_width = 0

[estimator]
mode = sem
max_iter = 4

[holdout]
x0 = 2.0
x1 = 5.0
y0 = 2.0
y1 = 6.0
t_first = 2
t_last = 3
fraction = 0.15

[cv]
methods = dfgp,lowrank
"""


def test_a_command_imports_every_package_module():
    """Every module the package ships is one that ``dfgp.cli`` imports."""
    import dfgp
    pkg = Path(dfgp.__file__).parent
    code = "import sys, dfgp.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    shipped = {f"dfgp.{p.stem}" for p in pkg.glob("*.py") if p.stem != "__init__"}
    assert sorted(shipped - loaded) == []


def _formatter(hint):
    """The INI text of a field of type ``hint``: tuples comma-separated,
    floats written with repr."""
    if hint is bool:
        return lambda b: str(b).lower()
    if hint in (int, str):
        return str
    if hint is float:
        return repr
    item = typing.get_args(hint)[0]               # tuple[item, ...]
    return lambda v: ",".join(map(repr if item is float else str, v))


def serialize_config(cfg: RunConfig) -> str:
    """The INI text that parse_config reads back as cfg: the config tests'
    reference inverse of the parser, built from the same options."""
    cp = configparser.ConfigParser()
    for section, key, owner, name, hint in _options():
        if not cp.has_section(section):
            cp.add_section(section)
        obj = (getattr(cfg, owner[0]).instruments[owner[1]] if isinstance(owner, tuple)
               else getattr(cfg, owner) if owner else cfg)
        cp.set(section, key, _formatter(hint)(getattr(obj, name)))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config(BASE_CONFIG.format(out="x"))
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg == cfg2

    def test_protocol_validated(self):
        with pytest.raises(ValueError):
            parse_config("[run]\nprotocol = nonsense\n")

    @pytest.mark.parametrize("text, message", [
        ("[run]\nprotocl = filtering\n", r"\[run\]: protocl"),
        ("[scenario]\nfine_drop_rat = 0.3\n", r"\[scenario\]: fine_drop_rat"),
        ("[estimater]\nmode = exact\n", r"section \[estimater\]"),
        ("[DEFAULT]\nseed = 3\n[grid]\nnx = 8\n", r"section \[DEFAULT\]"),
        ("nx = 8\n", r"malformed config: File contains no section headers"),
        ("[grid]\nnx = 8\n[grid]\nny = 8\n", r"malformed config: .*section 'grid' already"),
    ])
    def test_unknown_section_or_key_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_readme_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("A minimal config:\n\n```ini\n")[1].split("```")[0]
        assert parse_config(example).estimator.nugget_time_invariant

    def test_defaults(self):
        cfg = parse_config("[run]\nseed = 1\n")
        assert cfg.grid.nx == 40 and cfg.estimator.mode == "sem"

    def test_estimator_section_is_estimator_config(self):
        cfg = parse_config(BASE_CONFIG.format(out="x"))
        assert cfg.estimator_config() == EstimatorConfig(mode="sem", max_iter=4, seed=3)
        assert parse_config("").estimator_config() == EstimatorConfig(max_iter=60)
        section = serialize_config(cfg).split("[estimator]\n")[1].split("\n\n")[0]
        assert [line.split(" = ")[0] for line in section.splitlines()] == [
            "mode", "max_iter", "tol_loglik", "tol_param", "consecutive",
            "nugget_time_invariant", "hu_blocks", "draws", "sem_average_frac",
            "lowrank_only"]

    def test_scenario_section_is_scenario_config(self):
        """[scenario] holds the ScenarioConfig fields no other section sets,
        and fine_<f> / coarse_<f> for each InstrumentSpec field f."""
        cfg = parse_config(BASE_CONFIG.format(out="x").replace(
            "coarse_block = 4", "coarse_block = 4\nfine_sigma2_eps = 0.5\n"
            "coarse_swath_width = 2\ncoarse_swath_period = 8"))
        scenario = cfg.scenario_config()
        assert scenario == ScenarioConfig(
            nx=8, ny=8, T=3, basis_counts=(4,), seed=3, instruments=(
                InstrumentSpec(1, 0.5, swath_width=0, swath_period=20, swath_shift=7,
                               drop_rate=0.1),
                InstrumentSpec(4, 0.04, swath_width=2, swath_period=8, drop_rate=0.05)))
        assert parse_config("").scenario == ScenarioConfig()
        spec = [f.name for f in dataclasses.fields(InstrumentSpec)]
        section = serialize_config(cfg).split("[scenario]\n")[1].split("\n\n")[0]
        assert [line.split(" = ")[0] for line in section.splitlines()] == [
            "t", "beta", "h_diag", "u_scale", "k0_scale", "gamma", "tau2",
            *(f"fine_{f}" for f in spec), *(f"coarse_{f}" for f in spec)]

    def test_holdout_section_is_holdout_plan(self):
        cfg = parse_config(BASE_CONFIG.format(out="x"))
        assert cfg.holdout == HoldoutPlan(x0=2.0, x1=5.0, y0=2.0, y1=6.0, t_first=2,
                                          t_last=3, fraction=0.15)
        assert cfg.holdout_plan() == dataclasses.replace(cfg.holdout, seed=3)
        assert parse_config("").holdout == HoldoutPlan()
        section = serialize_config(cfg).split("[holdout]\n")[1].split("\n\n")[0]
        assert [line.split(" = ")[0] for line in section.splitlines()] == [
            "x0", "x1", "y0", "y1", "t_first", "t_last", "fraction", "instrument"]

    @pytest.mark.parametrize("line", ["mode = exactt", "tol_loglik = 0",
                                      "hu_blocks = 3,2", "max_iter = 0", "draws = 0",
                                      "consecutive = 0", "sem_average_frac = 0",
                                      "sem_average_frac = 1.5", "sem_average_frac = nan"])
    def test_bad_estimator_value_fails_to_parse(self, line):
        with pytest.raises(ValueError):
            parse_config(f"[estimator]\n{line}\n")

    @pytest.mark.parametrize("text, message", [
        ("[estimator]\nhu_blocks = 0,8\n", r"hu_blocks must be >= 1"),
        ("[cv]\nmethods = dfgp,krige\n", r"\[cv\] methods: unknown krige"),
        ("[holdout]\nfraction = 0\n", r"\[holdout\] fraction must lie in \(0, 1\), got 0"),
        ("[holdout]\nt_first = 5\nt_last = 2\n", r"\[holdout\] t_first 5 > t_last 2"),
        ("[holdout]\ninstrument = 0\n", r"\[holdout\] instrument must be >= 1, got 0"),
        ("[holdout]\nx0 = 5\nx1 = 2\n", r"\[holdout\] x0 5.0 > x1 2.0: inverted holdout block"),
        ("[holdout]\ny0 = 30\ny1 = 10\n", r"\[holdout\] y0 30.0 > y1 10.0: inverted"),
        ("[cv]\nlk_k = 1\n", r"\[cv\] lk_k must be >= 2, got 1"),
        ("[cv]\nlk_max_fit_evals = 0\n", r"\[cv\] lk_max_fit_evals must be >= 1, got 0"),
        ("[estimator]\nmode = exactt\n", r"\[estimator\] mode must be 'sem' or 'exact'"),
        ("[grid]\nnx = eight\n", r"\[grid\] nx: invalid literal for int"),
        ("[cv]\nmethods =\n", r"\[cv\] methods: none given; choose from dfgp"),
        ("[cv]\nmethods = lowrank,dfgp,lowrank\n", r"\[cv\] methods: lowrank named twice"),
        ("[covariates]\nnames =\n", r"\[covariates\] names: need at least one covariate"),
        ("[covariates]\nnames = 1,zz\n", r"\[covariates\] names: unknown covariate 'zz'"),
        ("[run]\nseed = -1\n", r"\[run\] seed must be >= 0, got -1"),
        ("[covariates]\nnames = 1,1,y\n", r"\[covariates\] names: '1' named twice"),
    ], ids=["hu-blocks-zero", "cv-method", "holdout-fraction", "holdout-times",
            "holdout-instrument", "holdout-x-inverted", "holdout-y-inverted", "cv-lk-k",
            "cv-lk-max-fit-evals", "estimator-mode", "grid-nx-text", "cv-methods-empty",
            "cv-methods-twice", "covariates-empty", "covariates-unknown", "run-seed-negative",
            "covariates-twice"])
    def test_bad_value_fails_in_load_config(self, tmp_path, text, message):
        (tmp_path / "run.ini").write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(tmp_path / "run.ini")


    @pytest.mark.parametrize("name, text, message", [
        ("centers.csv", "center_x,center_y,radius\n2,2,abc\n",
         r"centers\.csv: data row 1: radius is not float: 'abc'"),
        ("centers.csv", "centre_x,center_y,radius\n2,2,3\n",
         r"centers\.csv: header row lacks center_x"),
        ("centers.csv", "center_x,center_y,radius\n2,2,3\n2,6,-1\n",
         r"centers\.csv: data row 2: need finite center_x, center_y and radius > 0"),
        ("mask.txt", "1 1\n", r"mask\.txt: 2 entries for a grid of 64 cells"),
        ("mask.txt", "1 x\n", r"mask\.txt: .*'x'"),
    ], ids=["radius-text", "header", "radius-negative", "mask-size", "mask-text"])
    def test_bad_mask_or_centers_names_file(self, tmp_path, name, text, message):
        (tmp_path / name).write_text(text)
        line = (f"[basis]\ncenters_csv = {tmp_path / name}" if name == "centers.csv"
                else f"mask = {tmp_path / name}")
        cfg = parse_config(f"[grid]\nnx = 8\nny = 8\n{line}\n")
        with pytest.raises(ValueError, match=message):
            cfg.build_basis(cfg.build_grid())


class TestCLI:
    def _write_config(self, tmp_path, out):
        p = tmp_path / "run.ini"
        p.write_text(BASE_CONFIG.format(out=out))
        return p

    def test_full_pipeline(self, tmp_path):
        out = tmp_path / "out"
        cfgp = self._write_config(tmp_path, out)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        # relative [data] paths resolve against the config file's directory
        assert (tmp_path / "observations.csv").exists()
        assert (tmp_path / "footprints.csv").exists()
        assert (out / "truth.csv").exists()
        assert main(["fit", "--config", str(cfgp), "--out", str(out)]) == 0
        assert (out / "params.csv").exists()
        assert (out / "trace.csv").exists()
        report = dict(line.split(" = ") for line in
                      (out / "fit_report.txt").read_text().splitlines())
        last = (out / "trace.csv").read_text().splitlines()[-1].split(",")[1]
        assert float(report["horizon_3_neg2loglik"]) == float(last)
        # max_iter = 4 stops SEM before 5 consecutive settled steps can occur
        assert report["horizon_3_stop"] == "max_iter reached"
        assert main(["filter", "--config", str(cfgp)]) == 0
        assert main(["smooth", "--config", str(cfgp)]) == 0
        pf = (out / "predictions_filter.csv").read_text().splitlines()
        ps = (out / "predictions_smooth.csv").read_text().splitlines()
        # smoothed and filtered coincide at t = T
        last_f = [l for l in pf if l.startswith("3,")]
        last_s = [l for l in ps if l.startswith("3,")]
        assert last_f == last_s
        assert main(["cv", "--config", str(cfgp)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "holdout.csv").exists()

    def test_manifest_lists_this_commands_files(self, tmp_path):
        out = tmp_path / "out"
        cfgp = self._write_config(tmp_path, out)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        (out / "stale.csv").write_text("x\n")
        assert main(["smooth", "--config", str(cfgp)]) == 0
        header, *files = (out / "manifest_smooth.txt").read_text().splitlines()[3:]
        assert header.startswith("version = ")
        listed = [line.split() for line in files]
        assert [(role, name) for role, _h, name in listed] == [
            ("input", "../observations.csv"), ("input", "../footprints.csv"),
            ("output", "params.csv"), ("output", "trace.csv"),
            ("output", "fit_report.txt"), ("output", "predictions_smooth.csv")]
        for _role, digest, name in listed:
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
        # a second run reads the fitted parameters instead of refitting
        assert main(["smooth", "--config", str(cfgp)]) == 0
        roles = [line.split()[::2] for line in
                 (out / "manifest_smooth.txt").read_text().splitlines()[4:]]
        assert ["input", "params.csv"] in roles
        assert ["output", "params.csv"] not in roles

    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfgp = self._write_config(tmp_path, out1)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        first = (tmp_path / "observations.csv").read_bytes()
        assert main(["simulate", "--config", str(cfgp), "--out", str(out2)]) == 0
        assert (tmp_path / "observations.csv").read_bytes() == first
        assert filecmp.cmp(out1 / "truth.csv", out2 / "truth.csv", shallow=False)

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "none.ini")]) == 1

    def test_bad_arguments_exit_one(self):
        assert main(["frobnicate", "--config", "x"]) == 1

    def test_negative_seed_flag_fails_as_config_error(self, tmp_path, capsys):
        cfgp = self._write_config(tmp_path, tmp_path / "out")
        assert main(["simulate", "--config", str(cfgp), "--seed", "-1"]) == 1
        assert "error: [run] seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "observations.csv").exists()

    def test_simulate_without_time_steps_fails_naming_T(self, tmp_path, capsys):
        cfgp = self._variant(tmp_path, "run.ini", tmp_path / "out", "T = 3", "T = 0")
        assert main(["simulate", "--config", str(cfgp)]) == 1
        assert "error: [scenario] T must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "observations.csv").exists()

    def test_simulate_fit_smooth_on_a_masked_grid(self, tmp_path):
        """One masked config drives simulate, fit and smooth: the truth and
        the predictions cover the valid BAUs only."""
        mask = np.ones((8, 8), dtype=int)
        mask[2, [1, 2]] = mask[5, [4, 6]] = 0
        np.savetxt(tmp_path / "mask.txt", mask, fmt="%d")
        out = tmp_path / "out"
        cfgp = self._variant(tmp_path, "run.ini", out, "cell_size = 1.0",
                             "cell_size = 1.0\nmask = mask.txt")
        for cmd in ("simulate", "fit", "smooth"):
            assert main([cmd, "--config", str(cfgp)]) == 0, cmd
        valid = np.flatnonzero(mask.ravel()).tolist()
        for name in ("predictions_smooth.csv", "truth.csv", "latent_xi.csv"):
            rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
            assert rows[:, :2].astype(int).tolist() == [[t, b] for t in (1, 2, 3)
                                                        for b in valid], name
        listed = [line.split()[2] for line in
                  (out / "manifest_simulate.txt").read_text().splitlines()[4:]]
        assert listed[0] == "../mask.txt"

    def test_simulate_draws_on_the_configs_basis_and_origin(self, tmp_path):
        (tmp_path / "centers.csv").write_text(
            "center_x,center_y,radius\n2,1002,3\n2,1006,3\n6,1002,3\n6,1006,3\n")
        out = tmp_path / "out"
        cfgp = self._variant(tmp_path, "run.ini", out, "cell_size = 1.0",
                             "cell_size = 1.0\norigin_y = 1000")
        cfgp.write_text(cfgp.read_text().replace(
            "counts = 4", "counts = 9\ncenters_csv = centers.csv"))
        assert main(["simulate", "--config", str(cfgp)]) == 0
        eta = np.loadtxt(out / "latent_eta.csv", delimiter=",", skiprows=1)
        assert sorted(set(eta[:, 1].astype(int))) == [0, 1, 2, 3]
        # the trend 1 + 0.5 y - 0.2 y^2 at y near 1000
        y = np.loadtxt(out / "truth.csv", delimiter=",", skiprows=1)[:, 2]
        assert np.abs(y / (-0.2 * 1004.0 ** 2) - 1).max() < 0.01

    @pytest.mark.parametrize("old, new, message", [
        ("[basis]", "[covariates]\nnames = 1,y\n\n[basis]",
         "[scenario] beta must have one entry per covariate ('1', 'y'), got (1.0, 0.5, -0.2)"),
        ("fine_swath_width = 0", "fine_swath_width = 25\nfine_swath_period = 20",
         "[scenario] fine_swath_period must exceed fine_swath_width 25, got 20"),
        ("coarse_block = 4", "coarse_block = 3",
         "[scenario] coarse_block must be >= 1 and tile the 8x8 grid, got 3"),
        ("fine_drop_rate = 0.1", "fine_drop_rate = 1.5",
         "[scenario] fine_drop_rate must lie in [0, 1), got 1.5"),
        ("T = 3", "T = 3\nh_diag = nan", "[scenario] h_diag must be finite, got nan"),
        ("beta = 1.0,0.5,-0.2", "beta = 1,nan,0",
         "[scenario] beta must be finite, got (1.0, nan, 0.0)"),
        ("T = 3", "T = 3\nfine_sigma2_eps = -1",
         "[scenario] fine_sigma2_eps must be finite and > 0, got -1.0"),
        ("T = 3", "T = 3\ncoarse_sigma2_eps = 0",
         "[scenario] coarse_sigma2_eps must be finite and > 0, got 0.0"),
        ("T = 3", "T = 3\ncoarse_v_factor = 0",
         "[scenario] coarse_v_factor must be finite and > 0, got 0.0"),
        ("T = 3", "T = 3\ngamma = 1.5",
         "[scenario] gamma must lie in [0.0, 0.999999], got 1.5"),
        ("T = 3", "T = 3\ntau2 = 0", "[scenario] tau2 must be finite and > 0, got 0.0"),
        ("T = 3", "T = 3\nu_scale = -1",
         "[scenario] u_scale must be finite and > 0, got -1.0"),
        ("T = 3", "T = 3\nk0_scale = 0",
         "[scenario] k0_scale must be finite and > 0, got 0.0"),
    ], ids=["beta-vs-covariates", "swath", "coarse-block", "drop-rate", "h-diag-nan",
            "beta-nan", "fine-sigma2-negative", "coarse-sigma2-zero", "coarse-v-zero",
            "gamma", "tau2", "u-scale", "k0-scale"])
    def test_simulate_names_scenario_keys(self, tmp_path, capsys, old, new, message):
        cfgp = self._variant(tmp_path, "run.ini", tmp_path / "out", old, new)
        load_config(cfgp)   # the scenario is checked by simulate, not at load
        assert main(["simulate", "--config", str(cfgp)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "observations.csv").exists()

    def test_filtering_protocol_per_horizon_params(self, tmp_path):
        out = tmp_path / "out"
        cfgp = self._write_config(tmp_path, out)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        cfg2 = tmp_path / "run2.ini"
        cfg2.write_text((BASE_CONFIG.format(out=out)).replace(
            "protocol = smoothing", "protocol = filtering"))
        assert main(["fit", "--config", str(cfg2)]) == 0
        assert (out / "params_u2.csv").exists()
        assert (out / "params_u3.csv").exists()
        assert main(["filter", "--config", str(cfg2)]) == 0
        lines = (out / "predictions_filter.csv").read_text().splitlines()
        times = {l.split(",")[0] for l in lines[1:]}
        assert times == {"2", "3"}

    def test_filtering_commands_order_the_data_once(self, tmp_path, monkeypatch):
        # every horizon's fit and filter pass factors in the data set's one order
        from dfgp import model
        out = tmp_path / "out"
        cfgp = self._variant(tmp_path, "run.ini", out, "protocol = smoothing",
                             "protocol = filtering")
        assert main(["simulate", "--config", str(cfgp)]) == 0
        real = model.nested_dissection
        for command in ("fit", "filter", "cv"):
            calls = []
            monkeypatch.setattr(model, "nested_dissection",
                                lambda *args: calls.append(1) or real(*args))
            assert main([command, "--config", str(cfgp)]) == 0
            assert calls == [1], command

    def test_filtering_fit_with_no_record_before_day_3(self, tmp_path):
        # the u = 2 fit sees no record at all, so SEM draws on empty steps only
        out = tmp_path / "out"
        cfgp = self._variant(tmp_path, "run.ini", out, "protocol = smoothing",
                             "protocol = filtering")
        assert main(["simulate", "--config", str(cfgp)]) == 0
        obs = tmp_path / "observations.csv"
        head, *rows = obs.read_text().splitlines()
        obs.write_text("\n".join([head] + [r for r in rows if r.split(",")[0] == "3"]) + "\n")
        assert main(["fit", "--config", str(cfgp)]) == 0
        assert (out / "params_u2.csv").exists() and (out / "params_u3.csv").exists()

    def test_smooth_under_filtering_refuses_before_reading_data(self, tmp_path, capsys):
        # no data file exists: the protocol mismatch is reported, not the missing file
        cfgp = self._variant(tmp_path, "run.ini", tmp_path / "out", "protocol = smoothing",
                             "protocol = filtering")
        assert main(["smooth", "--config", str(cfgp)]) == 1
        assert capsys.readouterr().err == "error: smooth requires protocol = smoothing\n"

    def test_cv_empty_holdout_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        from dfgp import cv
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self._write_config(tmp_path, out))]) == 0
        cfgp = self._variant(tmp_path, "cv.ini", out, "fraction = 0.15",
                             "fraction = 0.15\ninstrument = 7")
        monkeypatch.setattr(cv, "run_estimator", lambda *a, **k: pytest.fail("fitted"))
        capsys.readouterr()
        assert main(["cv", "--config", str(cfgp)]) == 1
        assert "selects no record of instrument 7 at times 2..3" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_cv_holdout_at_unscored_times_fails_before_any_fit(self, tmp_path, capsys,
                                                               monkeypatch):
        from dfgp import cv
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self._write_config(tmp_path, out))]) == 0
        cfgp = self._variant(tmp_path, "cv.ini", out, "t_first = 2", "t_first = 3")
        monkeypatch.setattr(cv, "run_estimator", lambda *a, **k: pytest.fail("fitted"))
        capsys.readouterr()
        assert main(["cv", "--config", str(cfgp)]) == 1
        assert ("selects records at times 3 only, but protocol = smoothing scores times 1..2"
                in capsys.readouterr().err)
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("protocol, scored", [("smoothing", (1, 2)), ("filtering", (2, 3))])
    def test_cv_holdout_csv_is_the_split(self, tmp_path, protocol, scored):
        from dfgp.cv import holdout_bau, split_holdout
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self._write_config(tmp_path, out))]) == 0
        cfgp = self._variant(tmp_path, "cv.ini", out, "methods = dfgp,lowrank",
                             "methods = dfgp,lowrank,localkrige\nlk_k = 10\n"
                             "lk_max_fit_evals = 5")
        cfgp.write_text(cfgp.read_text().replace("protocol = smoothing",
                                                 f"protocol = {protocol}"))
        assert main(["cv", "--config", str(cfgp)]) == 0
        cfg = load_config(cfgp)
        grid = cfg.build_grid()
        obs = dio.read_observations(tmp_path / "observations.csv",
                                    tmp_path / "footprints.csv", grid)
        _, held, block = split_holdout(obs, grid, cfg.holdout_plan(), protocol)
        with open(out / "holdout.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == held.n_obs
        for row, t, b, z, blk in zip(rows, held.time, holdout_bau(held), held.value, block):
            assert (int(row["time"]), int(row["bau_index"]), float(row["value"]),
                    row["subset"]) == (t, b, z, "block" if blk else "random")
        # every held-out record is scored: none at t = T under smoothing,
        # none at t = 1 under filtering
        assert {int(row["time"]) for row in rows} <= set(scored)
        with open(out / "metrics.csv", newline="") as f:
            overall = {r["method"]: int(r["n_holdout"])
                       for r in csv.DictReader(f) if r["time"] == "all"}
        assert overall == dict.fromkeys(("dfgp", "lowrank", "localkrige"), len(rows))

    def test_cv_assembles_once(self, tmp_path, monkeypatch):
        from dfgp import cli, cv
        cfgp = self._write_config(tmp_path, tmp_path / "out")
        assert main(["simulate", "--config", str(cfgp)]) == 0
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)
        monkeypatch.setattr(cli, "assemble", counted)
        monkeypatch.setattr(cv, "assemble", counted)
        assert main(["cv", "--config", str(cfgp)]) == 0
        assert len(calls) == 1

    def test_mask_and_centers_resolve_against_config_dir(self, tmp_path, monkeypatch):
        cfg_dir, out = tmp_path / "cfg", tmp_path / "out"
        cfg_dir.mkdir()
        (cfg_dir / "mask.txt").write_text("1 1 1 1 1 1 1 1\n" * 8)
        (cfg_dir / "centers.csv").write_text(
            "center_x,center_y,radius\n2,2,3\n2,6,3\n6,2,3\n6,6,3\n")
        cfgp = cfg_dir / "run.ini"
        cfgp.write_text(BASE_CONFIG.format(out=out).replace(
            "cell_size = 1.0", "cell_size = 1.0\nmask = mask.txt").replace(
            "counts = 4", "counts = 4\ncenters_csv = centers.csv"))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        assert main(["smooth", "--config", str(cfgp)]) == 0
        inputs = [line.split()[2] for line in
                  (out / "manifest_smooth.txt").read_text().splitlines()[4:]
                  if line.startswith("input ")]
        assert inputs[:2] == ["../cfg/mask.txt", "../cfg/centers.csv"]

    @staticmethod
    def _variant(tmp_path, name, out, old, new):
        p = tmp_path / name
        p.write_text(BASE_CONFIG.format(out=out).replace(old, new))
        return p

    def test_lowrank_flag(self, tmp_path):
        out = tmp_path / "out"
        cfgp = self._variant(tmp_path, "run.ini", out, "max_iter = 4",
                             "max_iter = 4\nlowrank_only = true")
        assert main(["simulate", "--config", str(cfgp)]) == 0
        assert main(["filter", "--config", str(cfgp)]) == 0

    def test_fixed_rank_fit_keeps_its_own_files(self, tmp_path):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        dfgp = self._write_config(tmp_path, shared)
        lowrank = self._variant(tmp_path, "lowrank.ini", shared, "max_iter = 4",
                                "max_iter = 4\nlowrank_only = true")
        assert main(["simulate", "--config", str(dfgp)]) == 0
        for cfgp in (dfgp, lowrank):
            assert main(["filter", "--config", str(cfgp), "--out", str(fresh / cfgp.stem)]) == 0
        # each model's filter ignores the other model's fit in the same directory
        assert main(["fit", "--config", str(dfgp)]) == 0
        assert main(["filter", "--config", str(lowrank)]) == 0
        assert (shared / "params_lowrank.csv").exists()
        assert (shared / "fit_report_lowrank.txt").exists()
        assert filecmp.cmp(shared / "predictions_filter.csv",
                           fresh / "lowrank" / "predictions_filter.csv", shallow=False)
        (shared / "params.csv").unlink()
        assert main(["filter", "--config", str(dfgp)]) == 0
        assert filecmp.cmp(shared / "predictions_filter.csv",
                           fresh / "run" / "predictions_filter.csv", shallow=False)

    @pytest.mark.parametrize("fitted, reader", [("dfgp", "lowrank"), ("lowrank", "dfgp")])
    def test_params_of_the_other_model_refused(self, tmp_path, capsys, fitted, reader):
        out = tmp_path / "out"
        flag = {"dfgp": "false", "lowrank": "true"}
        ini = {m: self._variant(tmp_path, f"{m}.ini", out, "max_iter = 4",
                                f"max_iter = 4\nlowrank_only = {flag[m]}") for m in flag}
        assert main(["simulate", "--config", str(ini[fitted])]) == 0
        assert main(["fit", "--config", str(ini[fitted])]) == 0
        saved = out / ("params_lowrank.csv" if fitted == "lowrank" else "params.csv")
        cfgp = tmp_path / "read.ini"
        cfgp.write_text(ini[reader].read_text() + f"\n[data]\nparams = {saved}\n")
        capsys.readouterr()
        assert main(["smooth", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert f"{saved}: holds the " in err
        assert f"but [estimator] lowrank_only = {flag[reader]}" in err
        assert not (out / "predictions_smooth.csv").exists()

    @pytest.mark.parametrize("protocol, command", [("smoothing", "smooth"),
                                                   ("filtering", "filter")])
    def test_params_key_fails_at_boundary(self, tmp_path, protocol, command):
        # a missing [data] params file, or one under the filtering protocol,
        # which reads per-horizon files, fails instead of refitting
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self._write_config(tmp_path, out))]) == 0
        bad = self._variant(tmp_path, "bad.ini", out, "protocol = smoothing",
                            f"protocol = {protocol}\n\n[data]\nparams = typo.csv")
        assert main([command, "--config", str(bad)]) == 1
        assert not list(out.glob("params*.csv"))

    @staticmethod
    def _params(u=3, r=4, p=3, k=2):
        return DFGPParams(beta=np.zeros((u, p)), H=0.5 * np.eye(r), U=np.eye(r), K0=np.eye(r),
                          car=tuple(CARParams(0.5, 1.0) for _ in range(u)),
                          sigma2_eps=np.full((u, k), 0.1))

    @pytest.mark.parametrize("kw, message", [
        (dict(u=2), "horizon 2 where the data need 3"), (dict(r=9), "r 9 where the data need 4"),
        (dict(p=2), "p 2 where the data need 3"),
        (dict(k=1), "instrument count 1 where the data need 2"),
    ], ids=["horizon", "r", "p", "instruments"])
    def test_saved_params_checked_against_data(self, tmp_path, capsys, kw, message):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self._write_config(tmp_path, out))]) == 0
        dio.write_params(tmp_path / "saved.csv", self._params(**kw))
        cfgp = self._variant(tmp_path, "saved.ini", out, "protocol = smoothing",
                             "protocol = smoothing\n\n[data]\nparams = saved.csv")
        capsys.readouterr()
        assert main(["smooth", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert "saved.csv: parameters do not fit the data" in err and message in err
        # a longer horizon serves its first T steps
        dio.write_params(tmp_path / "saved.csv", self._params(u=4))
        assert main(["smooth", "--config", str(cfgp)]) == 0

    def test_unreadable_saved_params_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self._write_config(tmp_path, out))]) == 0
        dio.write_params(out / "params_u2.csv", self._params(u=2))
        dio.write_params(out / "params_u3.csv", self._params(u=3))
        text = (out / "params_u3.csv").read_text()
        (out / "params_u3.csv").write_text(text.replace("gamma,3,,,,0.5", "gamma,3,,,,abc"))
        cfgp = self._variant(tmp_path, "f.ini", out, "protocol = smoothing",
                             "protocol = filtering")
        capsys.readouterr()
        assert main(["filter", "--config", str(cfgp)]) == 1
        assert "params_u3.csv: data row" in capsys.readouterr().err

    def test_bad_estimator_value_fails_with_saved_params(self, tmp_path):
        out = tmp_path / "out"
        cfgp = self._write_config(tmp_path, out)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        assert main(["fit", "--config", str(cfgp)]) == 0
        bad = self._variant(tmp_path, "bad.ini", out, "mode = sem", "mode = exactt")
        assert main(["smooth", "--config", str(bad)]) == 1
