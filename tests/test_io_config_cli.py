import csv
import filecmp
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import make_observations

from dfgp import io as dio
from dfgp.car import CARParams
from dfgp.cli import main
from dfgp.config import parse_config, serialize_config
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
        back = dio.read_observations(tmp_path / "o.csv", tmp_path / "f.csv")
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
        back = dio.read_observations(*paths)
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
        from dfgp.grid import build_grid
        grid = build_grid(3, 3, 1.0)
        obs = make_observations([(1, 1, [0], 1.0, 1.0), (1, 2, [4], 1.0, 1.0),
                                 (2, 2, [5], 1.0, 1.0)], 2)
        dio.write_observations(tmp_path / "o.csv", tmp_path / "f.csv", obs)
        back = dio.read_observations(tmp_path / "o.csv", tmp_path / "f.csv")
        data = assemble(back, grid, layout_multires(grid.bbox, [1]),
                        build_adjacency(grid), covariates=("1",))
        assert data.slices[1].instrument_rows.keys() == {2}
        assert data.n_instruments == 2

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
    ])
    def test_bad_number_names_file_row_field(self, tmp_path, bad_row, field):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "0", "0.1", "1.0"), bad_row])
        with pytest.raises(ValueError, match=rf"o\.csv: data row 2: {field} "):
            dio.read_observations(obs, fps)

    def test_bad_footprint_row_names_file_row_field(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "0", "0.1", "1.0")])
        fps.write_text("footprint_id,bau_index\n0,0\n0,x3\n")
        with pytest.raises(ValueError, match=r"f\.csv: data row 2: bau_index is not int: 'x3'"):
            dio.read_observations(obs, fps)

    def test_missing_column_names_file_and_field(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [])
        obs.write_text("time,instrument,footprint_id,value\n1,1,0,0.1\n")
        with pytest.raises(ValueError, match=r"o\.csv: header row lacks var_factor"):
            dio.read_observations(obs, fps)

    def test_unknown_footprint_names_file_row_field(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "7", "0.1", "1.0")])
        with pytest.raises(ValueError, match=r"o\.csv: data row 1: footprint_id 7 .*f\.csv"):
            dio.read_observations(obs, fps)

    def test_unused_footprints_dropped(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "1", "0.1", "1.0")])
        back = dio.read_observations(obs, fps)
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


class TestStateCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        eta = rng.standard_normal((4, 3))
        P = np.stack([np.eye(3) * (t + 1) for t in range(4)])
        dio.save_state_checkpoint(tmp_path / "s.bin", eta, P)
        e2, p2 = dio.load_state_checkpoint(tmp_path / "s.bin")
        assert np.array_equal(e2, eta)
        assert np.array_equal(p2, P)

    def test_magic_check(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(ValueError):
            dio.load_state_checkpoint(tmp_path / "bad.bin")


class TestTruthCSV:
    def test_round_trip(self, scenario, tmp_path):
        truth, _, _ = scenario
        dio.write_truth(tmp_path / "t.csv", truth.y)
        back = dio.read_truth(tmp_path / "t.csv")
        assert np.array_equal(back, truth.y)


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


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config(BASE_CONFIG.format(out="x"))
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg == cfg2

    def test_protocol_validated(self):
        with pytest.raises(ValueError):
            parse_config("[run]\nprotocol = nonsense\n")

    def test_defaults(self):
        cfg = parse_config("[run]\nseed = 1\n")
        assert cfg.grid.nx == 40 and cfg.estimator_mode == "sem"


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
            ("output", "fit_report.txt"), ("output", "predictions_smooth.csv"),
            ("output", "state_smooth.bin")]
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

    def test_lowrank_flag(self, tmp_path):
        out = tmp_path / "out"
        cfgp = self._write_config(tmp_path, out)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        assert main(["filter", "--config", str(cfgp), "--lowrank-only"]) == 0
