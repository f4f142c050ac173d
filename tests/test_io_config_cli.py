import csv
import filecmp

import numpy as np
import pytest

from dfgp import io as dio
from dfgp.car import CARParams
from dfgp.cli import main
from dfgp.config import parse_config, serialize_config
from dfgp.model import DFGPParams
from dfgp.synth import InstrumentSpec, ScenarioConfig, scenario_data


@pytest.fixture(scope="module")
def scenario():
    cfg = ScenarioConfig(nx=8, ny=8, T=3, basis_counts=(4,), seed=9,
                         instruments=(InstrumentSpec(1, 0.25, drop_rate=0.1),
                                      InstrumentSpec(4, 0.04)))
    return scenario_data(cfg)


class TestObservationCSV:
    def test_round_trip(self, scenario, tmp_path):
        truth, batches, _ = scenario
        dio.write_observations(tmp_path / "o.csv", tmp_path / "f.csv", batches)
        back = dio.read_observations(tmp_path / "o.csv", tmp_path / "f.csv")
        assert len(back) == len(batches)
        for b0, b1 in zip(batches, back):
            assert b0.time_index == b1.time_index
            for k in b0.instruments:
                r0, r1 = b0.per_instrument[k], b1.per_instrument[k]
                assert len(r0) == len(r1)
                for (fp0, z0, v0), (fp1, z1, v1) in zip(r0, r1):
                    assert np.array_equal(fp0.bau_indices, fp1.bau_indices)
                    assert z0 == z1 and v0 == v1

    def test_time_step_missing_one_instrument(self, tmp_path):
        # a fully swathed-out instrument at one time must survive the
        # CSV round trip and assembly
        from dfgp.basis import layout_multires
        from dfgp.car import build_adjacency
        from dfgp.grid import Footprint, ObservationBatch, build_grid
        from dfgp.model import assemble
        grid = build_grid(3, 3, 1.0)
        rec = lambda i, k, t: (Footprint(np.array([i]), k, t), 1.0, 1.0)  # noqa: E731
        batches = [
            ObservationBatch(1, {1: [rec(0, 1, 1)], 2: [rec(4, 2, 1)]}),
            ObservationBatch(2, {2: [rec(5, 2, 2)]}),
        ]
        dio.write_observations(tmp_path / "o.csv", tmp_path / "f.csv", batches)
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
    ])
    def test_bad_number_names_file_row_field(self, tmp_path, bad_row, field):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "0", "0.1", "1.0"), bad_row])
        with pytest.raises(ValueError, match=rf"o\.csv: data row 2: {field} "):
            dio.read_observations(obs, fps)

    def test_unknown_footprint_names_file_row_field(self, tmp_path):
        obs, fps = self._write_rows(tmp_path, [("1", "1", "7", "0.1", "1.0")])
        with pytest.raises(ValueError, match=r"o\.csv: data row 1: footprint_id 7 .*f\.csv"):
            dio.read_observations(obs, fps)

    def test_shared_footprints_deduplicated(self, scenario, tmp_path):
        truth, batches, _ = scenario
        dio.write_observations(tmp_path / "o.csv", tmp_path / "f.csv", batches)
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
        assert (out / "observations.csv").exists()
        assert (out / "truth.csv").exists()
        # fit/filter/smooth read the CSVs from the config directory; point the
        # data paths at the simulate outputs by running from there
        assert main(["fit", "--config", str(cfgp), "--out", str(out)]) == 1
        # (data files live in out/, not next to the config: expected usage error)
        cfg2 = tmp_path / "run2.ini"
        cfg2.write_text((BASE_CONFIG.format(out=out)).replace(
            "[data]", "").replace(
            "[grid]", f"[data]\nobservations = {out}/observations.csv\n"
                      f"footprints = {out}/footprints.csv\n\n[grid]"))
        assert main(["fit", "--config", str(cfg2)]) == 0
        assert (out / "params.csv").exists()
        assert (out / "trace.csv").exists()
        assert main(["filter", "--config", str(cfg2)]) == 0
        assert main(["smooth", "--config", str(cfg2)]) == 0
        pf = (out / "predictions_filter.csv").read_text().splitlines()
        ps = (out / "predictions_smooth.csv").read_text().splitlines()
        # smoothed and filtered coincide at t = T
        last_f = [l for l in pf if l.startswith("3,")]
        last_s = [l for l in ps if l.startswith("3,")]
        assert last_f == last_s
        assert main(["cv", "--config", str(cfg2)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "holdout.csv").exists()

    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfgp = self._write_config(tmp_path, out1)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        assert main(["simulate", "--config", str(cfgp), "--out", str(out2)]) == 0
        assert filecmp.cmp(out1 / "observations.csv", out2 / "observations.csv",
                           shallow=False)
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
            "protocol = smoothing", "protocol = filtering").replace(
            "[grid]", f"[data]\nobservations = {out}/observations.csv\n"
                      f"footprints = {out}/footprints.csv\n\n[grid]"))
        assert main(["fit", "--config", str(cfg2)]) == 0
        assert (out / "params_u2.csv").exists()
        assert (out / "params_u3.csv").exists()
        assert main(["filter", "--config", str(cfg2)]) == 0
        lines = (out / "predictions_filter.csv").read_text().splitlines()
        times = {l.split(",")[0] for l in lines[1:]}
        assert times == {"2", "3"}

    def test_lowrank_flag(self, tmp_path):
        out = tmp_path / "out"
        cfgp = self._write_config(tmp_path, out)
        assert main(["simulate", "--config", str(cfgp)]) == 0
        cfg2 = tmp_path / "run2.ini"
        cfg2.write_text((BASE_CONFIG.format(out=out)).replace(
            "[grid]", f"[data]\nobservations = {out}/observations.csv\n"
                      f"footprints = {out}/footprints.csv\n\n[grid]"))
        assert main(["filter", "--config", str(cfg2), "--lowrank-only"]) == 0
