"""Config parsing, scenarios, CLI verbs, output formats, exit codes."""

import json
import math

import pytest

from degenwave import config as cfgmod
from degenwave.cli import (
    EXIT_AUDIT,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    converge_table,
    main,
    sweep_rows,
)
from degenwave.errors import ConfigError


class TestConfigFormat:
    def test_parse_basic(self):
        cfg = cfgmod.parse_config_text(
            "# comment\ngains.mu1 = 3.5\nmesh.n = 32  # trailing\n"
        )
        assert cfg.gains_mu1 == 3.5
        assert cfg.mesh_n == 32

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1"):
            cfgmod.parse_config_text("gains.bogus = 1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 2"):
            cfgmod.parse_config_text("gains.mu1 = 1\ngains.mu2 = abc\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_config_text("gains.mu1 2.0\n")

    def test_roundtrip(self):
        cfg = cfgmod.load_config("baseline")
        again = cfgmod.parse_config_text(cfgmod.to_text(cfg))
        assert again == cfg

    def test_overrides(self):
        cfg = cfgmod.load_config("baseline")
        out = cfgmod.apply_overrides(cfg, ["gains.mu2=0", "mesh.n=128"])
        assert out.gains_mu2 == 0.0
        assert out.mesh_n == 128
        with pytest.raises(ConfigError):
            cfgmod.apply_overrides(cfg, ["nope=1"])

    def test_hash_tracks_values(self):
        cfg = cfgmod.load_config("baseline")
        h1 = cfgmod.config_hash(cfg)
        h2 = cfgmod.config_hash(cfgmod.set_value(cfg, "gains.mu2", 0.3))
        assert h1 != h2
        assert h1 == cfgmod.config_hash(cfgmod.load_config("baseline"))

    def test_all_scenarios_load_and_build(self):
        for name in cfgmod.SCENARIO_NAMES:
            cfg = cfgmod.load_config(name)
            setup = cfgmod.build_setup(cfg)
            assert setup.dt > 0.0

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            cfgmod.load_config("no-such-scenario")

    def test_factor_coefficient_through_config(self, tmp_path):
        cfg = cfgmod.parse_config_text(
            "coefficient.kind = power_times_factor\n"
            "coefficient.alpha = 0.3\n"
            "coefficient.factor = one_plus_x\n"
            "mesh.n = 32\nchannel.n_delta = 16\nintegrator.t_final = 0.25\n"
            "initial.preset = velocity-kick\n"
        )
        setup = cfgmod.build_setup(cfg)
        assert abs(setup.spec.mu_a - 0.8) < 1e-9
        traj = cfgmod.run_from_setup(setup)
        assert traj.t[-1] == pytest.approx(0.25)

    def test_tabulated_coefficient_through_config(self, tmp_path):
        xs = " ".join(str(x / 20) for x in range(21))
        vals = " ".join(str(x / 20) for x in range(21))
        text = (
            f"coefficient.kind = tabulated\ncoefficient.xs = {xs}\n"
            f"coefficient.values = {vals}\n"
            "mesh.n = 32\nchannel.n_delta = 16\nintegrator.t_final = 0.25\n"
            "initial.preset = velocity-kick\n"
        )
        path = tmp_path / "tab.cfg"
        path.write_text(text)
        cfg = cfgmod.load_config(str(path))
        # a tabulated ramp interpolates to index ~1: natural left boundary
        setup = cfgmod.build_setup(cfg)
        assert setup.ops.bc_kind == "natural_left"
        traj = cfgmod.run_from_setup(setup)
        assert traj.E[0] > 0.0
        # and the config text round-trips with the table intact
        again = cfgmod.parse_config_text(cfgmod.to_text(cfg))
        assert again == cfg


def run_cli(args):
    return main(args)


@pytest.fixture()
def fast_args():
    # channel kept at 64 cells: the per-sample energy wiggle scales with the
    # channel resolution, and the report's monotonicity gate is calibrated
    # at the production resolution
    return ["--set", "mesh.n=32", "--set", "channel.n_delta=64",
            "--set", "integrator.t_final=0.5",
            "--set", "integrator.record_every=5"]


class TestSimulateCli:
    def test_csv_and_report(self, tmp_path, fast_args):
        out = tmp_path / "run"
        rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                      "--out", str(out)])
        assert rc == EXIT_OK
        csv = (out.with_suffix(".csv")).read_text().splitlines()
        assert csv[0] == ("t,E,E_tilde,trace_v,trace_v_delayed,"
                          "bc_residual,channel_discrepancy")
        assert len(csv) > 10
        report = json.loads(out.with_suffix(".json").read_text())
        assert report["constants"]["strictly_damped"] is True
        assert report["audits"]["monotonicity_pass"] is True
        assert "config_hash" in report

    def test_override_sets_mu2_zero_margin(self, tmp_path, fast_args):
        out = tmp_path / "run"
        rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                      "--set", "gains.mu2=0", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.with_suffix(".json").read_text())
        # with mu2 = 0 the damping margin is mu1 (1 - d)/2
        assert report["constants"]["damping_const"] == pytest.approx(
            2.0 * (1 - 0.2) / 2.0, abs=1e-12
        )

    def test_hypothesis_violation_exit2(self, tmp_path):
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", "coefficient.alpha=2.0",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS

    @pytest.mark.parametrize("key", ["coefficient.kind", "delay.kind"])
    def test_unknown_kind_exit2(self, key, tmp_path, capsys):
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", f"{key}=bogus", "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "'bogus'" in err

    def test_non_finite_state_exit2(self, tmp_path, fast_args, capsys):
        rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                      "--set", "initial.f0=constant",
                      "--set", "initial.f0_amplitude=nan",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("error: state is not finite at t = 0.0")
        assert "Traceback" not in err

    def test_unwritable_output_exit1(self, tmp_path, fast_args, capsys):
        out = tmp_path / "run"
        out.with_suffix(".csv").mkdir()  # the CSV target is a directory
        rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                      "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("io failure: ")

    def test_margin_violation_runs_then_strict_fails(self, tmp_path, fast_args):
        out = tmp_path / "mv"
        rc = run_cli(["simulate", "--config", "margin-violation", *fast_args,
                      "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.with_suffix(".json").read_text())
        assert report["constants"]["wellposed"] is False
        assert report["decay"] is None
        rc = run_cli(["simulate", "--config", "margin-violation", *fast_args,
                      "--strict", "--out", str(out)])
        assert rc == EXIT_AUDIT

    def test_snapshots_recompute_energy(self, tmp_path, fast_args):
        out = tmp_path / "snap"
        rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                      "--snapshots", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.with_suffix(".json").read_text())
        assert report["audits"]["snapshot_energy_max_rel_err"] <= 1e-12
        assert (out.with_suffix(".snapshots.npz")).exists()

    def test_determinism_bytes(self, tmp_path, fast_args):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["simulate", "--config", "baseline", *fast_args,
                            "--out", str(out)]) == EXIT_OK
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()

    def test_config_supplied_output_path(self, tmp_path, fast_args, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "runs" / "case.csv"
        rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                      "--set", f"outputs.csv={target}"])
        assert rc == EXIT_OK
        assert target.exists()
        assert target.with_suffix(".json").exists()


class TestSweep:
    def small_cfg(self):
        cfg = cfgmod.load_config("baseline")
        for k, v in [("mesh.n", 32), ("channel.n_delta", 16),
                     ("integrator.t_final", 0.5),
                     ("integrator.record_every", 5)]:
            cfg = cfgmod.set_value(cfg, k, v)
        return cfg

    def test_no_axes_single_row(self):
        rows = sweep_rows(self.small_cfg(), [])
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"

    def test_grid_cardinality(self):
        rows = sweep_rows(self.small_cfg(),
                          [("gains.mu2", ["0", "0.1"]),
                           ("gains.beta", ["0.5", "1", "2"])])
        assert len(rows) == 6

    def test_margin_crossing(self):
        # mu1 = 1, no delay growth: the damping margin crosses zero at
        # mu2 = 1/2 (first branch mu1/2 - mu2 is binding)
        cfg = self.small_cfg()
        cfg = cfgmod.set_value(cfg, "gains.mu1", 1.0)
        cfg = cfgmod.set_value(cfg, "delay.kind", "constant")
        cfg = cfgmod.set_value(cfg, "delay.tau", 0.8)
        vals = ["0", "0.2", "0.4", "0.5", "0.6", "0.8", "1.0"]
        rows = sweep_rows(cfg, [("gains.mu2", vals)])
        c3 = [r["damping_const"] for r in rows]
        assert c3[0] == pytest.approx(0.5)
        assert c3[3] == pytest.approx(0.0, abs=1e-15)
        assert all(v > 0 for v in c3[:3])
        assert all(v < 0 for v in c3[4:])

    def test_rows_reproducible_in_isolation(self):
        cfg = self.small_cfg()
        rows = sweep_rows(cfg, [("gains.mu2", ["0", "0.2", "0.4"])])
        lone = sweep_rows(
            cfgmod.set_value(cfg, "seed",
                             (cfg.seed * 1_000_003 + 17 * 1) % 2**31),
            [("gains.mu2", ["0.2"])],
        )
        # the isolated rerun of grid point 1 reproduces its numbers
        for key in ("E0", "E_final", "damping_const", "rate_fit"):
            a, b = rows[1][key], lone[0][key]
            assert (a == b) or (math.isnan(a) and math.isnan(b))

    def test_failed_row_does_not_abort(self):
        cfg = self.small_cfg()
        rows = sweep_rows(cfg, [("coefficient.alpha", ["0.5", "2.0"])])
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed")

    def test_parallel_matches_serial(self):
        cfg = self.small_cfg()
        axes = [("gains.mu2", ["0", "0.3"])]
        serial = sweep_rows(cfg, axes, jobs=1)
        parallel = sweep_rows(cfg, axes, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("axis", ["gains.mu2=abc", "mesh.n=12.5"])
    def test_bad_axis_value_exit2(self, axis, tmp_path, capsys):
        rc = run_cli(["sweep", "--config", "baseline", "--axis", axis,
                      "--out", str(tmp_path / "sw.csv")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert axis.split("=")[0] in err


class TestConverge:
    def test_zero_data_exact(self):
        cfg = cfgmod.load_config("baseline")
        for k, v in [("mesh.n", 16), ("channel.n_delta", 8),
                     ("integrator.t_final", 0.25),
                     ("initial.preset", "zero")]:
            cfg = cfgmod.set_value(cfg, k, v)
        table = converge_table(cfg, levels=3, start_n=16)
        assert all(d["dE"] == 0.0 for d in table["differences"])
        assert table["orders_E"] == ["exact"]

    def test_coincident_coarse_pair_order_nan(self):
        # levels 0 and 1 both clamp n_delta to 8 and the state is the
        # channel alone, so the first difference is exactly zero
        cfg = cfgmod.load_config("baseline")
        for k, v in [("integrator.t_final", 0), ("initial.preset", "zero"),
                     ("initial.f0", "cosine")]:
            cfg = cfgmod.set_value(cfg, k, v)
        table = converge_table(cfg, levels=3, start_n=16)
        assert table["differences"][0]["dE"] == 0.0
        assert table["differences"][1]["dE"] > 0.0
        assert math.isnan(table["orders_E"][0])

    def test_level_cardinality(self):
        cfg = cfgmod.load_config("baseline")
        for k, v in [("mesh.n", 16), ("channel.n_delta", 8),
                     ("integrator.t_final", 0.25)]:
            cfg = cfgmod.set_value(cfg, k, v)
        table = converge_table(cfg, levels=3, start_n=16)
        assert len(table["levels"]) == 3
        assert len(table["differences"]) == 2
        assert len(table["orders_E"]) == 1

    def test_needs_three_levels(self):
        with pytest.raises(ConfigError):
            converge_table(cfgmod.load_config("baseline"), levels=2)


class TestOperatorCheckCli:
    def test_certificate_written(self, tmp_path):
        out = tmp_path / "cert.json"
        rc = run_cli(["operator-check", "--config", "baseline",
                      "--set", "mesh.n=32", "--set", "channel.n_delta=16",
                      "--trials", "50", "--out", str(out)])
        assert rc == EXIT_OK
        cert = json.loads(out.read_text())
        assert set(cert) >= {"claim1", "claim2", "claim3", "dAdt", "pass"}
        assert cert["pass"] is True
        # default probe times are 0, T/2, T
        assert set(cert["claim1"]) == {"t=0", "t=10", "t=20"}

    def test_violating_gains_reported_exit_zero(self, tmp_path):
        out = tmp_path / "cert.json"
        rc = run_cli(["operator-check", "--config", "baseline",
                      "--set", "mesh.n=32", "--set", "channel.n_delta=16",
                      "--set", "gains.mu2=6.0", "--trials", "100",
                      "--out", str(out)])
        assert rc == EXIT_OK
        cert = json.loads(out.read_text())
        assert any(v["positive_trials"] > 0 for v in cert["claim1"].values())
        rc = run_cli(["operator-check", "--config", "baseline",
                      "--set", "mesh.n=32", "--set", "channel.n_delta=16",
                      "--set", "gains.mu2=6.0", "--trials", "100",
                      "--strict", "--out", str(out)])
        assert rc == EXIT_AUDIT


class TestEllipticCli:
    def test_table(self, tmp_path):
        out = tmp_path / "ell.json"
        rc = run_cli(["elliptic-check", "--n", "64", "--out", str(out)])
        assert rc == EXIT_OK
        table = json.loads(out.read_text())
        assert table["pass"] is True
        assert len(table["cases"]) == 24
