"""Config parsing, scenarios, CLI verbs, output formats, exit codes."""

import argparse
import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest

from degenwave import cli, stepper
from degenwave import config as cfgmod
from degenwave.cli import (
    EXIT_AUDIT,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    converge_table,
    main,
    make_parser,
    simulate_batch,
    simulate_config,
    sweep_rows,
)
from degenwave.errors import ConfigError, NonFiniteState
from degenwave.reporting import report_json_text


class TestVerbFlags:
    # each verb accepts only the flags it reads: --strict where an audit can
    # fail, --config/--set/--seed where a config is loaded
    FLAGS = {
        "simulate": {"--config", "--set", "--seed", "--out", "--strict",
                     "--snapshots"},
        "sweep": {"--config", "--set", "--seed", "--out", "--axis"},
        "converge": {"--config", "--set", "--seed", "--out", "--levels",
                     "--start-n"},
        "operator-check": {"--config", "--set", "--seed", "--out", "--strict",
                           "--t", "--trials"},
        "elliptic-check": {"--out", "--strict", "--n", "--alphas", "--betas"},
    }

    def test_flag_set_of_every_verb(self):
        (verbs,) = [a for a in make_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
        have = {name: {flag for a in sp._actions for flag in a.option_strings
                       if flag not in ("-h", "--help")}
                for name, sp in verbs.choices.items()}
        assert have == self.FLAGS

    @pytest.mark.parametrize("argv, unread", [
        (["sweep", "--config", "baseline"], ["--strict"]),
        (["converge", "--config", "baseline"], ["--strict"]),
        (["elliptic-check"], ["--set", "gains.mu1=bogus"]),
        (["elliptic-check"], ["--seed", "1"]),
    ])
    def test_unread_flag_exit2(self, argv, unread, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv + unread)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: unrecognized arguments: {' '.join(unread)}\n")


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

    def test_negative_seed_in_a_config_file_exit2(self, tmp_path, capsys):
        # the certificate's stream default_rng([seed]) takes no negative
        # seed, so the config refuses one before anything runs
        path = tmp_path / "neg.cfg"
        path.write_text("mesh.n = 32\nseed = -1\n")
        with pytest.raises(ConfigError, match="^line 2: bad value for seed: "):
            cfgmod.load_config(str(path))
        rc = run_cli(["simulate", "--config", str(path),
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        assert capsys.readouterr().err.startswith(
            "config error: line 2: bad value for seed: '-1' is negative")

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

    # every config key, in RunConfig's field order; renaming a field
    # renames its key, so this list is the user-facing surface
    KEYS = [
        "coefficient.kind", "coefficient.alpha", "coefficient.scale",
        "coefficient.factor", "delay.kind", "delay.tau", "delay.tau0",
        "delay.tau1", "delay.k", "delay.rise_start", "delay.rise_end",
        "gains.mu1", "gains.mu2", "gains.beta", "mesh.n", "mesh.gamma",
        "channel.n_delta", "integrator.dt", "integrator.t_final",
        "integrator.record_every", "initial.preset", "initial.f0",
        "initial.f0_amplitude", "outputs.csv", "seed",
    ]

    def test_keys_are_the_fields_in_order(self):
        assert list(cfgmod._KEYS) == self.KEYS
        assert [attr for attr, _ in cfgmod._KEYS.values()] == [
            f.name for f in dataclasses.fields(cfgmod.RunConfig)]

    @pytest.mark.parametrize("pair", ["seed=-1", "delay.tau=nan",
                                      "mesh.n=2.5"])
    def test_parser_of_the_field_type_rejects(self, pair):
        key = pair.split("=")[0]
        with pytest.raises(ConfigError,
                           match=f"^override: bad value for {key}: "):
            cfgmod.apply_overrides(cfgmod.RunConfig(), [pair])

    def test_parser_of_an_optional_field_reads_none(self):
        cfg = cfgmod.RunConfig(mesh_gamma=2.0, coefficient_factor="exp")
        cleared = cfgmod.apply_overrides(
            cfg, ["mesh.gamma=none", "coefficient.factor="])
        assert cleared.mesh_gamma is None
        assert cleared.coefficient_factor is None

    def test_scenario_items_come_in_field_order(self):
        for name in cfgmod.SCENARIO_NAMES:
            items = cfgmod.effective_items(cfgmod.load_config(name))
            assert list(items) == [k for k in self.KEYS if k in items]

    def test_field_without_a_parser_is_refused(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Bad:
            mesh_n: int = 8
            mesh_shift: complex = 0j

        monkeypatch.setattr(cfgmod, "RunConfig", Bad)
        with pytest.raises(TypeError,
                           match="^no parser for RunConfig.mesh_shift: "):
            cfgmod._key_table()

    def test_hash_of_baseline_is_pinned(self):
        # the report's config_hash: sha256 of the sorted `key = value` lines
        cfg = cfgmod.load_config("baseline")
        assert cfgmod.config_hash(cfg) == "78fd7e2acf2a2a72"

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

    def test_directory_named_after_a_scenario_does_not_hide_it(
            self, tmp_path, monkeypatch, capsys):
        # a first run with --out baseline/run creates baseline/; the
        # second must still find the shipped scenario
        shipped = cfgmod.load_config("baseline")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "baseline").mkdir()
        assert cfgmod.load_config("baseline") == shipped
        rc = run_cli(["simulate", "--config", "baseline", "--set",
                      "integrator.t_final=0.01", "--out", "baseline/run"])
        assert rc == EXIT_OK, capsys.readouterr().err
        assert (tmp_path / "baseline" / "run.csv").exists()

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Windows Notepad starts a UTF-8 file with a byte-order mark
        text = "coefficient.kind = power\ngains.mu2 = 0.3\nmesh.n = 32\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        cfg = cfgmod.load_config(str(marked))
        assert cfg == cfgmod.load_config(str(plain))
        assert cfg.gains_mu2 == 0.3

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
        (traj,) = cfgmod.run_from_setup([setup])
        assert traj.t[-1] == pytest.approx(0.25)

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

    @pytest.mark.parametrize("delay", [
        ["delay.tau0=0.5", "delay.tau1=0.5", "delay.k=1e200"],
        ["delay.kind=piecewise_smooth", "delay.rise_end=1e200"],
    ], ids=["rate", "rise"])
    def test_huge_delay_rate_or_rise_runs(self, tmp_path, fast_args, delay):
        # tau'' of a huge rate or rise window does not overflow, and tau
        # stays 0.5 to the last bit: the CSV is the constant delay's
        csvs = []
        for i, sets in enumerate([delay, ["delay.kind=constant",
                                          "delay.tau=0.5"]]):
            out = tmp_path / f"run{i}"
            rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                          *(x for s in sets for x in ("--set", s)),
                          "--out", str(out)])
            assert rc == EXIT_OK
            csvs.append(out.with_suffix(".csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_hypothesis_violation_exit2(self, tmp_path):
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", "coefficient.alpha=2.0",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS

    def test_non_positive_trace_coefficient_exit2(self, tmp_path, capsys):
        # alpha = 1.5 with beta = 0.3 is well posed and strictly damped,
        # but the certificate's displacement-trace coefficient C7 is < 0
        rc = run_cli(["simulate", "--config", "strong-degeneracy",
                      "--set", "gains.beta=0.3",
                      "--set", "integrator.t_final=0.1",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        assert ("displacement-trace coefficient is not positive for these "
                "(mu_a, beta)") in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["coefficient.kind", "delay.kind"])
    def test_unknown_kind_exit2(self, key, tmp_path, capsys):
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", f"{key}=bogus", "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "'bogus'" in err

    def test_factor_on_power_coefficient_exit2(self, tmp_path, capsys):
        # a power coefficient has g = 1; a factor would be ignored silently
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", "coefficient.factor=exp",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: coefficient.factor 'exp'")
        assert not (tmp_path / "x.json").exists()

    def test_alpha_zero_strong_factor_exit2(self, tmp_path, capsys):
        # a(0) = e^0 > 0 cannot take the strong regime's natural condition
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", "coefficient.kind=power_times_factor",
                      "--set", "coefficient.factor=exp",
                      "--set", "coefficient.alpha=0",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("hypothesis validation failed: alpha = 0 "
                              "gives a(0) > 0")
        assert not (tmp_path / "x.json").exists()

    def test_removed_tabulated_inputs_exit2(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", "coefficient.kind=tabulated",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        assert ("unknown coefficient kind 'tabulated'"
                in capsys.readouterr().err)
        path = tmp_path / "table.cfg"
        path.write_text("coefficient.kind = power\ncoefficient.xs = 0 1\n")
        rc = run_cli(["simulate", "--config", str(path),
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        assert capsys.readouterr().err.startswith(
            "config error: line 2: unknown key 'coefficient.xs'")

    @pytest.mark.parametrize("key, known", [
        ("initial.preset", "ramp, sine-bump, velocity-kick, zero"),
        ("initial.f0", "constant, cosine, zero"),
    ])
    def test_unknown_initial_data_name_exit2(self, key, known, tmp_path,
                                             capsys):
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", f"{key}=bogus", "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == (
            f"config error: unknown {key} 'bogus'; known: {known}\n")

    def test_non_finite_state_exit2(self, tmp_path, fast_args, capsys,
                                    monkeypatch):
        # the config rejects non-finite numbers, so a NaN history comes from
        # a patched preset
        monkeypatch.setattr(cfgmod, "history_presets",
                            lambda amplitude: {"constant": lambda s: math.nan})
        rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                      "--set", "initial.f0=constant",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("error: state is not finite at t = 0.0")
        assert "Traceback" not in err

    def test_negative_seed_exit2(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--config", "baseline", "--seed", "-1",
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == (
            "config error: bad value for seed: '-1' is negative; a seed is "
            "an integer >= 0\n")

    @pytest.mark.parametrize("override", ["integrator.dt=1e-320",
                                          "integrator.t_final=1e300"])
    @pytest.mark.parametrize("verb", ["simulate", "converge"])
    def test_step_count_past_int64_exit2(self, verb, override, tmp_path,
                                         capsys, monkeypatch):
        # t_final / dt of 2**63 or more steps (inf at dt = 1e-320) is
        # refused by build_setup, before a run allocates its columns
        def no_run(*args, **kwargs):
            raise AssertionError("the run was reached")

        monkeypatch.setattr(stepper, "run", no_run)
        rc = run_cli([verb, "--config", "baseline", "--set", override,
                      "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        assert capsys.readouterr().err.startswith(
            "config error: integrator.t_final / integrator.dt = ")

    @pytest.mark.parametrize("key", ["integrator.dt", "integrator.t_final",
                                     "coefficient.alpha"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_number_exit2(self, key, value, tmp_path, capsys):
        rc = run_cli(["simulate", "--config", "baseline",
                      "--set", f"{key}={value}", "--out", str(tmp_path / "x")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith(f"config error: override: bad value for {key}: ")
        assert "not a finite number" in err

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

    def test_dotted_out_prefix_keeps_its_parts(self, tmp_path, fast_args):
        # every suffix is appended to the whole prefix: run.v2 is not run
        out = tmp_path / "run.v2"
        rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                      "--snapshots", "--out", str(out)])
        assert rc == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.v2.csv", "run.v2.json", "run.v2.snapshots.npz"]

    def test_dotted_config_output_paths_do_not_collide(self, tmp_path,
                                                       fast_args):
        # outputs.csv drops one trailing .csv: res.mu0.1 and res.mu0.2 are
        # two runs, not one file written twice
        for mu2 in ("0.1", "0.2"):
            rc = run_cli(["simulate", "--config", "baseline", *fast_args,
                          "--set", f"gains.mu2={mu2}", "--set",
                          f"outputs.csv={tmp_path / f'res.mu{mu2}.csv'}"])
            assert rc == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "res.mu0.1.csv", "res.mu0.1.json", "res.mu0.2.csv",
            "res.mu0.2.json"]
        reports = [json.loads((tmp_path / f"res.mu{mu2}.json").read_text())
                   for mu2 in ("0.1", "0.2")]
        assert [r["config"]["gains.mu2"] for r in reports] == [0.1, 0.2]


class TestCsvFormat:
    @staticmethod
    def columns(rows, seed=5):
        # random columns over many decades whose first rows hold nan, +-inf,
        # -0.0, subnormals and the extremes
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310,
                   2.2250738585072014e-308, 1.7976931348623157e308, 1.0 / 3.0]
        rng = np.random.default_rng(seed)
        cols = {}
        for i, c in enumerate(stepper.COLUMNS):
            x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            k = min(rows, len(special))
            x[:k] = np.roll(special, i)[:k]
            cols[c] = x
        return cols

    def test_row_format_matches_per_value_form(self, tmp_path):
        # the block writer against f"{x:.16e}" per value, as the text read
        # back and the bytes of the written file, at one row, one whole
        # block (BLOCK_DOUBLES // len(COLUMNS) = 1,170 rows), one row past
        # it, and two blocks and three rows
        from types import SimpleNamespace

        from degenwave.reporting import write_trajectory_csv

        for rows in [1, 1170, 1171, 2343]:
            cols = self.columns(rows)
            traj = SimpleNamespace(**cols)
            values = zip(*(cols[c].tolist() for c in stepper.COLUMNS))
            expected = [",".join(stepper.COLUMNS)]
            expected += [",".join(f"{x:.16e}" for x in row) for row in values]
            expected = "\n".join(expected) + "\n"
            write_trajectory_csv(traj, tmp_path / "traj.csv")
            assert ((tmp_path / "traj.csv").read_text(encoding="utf-8")
                    == expected), rows
            assert ((tmp_path / "traj.csv").read_bytes()
                    == expected.encode("utf-8")), rows

    @pytest.mark.parametrize("rows", [10_001, 100_001])
    def test_writer_memory_does_not_grow_with_rows(self, rows, tmp_path):
        # the writer holds one block of rows at a time, so its peak
        # allocation is the same at any run length
        import tracemalloc
        from types import SimpleNamespace

        from degenwave.reporting import write_trajectory_csv

        traj = SimpleNamespace(**self.columns(rows))
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, tmp_path / "traj.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        assert (tmp_path / "traj.csv").stat().st_size > 100 * rows


class TestSaveSnapshots:
    def test_save_writes_the_savez_layout(self, tmp_path):
        # a trajectory's times and snapshots, member for member the bytes
        # np.savez writes for the same arrays
        import zipfile
        from types import SimpleNamespace

        from degenwave.reporting import save_snapshots

        rng = np.random.default_rng(9)
        arrays = {"t": 0.1 * np.arange(4), "u": rng.standard_normal((4, 5)),
                  "v": rng.standard_normal((4, 5)),
                  "w": rng.standard_normal((4, 3))}
        traj = SimpleNamespace(t=arrays["t"], snapshots=(
            arrays["u"], arrays["v"], arrays["w"]))
        save_snapshots(traj, tmp_path / "traj.npz")
        np.savez(tmp_path / "ref.npz", **arrays)
        with zipfile.ZipFile(tmp_path / "traj.npz") as a, \
                zipfile.ZipFile(tmp_path / "ref.npz") as b:
            assert a.namelist() == b.namelist()
            for name in b.namelist():
                assert a.read(name) == b.read(name), name


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

    @pytest.mark.parametrize("axes, systems", [
        ([("coefficient.alpha", ["0.5", "1.5"]),
          ("gains.mu2", ["0", "0.2", "0.4"]), ("gains.beta", ["0.5", "2"])],
         [2, 2]),
        ([("gains.mu1", ["1.5", "2.5"]), ("gains.mu2", ["0", "0.3"]),
          ("gains.beta", ["0.5", "2"])], [4]),
    ], ids=["sweep-grid", "mu1-mu2-beta"])
    def test_each_batch_factors_one_system_per_key(self, axes, systems,
                                                   monkeypatch):
        # StepWorkspace.build factors one system per run of consecutive
        # rows with one (mu1, beta); sweep_rows sorts each batch by system,
        # so each batch gets one per distinct (mu1, beta) and no more
        real_build, seen = stepper.StepWorkspace.build, []

        def spy(ops, gains, dt):
            work = real_build(ops, gains, dt)
            assert len(work.systems) == len({(g.mu1, g.beta) for g in gains})
            seen.append(len(work.systems))
            return work

        monkeypatch.setattr(stepper.StepWorkspace, "build", spy)
        rows = sweep_rows(self.small_cfg(), axes, jobs=1)
        assert all(r["status"] == "ok" for r in rows)
        assert seen == systems

    def test_failed_row_does_not_abort(self):
        cfg = self.small_cfg()
        rows = sweep_rows(cfg, [("coefficient.alpha", ["0.5", "2.0"])])
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed")

    @pytest.mark.parametrize("override", ["integrator.dt=1e-320",
                                          "integrator.t_final=1e300"])
    def test_step_count_past_int64_fails_the_rows(self, override):
        # as an axis value beside a good one, the step count past int64
        # fails the rows that take it, alone; set for every row, it is the
        # shared config's error, which the sweep raises
        key, value = override.split("=")
        good = {"integrator.dt": "0.001", "integrator.t_final": "0.5"}[key]
        rows = sweep_rows(self.small_cfg(), [(key, [value, good]),
                                             ("gains.mu2", ["0", "0.2"])])
        assert [r["status"].startswith(
            "failed: integrator.t_final / integrator.dt = ")
            for r in rows] == [True, True, False, False]
        assert [r["status"] for r in rows[2:]] == ["ok", "ok"]
        cfg = cfgmod.apply_overrides(self.small_cfg(), [override])
        with pytest.raises(ConfigError,
                           match=r"^integrator.t_final / integrator.dt = "):
            sweep_rows(cfg, [("gains.mu2", ["0", "0.2"])])

    def test_non_positive_trace_coefficient_fails_its_row_alone(self,
                                                                tmp_path):
        # beta = 0.3 at alpha = 1.5 has no Lyapunov certificate (C7 < 0):
        # that row fails, and the beta = 1 row is still written
        import csv

        out = tmp_path / "sw.csv"
        rc = run_cli(["sweep", "--config", "strong-degeneracy",
                      "--set", "integrator.t_final=0.1",
                      "--axis", "gains.beta=1,0.3", "--out", str(out)])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["status"] for r in rows] == [
            "ok", "failed: displacement-trace coefficient is not positive "
            "for these (mu_a, beta); outside the certificate's validity"]

    def test_huge_delay_rate_is_a_row_not_a_crash(self):
        # tau'' at k = 1e200 used to overflow and end the whole sweep; with
        # tau0 = tau1 both rows run the same constant delay
        cfg = cfgmod.apply_overrides(self.small_cfg(),
                                     ["delay.tau0=0.5", "delay.tau1=0.5"])
        rows = sweep_rows(cfg, [("delay.k", ["0.4", "1e200"])])
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert rows[1]["E_final"] == rows[0]["E_final"]

    def test_unknown_preset_row_fails_alone(self):
        rows = sweep_rows(self.small_cfg(),
                          [("initial.preset", ["ramp", "bogus"])])
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == (
            "failed: unknown initial.preset 'bogus'; "
            "known: ramp, sine-bump, velocity-kick, zero")

    def test_parallel_matches_serial(self, monkeypatch):
        # a mu2 x beta grid is one lockstep batch, its rows grouped by
        # midpoint system (one per beta); at jobs = 2 it is cut between its
        # two systems, so both workers get a batch, and the rows equal
        # those of jobs = 1.  A batch of one system is never cut: a mu2
        # sweep stays one item, which runs in this process
        cfg = self.small_cfg()
        axes = [("gains.mu2", ["0", "0.3"]), ("gains.beta", ["0.5", "2"])]
        real_fan_out, items = cli._fan_out, []

        def spy(fn, batches, jobs):
            items.append([[idx for idx, _, _ in b] for b in batches])
            return real_fan_out(fn, batches, jobs)

        monkeypatch.setattr(cli, "_fan_out", spy)
        serial = sweep_rows(cfg, axes, jobs=1)
        parallel = sweep_rows(cfg, axes, jobs=2)
        sweep_rows(cfg, axes[:1], jobs=2)
        assert items == [[[0, 2, 1, 3]], [[0, 2], [1, 3]], [[0, 1]]]
        assert [r["row"] for r in serial] == [0, 1, 2, 3]
        assert serial == parallel

    def test_batch_rows_equal_their_runs_alone(self, monkeypatch):
        # three rows that differ only in mu2 run as one lockstep batch; each
        # has the bits of simulate_config on its own config.  mu2 = 1.2
        # breaks strict damping (mu1 > 2 mu2 / sqrt(1 - d) = 2.68 mu2), so
        # the batch mixes rows with and without Lyapunov parameters, and the
        # cosine history makes mu2 act from the first step
        cfg = cfgmod.apply_overrides(self.small_cfg(), [
            "integrator.t_final=1.5", "initial.f0=cosine"])
        mu2s = ["0", "0.3", "1.2"]
        real_run, calls = stepper.run, []

        def spy(*args, **kwargs):
            out = real_run(*args, **kwargs)
            calls.append(len(out))
            return out

        monkeypatch.setattr(stepper, "run", spy)
        rows = sweep_rows(cfg, [("gains.mu2", mu2s)])
        sims = simulate_batch([cfgmod.set_value(cfg, "gains.mu2", m)
                               for m in mu2s])
        assert calls == [3, 3]
        assert [s.lyap is not None for s in sims] == [True, True, False]
        for row, sim in zip(rows, sims):
            setup, traj, report = simulate_config(sim.setup.cfg)
            for name in stepper.COLUMNS:
                assert np.array_equal(getattr(sim.traj, name),
                                      getattr(traj, name)), name
            for part in ("u", "v", "w"):
                assert np.array_equal(getattr(sim.traj.final_state, part),
                                      getattr(traj.final_state, part))
            decay = report["decay"] or {}
            alone = {"E0": report["audits"]["E0"],
                     "E_final": report["audits"]["E_final"],
                     "damping_const": report["constants"]["damping_const"],
                     "rate_fit": decay.get("rate_fit", math.nan),
                     "envelope_ok": decay.get("envelope_ok", "")}
            for key, want in alone.items():
                have = row[key]
                assert have == want or (math.isnan(have) and math.isnan(want))
        assert rows[0]["E_final"] != rows[1]["E_final"]

    @staticmethod
    def _no_certificate(monkeypatch):
        from degenwave import operator_checks

        def boom(*args, **kwargs):
            raise AssertionError("a sweep row built a certificate")

        monkeypatch.setattr(operator_checks, "run_certificate", boom)

    def test_rows_run_no_certificate_and_equal_simulate(self, monkeypatch):
        # both regimes, with and without the delayed gain: each row reads
        # its 7 result fields from its run alone, bit for bit as simulate's
        # report gives them, and no row draws the operator certificate
        cfg = self.small_cfg()
        axes = [("coefficient.alpha", ["0.5", "1.5"]),
                ("gains.mu2", ["0", "0.2"])]
        with monkeypatch.context() as patch:
            self._no_certificate(patch)
            rows = sweep_rows(cfg, axes, jobs=1)
        assert [r["status"] for r in rows] == ["ok"] * 4
        for row in rows:
            c = cfg
            for key, _ in axes:
                c = cfgmod.set_value(c, key, row[key])
            c = cfgmod.set_value(c, "seed", row["seed"])
            _, _, report = simulate_config(c)
            alone = {**report["constants"], **report["decay"],
                     **report["audits"]}
            for key in cli._SWEEP_FAILED:
                assert repr(row[key]) == repr(alone[key]), (row["row"], key)

    def test_unfactored_resolvent_fails_its_row_as_simulate(self, tmp_path,
                                                            monkeypatch,
                                                            capsys):
        # mu2 = -10 makes a(1) (mu1 + mu2 A_d + beta) negative, so the
        # resolvent system is indefinite: simulate's report fails on it, and
        # the row fails with the same message though it builds no
        # certificate; its batch mate is ok
        import csv

        small, cfg = ["--config", "baseline"], self.small_cfg()
        for key in ("mesh.n", "channel.n_delta", "integrator.t_final",
                    "integrator.record_every"):
            small += ["--set", f"{key}={cfgmod.get_value(cfg, key)}"]
        out = tmp_path / "sw.csv"
        with monkeypatch.context() as patch:
            self._no_certificate(patch)
            assert run_cli(["sweep", *small, "--axis", "gains.mu2=-10,0.2",
                            "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["status"].startswith(
            "failed: resolvent system is singular, indefinite or not finite")
        assert rows[1]["status"] == "ok"
        capsys.readouterr()
        rc = run_cli(["simulate", *small, "--set", "gains.mu2=-10",
                      "--seed", rows[0]["seed"],
                      "--out", str(tmp_path / "sim")])
        assert rc == EXIT_HYPOTHESIS
        message = rows[0]["status"].removeprefix("failed: ")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_blow_up_message_of_a_fully_recorded_run(self):
        # record_every = 1 records the blow-up step itself, so the message
        # names it from its energy, byte for byte as before the trace check
        cfg = self.small_cfg()
        for key, val in [("integrator.t_final", 1.0),
                         ("integrator.record_every", 1),
                         ("gains.mu2", "1e300")]:
            cfg = cfgmod.set_value(cfg, key, val)
        with pytest.raises(NonFiniteState) as info:
            simulate_config(cfg)
        assert str(info.value) == ("state is not finite at t = 0.609 (energy "
                                   "inf); the last finite one was at t = 0.608")

    def test_blown_up_row_fails_alone(self):
        # the mu2 = 1e300 row overflows after the delay reaches t = tau0 =
        # 0.5; it stops with the message of its run alone, and its batch
        # mate equals its own run
        cfg = cfgmod.set_value(self.small_cfg(), "integrator.t_final", 1.0)
        rows = sweep_rows(cfg, [("gains.mu2", ["0.2", "1e300"])])
        # at stride 5 the blow-up step 0.609 is not recorded: the message
        # names it from its boundary velocity
        assert rows[1]["status"] == (
            "failed: state is not finite at t = 0.609 (energy not finite: "
            "boundary velocity -2.4450027756142736e+293); "
            "the last finite one recorded was at t = 0.605")
        assert math.isnan(rows[1]["E0"])
        with pytest.raises(NonFiniteState) as alone:
            simulate_config(cfgmod.set_value(cfg, "gains.mu2", "1e300"))
        assert rows[1]["status"] == f"failed: {alone.value}"
        _, _, report = simulate_config(cfgmod.set_value(cfg, "gains.mu2",
                                                           "0.2"))
        assert rows[0]["status"] == "ok"
        assert rows[0]["E0"] == report["audits"]["E0"]
        assert rows[0]["E_final"] == report["audits"]["E_final"]
        assert rows[0]["rate_fit"] == report["decay"]["rate_fit"]

    @pytest.mark.parametrize("overrides, key", [
        (["mesh.n=64"], "mesh.n"),
        (["integrator.t_final=0.1"], "integrator.t_final"),
        (["gains.mu2=0.3", "seed=5", "mesh.n=64"], "mesh.n"),
        (["gains.beta=2", "gains.mu1=3", "initial.preset=zero"],
         "initial.preset"),
    ])
    def test_batch_rows_must_share_all_but_gains_and_seed(self, overrides,
                                                          key):
        # a batch runs every row on its first row's mesh, step, horizon and
        # initial data, so rows that differ in more than their gains and
        # the seed are refused, naming the first config key that differs
        cfg = self.small_cfg()
        other = cfgmod.apply_overrides(cfg, overrides)
        with pytest.raises(ValueError, match=re.escape(f"; {key} differs")):
            simulate_batch([cfg, other])
        for mate in (["gains.mu2=0.3", "seed=5"], ["gains.beta=2"],
                     ["gains.mu1=3", "gains.beta=0.5"]):
            mates = cfgmod.apply_overrides(cfg, mate)
            assert cfgmod.batch_key(mates) == cfgmod.batch_key(cfg)
        assert cfgmod.batch_key(other) != cfgmod.batch_key(cfg)

    def test_failed_row_with_commas_keeps_the_csv_rectangular(self,
                                                              tmp_path):
        # the unknown-preset status lists the known names, with commas: it
        # is quoted, every row has the header's width, and the ok row,
        # which has no comma, is its cells joined as before
        import csv

        out = tmp_path / "sw.csv"
        argv = ["sweep", "--config", "baseline",
                "--axis", "initial.preset=ramp,bogus", "--out", str(out)]
        for key in ("mesh.n", "channel.n_delta", "integrator.t_final",
                    "integrator.record_every"):
            value = cfgmod.get_value(self.small_cfg(), key)
            argv += ["--set", f"{key}={value}"]
        assert run_cli(argv) == EXIT_OK
        text = out.read_text()
        header, *rows = csv.reader(text.splitlines())
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        status = dict(zip(header, rows[1]))["status"]
        assert status == ("failed: unknown initial.preset 'bogus'; "
                          "known: ramp, sine-bump, velocity-kick, zero")
        assert text.splitlines()[1] == ",".join(rows[0])

    @pytest.mark.parametrize("axes, key", [
        (["gains.mu2=0,1", "gains.mu2=0.3"], "gains.mu2"),
        (["seed=1,2"], "seed"),
    ])
    def test_repeated_or_seed_axis_exit2(self, axes, key, tmp_path, capsys):
        # a second axis over one key would override the first, and a seed
        # axis the derived per-row seeds; both are refused, naming the key
        argv = ["sweep", "--config", "baseline",
                "--out", str(tmp_path / "sw.csv")]
        for axis in axes:
            argv += ["--axis", axis]
        assert run_cli(argv) == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "sw.csv").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_config_error_of_every_row_exit2(self, jobs, tmp_path, capsys,
                                             monkeypatch):
        import csv

        # every row fails with one and the same ConfigError (the shared
        # integrator.dt makes a step count past int64): the sweep exits 2
        # with that error, as simulate does, and writes no CSV; with 2
        # usable CPUs the two beta systems run in two workers
        monkeypatch.setattr(cli, "_usable_cpus", lambda: int(jobs))
        out = tmp_path / "sw.csv"
        rc = run_cli(["sweep", "--config", "baseline",
                      "--set", "integrator.dt=1e-320",
                      "--axis", "gains.beta=0.5,2", "--out", str(out)])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err == ("config error: integrator.t_final / integrator.dt = "
                       "inf steps; a run takes fewer than 2**63\n")
        assert not out.exists()
        # rows that fail with different config errors are the grid's: the
        # CSV is written
        rc = run_cli(["sweep", "--config", "baseline",
                      "--axis", "initial.preset=bogus,other",
                      "--out", str(out)])
        assert rc == EXIT_OK
        header, *rows = csv.reader(out.read_text().splitlines())
        assert [dict(zip(header, row))["status"] for row in rows] == [
            f"failed: unknown initial.preset '{name}'; "
            "known: ramp, sine-bump, velocity-kick, zero"
            for name in ("bogus", "other")]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_bad_jobs_config_error(self, jobs):
        with pytest.raises(ConfigError,
                           match=f"^jobs must be at least 1, got {jobs}$"):
            sweep_rows(self.small_cfg(), [("gains.mu2", ["0", "0.2"])],
                       jobs=jobs)

    def test_cli_csv_does_not_depend_on_the_usable_cpus(self, tmp_path,
                                                        monkeypatch):
        # the sweep verb takes one worker per usable CPU; two systems (one
        # per beta) run in one process or in two workers to the same bytes
        texts = []
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"sw{cpus}.csv"
            assert run_cli(["sweep", "--config", "baseline", "--set",
                            "integrator.t_final=0.5", "--set", "mesh.n=32",
                            "--set", "channel.n_delta=16",
                            "--axis", "gains.mu2=0,0.2",
                            "--axis", "gains.beta=0.5,2",
                            "--out", str(out)]) == EXIT_OK
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert len(texts[0].splitlines()) == 5

    @pytest.mark.parametrize("axis", ["gains.mu2=abc", "mesh.n=12.5"])
    def test_bad_axis_value_exit2(self, axis, tmp_path, capsys):
        rc = run_cli(["sweep", "--config", "baseline", "--axis", axis,
                      "--out", str(tmp_path / "sw.csv")])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert axis.split("=")[0] in err


def _fail_or_sleep(seconds):
    """A failed item for 0, else the item after sleeping that long."""
    if seconds == 0:
        return NonFiniteState("failed at once")
    time.sleep(seconds)
    return seconds


def _frozen_count(_):
    """How many objects gc.freeze has set aside in this process."""
    import gc

    return gc.get_freeze_count()


class TestEnergyOnly:
    def test_sweep_and_converge_record_energy_only_and_simulate_not(
            self, monkeypatch):
        # sweep rows and converge levels read t and E alone, so their runs
        # record nothing else; simulate writes every column
        real, seen = stepper.run, []

        def spy(*args, energy_only=False, **kw):
            seen.append(energy_only)
            return real(*args, energy_only=energy_only, **kw)

        monkeypatch.setattr(stepper, "run", spy)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        cfg = cfgmod.load_config("baseline")
        for k, v in [("mesh.n", 16), ("channel.n_delta", 8),
                     ("integrator.t_final", 0.1)]:
            cfg = cfgmod.set_value(cfg, k, v)
        _, traj, _ = simulate_config(cfg)
        assert seen == [False] and traj.bc_residual is not None
        rows = sweep_rows(cfg, [("gains.mu2", ["0", "0.2"])])
        assert seen == [False, True]
        assert [r["status"] for r in rows] == ["ok", "ok"]
        converge_table(cfg, levels=3, start_n=16)
        assert seen == [False, True, True, True, True]


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
        # every level's horizon is a whole number of its steps, so the
        # order is a number
        assert table["warnings"] == []
        assert math.isfinite(table["orders_E"][0])

    def test_needs_three_levels(self):
        with pytest.raises(ConfigError):
            converge_table(cfgmod.load_config("baseline"), levels=2)

    @pytest.mark.parametrize("start_n", ["0", "-4"])
    def test_bad_start_n_exit2(self, start_n, capsys):
        rc = run_cli(["converge", "--config", "baseline", "--start-n", start_n])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err == f"config error: --start-n must be at least 1, got {start_n}\n"

    def test_levels_keep_the_bits_of_simulate(self):
        # a level records only its endpoints, yet its terminal energy and
        # traces are those of the full run of the level's config
        cfg = cfgmod.set_value(cfgmod.load_config("baseline"),
                               "integrator.t_final", 0.25)
        table = converge_table(cfg, levels=3, start_n=16)
        for row in table["levels"]:
            c = cfgmod.apply_overrides(cfg, [
                f"mesh.n={row['N']}", f"channel.n_delta={row['n_delta']}",
                f"integrator.dt={row['dt']!r}"])
            _, traj, report = simulate_config(c)
            st = traj.final_state
            assert row["E_T"] == report["audits"]["E_final"]
            assert row["trace_u"] == float(st.u[-1])
            assert row["trace_v"] == float(st.v[-1])
            assert row["t_end"] == float(traj.t[-1])

    def test_levels_run_no_certificate_and_record_endpoints(self,
                                                            monkeypatch):
        from degenwave import operator_checks

        def boom(*args, **kwargs):
            raise AssertionError("converge built a certificate")

        monkeypatch.setattr(operator_checks, "run_certificate", boom)
        real_run, lengths = stepper.run, []

        def spy(*args, **kwargs):
            trajs = real_run(*args, **kwargs)
            lengths.extend(traj.t.size for traj in trajs)
            return trajs

        monkeypatch.setattr(stepper, "run", spy)
        # levels in this process, so that the spy sees them
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        cfg = cfgmod.set_value(cfgmod.load_config("baseline"),
                               "integrator.t_final", 0.25)
        table = converge_table(cfg, levels=3, start_n=16)
        assert len(table["levels"]) == 3
        assert lengths == [2, 2, 2]

    @pytest.mark.parametrize("overrides, start_n", [
        (["integrator.t_final=2"], 64),  # README's example
        (["mesh.n=16", "channel.n_delta=8", "integrator.t_final=0.25"], 16),
    ])
    def test_worker_levels_equal_in_process_levels(self, overrides, start_n,
                                                   monkeypatch):
        cfg = cfgmod.apply_overrides(cfgmod.load_config("baseline"), overrides)
        texts = []
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            texts.append(report_json_text(
                converge_table(cfg, levels=3, start_n=start_n)))
        assert texts[0] == texts[1]

    def test_coarsest_failing_level_is_raised(self, monkeypatch):
        # every level blows up, each at its own step; in this process and
        # in worker processes the error is the coarsest level's.  In this
        # process the levels run coarsest first, and none runs after the
        # first failure
        cfg = cfgmod.apply_overrides(cfgmod.load_config("baseline"), [
            "gains.mu2=1e300", "integrator.t_final=1"])
        real_level, failed = cli._converge_level, {}

        def spy(c):
            result = real_level(c)
            failed[c.mesh_n] = str(result)
            return result

        monkeypatch.setattr(cli, "_converge_level", spy)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        with pytest.raises(NonFiniteState) as alone:
            converge_table(cfg, levels=3, start_n=16)
        assert sorted(failed) == [16]
        assert str(alone.value) == failed[16]
        with pytest.raises(NonFiniteState) as finer:
            converge_table(cfg, levels=3, start_n=32)
        assert sorted(failed) == [16, 32]
        assert str(finer.value) == failed[32] != failed[16]
        # a worker is sent the level function by name: the real one
        monkeypatch.setattr(cli, "_converge_level", real_level)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        with pytest.raises(NonFiniteState) as fanned:
            converge_table(cfg, levels=3, start_n=16)
        assert str(fanned.value) == failed[16]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fan_out_keeps_item_order(self, jobs):
        # the first item takes the longest
        items = [20000, 1, 10000, 2, 5]
        assert cli._fan_out(math.factorial, items, jobs) == [
            math.factorial(n) for n in items]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fan_out_stops_at_a_failed_item(self, jobs):
        # the workers start the 60 s item first; once the first item fails
        # its worker is stopped, and in this process it never starts
        t0 = time.perf_counter()
        (failed,) = cli._fan_out(_fail_or_sleep, [0, 60], jobs)
        assert str(failed) == "failed at once"
        assert time.perf_counter() - t0 < 20

    def test_fan_out_freezes_the_heap_for_its_workers_alone(self):
        # forked workers find this process's objects frozen, so that their
        # garbage collections leave the pages they share alone; here they
        # are unfrozen when the pool ends, also after a failed item
        import gc
        import multiprocessing

        assert gc.get_freeze_count() == 0
        counts = cli._fan_out(_frozen_count, [0, 1], 2)
        if multiprocessing.get_start_method() == "fork":
            assert min(counts) > 0
        assert gc.get_freeze_count() == 0
        (failed,) = cli._fan_out(_fail_or_sleep, [0, 60], 2)
        assert str(failed) == "failed at once"
        assert gc.get_freeze_count() == 0

    def test_blow_up_names_its_step(self, capsys):
        # a level records only its endpoints, yet the message names the step
        # where it blew up (0.6085), not the end of the level
        rc = run_cli(["converge", "--config", "baseline",
                      "--set", "gains.mu2=1e300",
                      "--set", "integrator.t_final=2", "--start-n", "512"])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        named = re.search(r"state is not finite at t = (\S+) ", err)
        assert named and float(named.group(1)) < 0.7
        assert err.rstrip().endswith("the last finite one recorded was at "
                                     "t = 0.0")

    def test_blow_up_stops_its_levels_early(self, monkeypatch, capsys):
        # each level stops at the end of the block in which its energy
        # turned non-finite (blocks of about tau0 = 0.5 here), not at t = 2,
        # and the exit code and the message are those of levels that step
        # on to their end
        real, steps = stepper._midpoint_solver, []

        def spy(*args):
            advance = real(*args)

            def counted(loads):
                steps.append(len(loads))
                return advance(loads)

            return counted

        monkeypatch.setattr(stepper, "_midpoint_solver", spy)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        rc = run_cli(["converge", "--config", "baseline",
                      "--set", "gains.mu2=1e300",
                      "--set", "integrator.t_final=2", "--start-n", "16"])
        assert rc == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == (
            "error: state is not finite at t = 0.624 (energy not finite: "
            "boundary velocity -2.2015638744286783e+296); the last finite "
            "one recorded was at t = 0.0\n")
        # 125 + 250 + 500 steps to t = 2
        assert 0 < len(steps) <= 0.5 * 875

    def test_blow_up_exit2(self, capsys):
        rc = run_cli(["converge", "--config", "baseline",
                      "--set", "gains.mu2=1e300",
                      "--set", "integrator.t_final=1", "--start-n", "16"])
        assert rc == EXIT_HYPOTHESIS
        assert "state is not finite" in capsys.readouterr().err

    def test_levels_ending_off_grid_warn(self, tmp_path, capsys):
        # 179, 357 and 714 steps end at 0.5012, 0.4998 and 0.4998
        out = tmp_path / "conv.json"
        rc = run_cli(["converge", "--config", "baseline",
                      "--set", "integrator.t_final=0.5",
                      "--set", "integrator.dt=0.0007", "--start-n", "64",
                      "--out", str(out)])
        assert rc == EXIT_OK
        table = json.loads(out.read_text())
        assert [row["t_end"] for row in table["levels"]] == [
            179 * 0.0028, 357 * 0.0014, 714 * 0.0007]
        assert len(table["warnings"]) == 3
        # the levels end at different times: no order
        assert table["orders_E"] == ["nan"]
        printed = capsys.readouterr().out
        assert "orders: [nan]" in printed
        for k, t_end in enumerate(["0.5012", "0.4998", "0.4998"]):
            note = f"level {k}: t_final = 0.5 is not a whole number of steps"
            assert note in table["warnings"][k]
            assert f"warning: {note}" in printed
            assert f"the run ends at t = {t_end}" in table["warnings"][k]


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
        assert all(v["max_form_ratio"] > 1.0 and v["pass"] is False
                   for v in cert["claim1"].values())
        rc = run_cli(["operator-check", "--config", "baseline",
                      "--set", "mesh.n=32", "--set", "channel.n_delta=16",
                      "--set", "gains.mu2=6.0", "--trials", "100",
                      "--strict", "--out", str(out)])
        assert rc == EXIT_AUDIT

    def test_trials_are_claim2s(self, tmp_path):
        # --trials counts claim 2's right-hand sides, 100 by default; claim 1
        # is exact and reports its value and bit alone
        out = tmp_path / "cert.json"
        for args, trials in [([], 100), (["--trials", "7"], 7)]:
            rc = run_cli(["operator-check", "--config", "baseline",
                          "--set", "mesh.n=16", "--set", "channel.n_delta=8",
                          *args, "--out", str(out)])
            assert rc == EXIT_OK
            cert = json.loads(out.read_text())
            assert [v["trials"] for v in cert["claim2"].values()] == \
                [trials] * 3
            assert all(set(v) == {"max_form_ratio", "pass"}
                       for v in cert["claim1"].values())

    def test_negative_seed_exit2(self, capsys):
        rc = run_cli(["operator-check", "--config", "baseline",
                      "--seed", "-1", "--trials", "5"])
        assert rc == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == (
            "config error: bad value for seed: '-1' is negative; a seed is "
            "an integer >= 0\n")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bad_trials_exit2(self, trials, capsys):
        rc = run_cli(["operator-check", "--config", "baseline",
                      "--trials", trials])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: --trials must be at least 1")

    @pytest.mark.parametrize("t", ["nan", "inf", "-10"])
    def test_bad_probe_time_exit2(self, t, capsys):
        rc = run_cli(["operator-check", "--config", "baseline",
                      "--set", "mesh.n=16", "--t", "0", "--t", t])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: --t must be a finite time >= 0")
        assert t in err


class TestEllipticCli:
    def test_table(self, tmp_path):
        out = tmp_path / "ell.json"
        rc = run_cli(["elliptic-check", "--n", "64", "--out", str(out)])
        assert rc == EXIT_OK
        table = json.loads(out.read_text())
        assert table["pass"] is True
        assert len(table["cases"]) == 24

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exit2(self, alpha, capsys):
        rc = run_cli(["elliptic-check", "--n", "16", "--alphas", alpha])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("hypothesis validation failed: alpha must be a "
                              f"finite number, got {alpha}")

    @pytest.mark.parametrize("beta", ["0", "-1", "nan"])
    def test_bad_beta_exit2(self, beta, capsys):
        rc = run_cli(["elliptic-check", "--n", "16", "--betas", "1", beta])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("config error: --betas must be positive")


# --- no traceback from any value the parser accepts ----------------------------

EXTREMES = ["1e200", "-1e200", "1e-300", "0"]
TINY = ["--set", "mesh.n=8", "--set", "channel.n_delta=8",
        "--set", "integrator.t_final=0.05"]


def _numeric_keys() -> list[str]:
    # every int or float config key, from RunConfig's fields
    from typing import Optional, get_type_hints

    types = get_type_hints(cfgmod.RunConfig)
    return [f.name.replace("_", ".", 1)
            for f in dataclasses.fields(cfgmod.RunConfig)
            if types[f.name] in (int, float, Optional[float])]


def _numeric_flags(verb: str) -> list[tuple[str, type]]:
    (verbs,) = [a for a in make_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    return [(a.option_strings[0], a.type)
            for a in verbs.choices[verb]._actions if a.type in (int, float)]


def _flag_cases(verb: str) -> list[tuple[str, str]]:
    # a float flag takes the extremes; an int flag, whose parser refuses
    # them, takes 0, -1 and 1 (a huge count is a long run, not an error)
    return [(flag, value) for flag, kind in _numeric_flags(verb)
            for value in (EXTREMES if kind is float else ["0", "-1", "1"])]


class TestNoTraceback:
    # each run ends with exit 0, 2 or 3, and an error exit prints one line;
    # any other exception escapes main() and fails the test
    def clean_exit(self, rc, capsys):
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_AUDIT)
        assert err.count("\n") == (rc != EXIT_OK) and "Traceback" not in err

    def test_cases_cover_every_numeric_key_and_flag(self):
        assert len(_numeric_keys()) == 19
        assert [f for f, _ in _numeric_flags("elliptic-check")] == [
            "--n", "--alphas", "--betas"]
        assert [f for f, _ in _numeric_flags("operator-check")] == [
            "--seed", "--t", "--trials"]

    @pytest.mark.parametrize("value", EXTREMES)
    @pytest.mark.parametrize("key", _numeric_keys())
    def test_simulate_key(self, key, value, tmp_path, capsys):
        rc = main(["simulate", "--config", "baseline", *TINY,
                   "--set", f"{key}={value}", "--out", str(tmp_path / "x")])
        self.clean_exit(rc, capsys)

    @pytest.mark.parametrize("flag, value", _flag_cases("elliptic-check"))
    def test_elliptic_check_flag(self, flag, value, capsys):
        args = {"--n": "16", "--alphas": "0.5", "--betas": "1", flag: value}
        rc = main(["elliptic-check", *(f"{k}={v}" for k, v in args.items())])
        self.clean_exit(rc, capsys)

    @pytest.mark.parametrize("flag, value", _flag_cases("operator-check"))
    def test_operator_check_flag(self, flag, value, tmp_path, capsys):
        args = {"--trials": "5", flag: value}
        rc = main(["operator-check", "--config", "baseline", *TINY,
                   *(f"{k}={v}" for k, v in args.items()),
                   "--out", str(tmp_path / "cert.json")])
        self.clean_exit(rc, capsys)

    @pytest.mark.parametrize("far", ["5000", "1e200"])
    def test_probe_times_far_apart(self, far, tmp_path, capsys):
        # claim 3's bounds e^{d |t - s| / (2 tau0)} and e^{d |t - s| / tau0}
        # pass the float range: each is inf, a bound that holds trivially
        out = tmp_path / "cert.json"
        rc = main(["operator-check", "--config", "baseline",
                   "--set", "mesh.n=16", "--set", "channel.n_delta=8",
                   "--t", "0", "--t", far, "--out", str(out)])
        self.clean_exit(rc, capsys)
        assert rc == EXIT_OK
        [row] = json.loads(out.read_text())["claim3"].values()
        assert (row["bound_stated"], row["bound_proof"]) == ("inf", "inf")
        assert row["excess"] == 0.0 and row["pass"] is True

    def test_long_coarse_simulate(self, tmp_path, capsys):
        # T = 2000 probes the pairs (0, 1000), (1000, 2000) and (0, 2000):
        # on baseline e^{0.4 T} passes the float range once T > 1774.5
        rc = main(["simulate", "--config", "baseline", "--set", "mesh.n=16",
                   "--set", "channel.n_delta=8", "--set", "integrator.dt=0.25",
                   "--set", "integrator.t_final=2000",
                   "--out", str(tmp_path / "long")])
        self.clean_exit(rc, capsys)
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "long.json").read_text())
        rows = report["operator_certificate"]["claim3"]
        assert rows["s=0,t=2000"]["bound_proof"] == "inf"
        assert all(row["pass"] is True for row in rows.values())

    @pytest.mark.parametrize("verb, flag, value", [
        (verb, flag, value) for verb in ("elliptic-check", "operator-check")
        for flag, value in _flag_cases(verb)])
    def test_flag_and_value_apart_read_as_joined(self, verb, flag, value,
                                                 tmp_path, capsys):
        # "--flag value" exits and prints as "--flag=value" does: a negative
        # value in exponent form (-1e200) is a value, as -1 and -1.5 are,
        # not an unknown option
        if verb == "elliptic-check":
            head, args = [verb], {"--n": "16", "--alphas": "0.5",
                                  "--betas": "1"}
        else:
            head = [verb, "--config", "baseline", *TINY,
                    "--out", str(tmp_path / "cert.json")]
            args = {"--trials": "5"}
        args[flag] = value
        rc = main(head + [f"{k}={v}" for k, v in args.items()])
        joined = rc, capsys.readouterr()
        rc = main(head + [part for pair in args.items() for part in pair])
        assert (rc, capsys.readouterr()) == joined

    @pytest.mark.parametrize("axis, message", [
        ("gains.mu1=2,1e200", "Lyapunov constants not finite for "),
        ("gains.beta=1,1e-300", "certified decay time not finite for "),
    ])
    def test_sweep_row_fails_alone(self, axis, message, tmp_path, capsys,
                                   monkeypatch):
        import csv

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        out = tmp_path / "sw.csv"
        rc = main(["sweep", "--config", "baseline", *TINY, "--axis", axis,
                   "--out", str(out)])
        self.clean_exit(rc, capsys)
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith(f"failed: {message}")

    def test_converge_level(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        rc = main(["converge", "--config", "baseline", *TINY,
                   "--set", "gains.mu1=1e200"])
        self.clean_exit(rc, capsys)
        assert rc == EXIT_HYPOTHESIS
