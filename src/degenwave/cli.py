"""Command-line interface.

Verbs: simulate, sweep, converge, operator-check, elliptic-check.
Exit codes: 0 success, 1 failure to write an output, 2 any package error
(hypothesis/config validation failure), 3 audit failure under --strict
(simulate, operator-check, elliptic-check).
main() alone maps errors to exit codes and stderr messages.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import (
    __version__,
    analysis,
    config as cfgmod,
    model,
    operator_checks,
    reporting,
    stepper,
)
from .errors import ConfigError, DegenwaveError, HypothesisError

EXIT_OK = 0
EXIT_IO = 1
EXIT_HYPOTHESIS = 2
EXIT_AUDIT = 3


def _load(args) -> cfgmod.RunConfig:
    cfg = cfgmod.load_config(args.config)
    if args.set:
        cfg = cfgmod.apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg = cfgmod.set_value(cfg, "seed", args.seed)
    return cfg


def _out_prefix(args, cfg, default_stem: str) -> str:
    """The path the outputs' suffixes are appended to: --out, else
    outputs.csv, without one trailing ".csv" (any other dotted part is
    kept), else out/<default_stem>."""
    prefix = args.out or cfg.outputs_csv or str(Path("out") / default_stem)
    prefix = prefix[:-4] if prefix.endswith(".csv") else prefix
    Path(prefix).parent.mkdir(parents=True, exist_ok=True)
    return prefix


def _write_text(path: str, text: str, note: str = "") -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    print(f"wrote {path}{note}")


def _put_audit(audits: dict, value_key: str, value, tol: float) -> None:
    """Write an audit's value under value_key, whose first word names the
    audit, and its <name>_tol and <name>_pass keys; all three are None when
    the audit did not run (value None)."""
    name = value_key.split("_")[0]
    audits[value_key] = value
    audits[f"{name}_tol"] = None if value is None else tol
    audits[f"{name}_pass"] = None if value is None else value <= tol


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fan_out(fn, items: list, jobs: int) -> list:
    """fn of each item, in item order, up to the first that returns a
    DegenwaveError: the calls for the items after it are dropped.  With
    jobs > 1 and more than one item the calls run in min(jobs, len(items))
    worker processes, which take the items from the last one back (so the
    longest should come last); otherwise they run in this process."""
    done = []
    if jobs > 1 and len(items) > 1:
        # imported here: multiprocessing costs every other verb's cold start
        from concurrent.futures import ProcessPoolExecutor

        # forked workers share this process's heap until they write to it;
        # frozen, its objects are skipped by the workers' garbage
        # collections, which would otherwise copy every page they sit on
        gc.freeze()
        try:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(items))) as pool:
                calls = [pool.submit(fn, item) for item in items[::-1]][::-1]
                for call in calls:
                    done.append(call.result())
                    if isinstance(done[-1], DegenwaveError):
                        # stop the workers still busy: the executor itself
                        # would wait for them
                        for worker in list(pool._processes.values()):
                            worker.terminate()
                        pool.shutdown(cancel_futures=True)
                        break
        finally:
            gc.unfreeze()
        return done
    for item in items:
        done.append(fn(item))
        if isinstance(done[-1], DegenwaveError):
            break
    return done


@dataclass(eq=False)
class Simulation:
    """One config of a batch: its setup, constants, Lyapunov parameters
    and, once run, its trajectory."""

    setup: cfgmod.RunSetup
    consts: model.StructuralConstants
    lyap: Optional[analysis.LyapunovParams]
    traj: Optional[stepper.Trajectory] = None

    @classmethod
    def prepare(cls, cfg: cfgmod.RunConfig) -> "Simulation":
        setup = cfgmod.build_setup(cfg)
        consts = model.full_constants(setup.spec, setup.gains, setup.delay)
        lyap = None
        if consts.strictly_damped:
            lyap = analysis.choose_epsilon(setup.spec, setup.gains,
                                           setup.delay)
        return cls(setup, consts, lyap)


def _probe_context(setup: cfgmod.RunSetup) -> operator_checks.ProbeContext:
    """The operator checks' view of a run's setup."""
    return operator_checks.ProbeContext(
        mesh=setup.mesh, ops=setup.ops, gains=setup.gains,
        delay=setup.delay, n_delta=setup.cfg.channel_n_delta,
    )


def _probe_times(traj: stepper.Trajectory) -> list[float]:
    """The times a finished run's operator checks probe: 0, t_end/2 and
    t_end, or 0 alone when t_end = 0.  t_end is the time the run ends at,
    which is t_final only when t_final is a whole number of steps."""
    t_end = float(traj.t[-1])
    return [0.0, t_end / 2.0, t_end] if t_end > 0 else [0.0]


def _decay_certificate(
        sim: Simulation) -> Optional[analysis.DecayCertificate]:
    """The decay certificate of a finished run, or None without Lyapunov
    parameters or with fewer than 2 samples.  A certificate whose horizon
    falls short adds a warning to the run's."""
    setup, traj = sim.setup, sim.traj
    if sim.lyap is None or traj.E.size < 2:
        return None
    cert = analysis.decay_certificate(
        traj, sim.lyap, sim.consts, setup.spec.mu_a, setup.gains.beta,
        setup.delay.tau1,
    )
    if not cert.horizon_ok:
        traj.warnings.append(
            "horizon shortfall: t_final is below 3x the certified "
            "decay time; the envelope check covers only the recorded "
            "window"
        )
    return cert


def build_report(sim: Simulation) -> dict:
    """The report of a finished run: constants, Lyapunov parameters, decay
    certificate, audits and the embedded operator certificate.  A decay
    certificate whose horizon falls short adds a warning to the run's."""
    setup, consts, lyap, traj = sim.setup, sim.consts, sim.lyap, sim.traj
    cfg = setup.cfg
    e = traj.E
    e0 = float(e[0])
    cert_ops = operator_checks.run_certificate(
        _probe_context(setup), _probe_times(traj),
        seed=cfg.seed, diss_trials=200, res_trials=40,
    )
    cert = _decay_certificate(sim)

    audits = {
        "E0": e0,
        "E_final": float(e[-1]),
        "bc_residual_max": float(np.max(traj.bc_residual)),
        # C in max bc_residual <= C (dt + 1/N)
        "bc_residual_coeff": float(np.max(traj.bc_residual)
                                   / (setup.dt + 1.0 / setup.mesh.N)),
        "channel_discrepancy_max":
            float(np.max(np.abs(traj.channel_discrepancy))),
    }
    rises = np.diff(e)
    _put_audit(audits, "monotonicity_violation",
               max(0.0, float(np.max(rises))) if rises.size else 0.0,
               1e-8 * e0)
    _put_audit(audits, "dissipation_worst",
               analysis.dissipation_audit(traj, consts.damping_const,
                                          setup.spec.a_of_1)
               if e.size >= 3 and consts.strictly_damped else None,
               0.02 * e0 / max(cfg.integrator_t_final, 1e-300))
    _put_audit(audits, "sandwich_violation",
               None if lyap is None else analysis.sandwich_audit(traj, lyap),
               1e-12 * max(e0, 1.0))
    if traj.snapshots is not None:
        audits["snapshot_energy_max_rel_err"] = (
            reporting.snapshot_energy_max_rel_err(
                traj, setup.ops, setup.gains, setup.delay))

    return {
        "version": __version__,
        "config_hash": cfgmod.config_hash(cfg),
        "config": cfgmod.effective_items(cfg),
        "constants": {
            "mu_a": setup.spec.mu_a,
            "a_of_1": setup.spec.a_of_1,
            "strong_degeneracy": setup.spec.strong,
            **asdict(consts),
            "delay_bound_d": setup.delay.d,
        },
        "lyapunov": None if lyap is None else asdict(lyap),
        "decay": None if cert is None else asdict(cert),
        "audits": audits,
        "notes": {
            "modified_functional_leading_constant":
                "trace-dissipation coefficient taken as damping_const * a(1); "
                "not silently replaced by the equivalence constant",
            "norm_ratio_exponents":
                "stated exponent d/(2 tau0) asserted; in-proof exponent "
                "d/tau0 reported alongside in operator certificates",
        },
        "warnings": list(traj.warnings),
        "operator_certificate": cert_ops,
    }


def simulate_batch(cfgs: list[cfgmod.RunConfig], snapshots: bool = False,
                   energy_only: bool = False) -> list:
    """Set up configs that differ at most in their gains and seed and run
    them as one lockstep batch (`stepper.run`; with `energy_only` the
    trajectories record t and E alone).  Returns, per config, its
    Simulation or the DegenwaveError that stopped it: a config that fails
    to set up, or whose state turns non-finite, fails alone, and an error
    of the shared run fails them all.  Each row's trajectory has the bits
    of its run alone."""
    sims = []
    for cfg in cfgs:
        try:
            sims.append(Simulation.prepare(cfg))
        except DegenwaveError as exc:
            sims.append(exc)
    live = [i for i, s in enumerate(sims) if isinstance(s, Simulation)]
    if live:
        try:
            trajs = cfgmod.run_from_setup(
                [sims[i].setup for i in live],
                lyap=[sims[i].lyap for i in live],
                snapshots=snapshots, energy_only=energy_only)
        except DegenwaveError as exc:
            trajs = [exc] * len(live)
        for i, traj in zip(live, trajs):
            if isinstance(traj, DegenwaveError):
                sims[i] = traj
            else:
                sims[i].traj = traj
    return sims


def simulate_config(cfg: cfgmod.RunConfig, snapshots: bool = False):
    """Run one scenario (a batch of one); returns (setup, trajectory,
    report)."""
    (sim,) = simulate_batch([cfg], snapshots)
    if isinstance(sim, DegenwaveError):
        raise sim
    return sim.setup, sim.traj, build_report(sim)


def _strict_failures(report: dict) -> list[str]:
    fails = []
    c = report["constants"]
    if not c["wellposed"]:
        fails.append("gain margin negative")
    if not c["strictly_damped"]:
        fails.append("damping margin not positive")
    a = report["audits"]
    for key in ("monotonicity_pass", "dissipation_pass", "sandwich_pass"):
        if a.get(key) is False:
            fails.append(key.replace("_pass", " audit failed"))
    d = report.get("decay")
    if d is not None and not d["envelope_ok"]:
        fails.append("decay envelope violated")
    cert = report.get("operator_certificate")
    if cert is not None and not cert["pass"]:
        fails.append("operator certificate failed")
    return fails


def cmd_simulate(args) -> int:
    cfg = _load(args)
    setup, traj, report = simulate_config(cfg, snapshots=args.snapshots)
    prefix = _out_prefix(args, cfg, Path(args.config).stem)
    csv_path, json_path = prefix + ".csv", prefix + ".json"
    reporting.write_trajectory_csv(traj, csv_path)
    reporting.write_report(report, json_path)
    if traj.snapshots is not None:
        reporting.save_snapshots(traj, prefix + ".snapshots.npz")
    print(f"wrote {csv_path} ({traj.t.size} samples) and {json_path}")
    e = traj.E
    print(f"E(0) = {e[0]:.6g}, E(T) = {e[-1]:.6g}, "
          f"damping_const = {report['constants']['damping_const']:.6g}")
    for w in traj.warnings:
        print(f"warning: {w}")
    if args.strict:
        fails = _strict_failures(report)
        if fails:
            print("strict audit failures: " + "; ".join(fails), file=sys.stderr)
            return EXIT_AUDIT
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


# a sweep row's result columns, as a row that failed reads them
_SWEEP_FAILED = {
    "damping_const": math.nan, "gain_margin": math.nan, "rate_fit": math.nan,
    "envelope_ok": "", "decay_time_bound": math.nan, "E0": math.nan,
    "E_final": math.nan,
}
# where a failed row carries its ConfigError to `sweep_rows`, which pops it
_CONFIG_ERROR = "config_error"


def _sweep_row(payload, sim) -> dict:
    """The sweep row of one config from its simulation, or from the
    DegenwaveError that stopped it.  A row reads the run's constants, its
    decay certificate and its first and last energies, and builds no
    report: of the report's other sections it keeps only their one failure,
    a resolvent system (`operator_checks.Resolvent`) that does not factor
    at one of the run's probe times, which fails the row as it fails
    `simulate`."""
    idx, cfg, keys = payload
    row = {k: cfgmod.get_value(cfg, k) for k in keys}
    row.update(row=idx, seed=cfg.seed, **_SWEEP_FAILED, status="ok")
    try:
        if isinstance(sim, DegenwaveError):
            raise sim
        ctx = _probe_context(sim.setup)
        for t in _probe_times(sim.traj):
            operator_checks.Resolvent(t, ctx)
        cert = _decay_certificate(sim)
    except DegenwaveError as exc:
        row["status"] = f"failed: {exc}"
        if isinstance(exc, ConfigError):
            row[_CONFIG_ERROR] = exc
        return row
    e = sim.traj.E
    row.update(damping_const=sim.consts.damping_const,
               gain_margin=sim.consts.gain_margin,
               E0=float(e[0]), E_final=float(e[-1]))
    if cert is not None:
        row.update(rate_fit=cert.rate_fit, envelope_ok=cert.envelope_ok,
                   decay_time_bound=cert.decay_time_bound)
    return row


def _sweep_batch(batch) -> list[dict]:
    """The rows of one lockstep batch of sweep payloads, which read t and E
    alone."""
    sims = simulate_batch([cfg for _, cfg, _ in batch], energy_only=True)
    return [_sweep_row(p, sim) for p, sim in zip(batch, sims)]


def _cut_batches(batches: list, jobs: int) -> list:
    """Cut batches, each a list of its midpoint systems' rows, in two
    between their systems until there are `jobs` of them or each has one
    system: the batch with the most systems first."""
    batches = list(batches)
    while len(batches) < jobs:
        i = max(range(len(batches)), key=lambda i: len(batches[i]))
        systems = batches[i]
        if len(systems) < 2:
            break
        half = len(systems) // 2
        batches[i:i + 1] = systems[:half], systems[half:]
    return batches


def sweep_rows(cfg: cfgmod.RunConfig, axes: list[tuple[str, list[str]]],
               jobs: int = 1) -> list[dict]:
    """One row per grid point.  Rows whose configs differ only in their
    gains (and their derived seeds) run as one lockstep batch, its rows
    grouped by midpoint system (`stepper.system_key`), and `jobs` worker
    processes take whole batches, cut between systems (`_cut_batches`)
    until each worker has one where the systems allow; every row has the
    bits of its run alone.  An axis names a config key once, and never
    `seed`, which each row derives from the master seed.  A row that fails
    reads `failed: <error>`; when every row fails with one and the same
    ConfigError, the config the rows share is at fault, not the grid, and
    that error is raised instead."""
    if len(axes) > 3:
        raise ConfigError("at most 3 sweep axes")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    keys = [k for k, _ in axes]
    for i, key in enumerate(keys):
        if key == "seed":
            raise ConfigError("seed cannot be a sweep axis: each row's seed "
                              "derives from the master seed (--seed)")
        if key in keys[:i]:
            raise ConfigError(f"sweep axis {key} is given twice")
    grids = [vals for _, vals in axes]
    batches: dict = {}
    master = cfg.seed
    for idx, combo in enumerate(itertools.product(*grids) if grids else [()]):
        c = cfg
        for key, val in zip(keys, combo):
            c = cfgmod.set_value(c, key, val)
        c = cfgmod.set_value(c, "seed", (master * 1_000_003 + 17 * idx) % 2**31)
        system = stepper.system_key(c.gains_mu1, c.gains_beta)
        batches.setdefault(cfgmod.batch_key(c), {}).setdefault(
            system, []).append((idx, c, keys))
    cut = _cut_batches([list(b.values()) for b in batches.values()], jobs)
    done = _fan_out(_sweep_batch,
                    [[p for rows in b for p in rows] for b in cut], jobs)
    rows = sorted((row for rows in done for row in rows),
                  key=lambda row: row["row"])
    errors = [row.pop(_CONFIG_ERROR, None) for row in rows]
    if None not in errors and len({str(exc) for exc in errors}) == 1:
        raise errors[0]
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    """The sweep's CSV: a float cell as "%.16e", any other as str, quoted
    only where it holds a comma or a quote (a failed row's status)."""
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for r in rows:
        writer.writerow(f"{v:.16e}" if isinstance(v, float) else str(v)
                        for v in (r[c] for c in cols))
    return out.getvalue()


def cmd_sweep(args) -> int:
    cfg = _load(args)
    axes = []
    for spec_str in args.axis or []:
        if "=" not in spec_str:
            raise ConfigError(f"axis {spec_str!r} must be key=v1,v2,...")
        key, vals = spec_str.split("=", 1)
        axes.append((key.strip(), [v.strip() for v in vals.split(",")]))
    rows = sweep_rows(cfg, axes, jobs=_usable_cpus())
    text = _rows_to_csv(rows)
    if args.out:
        _write_text(args.out, text, f" ({len(rows)} rows)")
    else:
        print(text, end="")
    return EXIT_OK


# --- convergence study --------------------------------------------------------


def _converge_level(cfg: cfgmod.RunConfig):
    """Run one converge level for its end state.  Returns its row (without
    the level number) and its run warnings, or the DegenwaveError that
    stopped it; the trajectory, which records t and E alone, stays in the
    process that ran it."""
    (sim,) = simulate_batch([cfg], energy_only=True)
    if isinstance(sim, DegenwaveError):
        return sim
    traj = sim.traj
    st = traj.final_state
    row = {
        "N": cfg.mesh_n, "n_delta": cfg.channel_n_delta,
        "dt": sim.setup.dt, "t_end": float(traj.t[-1]),
        "E_T": float(traj.E[-1]),
        "trace_u": float(st.u[-1]), "trace_v": float(st.v[-1]),
    }
    return row, traj.warnings


def converge_table(cfg: cfgmod.RunConfig, levels: int = 3,
                   start_n: int | None = None) -> dict:
    """Self-convergence of the terminal state: level k doubles N, n_delta
    (at least 8) and 1/dt k times from start_n (default: the config's N).

    A level runs for its end state only: it records the initial and final
    instants (integrator.record_every = its step count) and builds no
    report or certificate.  The levels run side by side, one worker
    process per usable CPU, finest first (`_fan_out`), or in this process
    coarsest first; the table does not depend on how many ran at once.
    Returns {"levels": one row per level with level, N, n_delta, dt,
    t_end (the time the level ends at), E_T, trace_u and trace_v;
    "differences": dE, du and dv of successive levels; "orders_E": log2 of
    successive dE ratios, NaN where the three levels behind an order end
    more than 1e-6 of the finest dt apart; "warnings": each level's run
    warnings as "level k: ..."}.  When levels fail, the error of the
    coarsest failing one is raised (a blow-up raises its NonFiniteState)
    as soon as the levels coarser than it are done."""
    if levels < 3:
        raise ConfigError("need at least 3 levels")
    if start_n is not None and start_n < 1:
        raise ConfigError(f"--start-n must be at least 1, got {start_n}")
    base = cfgmod.build_setup(cfg)
    n0 = cfg.mesh_n if start_n is None else start_n
    cfgs = []
    for k in range(levels):
        n = n0 * 2**k
        ratio = n / cfg.mesh_n
        c = cfgmod.set_value(cfg, "mesh.n", n)
        c = cfgmod.set_value(c, "channel.n_delta",
                             max(8, int(round(cfg.channel_n_delta * ratio))))
        c = cfgmod.set_value(c, "integrator.dt", base.dt / ratio)
        # record every n_steps-th step: only the endpoints
        n_steps = stepper.step_count(c.integrator_t_final, c.integrator_dt)[0]
        cfgs.append(cfgmod.set_value(c, "integrator.record_every",
                                     max(1, n_steps)))
    # the finest level is the longest: the workers start it first
    done = _fan_out(_converge_level, cfgs, _usable_cpus())
    rows, notes = [], []
    for k, result in enumerate(done):
        if isinstance(result, DegenwaveError):
            raise result
        row, warnings = result
        rows.append({"level": k, **row})
        notes.extend(f"level {k}: {w}" for w in warnings)
    diffs = []
    for a, b in zip(rows[:-1], rows[1:]):
        diffs.append({
            "dE": abs(b["E_T"] - a["E_T"]),
            "du": abs(b["trace_u"] - a["trace_u"]),
            "dv": abs(b["trace_v"] - a["trace_v"]),
        })
    orders = []
    for k, (a, b) in enumerate(zip(diffs[:-1], diffs[1:])):
        ends = [row["t_end"] for row in rows[k:k + 3]]
        if max(ends) - min(ends) > 1e-6 * rows[k + 2]["dt"]:
            # the levels end at different times (see their warnings), so
            # the differences mix time with discretization error
            orders.append(math.nan)
        elif b["dE"] == 0.0:
            orders.append("exact")
        elif a["dE"] == 0.0:
            # the coarse pair coincides (e.g. both levels clamp n_delta to 8)
            orders.append(math.nan)
        else:
            orders.append(math.log2(a["dE"] / b["dE"]))
    return {"levels": rows, "differences": diffs, "orders_E": orders,
            "warnings": notes}


def cmd_converge(args) -> int:
    cfg = _load(args)
    table = converge_table(cfg, levels=args.levels, start_n=args.start_n)
    text = reporting.report_json_text(table)
    if args.out:
        _write_text(args.out, text)
    for row in table["levels"]:
        print(f"level {row['level']}: N={row['N']} dt={row['dt']:.3e} "
              f"E(T)={row['E_T']:.12e}")
    print("orders:", table["orders_E"])
    for w in table["warnings"]:
        print(f"warning: {w}")
    return EXIT_OK


# --- operator certificates ----------------------------------------------------


def cmd_operator_check(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    for t in args.t or []:
        if not (math.isfinite(t) and t >= 0.0):
            raise ConfigError(f"--t must be a finite time >= 0, got {t}")
    cfg = _load(args)
    setup = cfgmod.build_setup(cfg)
    t_list = args.t if args.t else [0.0, cfg.integrator_t_final / 2.0,
                                    cfg.integrator_t_final]
    cert = operator_checks.run_certificate(
        _probe_context(setup), t_list, seed=cfg.seed, diss_trials=args.trials,
        res_trials=max(1, args.trials // 5),
    )
    text = reporting.report_json_text(cert)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    print(f"certificate pass = {cert['pass']}")
    if args.strict and not cert["pass"]:
        return EXIT_AUDIT
    return EXIT_OK


# --- elliptic estimates --------------------------------------------------------


def elliptic_table(alphas, betas, lams, n: int) -> dict:
    from . import mesh as mesh_mod

    cases = []
    all_ok = True
    for al in alphas:
        spec = model.make_coefficient("power", {"alpha": al})
        msh = mesh_mod.build_mesh(n, mesh_mod.default_gamma(spec.mu_a))
        for b in betas:
            for lam in lams:
                res = analysis.solve_auxiliary_elliptic(spec, b, lam, msh)
                all_ok = all_ok and res.bounds_ok
                cases.append({
                    "alpha": al, "beta": b, "lam": lam, "N": n,
                    **{f.name: getattr(res, f.name) for f in fields(res)
                       if f.name != "z"},
                })
    return {"cases": cases, "pass": all_ok}


def cmd_elliptic_check(args) -> int:
    alphas = args.alphas or [0.25, 0.5, 0.75, 1.5]
    betas = args.betas or [0.5, 1.0, 2.0]
    if not all(b > 0.0 for b in betas):
        raise ConfigError(f"--betas must be positive, got {betas}")
    lams = [-1.0, 1.0]
    table = elliptic_table(alphas, betas, lams, n=args.n)
    text = reporting.report_json_text(table)
    if args.out:
        _write_text(args.out, text)
    worst = max(
        (c["l2_error_vs_exact"] for c in table["cases"]
         if c["l2_error_vs_exact"] is not None),
        default=math.nan,
    )
    print(f"{len(table['cases'])} cases, bounds pass = {table['pass']}, "
          f"worst L2 error vs closed form = {worst:.3e}")
    if args.strict and not table["pass"]:
        return EXIT_AUDIT
    return EXIT_OK


# --- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (its subcommands' parsers are too) that reads a
    negative number in exponent form, -1e200, as a value, as argparse reads
    -1 and -1.5, not as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="degenwave",
        description="Degenerate wave equation with delayed boundary feedback: "
                    "simulation and numerical certification",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True, strict=False):
        if config:
            sp.add_argument("--config", required=True,
                            help="config file path or shipped scenario name")
            sp.add_argument("--set", action="append", default=[],
                            metavar="KEY=VAL",
                            help="override a config key (repeatable)")
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
        sp.add_argument("--out", default=None, help="output path or prefix")
        if strict:
            sp.add_argument("--strict", action="store_true",
                            help="exit 3 when an audit fails")

    sp = sub.add_parser("simulate", help="run one scenario, write CSV + report")
    common(sp, strict=True)
    sp.add_argument("--snapshots", action="store_true",
                    help="also store per-sample state snapshots (.npz)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="grid sweep over up to 3 config keys")
    common(sp)
    sp.add_argument("--axis", action="append", metavar="KEY=V1,V2,...",
                    help="sweep axis (repeatable, up to 3)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("converge", help="self-convergence study")
    common(sp)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--start-n", type=int, default=None, dest="start_n")
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("operator-check",
                        help="dissipativity / resolvent / norm-ratio probes")
    common(sp, strict=True)
    sp.add_argument("--t", type=float, action="append", default=None,
                    help="probe time (repeatable; default 0, T/2, T)")
    sp.add_argument("--trials", type=int, default=500)
    sp.set_defaults(func=cmd_operator_check)

    sp = sub.add_parser("elliptic-check",
                        help="auxiliary elliptic problem estimates")
    common(sp, config=False, strict=True)
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--alphas", type=float, nargs="*", default=None)
    sp.add_argument("--betas", type=float, nargs="*", default=None)
    sp.set_defaults(func=cmd_elliptic_check)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"hypothesis validation failed: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except DegenwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
