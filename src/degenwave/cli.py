"""Command-line interface.

Verbs: simulate, sweep, converge, operator-check, elliptic-check.
Exit codes: 0 success, 1 failure to write an output, 2 any package error
(hypothesis/config validation failure), 3 audit failure under --strict.
main() alone maps errors to exit codes and stderr messages.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, analysis, config as cfgmod, model, operator_checks, reporting
from .errors import ConfigError, DegenwaveError, HypothesisError

EXIT_OK = 0
EXIT_IO = 1
EXIT_HYPOTHESIS = 2
EXIT_AUDIT = 3


def _load(args) -> cfgmod.RunConfig:
    cfg = cfgmod.load_config(args.config)
    if args.set:
        cfg = cfgmod.apply_overrides(cfg, args.set)
    if getattr(args, "seed", None) is not None:
        cfg = cfgmod.set_value(cfg, "seed", args.seed)
    return cfg


def _out_prefix(args, cfg, default_stem: str) -> Path:
    if args.out:
        prefix = Path(args.out)
    elif cfg.outputs_csv:
        prefix = Path(cfg.outputs_csv).with_suffix("")
    else:
        prefix = Path("out") / default_stem
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


def build_report(setup: cfgmod.RunSetup, traj, lyap, cert,
                 sandwich_violation) -> dict:
    cfg = setup.cfg
    consts = model.full_constants(setup.spec, setup.gains, setup.delay)
    e = traj.E
    e0 = float(e[0]) if e.size else 0.0
    t_final = cfg.integrator_t_final
    audits = {
        "E0": e0,
        "E_final": float(e[-1]) if e.size else 0.0,
        "bc_residual_max": float(np.max(traj.bc_residual)) if e.size else 0.0,
        "bc_residual_coeff": traj.bc_residual_coeff,
        "channel_discrepancy_max": float(np.max(np.abs(traj.channel_discrepancy)))
        if e.size else 0.0,
    }
    rises = np.diff(e)
    mono = max(0.0, float(np.max(rises))) if rises.size else 0.0
    audits["monotonicity_violation"] = mono
    audits["monotonicity_tol"] = 1e-8 * e0
    audits["monotonicity_pass"] = mono <= 1e-8 * e0

    if e.size >= 3 and consts.strictly_damped:
        aud = analysis.dissipation_audit(traj, consts.damping_const,
                                         setup.spec.a_of_1)
        tol = 0.02 * e0 / max(t_final, 1e-300)
        audits["dissipation_worst"] = aud.worst_violation
        audits["dissipation_tol"] = tol
        audits["dissipation_pass"] = aud.worst_violation <= tol
    else:
        audits["dissipation_worst"] = None
        audits["dissipation_tol"] = None
        audits["dissipation_pass"] = None

    if lyap is not None:
        audits["sandwich_violation"] = sandwich_violation
        audits["sandwich_tol"] = 1e-12 * max(e0, 1.0)
        audits["sandwich_pass"] = sandwich_violation <= 1e-12 * max(e0, 1.0)
    else:
        audits["sandwich_violation"] = None
        audits["sandwich_tol"] = None
        audits["sandwich_pass"] = None

    report = {
        "version": __version__,
        "config_hash": setup.fingerprint,
        "config": cfgmod.effective_items(cfg),
        "constants": {
            "mu_a": setup.spec.mu_a,
            "a_of_1": setup.spec.a_of_1,
            "strong_degeneracy": setup.spec.strong,
            "poincare_const": consts.poincare_const,
            "coercivity_const": consts.coercivity_const,
            "trace_const": consts.trace_const,
            "gain_margin": consts.gain_margin,
            "damping_const": consts.damping_const,
            "wellposed": consts.wellposed,
            "strictly_damped": consts.strictly_damped,
            "delay_bound_d": setup.delay.d,
        },
        "lyapunov": None if lyap is None else {
            "epsilon": lyap.epsilon,
            "equiv_lower": lyap.equiv_lower,
            "equiv_upper": lyap.equiv_upper,
            "damping_slack": lyap.damping_slack,
            "boundary_const": lyap.boundary_const,
            "eps_sandwich": lyap.eps_sandwich,
            "eps_damping": lyap.eps_damping,
        },
        "decay": None if cert is None else {
            "decay_time_bound": cert.decay_time_bound,
            "rate_fit": cert.rate_fit,
            "integral_gain_max": cert.integral_gain_max,
            "envelope_ok": cert.envelope_ok,
            "horizon_ok": cert.horizon_ok,
        },
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
    }
    return report


def simulate_config(cfg: cfgmod.RunConfig, snapshots: bool = False):
    """Run one scenario; returns (setup, trajectory, report, snapshot store)."""
    setup = cfgmod.build_setup(cfg)
    consts = model.full_constants(setup.spec, setup.gains, setup.delay)
    lyap = None
    cert = None
    if consts.strictly_damped:
        lyap = analysis.choose_epsilon(setup.spec, setup.gains.beta,
                                       setup.gains, setup.delay, consts)
    store = reporting.SnapshotStore() if snapshots else None
    traj = cfgmod.run_from_setup(setup, lyap=lyap, snapshot_sink=store)
    t_final = cfg.integrator_t_final
    ctx = operator_checks.ProbeContext(
        mesh=setup.mesh, ops=setup.ops, gains=setup.gains, delay=setup.delay,
        n_delta=cfg.channel_n_delta,
    )
    cert_ops = operator_checks.run_certificate(
        ctx, [0.0, t_final / 2.0, t_final] if t_final > 0 else [0.0],
        seed=cfg.seed, diss_trials=200, res_trials=40, ratio_trials=200,
    )
    if lyap is not None and traj.E.size >= 2:
        from .errors import InsufficientHorizon

        with warnings.catch_warnings():
            # the shortfall is surfaced through the report and stdout here
            warnings.simplefilter("ignore", InsufficientHorizon)
            cert = analysis.decay_certificate(
                traj, lyap, consts, setup.spec.mu_a, setup.gains.beta,
                setup.delay.tau1,
            )
        if not cert.horizon_ok:
            traj.warnings.append(
                "horizon shortfall: t_final is below 3x the certified decay "
                "time; the envelope check covers only the recorded window"
            )
    sandwich = analysis.sandwich_audit(traj, lyap) if lyap is not None else None
    report = build_report(setup, traj, lyap, cert, sandwich)
    report["operator_certificate"] = cert_ops
    if store is not None:
        report["audits"]["snapshot_energy_max_rel_err"] = (
            store.recompute_energy_max_rel_err(
                traj, setup.ops, setup.gains, setup.delay
            )
        )
    return setup, traj, report, store


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
    setup, traj, report, store = simulate_config(cfg, snapshots=args.snapshots)
    prefix = _out_prefix(args, cfg, Path(args.config).stem)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
    reporting.write_trajectory_csv(traj, csv_path)
    reporting.write_report(report, json_path)
    if store is not None:
        store.save(prefix.with_suffix(".snapshots.npz"))
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


def _sweep_row(payload):
    idx, cfg, keys = payload
    row = {k: cfgmod.get_value(cfg, k) for k in keys}
    row["row"] = idx
    row["seed"] = cfg.seed
    try:
        setup, traj, report, _ = simulate_config(cfg)
        c = report["constants"]
        d = report.get("decay")
        row.update(
            damping_const=c["damping_const"],
            gain_margin=c["gain_margin"],
            rate_fit=(d or {}).get("rate_fit", math.nan),
            envelope_ok=(d or {}).get("envelope_ok", ""),
            decay_time_bound=(d or {}).get("decay_time_bound", math.nan),
            E0=report["audits"]["E0"],
            E_final=report["audits"]["E_final"],
            status="ok",
        )
    except DegenwaveError as exc:
        row.update(
            damping_const=math.nan, gain_margin=math.nan, rate_fit=math.nan,
            envelope_ok="", decay_time_bound=math.nan, E0=math.nan,
            E_final=math.nan, status=f"failed: {exc}",
        )
    return row


def sweep_rows(cfg: cfgmod.RunConfig, axes: list[tuple[str, list[str]]],
               jobs: int = 1) -> list[dict]:
    if len(axes) > 3:
        raise ConfigError("at most 3 sweep axes")
    keys = [k for k, _ in axes]
    grids = [vals for _, vals in axes]
    payloads = []
    master = cfg.seed
    for idx, combo in enumerate(itertools.product(*grids) if grids else [()]):
        c = cfg
        for key, val in zip(keys, combo):
            c = cfgmod.set_value(c, key, val)
        c = cfgmod.set_value(c, "seed", (master * 1_000_003 + 17 * idx) % 2**31)
        payloads.append((idx, c, keys))
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    out = [",".join(cols)]
    for r in rows:
        cells = []
        for c in cols:
            v = r[c]
            cells.append(f"{v:.16e}" if isinstance(v, float) else str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def cmd_sweep(args) -> int:
    cfg = _load(args)
    axes = []
    for spec_str in args.axis or []:
        if "=" not in spec_str:
            raise ConfigError(f"axis {spec_str!r} must be key=v1,v2,...")
        key, vals = spec_str.split("=", 1)
        axes.append((key.strip(), [v.strip() for v in vals.split(",")]))
    rows = sweep_rows(cfg, axes, jobs=args.jobs)
    text = _rows_to_csv(rows)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    return EXIT_OK


# --- convergence study --------------------------------------------------------


def converge_table(cfg: cfgmod.RunConfig, levels: int = 3,
                   start_n: int | None = None) -> dict:
    """Double N, N_delta and 1/dt per level; report E(T) differences and the
    observed order."""
    if levels < 3:
        raise ConfigError("need at least 3 levels")
    base = cfgmod.build_setup(cfg)
    n0 = start_n or cfg.mesh_n
    rows = []
    for k in range(levels):
        n = n0 * 2**k
        ratio = n / cfg.mesh_n
        c = cfgmod.set_value(cfg, "mesh.n", n)
        c = cfgmod.set_value(c, "channel.n_delta",
                             max(8, int(round(cfg.channel_n_delta * ratio))))
        c = cfgmod.set_value(c, "integrator.dt", base.dt / ratio)
        setup, traj, report, _ = simulate_config(c)
        st = traj.final_state
        rows.append({
            "level": k, "N": n, "n_delta": c.channel_n_delta, "dt": setup.dt,
            "E_T": report["audits"]["E_final"],
            "trace_u": float(st.u[-1]), "trace_v": float(st.v[-1]),
        })
    diffs = []
    for a, b in zip(rows[:-1], rows[1:]):
        diffs.append({
            "dE": abs(b["E_T"] - a["E_T"]),
            "du": abs(b["trace_u"] - a["trace_u"]),
            "dv": abs(b["trace_v"] - a["trace_v"]),
        })
    orders = []
    for a, b in zip(diffs[:-1], diffs[1:]):
        if b["dE"] == 0.0:
            orders.append("exact")
        elif a["dE"] == 0.0:
            # the coarse pair coincides (e.g. both levels clamp n_delta to 8)
            orders.append(math.nan)
        else:
            orders.append(math.log2(a["dE"] / b["dE"]))
    return {"levels": rows, "differences": diffs, "orders_E": orders}


def cmd_converge(args) -> int:
    cfg = _load(args)
    table = converge_table(cfg, levels=args.levels, start_n=args.start_n)
    text = reporting.report_json_text(table)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    for row in table["levels"]:
        print(f"level {row['level']}: N={row['N']} dt={row['dt']:.3e} "
              f"E(T)={row['E_T']:.12e}")
    print("orders:", table["orders_E"])
    return EXIT_OK


# --- operator certificates ----------------------------------------------------


def cmd_operator_check(args) -> int:
    cfg = _load(args)
    setup = cfgmod.build_setup(cfg)
    t_list = args.t if args.t else [0.0, cfg.integrator_t_final / 2.0,
                                    cfg.integrator_t_final]
    ctx = operator_checks.ProbeContext(
        mesh=setup.mesh, ops=setup.ops, gains=setup.gains, delay=setup.delay,
        n_delta=cfg.channel_n_delta,
    )
    cert = operator_checks.run_certificate(
        ctx, t_list, seed=cfg.seed, diss_trials=args.trials,
        res_trials=max(1, args.trials // 5), ratio_trials=args.trials,
    )
    text = reporting.report_json_text(cert)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    print(f"certificate pass = {cert['pass']}")
    if args.strict and not cert["pass"]:
        return EXIT_AUDIT
    return EXIT_OK


# --- elliptic estimates --------------------------------------------------------


def elliptic_table(alphas, betas, lams, n: int, scale: float = 1.0) -> dict:
    from . import mesh as mesh_mod

    cases = []
    all_ok = True
    for al in alphas:
        spec = model.make_coefficient("power", {"alpha": al, "scale": scale})
        msh = mesh_mod.build_mesh(n, mesh_mod.default_gamma(spec.mu_a))
        for b in betas:
            for lam in lams:
                res = analysis.solve_auxiliary_elliptic(spec, b, lam, msh)
                all_ok = all_ok and res.bounds_ok
                cases.append({
                    "alpha": al, "beta": b, "lam": lam, "N": n,
                    "energy_norm_sq": res.energy_norm_sq,
                    "energy_bound": res.energy_bound,
                    "l2_norm_sq": res.l2_norm_sq,
                    "l2_bound": res.l2_bound,
                    "bounds_ok": res.bounds_ok,
                    "l2_error_vs_exact": res.l2_error_vs_exact,
                })
    return {"cases": cases, "pass": all_ok}


def cmd_elliptic_check(args) -> int:
    alphas = args.alphas or [0.25, 0.5, 0.75, 1.5]
    betas = args.betas or [0.5, 1.0, 2.0]
    lams = [-1.0, 1.0]
    table = elliptic_table(alphas, betas, lams, n=args.n)
    text = reporting.report_json_text(table)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
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


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="degenwave",
        description="Degenerate wave equation with delayed boundary feedback: "
                    "simulation and numerical certification",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_config=True):
        if needs_config:
            sp.add_argument("--config", required=True,
                            help="config file path or shipped scenario name")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        help="override a config key (repeatable)")
        sp.add_argument("--out", default=None, help="output path or prefix")
        sp.add_argument("--strict", action="store_true",
                        help="exit 3 when an audit fails")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")

    sp = sub.add_parser("simulate", help="run one scenario, write CSV + report")
    common(sp)
    sp.add_argument("--snapshots", action="store_true",
                    help="also store per-sample state snapshots (.npz)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="grid sweep over up to 3 config keys")
    common(sp)
    sp.add_argument("--axis", action="append", metavar="KEY=V1,V2,...",
                    help="sweep axis (repeatable, up to 3)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes (default: 1)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("converge", help="self-convergence study")
    common(sp)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--start-n", type=int, default=None, dest="start_n")
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("operator-check",
                        help="dissipativity / resolvent / norm-ratio probes")
    common(sp)
    sp.add_argument("--t", type=float, action="append", default=None,
                    help="probe time (repeatable; default 0, T/2, T)")
    sp.add_argument("--trials", type=int, default=500)
    sp.set_defaults(func=cmd_operator_check)

    sp = sub.add_parser("elliptic-check",
                        help="auxiliary elliptic problem estimates")
    common(sp, needs_config=False)
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
