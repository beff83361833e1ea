"""The benchmark's workloads.

Each workload runs one pass through the package's public entry points and
turns the pass's outputs into checked operations.  An operation is one
simulate run, one converge level, one sweep row, or one certificate or
elliptic case.  It carries the values compared with the stored reference
(within `RTOL * scale`, where scale is E(0) for trajectory values and
the solution's L2 norm for elliptic errors) and the
pass/fail bits that must equal the reference exactly.

The workload seed reaches the program only as `cfg.seed`.  It drives the
certificate RNG and the sweep row seeds, never the trajectories, so the
trajectory references hold for every seed.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math

import numpy as np
from degenwave import cli, config, operator_checks

RTOL = 1e-10

SWEEP_AXES = [
    ("coefficient.alpha", ["0.5", "1.5"]),
    ("gains.mu2", ["0", "0.2", "0.4"]),
    ("gains.beta", ["0.5", "2"]),
]
SWEEP_JOBS = 2
CERT_SCENARIOS = ("baseline", "strong-degeneracy")
CERT_TRIALS = {"diss_trials": 3000, "res_trials": 600, "ratio_trials": 3000}
ELLIPTIC = {"alphas": [0.25, 0.5, 0.75, 1.5], "betas": [0.5, 1.0, 2.0],
            "lams": [-1.0, 1.0], "n": 1024}
SAMPLE_EVERY = 500  # simulate-baseline: E and E~ checked at every 500th sample


def load(name: str, overrides: list[str], seed: int) -> config.RunConfig:
    cfg = config.apply_overrides(config.load_config(name), overrides)
    return config.set_value(cfg, "seed", seed)


def pass_bits(tree, prefix: str = "") -> dict:
    """Every `*pass` / `*_ok` flag in a report tree, keyed by its path."""
    out = {}
    for key, val in tree.items():
        path = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(pass_bits(val, path + "."))
        elif (key.endswith("pass") or key.endswith("_ok")) and (
                val is None or isinstance(val, (bool, np.bool_))):
            out[path] = None if val is None else bool(val)
    return out


class Workload:
    """One pass through an entry point (`run`) and its checked operations
    (`ops`).  `steps` counts the time steps of a pass; `first_config` is the
    scenario and overrides whose setup `setup_s` times."""

    name = ""
    why = ""
    steps = 0
    first_config: tuple = ("baseline", [])

    def __init__(self, outdir):
        self.outdir = outdir


def op(op_id: str, scale: float, values: dict | None = None,
       bits: dict | None = None) -> dict:
    return {"id": op_id, "scale": scale, "values": values or {},
            "bits": bits or {}}


class SimulateBaseline(Workload):
    name = "simulate-baseline"
    why = ("N=256 baseline simulate with CSV and JSON output: the small-N run "
           "where per-call overhead of the step loop dominates")
    steps = 20_000
    first_config = ("baseline", [])

    def __init__(self, outdir):
        super().__init__(outdir)
        self.prefix = outdir / self.name
        self.first_csv = None

    def run(self, seed: int, tracer=None):
        argv = ["simulate", "--config", "baseline", "--seed", str(seed),
                "--out", str(self.prefix)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def ops(self, rc) -> list[dict]:
        raw = self.prefix.with_suffix(".csv").read_bytes()
        report = json.loads(self.prefix.with_suffix(".json").read_text())
        digest = hashlib.sha256(raw).hexdigest()
        if self.first_csv is None:
            self.first_csv = digest
        rows = raw.decode().splitlines()
        head = rows[0].split(",")
        e_col, et_col = head.index("E"), head.index("E_tilde")
        data = rows[1:]
        values = {}
        for k in list(range(0, len(data), SAMPLE_EVERY)) + [len(data) - 1]:
            cells = data[k].split(",")
            values[f"E[{k}]"] = float(cells[e_col])
            values[f"E_tilde[{k}]"] = float(cells[et_col])
        values["samples"] = float(len(data))
        bits = pass_bits(report)
        bits["exit_ok"] = rc == 0
        bits["csv_matches_first_pass"] = digest == self.first_csv
        e0 = float(data[0].split(",")[e_col])
        return [op("simulate", e0, values, bits)]


class ConvergeRefine(Workload):
    name = "converge-refine"
    why = ("three-level refinement N=512..2048 without file output: the wave "
           "solve's arithmetic share doubles, so it separates flops from overhead")
    steps = 28_000
    overrides = ["integrator.t_final=2"]
    first_config = ("baseline", ["integrator.t_final=2", "mesh.n=512",
                                 "channel.n_delta=128", "integrator.dt=0.0005"])

    def run(self, seed: int, tracer=None):
        return cli.converge_table(load("baseline", self.overrides, seed),
                                  levels=3, start_n=512)

    def ops(self, table) -> list[dict]:
        # converge_table reports no E(0); E(T) of the level is the scale
        return [op(f"level{r['level']}", r["E_T"],
                   {"E_T": r["E_T"], "N": float(r["N"]),
                    "n_delta": float(r["n_delta"])})
                for r in table["levels"]]


class SweepGrid(Workload):
    name = "sweep-grid"
    why = ("12-row alpha x mu2 x beta sweep at jobs=2: per-row setup and "
           "certificate, both boundary regimes, mu2=0 rows, process fan-out")
    steps = 60_000
    overrides = ["integrator.t_final=5"]
    first_config = ("baseline", ["integrator.t_final=5", "coefficient.alpha=0.5",
                                 "gains.mu2=0", "gains.beta=0.5"])

    def run(self, seed: int, tracer=None):
        rows = cli.sweep_rows(load("baseline", self.overrides, seed),
                              SWEEP_AXES, jobs=SWEEP_JOBS)
        if tracer is not None:
            tracer.absorb_rows(rows)
        return rows

    def ops(self, rows) -> list[dict]:
        out = []
        for r in rows:
            ok = r["status"] == "ok"
            e0 = r["E0"] if ok else math.nan
            out.append(op(f"row{r['row']}", e0,
                          {"E0": r["E0"], "E_final": r["E_final"]},
                          {"status_ok": ok, "envelope_ok": r["envelope_ok"]}))
        return out


class Certify(Workload):
    name = "certify"
    why = ("generator certificates on baseline and strong-degeneracy at N=1024 "
           "plus 24 elliptic cases: no time stepping at all")
    steps = 0
    overrides = ["mesh.n=1024"]
    first_config = ("baseline", ["mesh.n=1024"])

    def run(self, seed: int, tracer=None):
        certs = {}
        for scenario in CERT_SCENARIOS:
            cfg = load(scenario, self.overrides, seed)
            setup = config.build_setup(cfg)
            ctx = operator_checks.ProbeContext(
                mesh=setup.mesh, ops=setup.ops, gains=setup.gains,
                delay=setup.delay, n_delta=cfg.channel_n_delta,
            )
            t_final = cfg.integrator_t_final
            certs[scenario] = operator_checks.run_certificate(
                ctx, [0.0, t_final / 2.0, t_final], seed=cfg.seed, **CERT_TRIALS)
        table = cli.elliptic_table(ELLIPTIC["alphas"], ELLIPTIC["betas"],
                                   ELLIPTIC["lams"], n=ELLIPTIC["n"])
        return certs, table

    def ops(self, outputs) -> list[dict]:
        certs, table = outputs
        out = [op(f"certificate:{name}", 1.0, bits=pass_bits(cert))
               for name, cert in certs.items()]
        for c in table["cases"]:
            err = c["l2_error_vs_exact"]
            # scale by the solution's size: the error itself is near rounding
            out.append(op(
                f"elliptic:alpha={c['alpha']:g},beta={c['beta']:g},lam={c['lam']:g}",
                math.sqrt(c["l2_norm_sq"]),
                {} if err is None else {"l2_error_vs_exact": err},
                {"bounds_ok": bool(c["bounds_ok"])},
            ))
        return out


WORKLOADS = {w.name: w for w in (SimulateBaseline, ConvergeRefine, SweepGrid,
                                 Certify)}


def check(got: list[dict], ref: list[dict]) -> list[str]:
    """Failed operation ids (with the reason) against the reference.

    Every reference operation is attempted; a missing one fails.
    """
    by_id = {o["id"]: o for o in got}
    fails = []
    for r in ref:
        g = by_id.get(r["id"])
        if g is None:
            fails.append(f"{r['id']}: missing")
            continue
        tol = RTOL * r["scale"]
        bad = [k for k, v in r["values"].items()
               if not (isinstance(g["values"].get(k), float)
                       and abs(g["values"][k] - v) <= tol)]
        bad += [k for k, v in r["bits"].items() if g["bits"].get(k, "?") != v]
        if bad:
            fails.append(f"{r['id']}: {', '.join(bad[:4])}")
    return fails


def perturbed(ref: list[dict], rel: float = 1e-8) -> list[dict]:
    """Copy of the reference with its first value moved by rel * scale."""
    out = copy.deepcopy(ref)
    for r in out:
        if r["values"]:
            key = next(iter(r["values"]))
            r["values"][key] += rel * r["scale"]
            return out
    raise ValueError("reference holds no values to perturb")
