"""degenwave benchmark: run one workload for a fixed time and check it.

Run from the root of a degenwave checkout:

    python3 perfbench/run.py --workload simulate-baseline --seed 7 \\
        --seconds 20 --trace 0

With `--trace 0` it reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full results, with the environment,
go to `.perfbench_out/<workload>.trace<0|1>.json`, and the spans of the
last traced pass to `.perfbench_out/<workload>.spans.npz`.  See README.md.
"""

import os

# one BLAS/OpenMP thread per process, so that the two sweep workers do not
# oversubscribe two cores; set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"

MIN_PASSES = 3          # timed passes per run, at least
COLD_STARTS = 7         # fresh interpreters timed for setup_s, at least
OTHER_SEED_STEP = 7919  # the self-check seed is seed + this

# span names behind the per-layer metrics; README.md says what each one
# should move
CALL_LAYERS = [
    "stepper.step", "delay_channel.transport_step", "stepper.wave_solve",
    "delay_channel.HistoryBuffer.sample", "delay_channel.HistoryBuffer.append",
    "analysis.lyapunov_raw", "stepper.bc_residual",
    "operator_checks.generator_drift_probe", "analysis.decay_certificate",
    "analysis.dissipation_audit", "analysis.sandwich_audit",
    "analysis.choose_epsilon", "analysis.solve_auxiliary_elliptic",
    "reporting.write_trajectory_csv", "reporting.write_report",
    "config.build_setup", "mesh.assemble_operators",
    "stepper.StepWorkspace.build", "cli.simulate_config",
]
TRIAL_LAYERS = ["operator_checks.dissipativity_probe",
                "operator_checks.resolvent_probe",
                "operator_checks.norm_ratio_bound"]
BYTE_LAYERS = ["reporting.write_trajectory_csv", "reporting.write_report"]


def median_q(values):
    """(median, first quartile, third quartile) of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[f"{mod.__name__}_blas"] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            env[f"{mod.__name__}_blas"] = "unknown"
    return env


def cold_start_s(first_config) -> float:
    """Wall seconds of one fresh interpreter running coldstart.py."""
    name, overrides = first_config
    cmd = [sys.executable, str(BENCH / "coldstart.py"), name, *overrides]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
    # which quantizes the measured time
    subprocess.run(cmd, env=env, check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the sweep workers and the
    # cold-start interpreters
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def layer_metrics(tracer, n_passes, rows_failed, overhead, jobs) -> dict:
    summ = tracer.totals

    def calls(name):
        return summ.get(name, {}).get("calls", 0) / n_passes

    def seconds(name, key="total_s"):
        return summ.get(name, {}).get(key, 0.0) / n_passes

    def us_per(name, count, key="total_s"):
        return 1e6 * seconds(name, key) / count if count else 0.0

    m = {}
    for name in CALL_LAYERS:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.us_per_call"] = (us_per(name, calls(name)), "us")
    for name in TRIAL_LAYERS:
        trials = tracer.total_counts.get(f"{name}.trials", 0) / n_passes
        m[f"{name}.trials"] = (trials, "count")
        m[f"{name}.us_per_trial"] = (us_per(name, trials), "us")
    for name in BYTE_LAYERS:
        m[f"{name}.bytes"] = (tracer.total_counts.get(f"{name}.bytes", 0) / n_passes,
                              "B")
    steps = calls("stepper.step")
    m["stepper.step.self_us_per_call"] = (
        us_per("stepper.step", steps, "self_s"), "us")
    m["stepper.run.calls"] = (calls("stepper.run"), "count")
    m["stepper.run.total_s"] = (seconds("stepper.run"), "s")
    m["stepper.run.self_s"] = (seconds("stepper.run", "self_s"), "s")
    m["stepper.samples_per_step"] = (
        calls("analysis.lyapunov_raw") / steps if steps else 0.0, "ratio")
    m["operator_checks.run_certificate.calls"] = (
        calls("operator_checks.run_certificate"), "count")
    m["operator_checks.run_certificate.total_s"] = (
        seconds("operator_checks.run_certificate"), "s")
    sweep = seconds("cli.sweep_rows")
    m["cli.sweep.parallel_efficiency"] = (
        seconds("cli._sweep_row") / (jobs * sweep) if sweep else 0.0, "ratio")
    m["cli.sweep.rows_failed"] = (rows_failed / n_passes, "count")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.not_traced"] = (float(len(tracer.not_traced)), "count")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not (SRC / "degenwave" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'degenwave'} not found; run from the root "
              "of a degenwave checkout", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"perfbench: {REFERENCE} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import degenwave

    if Path(degenwave.__file__).resolve().parent != (SRC / "degenwave").resolve():
        print(f"perfbench: imported degenwave from {degenwave.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; have "
                f"{sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](OUT)
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[wl.name]
    seed = args.seed % 2**31
    other_seed = (seed + OTHER_SEED_STEP) % 2**31

    # warm-up pass on another seed: the references must hold for it too
    fails_other = workloads.check(wl.ops(wl.run(other_seed)), ref)

    tr = tracing.Tracer() if args.trace else None
    plain, traced, setup_times = [], [], []
    attempted, failed, rows_failed = len(ref), len(fails_other), 0
    fail_log = list(fails_other)
    last_ops = None
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < args.seconds
           or len(plain) + len(traced) < MIN_PASSES
           or (tr and len(traced) < 2)):
        on = tr is not None and k % 2 == 1
        if on:
            tr.install()
        t0 = time.perf_counter()
        try:
            out = wl.run(seed, tr if on else None)
        finally:
            dt = time.perf_counter() - t0
            if on:
                tr.uninstall()
                tr.end_pass()
        (traced if on else plain).append(dt)
        last_ops = wl.ops(out)
        fails = workloads.check(last_ops, ref)
        attempted += len(ref)
        failed += len(fails)
        fail_log += fails
        if on:
            rows_failed += sum(o["bits"].get("status_ok") is False
                               for o in last_ops)
        if not args.trace:
            # cold starts spread over the run, so a slow spell of the
            # machine does not hit all of them
            setup_times.append(cold_start_s(wl.first_config))
        k += 1
    while not args.trace and len(setup_times) < COLD_STARTS:
        setup_times.append(cold_start_s(wl.first_config))

    # the gate must be able to fail: a reference moved by 1e-8 * scale
    perturbed_fails = workloads.check(last_ops, workloads.perturbed(ref))
    self_checks = {
        "other_seed": other_seed,
        "other_seed_references_hold": not fails_other,
        "perturbed_reference_detected": bool(perturbed_fails),
        "perturbed_error_rate": len(perturbed_fails) / len(ref),
    }
    correct = failed == 0 and bool(perturbed_fails)

    results = {
        "workload": wl.name, "why": wl.why, "seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "pass_s": plain, "traced_pass_s": traced, "setup_s_samples": setup_times,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "failures": fail_log[:50],
        "self_checks": self_checks,
    }
    lines = []
    if args.trace:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = layer_metrics(tr, len(traced), rows_failed, overhead,
                                workloads.SWEEP_JOBS)
        results["spans"] = tr.totals
        results["not_traced"] = tr.not_traced
        tr.save(OUT / f"{wl.name}.spans.npz")
        for name in tr.not_traced:
            lines.append(f"not_traced {name}")
    else:
        wall, q1, q3 = median_q(plain)
        setup, s1, s3 = median_q(setup_times)
        metrics = {"wall_s": (wall, "s"), "setup_s": (setup, "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        results["quartiles"] = {"wall_s": [q1, q3], "setup_s": [s1, s3]}
        lines.append(f"passes {len(plain)}, wall_s quartiles {q1:.4f} .. "
                     f"{q3:.4f} s; setup_s over {len(setup_times)} cold starts")
        if wl.steps:
            lines.append(f"steps_per_s {wl.steps / wall:.1f} 1/s")
    results["metrics"] = {name: {"value": val, "unit": unit}
                          for name, (val, unit) in metrics.items()}
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for name, (val, unit) in metrics.items():
        print(f"{wl.name} {name} {val:.6g} {unit}")
    for line in lines:
        print(f"{wl.name} {line}")
    print(f"{wl.name} error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} checked operations failed)")
    print(f"{wl.name} self-check: other seed {other_seed} "
          f"{'holds' if not fails_other else 'FAILS'}; perturbed reference "
          f"error_rate {self_checks['perturbed_error_rate']:.6g}")
    for line in fail_log[:10]:
        print(f"{wl.name} check failed: {line}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
