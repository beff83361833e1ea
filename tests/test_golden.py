"""Golden reference: every shipped scenario at a short horizon must
reproduce the numbers in tests/data/golden.json.

For each scenario the file holds E and E~ at every 50th recorded sample,
E(T), the numeric entries of the report's `constants`, `lyapunov` and
`decay` sections, and every `*pass` / `*_ok` bit of the report.  A value
matches when it lies within 1e-10 times the larger of E(0) and the stored
value (an energy-scale tolerance that turns relative for constants larger
than the energy); a bit matches only exactly, and the set of stored keys
must match too, so a section that appears or vanishes is caught.

The file is written by tests/data/make_golden.py, which takes no options.
Regenerate it only for a change that is meant to move the numbers.
"""

import json
import math
from pathlib import Path

import pytest

from degenwave import config
from degenwave.cli import simulate_config

GOLDEN = Path(__file__).parent / "data" / "golden.json"
OVERRIDES = ["integrator.t_final=2"]
SAMPLE_EVERY = 50
RTOL = 1e-10


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pass_bits(tree, prefix=""):
    out = {}
    for key, val in tree.items():
        path = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_pass_bits(val, path + "."))
        elif key.endswith("pass") or key.endswith("_ok"):
            out[path] = None if val is None else bool(val)
    return out


def record(scenario: str) -> dict:
    """The golden entry of one scenario, as computed by the current code."""
    cfg = config.apply_overrides(config.load_config(scenario), OVERRIDES)
    _, traj, report = simulate_config(cfg)
    e, et = traj.E, traj.E_tilde
    values = {"samples": int(e.size), "E_T": float(e[-1])}
    for k in range(0, e.size, SAMPLE_EVERY):
        values[f"E[{k}]"] = float(e[k])
        values[f"E_tilde[{k}]"] = float(et[k])
    for section in ("constants", "lyapunov", "decay"):
        for key, val in (report[section] or {}).items():
            if _number(val):
                values[f"{section}.{key}"] = (
                    "nan" if math.isnan(val) else float(val))
    return {"E0": float(e[0]), "values": values, "bits": _pass_bits(report)}


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario", config.SCENARIO_NAMES)
def test_matches_golden(scenario):
    ref = _load()[scenario]
    got = record(scenario)
    assert set(got["values"]) == set(ref["values"])
    assert got["bits"] == ref["bits"]
    bad = []
    for key, want in ref["values"].items():
        have = got["values"][key]
        if want == "nan" or have == "nan":
            ok = want == have
        else:
            ok = abs(have - want) <= RTOL * max(ref["E0"], abs(want))
        if not ok:
            bad.append(f"{key}: {have!r} vs golden {want!r}")
    assert not bad, f"{scenario}: " + "; ".join(bad[:5])


def test_golden_covers_every_scenario():
    assert set(_load()) == set(config.SCENARIO_NAMES)


# the report's record sections, key for key: the golden values above hold
# only their numeric entries, so a dropped bit or a record field that leaks
# into the JSON would pass them
REPORT_KEYS = {
    "constants": {
        "mu_a", "a_of_1", "strong_degeneracy", "poincare_const",
        "coercivity_const", "trace_const", "gain_margin", "damping_const",
        "wellposed", "strictly_damped", "delay_bound_d"},
    "lyapunov": {
        "epsilon", "equiv_lower", "equiv_upper", "damping_slack",
        "boundary_const", "eps_sandwich", "eps_damping"},
    "decay": {
        "decay_time_bound", "rate_fit", "integral_gain_max", "envelope_ok",
        "horizon_ok"},
}
ELLIPTIC_CASE_KEYS = {
    "alpha", "beta", "lam", "N", "energy_norm_sq", "energy_bound",
    "l2_norm_sq", "l2_bound", "bounds_ok", "l2_error_vs_exact"}


def test_report_sections_have_fixed_keys(baseline_run):
    report = baseline_run[2]
    for section, keys in REPORT_KEYS.items():
        assert set(report[section]) == keys, section


# the operator certificate's rows, key for key, per claim
CERTIFICATE_KEYS = {
    "claim1": {"max_form_ratio", "positive_trials", "trials", "pass", "seed"},
    "claim2": {"max_residual", "max_boundary_identity", "trials", "pass",
               "seed"},
    "claim3": {"max_ratio", "bound_stated", "bound_proof", "excess", "pass",
               "seed"},
    "dAdt": {"bound"},
}


def test_certificate_rows_have_fixed_keys(baseline_run):
    cert = baseline_run[2]["operator_certificate"]
    assert set(cert) == {*CERTIFICATE_KEYS, "pass"}
    for claim, keys in CERTIFICATE_KEYS.items():
        assert cert[claim], claim
        assert [set(row) for row in cert[claim].values()] == \
            [keys] * len(cert[claim]), claim


def test_elliptic_case_has_fixed_keys():
    from degenwave.cli import elliptic_table

    table = elliptic_table([0.5, 1.5], [1.0], [1.0], n=16)
    assert [set(case) for case in table["cases"]] == [ELLIPTIC_CASE_KEYS] * 2
