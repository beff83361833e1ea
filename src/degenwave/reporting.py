"""Machine-readable outputs: trajectory CSV, JSON report, state snapshots.

Formats are deterministic: floats in the CSV carry 17 significant digits in
scientific notation, JSON keys are sorted, and no timestamps are embedded,
so identical configs and seeds produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .analysis import energy_parts
from .stepper import COLUMNS


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def trajectory_csv_text(traj) -> str:
    rows = np.column_stack([getattr(traj, c) for c in COLUMNS]).tolist()
    lines = [",".join(COLUMNS)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_trajectory_csv(traj, path) -> None:
    Path(path).write_text(trajectory_csv_text(traj), encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def report_json_text(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    Path(path).write_text(report_json_text(report), encoding="utf-8")


class SnapshotStore:
    """Collects per-sample state snapshots for the optional .npz sidecar."""

    def __init__(self):
        self.t = []
        self.u = []
        self.v = []
        self.w = []

    def __call__(self, state) -> None:
        self.t.append(state.t)
        self.u.append(state.u.copy())
        self.v.append(state.v.copy())
        self.w.append(state.w.copy())

    def save(self, path) -> None:
        np.savez(
            path,
            t=np.asarray(self.t),
            u=np.asarray(self.u),
            v=np.asarray(self.v),
            w=np.asarray(self.w),
        )

    def recompute_energy_max_rel_err(self, traj, ops, gains, delay) -> float:
        """Max relative gap between recorded E and E recomputed from the
        stored snapshots."""
        worst = 0.0
        for k, e_rec in enumerate(traj.E.tolist()):
            p = energy_parts(self.u[k], self.v[k], self.w[k],
                             float(delay.tau(self.t[k])), ops, gains)
            e = 0.5 * sum(p.values())
            denom = max(abs(e_rec), 1e-300)
            worst = max(worst, abs(e - e_rec) / denom)
        return worst
