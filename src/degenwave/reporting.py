"""Machine-readable outputs: trajectory CSV, JSON report, state snapshots.

Formats are deterministic: floats in the CSV carry 17 significant digits in
scientific notation, JSON keys are sorted, and no timestamps are embedded,
so identical configs and seeds produce byte-identical files.  Every
writer and the snapshot energy audit read a `stepper.Trajectory`, the one
store of what a run recorded (its snapshots when `stepper.run` kept them).
"""

from __future__ import annotations

import json
import math
import zipfile
from pathlib import Path

import numpy as np

from .analysis import lyapunov_raw
from .delay_channel import BLOCK_DOUBLES
from .stepper import COLUMNS


# one CSV row: every column as %.16e (17 significant digits)
_ROW_FORMAT = ",".join(["%.16e"] * len(COLUMNS))
# rows per formatted block: BLOCK_DOUBLES values, as save_snapshots
_CSV_BLOCK_ROWS = BLOCK_DOUBLES // len(COLUMNS)


def write_trajectory_csv(traj, path) -> None:
    """Write the header, then the rows _CSV_BLOCK_ROWS at a time, each
    block stacked and formatted with one `%`, so that no whole-run text or
    list of rows is ever held."""
    cols = [getattr(traj, c) for c in COLUMNS]
    with open(path, "w", encoding="utf-8") as fid:
        fid.write(",".join(COLUMNS) + "\n")
        for r in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[r:r + _CSV_BLOCK_ROWS] for c in cols])
            fid.write((_ROW_FORMAT + "\n") * len(block)
                      % tuple(block.ravel().tolist()))


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


def save_snapshots(traj, path) -> None:
    """Write a trajectory's recorded times and snapshots as an .npz file
    with members t, u, v and w, the layout of np.savez, BLOCK_DOUBLES
    values at a time (np.savez would copy up to 16 MB per write)."""
    with zipfile.ZipFile(path, mode="w", compression=zipfile.ZIP_STORED,
                         allowZip64=True) as zf:
        for name, rows in zip("tuvw", (traj.t, *traj.snapshots)):
            step = max(1, BLOCK_DOUBLES // max(1, rows[:1].size))
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fid:
                np.lib.format.write_array_header_1_0(
                    fid, np.lib.format.header_data_from_array_1_0(rows))
                for r in range(0, len(rows), step):
                    fid.write(memoryview(rows[r:r + step]))


def snapshot_energy_max_rel_err(traj, ops, gains, delay) -> float:
    """Max relative gap between a trajectory's recorded E and E recomputed
    from its snapshots, one stacked evaluation per block of instants
    (BLOCK_DOUBLES // n_nodes of them, so that the stacks add little to the
    snapshots' own memory)."""
    u, v, w = traj.snapshots
    rows = max(1, BLOCK_DOUBLES // ops.n_nodes)
    worst = 0.0
    for r in range(0, traj.t.size, rows):
        block = slice(r, r + rows)
        e, _ = lyapunov_raw(u[block], v[block], w[block],
                            delay.tau(traj.t[block]), ops, gains)
        e_rec = traj.E[block]
        worst = max(worst, float(np.max(
            np.abs(e - e_rec) / np.maximum(np.abs(e_rec), 1e-300))))
    return worst
