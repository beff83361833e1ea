"""Outside-in span tracer for the degenwave package.

The tracer wraps named functions and methods of the package's modules from
the benchmark's side; nothing in `src/` knows about it.  A span records
(id, name, start, end, parent) into one flat float array held in memory.
`end_pass` folds a pass's spans into per-name totals and keeps them as the
last pass, whose spans are written out when the benchmark ends.  A target that no longer
exists (renamed or removed by a refactor) is listed in `not_traced` instead
of failing the run.

Sweep rows run in forked worker processes.  The wrapper of `cli._sweep_row`
notices it runs outside the owning process, records only the row's own
spans and returns them inside the row under `SPANS_KEY`; `absorb_rows`
moves them into the owner's buffer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "degenwave"
SPANS_KEY = "__perfbench_spans__"

# (module, attribute path, span name, extra counter); the span name is
# "<module>.<attribute path>" unless given.  A counter "trials" adds the
# call's `trials` argument to "<name>.trials"; "bytes" adds the size of the
# file named by the call's `path` argument to "<name>.bytes".
TARGETS = [
    ("cli", "main", None, None),
    ("cli", "simulate_config", None, None),
    ("cli", "build_report", None, None),
    ("cli", "converge_table", None, None),
    ("cli", "sweep_rows", None, None),
    ("cli", "_sweep_row", None, None),
    ("cli", "elliptic_table", None, None),
    ("config", "load_config", None, None),
    ("config", "build_setup", None, None),
    ("config", "run_from_setup", None, None),
    ("mesh", "build_mesh", None, None),
    ("mesh", "assemble_operators", None, None),
    ("stepper", "run", None, None),
    ("stepper", "init_state", None, None),
    ("stepper", "StepWorkspace.build", None, None),
    ("stepper", "step", None, None),
    ("stepper", "cho_solve_banded", "stepper.wave_solve", None),
    ("stepper", "bc_residual", None, None),
    ("delay_channel", "init_channel", None, None),
    ("delay_channel", "transport_step", None, None),
    ("delay_channel", "HistoryBuffer.sample", None, None),
    ("delay_channel", "HistoryBuffer.append", None, None),
    ("analysis", "lyapunov_raw", None, None),
    ("analysis", "choose_epsilon", None, None),
    ("analysis", "decay_certificate", None, None),
    ("analysis", "dissipation_audit", None, None),
    ("analysis", "sandwich_audit", None, None),
    ("analysis", "solve_auxiliary_elliptic", None, None),
    ("operator_checks", "run_certificate", None, None),
    ("operator_checks", "dissipativity_probe", None, "trials"),
    ("operator_checks", "resolvent_probe", None, "trials"),
    ("operator_checks", "norm_ratio_bound", None, "trials"),
    ("operator_checks", "generator_drift_probe", None, None),
    ("reporting", "write_trajectory_csv", None, "bytes"),
    ("reporting", "write_report", None, "bytes"),
]

_FIELDS = 5  # id, name index, start, end, parent id (-1 for a root)


def _bound_argument(sig, args, kwargs, name):
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound.arguments.get(name)


class Tracer:
    """Installs span-recording wrappers and aggregates the recorded spans."""

    def __init__(self):
        self.names: list[str] = []
        self.not_traced: list[str] = []
        self.owner_pid = os.getpid()
        self._patches: list[tuple] | None = None
        self.totals: dict[str, dict] = {}
        self.total_counts: dict[str, float] = {}
        self.last = array("d")
        self.clear()

    # -- recording ----------------------------------------------------------

    def clear(self) -> None:
        self.buf = array("d")
        self.counts: dict[str, float] = {}
        self._next = 0
        self._cur = -1

    def _wrap(self, fn, name: str, counter):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        tr = self
        count = None
        if counter is not None:
            sig = inspect.signature(fn)
            arg = "trials" if counter == "trials" else "path"
            key = f"{name}.{counter}"

            def count(args, kwargs):
                val = _bound_argument(sig, args, kwargs, arg)
                if val is None:
                    return
                n = os.path.getsize(val) if counter == "bytes" else val
                tr.counts[key] = tr.counts.get(key, 0) + n

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tr._cur
            sid = tr._next
            tr._next = sid + 1
            tr._cur = sid
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tr._cur = parent
                tr.buf.extend((sid, nid, t0, t1, parent))
            if count is not None:
                count(args, kwargs)
            return out

        if name.endswith("._sweep_row"):
            return self._shipping(traced)
        return traced

    def _shipping(self, traced):
        """Row wrapper that returns a worker's spans inside the row."""
        tr = self

        @functools.wraps(traced)
        def row_traced(*args, **kwargs):
            if os.getpid() == tr.owner_pid:
                return traced(*args, **kwargs)
            tr.clear()  # drop what the fork copied from the owner
            row = traced(*args, **kwargs)
            row[SPANS_KEY] = (tr.buf.tobytes(), dict(tr.counts))
            tr.clear()
            return row

        return row_traced

    def absorb_rows(self, rows) -> None:
        """Move worker spans carried by sweep rows into this buffer."""
        for row in rows:
            payload = row.pop(SPANS_KEY, None)
            if payload is None:
                continue
            raw, counts = payload
            spans = np.frombuffer(raw, dtype=float).reshape(-1, _FIELDS).copy()
            offset = self._next
            spans[:, 0] += offset
            spans[spans[:, 4] >= 0, 4] += offset
            self._next += len(spans)
            self.buf.extend(spans.ravel().tolist())
            for key, val in counts.items():
                self.counts[key] = self.counts.get(key, 0) + val

    def end_pass(self) -> None:
        """Fold this pass's spans and counts into the totals."""
        for name, row in self._pass_summary().items():
            tot = self.totals.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, val in row.items():
                tot[key] += val
        for key, val in self.counts.items():
            self.total_counts[key] = self.total_counts.get(key, 0) + val
        self.last = self.buf
        self.clear()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; list the others as not traced."""
        if self._patches is None:
            self._patches = []
            for target in TARGETS:
                self._prepare(*target)
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in reversed(self._patches or []):
            setattr(owner, attr, old)

    def _prepare(self, mod_name, path, label, counter) -> None:
        name = label or f"{mod_name}.{path}"
        try:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(mod, cls_name)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.not_traced.append(name)
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, counter))
            self._patches.append((owner, attr, raw, new))
            return
        new = self._wrap(raw, name, counter)
        if owner is not mod or label:
            self._patches.append((owner, attr, raw, new))
            return
        # rebind in every package module that imported the function by name
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == PACKAGE
                                 or mname.startswith(PACKAGE + ".")):
                continue
            for a, val in list(vars(m).items()):
                if val is raw:
                    self._patches.append((m, a, raw, new))

    # -- results ------------------------------------------------------------

    def _pass_summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children run sequentially inside their parent, so their
        sum is the part of the interval they cover.
        """
        sp = np.frombuffer(self.buf, dtype=float).reshape(-1, _FIELDS)
        out = {}
        if not len(sp):
            return out
        sid = sp[:, 0].astype(np.int64)
        nid = sp[:, 1].astype(np.int64)
        dur = sp[:, 3] - sp[:, 2]
        parent = sp[:, 4].astype(np.int64)
        pos = np.empty(sid.max() + 1, dtype=np.int64)
        pos[sid] = np.arange(len(sid))
        child = np.zeros(len(sid))
        has = parent >= 0
        np.add.at(child, pos[parent[has]], dur[has])
        selft = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        total = np.bincount(nid, weights=dur, minlength=len(self.names))
        self_s = np.bincount(nid, weights=selft, minlength=len(self.names))
        for k, name in enumerate(self.names):
            if calls[k]:
                out[name] = {"calls": int(calls[k]), "total_s": float(total[k]),
                             "self_s": float(self_s[k])}
        return out

    def save(self, path) -> None:
        """Write the last pass's spans."""
        spans = np.frombuffer(self.last, dtype=float).reshape(-1, _FIELDS)
        np.savez(path, spans=spans, names=np.array(self.names),
                 columns=np.array(["id", "name", "start", "end", "parent"]))
