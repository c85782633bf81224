"""Spans around the public functions of each motionflow module.

The tracer replaces module attributes with timing wrappers while it is
installed and puts the originals back when it is removed, so untraced
rounds run the program's own functions.  Calls between and within modules
go through module globals, so nested calls are caught too.  Spans
(name, start, end, parent) stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time

import numpy as np

# (module, function, rows) for every wrapped function.  rows, when given,
# reads the number of rows of work from the call's arguments and result.
WRAPPED = [
    ("se3", "sample_initial_batch", lambda args, kw, out: len(out)),
    ("se3", "compose", None),
    ("se3", "state_to_pose", None),
    ("se3", "pose_to_state", None),
    ("vfnet", "forward_batch", lambda args, kw, out: len(args[1])),
    ("vfnet", "backward_batch", None),
    ("vfnet", "load_checkpoint", None),
    ("vfnet", "save_checkpoint", None),
    ("flowmatch", "train", None),
    ("flowmatch", "adam_step", None),
    ("sampler", "integrate_field", lambda args, kw, out: len(out)),
    ("sampler", "estimate_pose", None),
    ("sampler", "estimate_sequence", None),
    ("synthworld", "make_scenario", None),
    ("synthworld", "relative_motions", None),
    ("synthworld", "ingest_features", lambda args, kw, out: len(out)),
    ("trajeval", "compose_trajectory", None),
    ("trajeval", "scale_align", None),
    ("trajeval", "umeyama_align", None),
    ("trajeval", "read_tum", None),
    ("trajeval", "write_tum", None),
    ("cli", "main", None),
]

OP = "bench.op"
SETUP = "bench.setup"


def _span_name(module, func, args, kwargs):
    """Spans of functions whose cost depends on a mode carry it in the name."""
    if func == "integrate_field":
        config = args[2] if len(args) > 2 else kwargs["config"]
        return f"sampler.integrate_field.{config.method}"
    if func == "main":
        argv = args[0] if args else kwargs.get("argv")
        return f"cli.main.{argv[0]}"
    return f"{module}.{func}"


class Tracer:
    """In-memory span recorder with install/remove of the wrappers."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names = []
        self._ids = {}
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.rows = []
        self._stack = []
        self._originals = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """The benchmark's own spans (ops, set-up)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, module_name, func_name, fn, rows_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _span_name(module_name, func_name, args, kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if rows_of is not None:
                self.rows[idx] = rows_of(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every function of WRAPPED.  A missing one is an error, so a
        layer that was renamed or inlined fails the traced run instead of
        reading 0."""
        missing = [f"{m}.{f}" for m, f, _ in WRAPPED
                   if not callable(getattr(self.modules[m], f, None))]
        if missing:
            raise AttributeError(f"functions to trace are missing: {', '.join(missing)}")
        for module_name, func_name, rows_of in WRAPPED:
            module = self.modules[module_name]
            fn = getattr(module, func_name)
            self._originals.append((module, func_name, fn))
            setattr(module, func_name, self._wrap(module_name, func_name, fn, rows_of))

    def remove(self) -> None:
        for module, func_name, fn in reversed(self._originals):
            setattr(module, func_name, fn)
        self._originals.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "rows"],
                "spans": list(zip(self.name_of, self.start, self.end,
                                  self.parent, self.rows)),
            }, fh)

    def layers(self) -> dict:
        """Per-name aggregates: calls and self time inside ops, plus the
        inclusive duration and rows of every call in ops and set-up.  Calls
        outside both (the pipeline's malformed invocations) are left out."""
        n = len(self.start)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        names = np.array(self.name_of, dtype=np.int64)
        parent_list, op_id, setup_id = self.parent, self._id(OP), self._id(SETUP)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        # Whether each span runs inside an op, or inside one of the two
        # phases the metrics cover (ops and set-up); parents open first.
        in_op, counted = [False] * n, [False] * n
        for i, (name_id, p) in enumerate(zip(self.name_of, parent_list)):
            in_op[i] = name_id == op_id or (p >= 0 and in_op[p])
            counted[i] = name_id in (op_id, setup_id) or (p >= 0 and counted[p])
        in_op = np.array(in_op, dtype=bool)
        counted = np.array(counted, dtype=bool)
        rows = np.array(self.rows, dtype=np.int64)
        out = {}
        for name_id, name in enumerate(self.names):
            mine = names == name_id
            inside = mine & in_op
            out[name] = {
                "calls": int(inside.sum()),
                "self_s": float(self_time[inside].sum()),
                "durations": dur[mine & counted],
                "rows": rows[mine & counted],
            }
        # Function evaluations per integrated sample: rows the field was
        # evaluated on under integrate_field, over the rows it was given.
        integ_ids = [k for k, name in enumerate(self.names)
                     if name.startswith("sampler.integrate_field.")]
        is_integ = np.isin(names, integ_ids) & in_op
        under = (parent >= 0) & is_integ[parent.clip(0)]
        under &= names == self._ids.get("vfnet.forward_batch", -1)
        given = int(rows[is_integ].sum())
        out["_nfe_per_sample"] = float(rows[under].sum()) / given if given else 0.0
        out["_ops"] = int((names == op_id).sum())
        out["_spans"] = n
        return out
