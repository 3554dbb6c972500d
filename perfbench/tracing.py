"""Operation clock and span tracer, both installed from outside the package.

Both work by replacing module attributes of ``hennion_lab`` with wrappers
and restoring them on ``uninstall``.  The operation clock times only the
operation boundary and is the one instrument active in untraced runs.  The
tracer records one span per call of every function in ``TRACED``: name,
start, end, parent span and operation id, in flat arrays kept in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

TRACED = {
    "algebra": [
        "norm",
        "random_state",
        "AlgebraElement.hermitize",
        "TracialAlgebra.coefficients",
        "TracialAlgebra.from_coefficients",
    ],
    "hennion": ["m_quantity", "hennion_distance"],
    "qmaps": ["projective_action", "compose", "faithfulness_check", "contraction_estimate"],
    "process": [
        "start_process",
        "extend_process",
        "limit_state_estimate",
        "dual_normalized_value",
        "estimate_rate_C",
        "rank_one_collapse_check",
        "ChannelEnsemble.channel_at",
    ],
    "fcs": [
        "LocalObservable.from_sites",
        "LocalObservable.from_element",
        "psi_of_parts",
        "clustering_experiment",
        "translation_covariance_check",
        "birkhoff_average",
    ],
    "expcli": ["cmd_process", "cmd_contraction", "load_map_file"],
}
# scipy's optimizer as qmaps calls it: its spans are the polish phase.
POLISH = "qmaps.minimize"


def traced_names() -> list:
    return [f"{mod}.{attr}" for mod, attrs in TRACED.items() for attr in attrs]


def per_layer_names() -> list:
    names = ["import_s"]
    for fn in traced_names():
        names += [f"{fn}.calls", f"{fn}.total_s", f"{fn}.self_s"]
    names += [
        "contraction.lower_search_s",
        "contraction.fixed_point_s",
        "contraction.certificate_s",
        "contraction.polish_s",
        "contraction.fixed_point_iters",
        "contraction.uncertified",
        "fcs.flank_estimates_per_psi",
        "trace.run_s",
        "trace.overhead_s",
    ]
    return names


class _Patches:
    """Module and class attributes replaced by wrappers, restorable."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, wrapper):
        """Point every ``hennion_lab`` module global bound to ``original`` at ``wrapper``."""
        for name, mod in list(sys.modules.items()):
            if name == "hennion_lab" or name.startswith("hennion_lab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.set(mod, attr, wrapper)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class OpClock:
    """Wall time of each operation, from its first call to its last return."""

    def __init__(self):
        self.durations = []
        self.op_id = -1
        self._started = None
        self._patches = _Patches()

    @property
    def current(self) -> int:
        return self.op_id if self._started is not None else -1

    def begin(self) -> None:
        self.op_id += 1
        self._started = perf_counter()

    def end(self) -> None:
        if self._started is not None:
            self.durations.append(perf_counter() - self._started)
            self._started = None

    def abandon(self) -> None:
        self._started = None

    def install(self, module: str, begin_attr: str, end_attr: str) -> None:
        """Operations begin at a call of ``begin_attr`` and end when the next
        call of ``end_attr`` returns (the same function for a single call)."""
        mod = importlib.import_module(f"hennion_lab.{module}")
        begin_fn, end_fn = getattr(mod, begin_attr), getattr(mod, end_attr)
        if begin_attr == end_attr:

            @functools.wraps(begin_fn)
            def whole(*args, **kwargs):
                self.begin()
                out = begin_fn(*args, **kwargs)
                self.end()
                return out

            self._patches.set(mod, begin_attr, whole)
            return

        @functools.wraps(begin_fn)
        def first(*args, **kwargs):
            self.begin()
            return begin_fn(*args, **kwargs)

        @functools.wraps(end_fn)
        def last(*args, **kwargs):
            out = end_fn(*args, **kwargs)
            self.end()
            return out

        self._patches.set(mod, begin_attr, first)
        self._patches.set(mod, end_attr, last)

    def uninstall(self) -> None:
        self._patches.restore()


class Tracer:
    """Spans of every call to the ``TRACED`` functions, kept in flat arrays."""

    def __init__(self, clock: OpClock):
        self.clock = clock
        self.names = traced_names() + [POLISH]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.fixed_point_iters = 0
        self.uncertified = 0
        self._stack = [-1]
        self._patches = _Patches()

    def _wrap(self, fn, name: str):
        nid = self.names.index(name)
        stack, clock = self._stack, self.clock
        name_id, start, end, parent, op = self.name_id, self.start, self.end, self.parent, self.op
        is_estimate = name == "qmaps.contraction_estimate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(clock.current)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if is_estimate:
                self.fixed_point_iters += out.fixed_point_iterations
                self.uncertified += out.upper_bound == 1.0 and out.lower_bound < 1.0
            return out

        return traced

    def install(self) -> None:
        for module, attrs in TRACED.items():
            mod = importlib.import_module(f"hennion_lab.{module}")
            for attr in attrs:
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = inspect.getattr_static(cls, meth)
                    if isinstance(raw, staticmethod):
                        self._patches.set(cls, meth, staticmethod(self._wrap(raw.__func__, name)))
                    else:
                        self._patches.set(cls, meth, self._wrap(raw, name))
                else:
                    original = getattr(mod, attr)
                    self._patches.replace_everywhere(original, self._wrap(original, name))
        qmaps = importlib.import_module("hennion_lab.qmaps")
        self._patches.set(qmaps, "minimize", self._wrap(qmaps.minimize, POLISH))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- results ------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32),
        )

    def per_layer(self) -> dict:
        """Calls, total and self seconds per traced function, plus phases."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        par = np.frombuffer(self.parent, dtype=np.int64)
        n, k = len(nid), len(self.names)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        # a span nested in a span of the same function adds to calls and
        # self time but not again to total time
        outer = np.ones(n, dtype=bool)
        same = has_parent.copy()
        same[has_parent] = nid[par[has_parent]] == nid[has_parent]
        outer[same] = False
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(nid, weights=self_s, minlength=k)
        out = {}
        for i, name in enumerate(self.names[:-1]):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(selfs[i])
        out.update(self._phases(nid, par))
        return out

    def _phases(self, nid, par) -> dict:
        """Split every contraction_estimate span into its three phases.

        The function runs the lower-bound search (distance evaluations), then
        the fixed-point iteration, then the certificate (order coefficients
        against the fixed point).  The certificate starts at the first
        m_quantity span not inside a hennion_distance span; the search ends
        with the last hennion_distance span before that.
        """
        ids = {name: i for i, name in enumerate(self.names)}
        ce, hd, mq = (
            ids["qmaps.contraction_estimate"],
            ids["hennion.hennion_distance"],
            ids["hennion.m_quantity"],
        )
        psi, polish = ids["fcs.psi_of_parts"], ids[POLISH]
        start, end = self.start, self.end
        n = len(nid)
        # nearest enclosing estimate, distance and psi span of every span
        ce_of = np.full(n, -1, dtype=np.int64)
        in_hd = np.zeros(n, dtype=bool)
        in_psi = np.zeros(n, dtype=bool)
        nid_l, par_l = nid.tolist(), par.tolist()
        for i in range(n):
            p = par_l[i]
            if p >= 0:
                ce_of[i] = ce_of[p]
                in_hd[i] = in_hd[p]
                in_psi[i] = in_psi[p]
            name = nid_l[i]
            if name == ce:
                ce_of[i] = i
                in_hd[i] = False
            elif name == hd:
                in_hd[i] = True
            elif name == psi:
                in_psi[i] = True
        cert_start, search_end, polish_s = {}, {}, 0.0
        for i in range(n):
            root = int(ce_of[i])
            if root < 0 or root == i:
                continue
            name = nid_l[i]
            if name == mq and not in_hd[i] and root not in cert_start:
                cert_start[root] = start[i]
            elif name == hd and root not in cert_start:
                search_end[root] = end[i]
            elif name == polish:
                polish_s += end[i] - start[i]
        lower = fixed = cert = 0.0
        estimates = [i for i in range(n) if nid_l[i] == ce]
        for i in estimates:
            t0, t1 = start[i], end[i]
            c = cert_start.get(i, t1)
            a = search_end.get(i, t0)
            lower += a - t0
            fixed += c - a
            cert += t1 - c
        psi_calls = sum(1 for i in range(n) if nid_l[i] == psi)
        flank = sum(1 for i in estimates if in_psi[i])
        return {
            "contraction.lower_search_s": lower,
            "contraction.fixed_point_s": fixed,
            "contraction.certificate_s": cert,
            "contraction.polish_s": polish_s,
            "contraction.fixed_point_iters": self.fixed_point_iters,
            "contraction.uncertified": self.uncertified,
            "fcs.flank_estimates_per_psi": flank / psi_calls if psi_calls else 0.0,
        }
