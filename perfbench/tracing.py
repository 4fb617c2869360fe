"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``quiverdyn`` layers from the
outside: it replaces each function in every loaded module namespace that
binds it (``casestudy`` imports ``ls_reduce`` by name, ``cli`` binds
``casestudy_s10`` under another name, the workloads import what they call)
and each method on its class. A wrapped call made while an operation is
running records one span (name, start, end, parent span, operation id) into
flat in-memory arrays; the arrays are written out once the run ends. Self
time is a span's duration minus the durations of its direct children, which
in one thread never overlap.

The three hot ``Poly`` dunders (``__init__``, ``__mul__``/``__rmul__`` and
``__add__``) run millions of times per run, so they get counters only.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (span name, module, class or None, attribute)
SPANNED = [
    ("polynomial.compose", "quiverdyn.polynomial", "Poly", "compose"),
    ("polynomial.diff", "quiverdyn.polynomial", "Poly", "diff"),
    ("polynomial.eval", "quiverdyn.polynomial", "Poly", "eval"),
    ("tuples.check_equivariance", "quiverdyn.tuples", None,
     "check_equivariance"),
    ("tuples.equivariance_defect", "quiverdyn.tuples", None,
     "equivariance_defect"),
    ("tuples.compose_tuple", "quiverdyn.tuples", None, "compose_tuple"),
    ("tuples.bracket_tuple", "quiverdyn.tuples", None, "bracket_tuple"),
    ("network.check_admissible", "quiverdyn.network", None,
     "check_admissible"),
    ("network.instantiate", "quiverdyn.network", "ResponseFamily",
     "instantiate"),
    ("lsreduction.phi", "quiverdyn.lsreduction", "LSReduction", "phi"),
    ("lsreduction.reduced_eval", "quiverdyn.lsreduction", "LSReduction",
     "reduced_eval"),
    ("lsreduction.ls_reduce", "quiverdyn.lsreduction", None, "ls_reduce"),
    ("lsreduction.find_branches_1param", "quiverdyn.lsreduction", None,
     "find_branches_1param"),
    ("lsreduction.check_reduced_equivariance", "quiverdyn.lsreduction", None,
     "check_reduced_equivariance"),
    ("casestudy.casestudy_s10", "quiverdyn.casestudy", None, "casestudy_s10"),
    ("fileio.parse_poly_dsl", "quiverdyn.fileio", None, "parse_poly_dsl"),
    ("builders.enumerate_quotients", "quiverdyn.builders", None,
     "enumerate_quotients"),
    ("builders.enumerate_fibrations", "quiverdyn.builders", None,
     "enumerate_fibrations"),
    ("builders.build_quoq", "quiverdyn.builders", None, "build_quoq"),
    ("builders.build_subq", "quiverdyn.builders", None, "build_subq"),
    ("quiver.representation", "quiverdyn.quiver", "QuiverRepresentation",
     "__init__"),
    ("quiver.from_bases", "quiverdyn.quiver", "Subrepresentation",
     "from_bases"),
    ("exactlin.matmul", "quiverdyn.exactlin", None, "matmul"),
    ("exactlin.rref", "quiverdyn.exactlin", None, "rref"),
    ("exactlin.inverse", "quiverdyn.exactlin", None, "inverse"),
    ("exactlin.solve", "quiverdyn.exactlin", None, "solve"),
    ("exactlin.charpoly", "quiverdyn.exactlin", None, "charpoly"),
    ("exactlin.rational_roots", "quiverdyn.exactlin", None, "rational_roots"),
    ("spectral.joint_spectrum", "quiverdyn.spectral", None, "joint_spectrum"),
    ("spectral.sn_decomposition", "quiverdyn.spectral", None,
     "sn_decomposition"),
    ("spectral.kernel_image_split", "quiverdyn.spectral", None,
     "kernel_image_split"),
    ("spectral.center_hyperbolic_split", "quiverdyn.spectral", None,
     "center_hyperbolic_split"),
    ("polyfield.ad_operator_matrix", "quiverdyn.polyfield", None,
     "ad_operator_matrix"),
    ("polyfield.solve_homological", "quiverdyn.polyfield", None,
     "solve_homological"),
    ("polyfield.lie_transform", "quiverdyn.polyfield", None, "lie_transform"),
    ("centermanifold.cm_taylor", "quiverdyn.centermanifold", None,
     "cm_taylor"),
    ("centermanifold.check_cm_equivariance", "quiverdyn.centermanifold", None,
     "check_cm_equivariance"),
    ("normalform.normal_form", "quiverdyn.normalform", None, "normal_form"),
]

# (counter name, Poly attributes sharing it)
COUNTED = [
    ("polynomial.init", ("__init__",)),
    ("polynomial.mul", ("__mul__", "__rmul__")),
    ("polynomial.add", ("__add__",)),
]

OP_SPAN = "op"


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names = [OP_SPAN] + [s[0] for s in SPANNED]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts = {name: 0 for name, _ in COUNTED}
        self.errors = {}          # (span name, exception type) -> count
        self.quotients_found = 0
        self.fibrations_found = 0
        self.ad_hits = 0
        self._ad_seen = set()
        self._ad_keep = []        # keeps returned objects alive so ids stay unique
        self._undo = []

    # --- spans ------------------------------------------------------------

    def open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.opid.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_index):
        self.op = op_index
        return self.open(0)

    def end_op(self, idx):
        self.close(idx)
        self.op = -1

    # --- wrapping ---------------------------------------------------------

    def _spanned(self, name, fn):
        rec = self
        name_id = self.name_id[name]
        post = {
            "builders.enumerate_quotients": self._post_quotients,
            "builders.enumerate_fibrations": self._post_fibrations,
            "polyfield.ad_operator_matrix": self._post_ad,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op < 0:
                return fn(*args, **kwargs)
            idx = rec.open(name_id)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                rec.errors[key] = rec.errors.get(key, 0) + 1
                raise
            finally:
                rec.close(idx)
            if post is not None:
                post(out)
            return out

        return wrapper

    def _counted(self, name, fn):
        rec = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _post_quotients(self, catalog):
        self.quotients_found += len(catalog.quotients)

    def _post_fibrations(self, fibrations):
        self.fibrations_found += len(fibrations)

    def _post_ad(self, ad):
        if id(ad) in self._ad_seen:
            self.ad_hits += 1
        else:
            self._ad_seen.add(id(ad))
            self._ad_keep.append(ad)

    def install(self):
        """Wrap every listed function; undone by uninstall()."""
        import quiverdyn  # noqa: F401  (loads every layer module)
        from quiverdyn.polynomial import Poly

        for name, modname, clsname, attr in SPANNED:
            module = sys.modules[modname]
            if clsname is None:
                orig = getattr(module, attr)
                wrapped = self._spanned(name, orig)
                self._rebind_everywhere(orig, wrapped)
            else:
                cls = getattr(module, clsname)
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._spanned(name, raw.__func__))
                else:
                    wrapped = self._spanned(name, raw)
                self._set(cls, attr, wrapped)
        for name, attrs in COUNTED:
            for attr in attrs:
                raw = inspect.getattr_static(Poly, attr)
                self._set(Poly, attr, self._counted(name, raw))
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, orig, wrapped):
        """Replace orig in every loaded module that binds it, under any name
        (quiverdyn's own modules and callers such as the workloads)."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is orig:
                    self._set(module, key, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # --- results ----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "opid": np.frombuffer(self.opid, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, op_scale):
        """Per-name call counts and self seconds, plus the counters.

        ``op_scale[i]`` rescales the spans of operation i to the reference
        speed (see speed.py), as the end-to-end times are.
        """
        a = self.arrays()
        calls, self_s = span_totals(a["name"], a["parent"], a["start"],
                                    a["end"], len(self.names),
                                    np.asarray(op_scale)[a["opid"]])
        out = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.self_s"] = float(self_s[i])
        for n, c in self.counts.items():
            out[f"{n}.calls"] = c
        ad_calls = out["polyfield.ad_operator_matrix.calls"]
        out["polyfield.ad_hit_ratio"] = self.ad_hits / ad_calls if ad_calls else 0.0
        red_calls = out["lsreduction.reduced_eval.calls"]
        diverged = self.errors.get(("lsreduction.reduced_eval", "NewtonDiverged"), 0)
        out["lsreduction.reduced_eval.fail_ratio"] = (
            diverged / red_calls if red_calls else 0.0)
        out["builders.quotients_found"] = self.quotients_found
        out["builders.fibrations_found"] = self.fibrations_found
        out["errors"] = {f"{n}:{e}": c for (n, e), c in sorted(self.errors.items())}
        out["spans"] = len(self.start)
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def span_totals(name, parent, start, end, n_names, scale=1.0):
    """Per-name span counts and self times.

    A span's self time is its duration minus the summed durations of the
    spans whose parent it is; it is then multiplied by ``scale`` (one factor
    per span, or one for all).
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = (dur - child) * scale
    calls = np.bincount(name, minlength=n_names)
    self_s = np.bincount(name, weights=self_time, minlength=n_names)
    return calls, self_s
