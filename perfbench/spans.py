"""Span recording around fflab's public functions, from outside the package.

``Tracer.install()`` rebinds each function in ``WRAPPED`` in every ``fflab``
module namespace that holds it (``fourier_forward`` is bound in grid,
surfaces, restriction, cli and the package itself), so calls through any
import path are seen.  Scalar field arithmetic (``Field.add``/``mul``) is
never wrapped: it runs millions of times per op and would swamp the trace.

Spans (name, start, end, parent, op id) and a computed work count per span
are kept in flat arrays in memory and written out at the end.  Self time is a
span's duration minus the part of its interval covered by its children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

OP_SPAN = "cli.op"
LAYERS = ("field", "grid", "surfaces", "restriction", "kakeya", "certificates", "reports", "cli")


def _grid_cmacs(args, kwargs, result):
    f = args[0] if args else next(iter(kwargs.values()))
    return f.n * f.field.order ** (f.n + 1)


def _sum_tuples(args, kwargs, result):
    surface = args[0] if args else kwargs["surface"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return surface.size**k


def _maximal_lines(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    return f.field.order ** (2 * (f.n - 1))


def _selfdot_pairs(args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return len(points) ** 2


def _restarts(args, kwargs, result):
    return result.meta["restarts"]


def _stored_bytes(args, kwargs, result):
    return result.stat().st_size


# span name -> (defining module, attribute path, metric family, computed work count)
WRAPPED = {
    "field.make_field": ("field", "make_field", "field.construct", None),
    "grid.fourier_forward": ("grid", "fourier_forward", "grid.transform", _grid_cmacs),
    "grid.fourier_inverse": ("grid", "fourier_inverse", "grid.transform", _grid_cmacs),
    "grid.lp_norm": ("grid", "lp_norm", "grid.norm", None),
    "grid.inner_product": ("grid", "inner_product", "grid.norm", None),
    "surfaces.build_surface": ("surfaces", "build_surface", "surfaces.build", None),
    "surfaces.extension": ("surfaces", "extension", "surfaces.extension", None),
    "surfaces.restriction": ("surfaces", "restriction", "surfaces.extension", None),
    "surfaces.extension_direct": ("surfaces", "extension_direct", "surfaces.direct", None),
    "surfaces.restriction_direct": ("surfaces", "restriction_direct", "surfaces.direct", None),
    "surfaces.surface_sum_table": ("surfaces", "surface_sum_table", "surfaces.sum_table", _sum_tuples),
    "surfaces.gauss_sum": ("surfaces", "gauss_sum", "surfaces.gauss_sum", None),
    "restriction.rstar_lower_power": ("restriction", "rstar_lower_power", "restriction.power", _restarts),
    "restriction.rstar_upper_even": ("restriction", "rstar_upper_even", "restriction.upper_even", None),
    "restriction.rstar_lower_witness": ("restriction", "rstar_lower_witness", "restriction.witness", None),
    "restriction.verify_lower": ("restriction", "verify_lower", "restriction.recheck", None),
    "restriction.recheck_lower": ("restriction", "recheck_lower", "restriction.recheck", None),
    "restriction.selfdot_incidence_count": (
        "restriction", "selfdot_incidence_count", "restriction.selfdot", _selfdot_pairs),
    "kakeya.kakeya_maximal": ("kakeya", "kakeya_maximal", "kakeya.maximal", _maximal_lines),
    "kakeya.kakeya_maximal_direct": (
        "kakeya", "kakeya_maximal_direct", "kakeya.maximal_direct", _maximal_lines),
    "kakeya.verify_lower": ("kakeya", "verify_lower", "kakeya.recheck", None),
    "kakeya.recheck_lower": ("kakeya", "recheck_lower", "kakeya.recheck", None),
    "kakeya.besicovitch_2d": ("kakeya", "besicovitch_2d", "kakeya.besicovitch", None),
    "kakeya.verify_besicovitch": ("kakeya", "verify_besicovitch", "kakeya.besicovitch", None),
    "kakeya.cordoba_check": ("kakeya", "cordoba_check", "kakeya.lines", None),
    "kakeya.line_sum_grid": ("kakeya", "line_sum_grid", "kakeya.lines", None),
    "kakeya.wolff_axiom_check": ("kakeya", "wolff_axiom_check", "kakeya.lines", None),
    "kakeya.heisenberg_example": ("kakeya", "heisenberg_example", "kakeya.lines", None),
    "kakeya.slices_construction": ("kakeya", "slices_construction", "kakeya.lines", None),
    "kakeya.slope_projections": ("kakeya", "slope_projections", "kakeya.lines", None),
    "kakeya.incidence_count": ("kakeya", "incidence_count", "kakeya.lines", None),
    "kakeya.incidence_chain_counts": ("kakeya", "incidence_chain_counts", "kakeya.lines", None),
    "certificates.certificate_consistency": (
        "certificates", "certificate_consistency", "certificates.consistency", None),
    "reports.ExperimentReport.render": ("reports", "ExperimentReport.render", "reports.render", None),
    "reports.store_report": ("reports", "store_report", "reports.store", _stored_bytes),
}

FAMILY = {name: spec[2] for name, spec in WRAPPED.items()}
FAMILY[OP_SPAN] = "cli.op"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("d")
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list = []

    # -- recording ----------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        return self.open(OP_SPAN)

    def _wrap(self, fn, name: str, count):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.close(idx)
            if count is not None:
                self.work[idx] = float(count(args, kwargs, result))
            return result

        return traced

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Rebind every function in WRAPPED wherever fflab imported it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fflab" or n.startswith("fflab.")]
        for name, (mod, attr, _, count) in WRAPPED.items():
            owner = sys.modules[f"fflab.{mod}"]
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, count))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, count)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- output ------------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it covered by its children.

    Children of one parent come from one call stack, so they never overlap
    each other; each child's interval is clipped to its parent's.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    has = parent >= 0
    p = parent[has]
    covered = np.minimum(end[has], end[p]) - np.maximum(start[has], start[p])
    covered = np.clip(covered, 0.0, None)
    return own - np.bincount(p, weights=covered, minlength=len(own))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, constructions: int, scale: float = 1.0) -> tuple[dict[str, float], str]:
    """Per-layer metrics from the recorded spans, and the largest self-time family.

    Times are multiplied by ``scale`` (reference seconds per measured second).
    """
    a = tracer.arrays()
    # per-span name and family; index -1 (no parent) picks the trailing ""
    names = np.append(np.array(tracer.names, dtype=object), "")[a["name_id"]]
    fam = np.array([FAMILY[n] for n in tracer.names] + [""], dtype=object)[a["name_id"]]
    parent_name = np.append(names, "")[a["parent"]]
    parent_fam = np.append(fam, "")[a["parent"]]
    own = (a["end"] - a["start"]) * scale
    selfs = self_times(a["start"], a["end"], a["parent"]) * scale

    def sel(f):
        return fam == f

    def calls(f):
        return float(np.count_nonzero(sel(f)))

    def self_s(f):
        return float(selfs[sel(f)].sum())

    def work(f):
        return float(a["work"][sel(f)].sum())

    def total_outermost(f):
        return float(own[sel(f) & (parent_fam != f)].sum())

    op_time = float(own[sel("cli.op")].sum())
    power_iters = float(np.count_nonzero((names == "surfaces.extension")
                                         & (parent_name == "restriction.rstar_lower_power")))
    rr = total_outermost("restriction.recheck")
    kr = total_outermost("kakeya.recheck")
    m = {
        "field.construct.calls": float(constructions),
        "field.construct.self_s": self_s("field.construct"),
        "grid.transform.calls": calls("grid.transform"),
        "grid.transform.self_s": self_s("grid.transform"),
        "grid.transform.cmacs": work("grid.transform"),
        "grid.transform.cmacs_per_s": _ratio(work("grid.transform"), self_s("grid.transform")),
        "grid.norm.self_s": self_s("grid.norm"),
        "surfaces.build.self_s": self_s("surfaces.build"),
        "surfaces.extension.calls": calls("surfaces.extension"),
        "surfaces.extension.self_s": self_s("surfaces.extension"),
        "surfaces.direct.calls": calls("surfaces.direct"),
        "surfaces.direct.self_s": self_s("surfaces.direct"),
        "surfaces.sum_table.calls": calls("surfaces.sum_table"),
        "surfaces.sum_table.self_s": self_s("surfaces.sum_table"),
        "surfaces.sum_table.tuples": work("surfaces.sum_table"),
        "surfaces.gauss_sum.calls": calls("surfaces.gauss_sum"),
        "surfaces.gauss_sum.self_s": self_s("surfaces.gauss_sum"),
        "restriction.power.calls": calls("restriction.power"),
        "restriction.power.self_s": self_s("restriction.power"),
        "restriction.power.iterations": power_iters,
        "restriction.power.iters_per_restart": _ratio(power_iters, work("restriction.power")),
        "restriction.upper_even.self_s": self_s("restriction.upper_even"),
        "restriction.witness.self_s": self_s("restriction.witness"),
        "restriction.recheck.self_s": self_s("restriction.recheck"),
        "restriction.recheck.total_s": rr,
        "restriction.selfdot.self_s": self_s("restriction.selfdot"),
        "restriction.selfdot.pairs": work("restriction.selfdot"),
        "kakeya.maximal.calls": calls("kakeya.maximal"),
        "kakeya.maximal.self_s": self_s("kakeya.maximal"),
        "kakeya.maximal.lines": work("kakeya.maximal"),
        "kakeya.maximal.lines_per_s": _ratio(work("kakeya.maximal"), self_s("kakeya.maximal")),
        "kakeya.maximal_direct.self_s": self_s("kakeya.maximal_direct"),
        "kakeya.maximal_direct.lines": work("kakeya.maximal_direct"),
        "kakeya.maximal_direct.lines_per_s": _ratio(
            work("kakeya.maximal_direct"), self_s("kakeya.maximal_direct")),
        "kakeya.recheck.self_s": self_s("kakeya.recheck"),
        "kakeya.recheck.total_s": kr,
        "kakeya.besicovitch.self_s": self_s("kakeya.besicovitch"),
        "kakeya.lines.self_s": self_s("kakeya.lines"),
        "certificates.consistency.self_s": self_s("certificates.consistency"),
        "reports.render.self_s": self_s("reports.render"),
        "reports.store.self_s": self_s("reports.store"),
        "reports.store.bytes": work("reports.store"),
        "cli.op.self_s": self_s("cli.op"),
        "cli.recheck_share": _ratio(rr + kr, op_time),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(tracer.errors[layer])
    families = sorted(set(FAMILY.values()))
    self_by_family = {f: self_s(f) for f in families}
    m["trace.op_s"] = op_time
    m["trace.self_sum_ratio"] = _ratio(sum(self_by_family.values()), op_time)
    m["trace.spans"] = float(len(own))
    largest = max(self_by_family, key=self_by_family.get) if len(own) else ""
    return m, largest
