"""Spans around the public functions of vardens, recorded from outside.

``Tracer.install()`` replaces each function or method that ``_targets``
lists with a wrapper that appends one span (name, start, end, parent)
to an in-memory list; ``Tracer.restore()`` puts the originals back.  No
file under ``src/`` is touched.  The wrappers rebind module attributes and
class attributes, so they catch every call that looks the name up at call
time: ``scheme`` calls ``assemble.*`` and ``linalg.*`` through the module,
and ``linalg.solve_direct`` finds ``factorize`` through its module globals.

A span's self time is its duration minus the durations of its direct
children; calls nest strictly in one thread, so the children never overlap.
``layer_metrics`` sums self times into the per-layer metrics of
BENCHMARK.json.  The groups in ``PARTITION`` are disjoint and cover every
span name, so their sum plus the unattributed remainder is the traced
``total_s`` exactly.
"""

import functools
import time
from contextlib import contextmanager

from vardens import assemble, harness, linalg, mms, projections, scheme

FORMS = (
    "assemble.mass_matrix", "assemble.stiffness_matrix",
    "assemble.convection_matrix", "assemble.rt_mass_matrix",
    "assemble.mixed_div_matrix", "assemble.div_coupling",
    "assemble.upwind_matrix",
)
TABULATE = (
    "assemble.CellQuadrature", "assemble.ScalarTab", "assemble.RTTab",
    "assemble.FacetQuadrature", "assemble.DGFacetTrace",
    "assemble.RTFacetFlux",
)
EVAL = (
    "assemble.eval_scalar", "assemble.eval_mini_vector", "assemble.eval_rt",
    "assemble.eval_dg_traces", "assemble.eval_rt_flux",
    "assemble.load_vector", "assemble.rt_load", "assemble.integrate",
    "assemble.upwind_jump_quadratic",
)

# The benchmark opens this span itself around the per-step error tracking.
ERROR_SPAN = "harness.error"


def _targets():
    """(owner, attribute, span name) for every wrapped callable."""
    out = [(harness, "build_mesh", "harness.build_mesh")]
    for name in FORMS + EVAL:
        out.append((assemble, name.split(".")[1], name))
    for name in TABULATE:
        out.append((getattr(assemble, name.split(".")[1]), "__init__", name))
    for attr in ("factorize", "solve_direct", "solve_constrained",
                 "solve_gmres"):
        out.append((linalg, attr, f"linalg.{attr}"))
    ws = projections.RtProjectionWorkspace
    out += [
        (ws, "__init__", "projections.RtProjectionWorkspace"),
        (ws, "project", "projections.RtProjectionWorkspace.project"),
    ]
    ts = scheme.TimeStepper
    out += [(ts, "__init__", "scheme.TimeStepper")]
    for attr in ("initialize", "density_step", "velocity_step", "step"):
        out.append((ts, attr, f"scheme.TimeStepper.{attr}"))
    se = mms.SourceEvaluator
    out += [(se, "f", "mms.SourceEvaluator.f"),
            (se, "g", "mms.SourceEvaluator.g")]
    return out


# Disjoint self-time groups; with trace.unattributed_s they sum to
# trace.total_s.  harness.error_s is reported inclusive, so its self part is
# a group of its own here.
PARTITION = {
    "mesh.build_s": ("harness.build_mesh",),
    "assemble.tabulate_s": TABULATE,
    "assemble.forms_s": FORMS,
    "assemble.eval_s": EVAL,
    "linalg.factorize_s": ("linalg.factorize",),
    "linalg.direct_s": ("linalg.solve_direct", "linalg.solve_constrained"),
    "linalg.gmres_s": ("linalg.solve_gmres",),
    "projections.setup_s": ("projections.RtProjectionWorkspace",),
    "projections.project_s": ("projections.RtProjectionWorkspace.project",),
    "scheme.init_s": ("scheme.TimeStepper", "scheme.TimeStepper.initialize"),
    "scheme.density_step_s": ("scheme.TimeStepper.density_step",),
    "scheme.velocity_step_s": ("scheme.TimeStepper.velocity_step",),
    "scheme.step_s": ("scheme.TimeStepper.step",),
    "mms.source_s": ("mms.SourceEvaluator.f", "mms.SourceEvaluator.g"),
    "harness.error_self_s": (ERROR_SPAN,),
}
# Self-time metrics that are a part of a PARTITION group.
SUBSETS = {
    "assemble.mass_s": ("assemble.mass_matrix",),
    "assemble.convection_s": ("assemble.convection_matrix",),
    "assemble.upwind_s": ("assemble.upwind_matrix",),
}


class Tracer:
    """In-memory span recorder over the wrapped public functions."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.gmres_iters = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "linalg.solve_gmres":
                self.gmres_iters += result[1].iterations
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def restore(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_times(self):
        """Per span: its duration minus its direct children's durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _has_ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, total_s, lu_nnz):
        """Per-layer metrics of one traced round whose setup plus march
        took ``total_s`` seconds."""
        own = self.self_times()
        by_name, calls, inclusive = {}, {}, {}
        for (name, start, end, _), t in zip(self.spans, own):
            by_name[name] = by_name.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        grouped = [n for names in PARTITION.values() for n in names]
        stray = sorted(set(by_name) - set(grouped))
        if stray:
            raise RuntimeError(f"spans outside every layer group: {stray}")

        def total(names):
            return sum(by_name.get(n, 0.0) for n in names)

        def count(names):
            return sum(calls.get(n, 0) for n in names)

        m = {key: total(names) for key, names in PARTITION.items()}
        m.update({key: total(names) for key, names in SUBSETS.items()})
        attributed = sum(total(names) for names in PARTITION.values())
        m["trace.unattributed_s"] = total_s - attributed
        m["trace.total_s"] = total_s
        m["harness.error_s"] = inclusive.get(ERROR_SPAN, 0.0)
        m["assemble.form_calls"] = count(FORMS)
        m["linalg.factorize_calls"] = count(("linalg.factorize",))
        m["linalg.gmres_iters"] = self.gmres_iters
        m["projections.project_calls"] = count(
            ("projections.RtProjectionWorkspace.project",))
        m["projections.lu_nnz"] = lu_nnz
        m["mms.source_calls"] = count(PARTITION["mms.source_s"])
        m["scheme.velocity_lu_refreshes"] = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == "linalg.factorize"
            and self._has_ancestor(i, "scheme.TimeStepper.velocity_step")
        )
        return m

    def dump(self, t0):
        """Spans as JSON-ready rows, times in seconds from ``t0``."""
        return [[name, start - t0, end - t0, parent]
                for name, start, end, parent in self.spans]
