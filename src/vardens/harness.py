"""Convergence-study driver: runs the scheme on manufactured cases, tracks
max-in-time L2 errors, and emits the convergence tables.

Space mode refines the mesh at a fixed small time step; time mode couples
the mesh to the step through h = tau^(1/2).  Observed orders come from
log-ratios of consecutive errors.  Mesh resolution n is the number of
subdivisions per side, so the nominal h reported in tables is 1/n.
"""

import csv
import io
import json
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import assemble
from .mesh import unit_cube_mesh, unit_square_mesh
from .mms import make_case
from .scheme import SchemeConfig, TimeStepper, horizon_steps

UNDEFINED_ORDER = float("nan")


def parse_fraction(text):
    """Accept '1/8' style literals as well as plain floats.  Every number
    the CLI takes is finite and positive, so a zero denominator or any
    other value is a ``ValueError``, which argparse reports as bad usage."""
    num, _, den = str(text).strip().partition("/")
    if den and float(den) == 0.0:
        raise ValueError(f"zero denominator in {text!r}")
    value = float(num) / float(den or 1)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{text!r} is not finite and positive")
    return value


def compute_order(e1, h1, e2, h2):
    """log(E1/E2) / log(h1/h2); undefined-order sentinel on bad input."""
    if e1 <= 0.0 or e2 <= 0.0 or h1 <= 0.0 or h2 <= 0.0 or h1 == h2:
        return UNDEFINED_ORDER
    return math.log(e1 / e2) / math.log(h1 / h2)


def l2_error_at_step(geom, values, exact_values):
    """L2(Omega) distance between point values (nc, nq) or (nc, nq, d) on
    the same quadrature: the squared difference, one product with the
    rule's weights, repeated per component, and one with |det J|."""
    sq = np.asarray(values) - np.asarray(exact_values)
    sq *= sq
    sq = sq.reshape(len(sq), -1)
    weights = np.repeat(geom.rule.weights, sq.shape[1] // geom.npoints)
    return math.sqrt(geom.abs_dets @ (sq @ weights))


def _resolution_for(value, what):
    n = round(1.0 / value) if value > 0 else 0
    if n < 1 or abs(n * value - 1.0) > 1e-9 * n:
        raise ValueError(f"{what} {value} is not 1/n for integer n")
    return int(n)


def build_mesh(case, h):
    n = _resolution_for(h, "mesh size")
    if case.dim == 2:
        return unit_square_mesh(n)
    if case.name == "cube3d_nonsmooth" and n % 2 == 1:
        warnings.warn(
            "odd subdivision places quadrature points near the density "
            "kink; prefer even n", stacklevel=2,
        )
    return unit_cube_mesh(n)


def run_case(case, h, tau, *, T, mu, cutoff_mode, trace=None):
    """Time-march one manufactured problem; returns {"E_rho", "E_u",
    "seconds", "records"}.

    The march is ``TimeStepper.initialize`` and then ``TimeStepper.step``
    per step, so a failed step raises its own typed error, which names the
    step and the solver.  ``E_rho`` and ``E_u`` are the max-over-steps L2
    errors of density and velocity, evaluated every step on the
    over-integration rule.  ``seconds`` covers the whole run, set-up
    included, and ``records`` holds every step's record.  ``trace``
    receives one JSON line per step: the step's record with that step's
    ``E_rho`` and ``E_u``.  The result holds no state or stepper, so the
    stepper's factors, workspace and tables are freed on return, before a
    study's next row sets up.
    """
    t0 = time.perf_counter()
    mesh = build_mesh(case, h)
    sources = case.make_source_evaluator(mu)
    config = SchemeConfig(
        tau=tau, mu=mu, n_steps=horizon_steps(T, tau),
        cutoff_mode=cutoff_mode, f=sources.f, g=sources.g,
    )
    stepper = TimeStepper(mesh, config)
    geom = stepper.geom_lo
    state = stepper.initialize(lambda x: case.rho(x, 0.0),
                               lambda x: case.u(x, 0.0))
    E_rho = E_u = 0.0
    records = []
    for _ in range(config.n_steps):
        state, record = stepper.step(state)
        records.append(record)
        rho_q = assemble.eval_scalar(stepper.p2_lo, state.rho)
        u_q = assemble.eval_mini_vector(stepper.mini_lo, state.u)
        e_rho = l2_error_at_step(geom, rho_q, case.rho(geom.points, state.t))
        e_u = l2_error_at_step(geom, u_q, case.u(geom.points, state.t))
        E_rho, E_u = max(E_rho, e_rho), max(E_u, e_u)
        if trace is not None:
            print(json.dumps({**record, "E_rho": e_rho, "E_u": e_u}),
                  file=trace)
    return {"E_rho": E_rho, "E_u": E_u,
            "seconds": time.perf_counter() - t0, "records": records}


@dataclass
class StudySpec:
    """One convergence study: which case, which refinement axis, which grids."""

    case: str
    mode: str                    # space | time
    params: list                 # h values (space) or tau values (time)
    tau: float = 1.0 / 2048.0    # fixed step for space mode
    T: float = 0.25
    mu: float = 0.001
    cutoff_mode: str = "widened"

    def __post_init__(self):
        if self.mode not in ("space", "time"):
            raise ValueError(f"unknown study mode {self.mode!r}")
        p = list(self.params)
        if len(p) == 0 or any(b >= a for a, b in zip(p, p[1:])):
            raise ValueError("parameter list must be strictly decreasing")
        for value in p:  # every row's grid and horizon, before any row runs
            if self.mode == "space":
                _resolution_for(value, "mesh size")
                horizon_steps(self.T, self.tau)
            elif math.isqrt(m := _resolution_for(value, "tau")) ** 2 != m:
                raise ValueError(
                    f"tau {value} is not 1/n^2; required by the "
                    "h = tau^(1/2) coupling")
            else:
                horizon_steps(self.T, value)
        self.params = p


@dataclass
class ConvergenceRecord:
    h: float
    tau: float
    E_rho: float = float("nan")
    E_u: float = float("nan")
    order_rho: float = UNDEFINED_ORDER
    order_u: float = UNDEFINED_ORDER
    seconds: float = float("nan")
    failed: bool = False
    message: str = ""


def run_study(spec: StudySpec, progress=None, finished=()):
    """Run every row of the study; row failures are recorded, not raised.

    A row whose (h, tau) matches one of the records ``finished`` that did
    not fail, such as the rows read back from an earlier run's CSV, is
    taken from it and not run again.  Each row's orders against the row
    before it are set as soon as it finishes, so ``progress(rec)`` sees the
    row as it will be returned.
    """
    case = make_case(spec.case)
    scale = "h" if spec.mode == "space" else "tau"
    finished = [r for r in finished if not r.failed]
    records = []
    for value in spec.params:
        if spec.mode == "space":
            h, tau = value, spec.tau
        else:
            tau = value
            h = 1.0 / round(1.0 / math.sqrt(tau))
        rec = ConvergenceRecord(h=h, tau=tau)
        old = next((r for r in finished
                    if math.isclose(r.h, h, rel_tol=1e-9)
                    and math.isclose(r.tau, tau, rel_tol=1e-9)), None)
        if old is not None:
            rec.E_rho, rec.E_u, rec.seconds = old.E_rho, old.E_u, old.seconds
        else:
            try:
                result = run_case(
                    case, h, tau, T=spec.T, mu=spec.mu,
                    cutoff_mode=spec.cutoff_mode,
                )
                rec.E_rho = result["E_rho"]
                rec.E_u = result["E_u"]
                rec.seconds = result["seconds"]
            except Exception as exc:  # row failure: record and continue
                rec.failed = True
                rec.message = f"{type(exc).__name__}: {exc}"
        prev = records[-1] if records else None
        if not rec.failed and prev is not None and not prev.failed:
            x1, x2 = getattr(prev, scale), getattr(rec, scale)
            rec.order_rho = compute_order(prev.E_rho, x1, rec.E_rho, x2)
            rec.order_u = compute_order(prev.E_u, x1, rec.E_u, x2)
        records.append(rec)
        if progress is not None:
            progress(rec)
    return records


def _fmt_order(v):
    return "" if math.isnan(v) else f"{v:.2f}"


CSV_HEADER = ["h", "tau", "E_rho", "order_rho", "E_u", "order_u", "seconds"]


def records_to_csv(records):
    """The study as CSV text; a failed row reads ``failed`` in the E_rho
    column and its message in the seconds column."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        if r.failed:
            rest = ["failed", "", "", "", r.message]
        else:
            rest = [f"{r.E_rho:.6e}", _fmt_order(r.order_rho), f"{r.E_u:.6e}",
                    _fmt_order(r.order_u), f"{r.seconds:.3f}"]
        writer.writerow([f"{r.h:.10g}", f"{r.tau:.10g}"] + rest)
    return out.getvalue()


def study_line(spec):
    """The first line of the study's CSV, which names the study by the
    settings that, with a row's h and tau, fix the row's numbers."""
    return (f"# study case={spec.case} mode={spec.mode} tau={spec.tau} "
            f"T={spec.T} mu={spec.mu} cutoff={spec.cutoff_mode}\n")


def study_records(spec, text):
    """The records of ``text``, a study CSV that the study ``spec`` wrote:
    ``study_line(spec)`` and then ``records_to_csv``; none from empty text.
    A ``ValueError`` when the text does not name a study or names another
    one, listing each setting that differs."""
    if not text:
        return []
    line, _, rest = text.partition("\n")
    if not line.startswith("# study "):
        raise ValueError(f"not a study CSV: first line {line!r}")
    ours, theirs = (dict(kv.partition("=")[::2] for kv in s.split()[2:])
                    for s in (study_line(spec), line))
    differ = [f"{k} {theirs.get(k)} there, {v} here"
              for k, v in ours.items() if theirs.get(k) != v]
    if differ:
        raise ValueError("rows of another study: " + "; ".join(differ))
    return records_from_csv(rest)


def records_from_csv(text):
    """The records of a study CSV written by ``records_to_csv``."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return []
    if rows[0] != CSV_HEADER:
        raise ValueError(f"not a study CSV: header {rows[0]}")
    records = []
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"study CSV row with {len(row)} fields: {row}")
        h, tau, e_rho, order_rho, e_u, order_u, last = row
        rec = ConvergenceRecord(h=float(h), tau=float(tau))
        if e_rho == "failed":
            rec.failed, rec.message = True, last
        else:
            rec.E_rho, rec.E_u = float(e_rho), float(e_u)
            rec.seconds = float(last)
            rec.order_rho = float(order_rho) if order_rho else UNDEFINED_ORDER
            rec.order_u = float(order_u) if order_u else UNDEFINED_ORDER
        records.append(rec)
    return records


def records_to_table(records):
    """The records as a markdown table."""
    header = ["h", "tau", "E_rho", "order", "E_u", "order", "seconds"]
    rows = []
    for r in records:
        if r.failed:
            rows.append([f"{r.h:.6g}", f"{r.tau:.6g}", "failed", "", "",
                         "", r.message])
            continue
        rows.append([
            f"{r.h:.6g}", f"{r.tau:.6g}", f"{r.E_rho:.3e}",
            _fmt_order(r.order_rho) or "-", f"{r.E_u:.3e}",
            _fmt_order(r.order_u) or "-", f"{r.seconds:.1f}",
        ])
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    out = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |"]
    out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        out.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    return "\n".join(out) + "\n"
