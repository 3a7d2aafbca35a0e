"""Time to a checked solution of the vardens scheme, on three workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all           # each workload in its own process
    python3 bench/run.py --workload NAME --smoke  # tiny mesh, every check, seconds
    python3 bench/run.py --workload NAME --write-reference [--smoke]

One round is one solve in a fresh process: set-up (``harness.build_mesh``,
``TimeStepper`` and ``initialize``), the march over the workload's steps
with the per-step error tracking of ``harness.run_case``, and then the
output checks, which are not timed.  A run makes ``seconds // round_s``
rounds, at least one, where ``round_s`` is the workload's nominal round
time, so the count never depends on how fast the host is at the moment.  It
reports the median over its rounds; peak RSS is the round process's own.  With ``--trace 1`` a run makes
one untraced and one traced round and reports the per-layer metrics of the
traced one.  No input depends on ``--seed``: the workloads are
deterministic, and the seed is only recorded.

The last line of standard output is the JSON result; the same record, with
host facts and per-round figures, is appended to ``--out``.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "vardens" / "__init__.py").is_file():
    sys.exit(f"bench: no vardens sources under {ROOT / 'src'}; "
             "run from the root of a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import vardens  # noqa: E402
from vardens import assemble, harness, mms, scheme  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

if Path(vardens.__file__).resolve().parent != ROOT / "src" / "vardens":
    sys.exit(f"bench: imported vardens from {vardens.__file__}, "
             f"not from {ROOT / 'src'}")

MU = 0.001
REFERENCE_FILE = BENCH / "reference.json"
DEFAULT_OUT = BENCH / "results" / "runs.jsonl"
TRACE_DIR = BENCH / "traces"


@dataclass(frozen=True)
class Workload:
    case: str
    n: int                 # mesh subdivisions per side, h = 1/n
    tau_inv: int           # tau = 1/tau_inv
    steps: int
    cutoff: str
    sources: bool          # manufactured sources and error tracking
    smoke_n: int
    smoke_steps: int
    # Wall time of one round on the reference host (bench/README.md),
    # process start and checks included; a run makes seconds // round_s.
    round_s: float
    # Upper bounds on the max-in-time errors; bench/README.md says why.
    error_bounds: dict = None
    smoke_error_bounds: dict = None

    def size(self, smoke):
        return (self.smoke_n, self.smoke_steps) if smoke else (self.n, self.steps)


WORKLOADS = {
    "square2d-free": Workload(
        "square2d", n=16, tau_inv=256, steps=128, cutoff="strict",
        sources=False, smoke_n=4, smoke_steps=4, round_s=9.0),
    "cube3d-fine": Workload(
        "cube3d", n=8, tau_inv=512, steps=8, cutoff="widened",
        sources=True, smoke_n=2, smoke_steps=2, round_s=35.0,
        error_bounds={"E_rho": 6.6e-4, "E_u": 0.14},
        smoke_error_bounds={"E_rho": 4.5e-3, "E_u": 0.94}),
    "cube3d-kink": Workload(
        "cube3d_nonsmooth", n=4, tau_inv=512, steps=128, cutoff="widened",
        sources=True, smoke_n=2, smoke_steps=4, round_s=15.0,
        error_bounds={"E_rho": 0.018, "E_u": 0.48},
        smoke_error_bounds={"E_rho": 2.0e-3, "E_u": 0.94}),
}


@dataclass
class Solve:
    stepper: object
    states: list
    errors: dict
    setup_s: float
    march_s: float

    @property
    def total_s(self):
        return self.setup_s + self.march_s


def solve(wl, smoke, tracer=None):
    """Set up and march one workload; only this part is timed."""
    n, steps = wl.size(smoke)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    case = mms.make_case(wl.case)
    mesh = harness.build_mesh(case, 1.0 / n)
    f = g = None
    if wl.sources:
        sources = case.make_source_evaluator(MU)
        f, g = sources.f, sources.g
    config = scheme.SchemeConfig(
        tau=1.0 / wl.tau_inv, mu=MU, n_steps=steps, cutoff_mode=wl.cutoff,
        f=f, g=g,
    )
    stepper = scheme.TimeStepper(mesh, config)
    state = stepper.initialize(lambda x: case.rho(x, 0.0),
                               lambda x: case.u(x, 0.0))
    t1 = time.perf_counter()

    geom = stepper.geom_lo
    errors = {"E_rho": 0.0, "E_u": 0.0}
    states = [state]
    for _ in range(steps):
        state, _ = stepper.step(state)
        states.append(state)
        if wl.sources:
            # the tracking of harness.run_case
            with span(spans.ERROR_SPAN):
                rho_q = assemble.eval_scalar(stepper.p2_lo, state.rho)
                u_q = assemble.eval_mini_vector(stepper.mini_lo, state.u)
                e_rho = harness.l2_error_at_step(
                    geom, rho_q, case.rho(geom.points, state.t))
                e_u = harness.l2_error_at_step(
                    geom, u_q, case.u(geom.points, state.t))
                errors["E_rho"] = max(errors["E_rho"], e_rho)
                errors["E_u"] = max(errors["E_u"], e_u)
    t2 = time.perf_counter()
    return Solve(stepper, states, errors, t1 - t0, t2 - t1)


def source_integrals(wl, smoke):
    """int f(t_n), n = 1..steps, on the rule the scheme loads f with.

    They depend only on the workload, so a run computes them once, before
    its first round.
    """
    n, steps = wl.size(smoke)
    case = mms.make_case(wl.case)
    geom = assemble.CellQuadrature(harness.build_mesh(case, 1.0 / n),
                                   scheme.CELL_DEGREE_LOW)
    return checks.source_integrals(
        case, geom, [k / wl.tau_inv for k in range(1, steps + 1)])


def check(wl, smoke, out, integrals, reference):
    """Per-solve checks (see ``checks.operations``) and run-level checks."""
    ops = checks.operations(out.stepper, out.states, integrals)
    if wl.sources:
        bounds = wl.smoke_error_bounds if smoke else wl.error_bounds
        run_checks = checks.error_checks(out.errors, bounds, reference)
    else:
        run_checks = [checks.energy_check(out.stepper, out.states)]
    return ops, run_checks


def _reference_key(name, smoke):
    return f"{name}:smoke" if smoke else name


def load_reference(name, smoke):
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(
        _reference_key(name, smoke))


def write_reference(name, smoke, errors):
    table = (json.loads(REFERENCE_FILE.read_text())
             if REFERENCE_FILE.is_file() else {})
    table[_reference_key(name, smoke)] = dict(errors)
    REFERENCE_FILE.write_text(json.dumps(table, indent=2, sort_keys=True)
                              + "\n")


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def host_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _summary(ops, run_checks):
    """Per check name: [worst value, limit, how many checks broke it]."""
    rows = {}
    for c in [c for _, cs in ops for c in cs] + run_checks:
        worst, _, broken = rows.get(c.name, (-math.inf, c.limit, 0))
        value = c.value if math.isfinite(c.value) else math.inf
        rows[c.name] = [max(worst, value), c.limit, broken + (not c.ok)]
    return rows


def run_round(name, args, traced, integrals):
    """One round, in the round process; returns a JSON-ready dict."""
    wl = WORKLOADS[name]
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        out = solve(wl, args.smoke, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    reference = load_reference(name, args.smoke)
    if args.write_reference and wl.sources:
        write_reference(name, args.smoke, out.errors)
        reference = out.errors
    ops, run_checks = check(wl, args.smoke, out, integrals, reference)
    result = {
        "setup_s": out.setup_s, "march_s": out.march_s,
        "errors": out.errors if wl.sources else None,
        "ops": len(ops),
        "failed": sum(not all(c.ok for c in cs) for _, cs in ops),
        "run_ok": all(c.ok for c in run_checks),
        "checks": _summary(ops, run_checks),
    }
    if tracer is not None:
        lu = out.stepper.workspace.lu
        metrics = tracer.layer_metrics(out.total_s, lu.L.nnz + lu.U.nnz)
        result["run_ok"] = result["run_ok"] and _partition_adds_up(metrics)
        result["layers"] = metrics
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{name}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": name, "seed": args.seed,
                                    "spans": tracer.dump(tracer.spans[0][1])}))
    result["blas_threads"] = _blas_threads()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


# Each round runs with one BLAS thread: see bench/README.md, "Host".
ROUND_ENV = {"OPENBLAS_NUM_THREADS": "1"}
ROUND_TIMEOUT_S = 170


def _spawn_round(name, args, traced, integrals):
    """Run one round in a fresh process; None if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--round",
           "--workload", name, "--seed", str(args.seed),
           "--trace", str(int(traced))]
    if args.smoke:
        cmd.append("--smoke")
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(integrals), stdout=subprocess.PIPE,
            text=True, env=dict(os.environ, **ROUND_ENV),
            timeout=ROUND_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"bench: a round of {name} took over {ROUND_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: a round of {name} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_workload(name, args):
    wl = WORKLOADS[name]
    _, steps = wl.size(args.smoke)
    ops_per_round = 3 * steps + 1
    if args.trace:
        plan = [False, True]
    elif args.smoke or args.write_reference:
        plan = [False]
    else:
        plan = [False] * max(1, int(args.seconds // wl.round_s))

    integrals = source_integrals(wl, args.smoke) if wl.sources else None
    rounds = []
    attempted = failed = 0
    traced = None
    for is_traced in plan:
        r = _spawn_round(name, args, is_traced, integrals)
        if r is None:
            attempted += ops_per_round
            failed += ops_per_round
            continue
        attempted += r["ops"]
        failed += r["failed"]
        if is_traced:
            traced = r
        else:
            rounds.append(r)

    if not rounds or (args.trace and traced is None):
        sys.exit(f"bench: no round of {name} completed")
    done = rounds + ([traced] if traced else [])
    correct = all(r["run_ok"] for r in done)
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "march_s": statistics.median(r["march_s"] for r in rounds),
        "total_s": statistics.median(r["setup_s"] + r["march_s"]
                                     for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    if traced is not None:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (metrics["trace.total_s"]
                                       - e2e["total_s"])
    else:
        metrics = e2e
    spec = _spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {}
    for r in done:
        for key, (worst, limit, broken) in r["checks"].items():
            w0, _, b0 = summary.get(key, (-math.inf, limit, 0))
            summary[key] = [max(w0, worst), limit, b0 + broken]
    for key, value in metrics.items():
        print(f"{name}  {key:30s} {value:14.6g} {units[key]}")
    for key, (worst, limit, broken) in summary.items():
        print(f"{name}  check {key:18s} worst {worst:10.3e} <= {limit:.1e}"
              f"  broken {broken}")
    print(f"{name}  {len(plan)} rounds, {failed} of {attempted} solves "
          f"failed, correct={correct}")

    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = dict(
        result, workload=name, seed=args.seed, trace=args.trace,
        smoke=args.smoke, seconds=args.seconds,
        host=dict(host_facts(), blas_threads=rounds[-1]["blas_threads"]),
        rounds=[{k: r[k] for k in ("setup_s", "march_s", "peak_rss_mb")}
                for r in rounds],
        errors=rounds[-1]["errors"], checks=summary,
    )
    _append(args.out, record)
    print(json.dumps(result))


def _partition_adds_up(m):
    """The disjoint self times plus the remainder give the traced total."""
    parts = sum(m[k] for k in spans.PARTITION) + m["trace.unattributed_s"]
    return (abs(parts - m["trace.total_s"]) <= 1e-9 * m["trace.total_s"]
            and m["trace.unattributed_s"] >= 0.0)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _append(path, record):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")


def run_all(args):
    """Each workload in its own process, so peak RSS covers one workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(args.out)]
        if args.smoke:
            cmd.append("--smoke")
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0,
                   help="recorded only; no workload input depends on it")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny mesh and few steps; every check still runs")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's E_rho and E_u as the reference")
    p.add_argument("--out", default=str(DEFAULT_OUT),
                   help="JSON-lines file the full record is appended to")
    p.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.round:
        integrals = json.loads(sys.stdin.read())
        print(json.dumps(run_round(args.workload, args, args.trace,
                                   integrals)))
        return 0
    if args.workload == "all":
        return run_all(args)
    run_workload(args.workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
