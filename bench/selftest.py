"""The benchmark's own tests: each output check passes on the scheme's
output and fails on a deliberately wrong one.

    python3 bench/selftest.py [--seed N]

Every workload is solved at smoke size (tiny meshes, a few steps; seconds
in all).  Copies of the outputs are then corrupted and each test asserts
that the check meant to catch the corruption reports it, on the solve it
was made in.  ``--seed`` picks the step, cell and random field of each
corruption; the default is 0.
"""

import argparse
import dataclasses
import math
import sys

import numpy as np

import run  # first: puts the checkout's src/ on the path

import checks  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402
from vardens.spaces import FeField  # noqa: E402


def _ops_failing(ops, check_name):
    return [label for label, cs in ops
            for c in cs if c.name == check_name and not c.ok]


def _replace(states, k, **fields):
    out = list(states)
    out[k] = dataclasses.replace(states[k], **fields)
    return out


def _with_coeffs(field, coeffs):
    return FeField(field.space, coeffs)


class Suite:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.results = []
        self.solved = {}
        for name, wl in run.WORKLOADS.items():
            out = run.solve(wl, smoke=True)
            integrals = run.source_integrals(wl, True) if wl.sources else None
            self.solved[name] = (wl, out, integrals)

    def record(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    def expect_failure(self, name, ops, check_name, label):
        failing = _ops_failing(ops, check_name)
        self.record(name, label in failing,
                    f"{check_name} failed on {failing}, expected {label}")

    def _pick_step(self, states):
        return int(self.rng.integers(1, len(states)))

    # -- the unchanged outputs pass ---------------------------------------
    def test_clean_outputs_pass(self):
        for name, (wl, out, integrals) in self.solved.items():
            ops, run_checks = run.check(
                wl, True, out, integrals, run.load_reference(name, True))
            bad = [f"{label}: {c.name}" for label, cs in ops for c in cs
                   if not c.ok] + [c.name for c in run_checks if not c.ok]
            self.record(f"{name}: every check passes", not bad, str(bad))

    # -- per-solve checks -------------------------------------------------
    def _density_bump(self, stepper, rho):
        """rho plus 1e-3 on one cell: the P2 basis sums to one there."""
        cell = int(self.rng.integers(stepper.mesh.n_cells))
        coeffs = rho.coeffs.copy()
        coeffs[stepper.rho_space.cell_dofs[cell]] += 1e-3
        return _with_coeffs(rho, coeffs)

    def test_mass_balance(self):
        wl, out, integrals = self.solved["cube3d-kink"]
        k = self._pick_step(out.states)
        states = _replace(out.states, k,
                          rho=self._density_bump(out.stepper, out.states[k].rho))
        ops = checks.operations(out.stepper, states, integrals)
        self.expect_failure("perturbed density breaks the mass balance",
                            ops, "mass_balance", f"step {k}: density")

    def test_mass_drift(self):
        wl, out, _ = self.solved["square2d-free"]
        k = self._pick_step(out.states)
        states = _replace(out.states, k,
                          rho=self._density_bump(out.stepper, out.states[k].rho))
        ops = checks.operations(out.stepper, states)
        self.expect_failure("perturbed density breaks the mass drift",
                            ops, "mass_drift", f"step {k}: density")

    def test_div_u(self):
        for name in ("square2d-free", "cube3d-fine"):
            wl, out, integrals = self.solved[name]
            k = self._pick_step(out.states)
            stepper, u = out.stepper, out.states[k].u
            coeffs = u.coeffs.copy()
            coeffs[stepper.free_vel] += 1e-3 * self.rng.standard_normal(
                len(stepper.free_vel))
            states = _replace(out.states, k, u=_with_coeffs(u, coeffs))
            ops = checks.operations(stepper, states, integrals)
            self.expect_failure(f"{name}: a velocity that is not "
                                "divergence-free fails div_u",
                                ops, "div_u", f"step {k}: velocity")

    def _rt_noise(self, stepper, w, on_boundary):
        space = stepper.rt_space
        mask = np.zeros(space.n_dofs, dtype=bool)
        mask[space.boundary_dofs()] = True
        if not on_boundary:
            mask = ~mask
        coeffs = w.coeffs.copy()
        coeffs[mask] += 1e-3 * self.rng.standard_normal(int(mask.sum()))
        return _with_coeffs(w, coeffs)

    def test_div_w(self):
        wl, out, integrals = self.solved["cube3d-kink"]
        k = self._pick_step(out.states)
        w = self._rt_noise(out.stepper, out.states[k].w, on_boundary=False)
        ops = checks.operations(out.stepper, _replace(out.states, k, w=w),
                                integrals)
        self.expect_failure("interior RT noise fails the nodal divergence",
                            ops, "div_w_nodal", f"step {k}: projection")
        self.record("interior RT noise keeps the boundary flux at zero",
                    not _ops_failing(ops, "flux_w_boundary"))

    def test_flux_w(self):
        wl, out, _ = self.solved["square2d-free"]
        w = self._rt_noise(out.stepper, out.states[0].w, on_boundary=True)
        ops = checks.operations(out.stepper, _replace(out.states, 0, w=w))
        self.expect_failure("boundary RT noise fails the normal flux",
                            ops, "flux_w_boundary", "initialize: projection")

    # -- run-level checks -------------------------------------------------
    def test_energy(self):
        wl, out, _ = self.solved["square2d-free"]
        k = self._pick_step(out.states)
        u = out.states[k].u
        states = _replace(out.states, k, u=_with_coeffs(u, 2.0 * u.coeffs))
        c = checks.energy_check(out.stepper, states)
        self.record("a doubled velocity breaks the energy inequality",
                    not c.ok, f"slack {c.value:.3e}")

    def test_errors(self):
        wl, out, _ = self.solved["cube3d-fine"]
        bounds = wl.smoke_error_bounds
        ref = run.load_reference("cube3d-fine", True)

        def failing(errors):
            return {c.name for c in checks.error_checks(errors, bounds, ref)
                    if not c.ok}

        for key in ("E_rho", "E_u"):
            self.record(f"{key} at 10x fails its bound",
                        f"{key}_bound" in failing(
                            dict(out.errors, **{key: 10 * out.errors[key]})))
            self.record(f"{key} = nan fails its bound",
                        f"{key}_bound" in failing(
                            dict(out.errors, **{key: math.nan})))
            moved = failing(dict(out.errors,
                                 **{key: out.errors[key] * (1 + 1e-7)}))
            self.record(f"{key} moved by 1e-7 fails only the reference",
                        moved == {f"{key}_reference"}, str(moved))

    # -- tracing and compare ----------------------------------------------
    def test_trace(self):
        wl = run.WORKLOADS["cube3d-kink"]
        tracer = spans.Tracer()
        tracer.install()
        try:
            out = run.solve(wl, smoke=True, tracer=tracer)
        finally:
            tracer.restore()
        lu = out.stepper.workspace.lu
        m = tracer.layer_metrics(out.total_s, lu.L.nnz + lu.U.nnz)
        m["trace.overhead_s"] = 0.0
        names = {x["name"] for x in run._spec()["per_layer"]}
        self.record("traced round reports every per-layer metric",
                    names == set(m), str(names ^ set(m)))
        self.record("self times and remainder add up to total_s",
                    run._partition_adds_up(m))
        m["assemble.forms_s"] += 1e-3
        self.record("a miscounted self time breaks the sum",
                    not run._partition_adds_up(m))
        self.record("restore puts the original functions back",
                    not hasattr(run.assemble.mass_matrix, "__wrapped__"))

    def test_compare(self):
        spec = run._spec()

        def rec(march, e_u):
            metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
            metrics["march_s"] = {"value": march}
            return {"metrics": metrics, "errors": {"E_rho": 1.0, "E_u": e_u},
                    "failed": 0, "attempted": 10}

        base = {"w": [rec(1.0, 1.0), rec(1.02, 1.0), rec(0.98, 1.0)]}
        same = {"w": [rec(1.01, 1.0)]}
        slow = {"w": [rec(1.5, 1.0)]}
        moved = {"w": [rec(1.0, 1.0 + 1e-7)]}
        _, flags = compare.compare(base, same, spec)
        self.record("compare passes a set within its bounds", not flags,
                    str(flags))
        _, flags = compare.compare(base, slow, spec)
        self.record("compare flags a delta beyond the bound",
                    any("march_s" in f for f in flags), str(flags))
        _, flags = compare.compare(base, moved, spec)
        self.record("compare flags an error that moved by 1e-7",
                    any("E_u" in f for f in flags), str(flags))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    suite = Suite(args.seed)
    for attr in sorted(dir(suite)):
        if attr.startswith("test_"):
            getattr(suite, attr)()
    for name, ok, detail in suite.results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}"
              + ("" if ok else f"  ({detail})"))
    failures = sum(not ok for _, ok, _ in suite.results)
    print(f"{len(suite.results) - failures} passed, {failures} failed "
          f"(seed {args.seed})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
