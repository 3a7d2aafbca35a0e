"""Manufactured solutions: closures, dual arithmetic, and derived sources."""

import math

import numpy as np
import pytest

from vardens import mms
from vardens.mms import Dual, dabspow, dcos, dsin, make_case, make_vars

CASES = ("square2d", "cube3d", "cube3d_nonsmooth")


def _interior_points(rng, case, n, margin=0.0):
    x = rng.uniform(0.02, 0.98, size=(n, case.dim))
    if margin > 0.0 and case.name == "cube3d_nonsmooth":
        shift = np.abs(x - 0.5) < margin
        x = np.where(shift, x + 2 * margin, x)
    return x


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown case"):
        make_case("torus4d")


def test_square2d_point_values():
    case = make_case("square2d")
    x = np.array([[0.5, 0.5]])
    assert np.abs(case.u(x, 0.0)).max() < 1e-14
    assert abs(case.rho(np.array([[0.0, 0.0]]), 0.0) - 2.0) < 1e-14


def test_nonsmooth_density_kink_scaling():
    case = make_case("cube3d_nonsmooth")
    # rho - 2 vanishes like |x - 1/2|^c along the x axis at t = 0
    eps = np.array([1e-2, 1e-3, 1e-4])
    pts = np.stack([0.5 + eps, np.zeros(3), np.zeros(3)], axis=-1)
    vals = case.rho(pts, 0.0) - 2.0
    ratio = vals[:-1] / vals[1:]
    assert np.allclose(ratio, 10 ** 1.51, rtol=1e-10)


def test_divergence_free_sampled():
    rng = np.random.default_rng(0)
    for name in CASES:
        case = make_case(name)
        x = rng.uniform(0, 1, size=(1000, case.dim))
        assert np.abs(case.div_u(x, 0.37)).max() < 1e-10


def test_velocity_vanishes_on_boundary():
    rng = np.random.default_rng(1)
    for name in CASES:
        case = make_case(name)
        for axis in range(case.dim):
            for value in (0.0, 1.0):
                x = rng.uniform(0, 1, size=(200, case.dim))
                x[:, axis] = value
                assert np.abs(case.u(x, 0.42)).max() < 1e-12


def _unit_box_rule(dim, n):
    """The tensor Gauss-Legendre rule of n^dim points on the unit box."""
    x, w = np.polynomial.legendre.leggauss(n)
    axes = np.meshgrid(*[0.5 * (x + 1.0)] * dim, indexing="ij")
    weights = np.meshgrid(*[0.5 * w] * dim, indexing="ij")
    return (np.stack([g.ravel() for g in axes], axis=-1),
            np.prod([g.ravel() for g in weights], axis=0))


def test_pressure_has_zero_mean():
    for name in CASES:
        case = make_case(name)
        pts, w = _unit_box_rule(case.dim, 16)
        for t in (0.0, 0.11, 0.25):
            assert abs(w @ case.p(pts, t)) < 1e-8


def test_dual_number_chain_and_product_rules():
    """Property check of the dual arithmetic against finite differences."""
    rng = np.random.default_rng(3)
    h = 1e-5

    def expr(X, T):
        x, y = X
        return (dsin(2.0 * x * y + T) * dcos(x) + x * x * y - 0.5 * T * x
                + (1.0 - x) * y)

    def plain(x, y, t):
        return (np.sin(2 * x * y + t) * np.cos(x) + x * x * y - 0.5 * t * x
                + (1.0 - x) * y)

    pts = rng.uniform(0.1, 0.9, size=(50, 2))
    t = 0.3
    X, T = make_vars(pts, t)
    d = expr(X, T)
    assert np.abs(d.val - plain(pts[:, 0], pts[:, 1], t)).max() < 1e-14
    fd2 = 0.0  # the Laplacian: the summed second differences
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (plain(*(pts + e).T, t) - plain(*(pts - e).T, t)) / (2 * h)
        rel = np.abs(d.spatial_grad()[:, k] - fd) / np.maximum(1, np.abs(fd))
        assert rel.max() < 1e-6
        fd2 = fd2 + (plain(*(pts + e).T, t) - 2 * plain(*pts.T, t)
                     + plain(*(pts - e).T, t)) / h ** 2
    rel2 = np.abs(d.laplacian() - fd2) / np.maximum(1, np.abs(fd2))
    assert rel2.max() < 1e-4
    fd_t = (plain(*pts.T, t + h) - plain(*pts.T, t - h)) / (2 * h)
    assert np.abs(d.dt() - fd_t).max() < 1e-6
    # the pass over space alone carries no time slot: its time partial is 0
    s = expr(mms._space_vars(pts, 2), t)
    assert np.array_equal(s.spatial_grad(), d.spatial_grad())
    assert np.array_equal(s.dt(), np.zeros(len(pts)))


def test_abspow_one_sided_limit_at_kink():
    [x], _ = make_vars(np.array([[0.0], [1e-12], [-1e-12]]), 0.0)
    g = dabspow(x, 1.51)
    assert np.isfinite(g.val).all()
    assert np.isfinite(g.spatial_grad()[..., 0]).all()
    # first derivative is continuous through the kink (c > 1)
    assert abs(g.spatial_grad()[0, 0]) < 1e-15


def test_kink_evaluations_are_finite_and_flagged():
    case = make_case("cube3d_nonsmooth")
    pts = np.array([[0.5, 0.3, 0.7], [0.2, 0.5, 0.5], [0.3, 0.3, 0.3]])
    f = case.source_f(pts, 0.1)
    assert np.isfinite(f).all()
    # the value at the kink is the one-sided (right) limit; the density
    # gradient has modulus of continuity |delta|^0.51 there
    eps = 1e-13
    approach = pts.copy()
    approach[approach == 0.5] += eps
    assert np.abs(case.source_f(approach, 0.1) - f).max() < 20 * eps ** 0.51
    smooth = make_case("cube3d")
    smooth.source_f(pts, 0.1)


@pytest.mark.parametrize("name", CASES)
def test_source_f_matches_finite_differences(name):
    case = make_case(name)
    rng = np.random.default_rng(17)
    x = _interior_points(rng, case, 100, margin=0.02)
    t, h, d = 0.13, 1e-6, case.dim
    drho_dt = (case.rho(x, t + h) - case.rho(x, t - h)) / (2 * h)
    grad = np.stack(
        [(case.rho(x + h * np.eye(d)[k], t) - case.rho(x - h * np.eye(d)[k], t))
         / (2 * h) for k in range(d)], axis=-1,
    )
    fd = drho_dt + np.einsum("pd,pd->p", case.u(x, t), grad)
    f = case.source_f(x, t)
    assert (np.abs(f - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6


@pytest.mark.parametrize("name", CASES)
def test_source_g_matches_finite_differences(name):
    case = make_case(name)
    rng = np.random.default_rng(23)
    x = _interior_points(rng, case, 100, margin=0.02)
    t, h, h2, d, mu = 0.19, 1e-6, 1e-4, case.dim, 0.001
    du_dt = (case.u(x, t + h) - case.u(x, t - h)) / (2 * h)
    gradu = np.stack(
        [(case.u(x + h * np.eye(d)[k], t) - case.u(x - h * np.eye(d)[k], t))
         / (2 * h) for k in range(d)], axis=-2,
    )
    conv = np.einsum("pd,pdk->pk", case.u(x, t), gradu)
    gradp = np.stack(
        [(case.p(x + h * np.eye(d)[k], t) - case.p(x - h * np.eye(d)[k], t))
         / (2 * h) for k in range(d)], axis=-1,
    )
    lap = sum(
        (case.u(x + h2 * np.eye(d)[k], t) - 2 * case.u(x, t)
         + case.u(x - h2 * np.eye(d)[k], t)) / h2 ** 2 for k in range(d)
    )
    fd = case.rho(x, t)[:, None] * (du_dt + conv) + gradp - mu * lap
    g = case.source_g(x, t, mu)
    assert (np.abs(g - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6


def test_dual_f_matches_hand_coded_square2d():
    case = make_case("square2d")
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=(100, 2))
    for t in (0.0, 0.07, 0.25):
        assert np.abs(
            case.source_f(x, t) - mms.hand_coded_square2d_f(x, t)
        ).max() < 1e-10


def test_source_evaluator_matches_direct_calls():
    case = make_case("cube3d")
    ref = make_case(case.name)
    ev = case.make_source_evaluator(0.001)
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, size=(40, 7, 3))
    for t in (0.05, 0.1):
        assert np.abs(ev.f(x, t) - ref.source_f(x, t)).max() < 1e-13
        assert np.abs(
            ev.g(x, t) - ref.scheme_momentum_source(x, t, 0.001)
        ).max() < 1e-13


def test_source_evaluator_keys_on_point_values():
    """An array changed in place keeps its id, shape and end values, but
    must not be served the velocity duals of its old contents."""
    case = make_case("cube3d")
    ref = make_case(case.name)
    ev = case.make_source_evaluator(0.001)
    x = np.random.default_rng(3).uniform(0, 1, size=(40, 7, 3))
    g_old = ev.g(x, 0.05).copy()
    x[1:-1] = np.random.default_rng(4).uniform(0, 1, size=(38, 7, 3))
    g_new = ev.g(x, 0.05)
    assert np.abs(g_new - ref.scheme_momentum_source(x, 0.05, 0.001)).max() < 1e-13
    assert np.abs(g_new[1:-1] - g_old[1:-1]).max() > 1e-3


def _points_on_kink_planes(rng, dim, n=60):
    """Random points with some coordinates exactly on the plane x_k = 1/2."""
    x = rng.uniform(0.02, 0.98, size=(n, 5, dim))
    x[:10, :, 0] = 0.5
    x[10:20, :2, dim - 1] = 0.5
    x[20, 0, :] = 0.5
    return x


def _one_pass_sources(case, x, t, mu):
    """f, g and the scheme's g from one dual pass with a full-shape T over
    the composed closures, the formula the split replaces."""
    X, T = make_vars(x, t)
    with np.errstate(invalid="ignore"):
        rho = case._rho_dual(X, T)
    u = case._u_space(X)
    p = case._p_dual(X, T)
    uval = np.stack([c.val for c in u], axis=-1)
    f = rho.dt() + np.einsum("...d,...d->...", uval, rho.spatial_grad())
    g = np.stack([
        rho.val * (u[k].dt()
                   + np.einsum("...d,...d->...", uval, u[k].spatial_grad()))
        + p.spatial_grad()[..., k] - mu * u[k].laplacian()
        for k in range(case.dim)
    ], axis=-1)
    return f, g, g + 0.5 * f[..., None] * uval


@pytest.mark.parametrize("name", CASES)
def test_source_evaluator_matches_case_sources_on_kink_planes(name):
    case = make_case(name)
    mu = 0.001
    ref = make_case(case.name)
    ev = case.make_source_evaluator(mu)
    x = _points_on_kink_planes(np.random.default_rng(31), case.dim)
    for t in (0.01, 0.13, 0.25):
        f, g = ev.f(x, t), ev.g(x, t)
        assert np.isfinite(f).all() and np.isfinite(g).all()
        assert np.abs(f - ref.source_f(x, t)).max() < 1e-13
        assert np.abs(
            g - ref.scheme_momentum_source(x, t, mu)
        ).max() < 1e-13


@pytest.mark.parametrize("name", CASES)
def test_split_sources_match_one_pass_reference(name):
    case = make_case(name)
    mu = 0.001
    ev = case.make_source_evaluator(mu)
    x = _points_on_kink_planes(np.random.default_rng(37), case.dim)

    def rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    for t in (0.02, 0.11, 0.3):
        f_ref, g_ref, gs_ref = _one_pass_sources(case, x, t, mu)
        assert rel(ev.f(x, t), f_ref) < 1e-13
        assert rel(ev.g(x, t), gs_ref) < 1e-13
        assert rel(case.source_f(x, t), f_ref) < 1e-13
        assert rel(case.source_g(x, t, mu), g_ref) < 1e-13
        assert rel(case.scheme_momentum_source(x, t, mu), gs_ref) < 1e-13


@pytest.mark.parametrize("name", CASES)
def test_time_factor_derivatives_match_central_differences(name):
    case = make_case(name)
    d, h = case.dim, 1e-6
    factors = [a for a, _ in case._rho_terms + case._p_terms if callable(a)]
    assert factors
    for a in factors:
        for t in (0.0, 0.17, 0.9):
            dual = a(Dual.time_var(t, (), d))
            fd = (a(Dual.time_var(t + h, (), d)).val
                  - a(Dual.time_var(t - h, (), d)).val) / (2 * h)
            assert abs(float(dual.dt()) - float(fd)) < 1e-6


@pytest.mark.parametrize("name", ["cube3d", "cube3d_nonsmooth"])
def test_cube_velocity_bitwise_equals_twelve_sine_form(name):
    """The exact cube velocity evaluates each distinct sine once; the
    values are bitwise those of the form with one sine per factor."""
    x = np.random.default_rng(5).uniform(0, 1, size=(384, 64, 3))
    px, py, pz = np.pi * x[..., 0], np.pi * x[..., 1], np.pi * x[..., 2]
    ref = np.stack([
        np.sin(px) ** 2 * np.sin(2 * py) * np.sin(2 * pz),
        np.sin(2 * px) * np.sin(py) ** 2 * np.sin(2 * pz),
        -2.0 * np.sin(2 * px) * np.sin(2 * py) * np.sin(pz) ** 2,
    ], axis=-1)
    assert np.array_equal(make_case(name).u(x, 0.3), ref)


# -- the plain fields, kept per point set ----------------------------------

def _closed_form_rho(name, x, t):
    """The plain densities as single closed-form expressions."""
    if name == "square2d":
        st = math.sin(t)
        return (2.0 + x[..., 0] * (x[..., 0] - 1.0) * math.cos(st)
                + x[..., 1] * (x[..., 1] - 1.0) * math.sin(st))
    if name == "cube3d":
        osc = math.sin(math.pi * t + 0.5 * math.pi)
        return 2.0 + (1.0 / 3.0) * np.sin(np.pi * x).sum(axis=-1) * osc
    c = mms._NONSMOOTH_C
    st = math.sin(t)
    gx, gy, gz = (np.abs(x[..., k] - 0.5) ** c for k in range(3))
    return 2.0 + gx * math.cos(st) + (gy + gz) * math.sin(st)


def _closed_form_u(name, x):
    px, py = np.pi * x[..., 0], np.pi * x[..., 1]
    if name == "square2d":
        return np.stack([np.sin(px) ** 2 * np.sin(2.0 * py),
                         -np.sin(2.0 * px) * np.sin(py) ** 2], axis=-1)
    pz = np.pi * x[..., 2]
    sx, sy, sz = np.sin(px) ** 2, np.sin(py) ** 2, np.sin(pz) ** 2
    s2x, s2y, s2z = np.sin(2 * px), np.sin(2 * py), np.sin(2 * pz)
    return np.stack([sx * s2y * s2z, s2x * sy * s2z, -2.0 * s2x * s2y * sz],
                    axis=-1)


@pytest.mark.parametrize("name,n", [("square2d", 16), ("cube3d", 8),
                                    ("cube3d_nonsmooth", 4)])
def test_cached_plain_fields_equal_closed_forms_bitwise(name, n):
    """On the quadrature points the benchmark tracks errors at, the cached
    rho and u equal the closed-form expressions bit for bit."""
    from vardens import assemble, harness, scheme

    case = make_case(name)
    x = assemble.CellQuadrature(harness.build_mesh(case, 1.0 / n),
                                scheme.CELL_DEGREE_LOW).points
    for t in (0.0, 1 / 512, 0.1, 0.25, 1.3):
        assert np.array_equal(case.rho(x, t), _closed_form_rho(name, x, t))
        assert np.array_equal(case.u(x, t), _closed_form_u(name, x))


@pytest.mark.parametrize("name", CASES)
def test_plain_fields_are_computed_once_per_point_set(name, monkeypatch):
    """The space factors and u are computed on the first call at a point
    set and again only when the points change, compared by value."""
    case = make_case(name)
    calls = []
    monkeypatch.setattr(case._cache, "compute", {
        name: (lambda x, f=f: calls.append(1) or f(x))
        for name, f in case._cache.compute.items()})
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, size=(40, 6, case.dim))
    for t in (0.0, 0.1, 0.2):
        case.rho(x, t)
        case.u(x.copy(), t)  # equal contents in a new array
    assert len(calls) == 2
    u = case.u(x, 0.2)
    u[:] = 0.0  # the caller owns the returned array
    x[1:-1] = rng.uniform(0, 1, size=(38, 6, case.dim))  # changed in place
    assert np.array_equal(case.rho(x, 0.2), _closed_form_rho(name, x, 0.2))
    assert np.array_equal(case.u(x, 0.2), _closed_form_u(name, x))
    assert len(calls) == 4


@pytest.mark.parametrize("name", CASES)
def test_plain_fields_never_run_the_dual_pass(name, monkeypatch):
    case = make_case(name)

    def fail(*args, **kwargs):
        raise AssertionError("the plain fields ran a dual closure")

    monkeypatch.setattr(case, "_spatial", fail)
    monkeypatch.setattr(case, "_u_space", fail)
    monkeypatch.setattr(case, "_rho_terms", ((fail, fail),))
    monkeypatch.setattr(case, "_p_terms", ((fail, fail),))
    x = np.random.default_rng(13).uniform(0, 1, size=(30, case.dim))
    for t in (0.0, 0.1):
        assert np.array_equal(case.rho(x, t), _closed_form_rho(name, x, t))
        assert np.array_equal(case.u(x, t), _closed_form_u(name, x))
        assert np.isfinite(case.p(x, t)).all()


@pytest.mark.parametrize("name", CASES)
def test_space_only_pass_equals_time_slot_duals(name, monkeypatch):
    """The columns of the pass over space, whose duals carry no time slot,
    equal those of coordinates with a time slot, as ``make_vars`` seeds
    them, to relative 1e-15."""
    case = make_case(name)
    x = _points_on_kink_planes(np.random.default_rng(43), case.dim)
    got = case._spatial(x)
    X, _ = make_vars(x.reshape(-1, case.dim), 0.3)
    assert {len(c.d1) for c in X} == {case.dim + 1}
    monkeypatch.setattr(mms, "_space_vars", lambda pts, slots: X)
    want = case._spatial(x)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].shape == want[key].shape, key
        scale = np.abs(want[key]).max()
        assert np.abs(got[key] - want[key]).max() <= 1e-15 * scale, key
