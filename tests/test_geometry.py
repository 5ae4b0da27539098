import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omtube import geometry as geo
from omtube.errors import ChartDomainError, ConstructionError

from conftest import fit_slope, random_ball_points


# ---------------------------------------------------------------------------
# closed-form metric values
# ---------------------------------------------------------------------------

def test_euclidean_metric_is_identity():
    ch = geo.fermi_chart(geo.euclidean(2), geo.line_curve([1.0, 0.0], 1.0), 1.0)
    rng = np.random.default_rng(0)
    x = random_ball_points(rng, 2, 0.9, 50)
    assert np.allclose(ch.metric(0.3, x), np.eye(2), atol=1e-15)
    assert np.allclose(ch.sigma(0.3, x), np.eye(2), atol=1e-15)


def test_sphere_transverse_eigenvalues(sphere2_chart):
    # at |x| = 0.3 the metric has transverse eigenvalue (sin r / r)^2 and its
    # inverse (the diffusion coefficient) has (r / sin r)^2 ~ 1.0305
    x = np.array([0.3, 0.0])
    g = sphere2_chart.metric(0.0, x)
    gi = sphere2_chart.metric_inv(0.0, x)
    assert abs(g[1, 1] - (math.sin(0.3) / 0.3) ** 2) < 1e-12
    assert abs(gi[1, 1] - (0.3 / math.sin(0.3)) ** 2) < 1e-12
    assert abs(gi[1, 1] - 1.0305478126) < 1e-7
    assert abs(g[0, 0] - 1.0) < 1e-14 and abs(gi[0, 0] - 1.0) < 1e-14


@pytest.mark.parametrize("fixture", ["sphere2_chart", "sphere3_chart",
                                     "hyperbolic2_chart", "hyperbolic3_chart"])
def test_radial_identities(fixture, request):
    ch = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    x = random_ball_points(rng, ch.d, 0.95 * ch.tube_radius, 500)
    gi = ch.metric_inv(0.1, x)
    sg = ch.sigma(0.1, x)
    assert np.max(np.abs(np.einsum("mij,mj->mi", gi, x) - x)) < 1e-9
    assert np.max(np.abs(np.einsum("mij,mj->mi", sg, x) - x)) < 1e-9
    # sigma is the SPD square root of the inverse metric
    assert np.max(np.abs(np.einsum("mij,mjk->mik", sg, sg) - gi)) < 1e-10
    assert np.all(np.linalg.eigvalsh(gi) > 0)


@st.composite
def _radial_cases(draw):
    """A closed-form chart of dimension 1..4 with points 0.05..0.95 of the
    tube radius from the origin, and vectors to apply sigma to."""
    kind = draw(st.sampled_from(["sphere", "hyperbolic", "euclidean"]))
    d = draw(st.integers(1, 4))
    scale = draw(st.floats(0.5, 2.0))
    model = {"sphere": lambda: geo.sphere(d, scale),
             "hyperbolic": lambda: geo.hyperbolic(d, scale),
             "euclidean": lambda: geo.euclidean(d)}[kind]()
    chart = geo.fermi_chart(model, geo.constant_curve(T=1.0), 1.2 * scale)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 6))
    x = rng.standard_normal((n, d))
    x *= chart.tube_radius * rng.uniform(0.05, 0.95, (n, 1)) / np.linalg.norm(
        x, axis=1, keepdims=True)
    return chart, x, rng.standard_normal((n, d))


@given(_radial_cases())
def test_radial_chart_identities_and_numerical_evaluators(case):
    ch, x, v = case
    t = 0.3
    g, gi, sg = ch.metric(t, x), ch.metric_inv(t, x), ch.sigma(t, x)

    def dev(a, b):
        return np.max(np.abs(a - b))

    assert dev(g @ gi, np.eye(ch.d)) < 1e-13
    assert dev(sg @ sg, gi) < 1e-13
    assert dev(np.einsum("mij,mj->mi", gi, x), x) < 1e-13
    assert dev(np.einsum("mij,mj->mi", sg, x), x) < 1e-13
    assert dev(ch.sigma_apply(t, x, v), np.einsum("mij,mj->mi", sg, v)) < 1e-13
    assert dev(ch.sigma_diag(t, x), np.diagonal(sg, axis1=-2, axis2=-1)) < 1e-13
    assert dev(ch.sqrt_det(t, x), np.sqrt(np.linalg.det(g))) < 1e-13
    # the base class derives the same evaluators from the metric alone
    base = geo.MetricChart
    for name in ("metric_inv", "sigma", "sigma_diag", "sqrt_det"):
        assert dev(getattr(base, name)(ch, t, x), getattr(ch, name)(t, x)) < 1e-13
    assert dev(base.sigma_apply(ch, t, x, v), ch.sigma_apply(t, x, v)) < 1e-13
    assert dev(base.bessel_drift(ch, t, x), ch.bessel_drift(t, x)) < 1e-12
    assert dev(base.coriolis(ch, t, x), ch.coriolis(t, x)) < 1e-10


def test_sqrt_det(sphere2_chart):
    x = np.array([0.25, 0.1])
    r = np.linalg.norm(x)
    assert np.isclose(sphere2_chart.sqrt_det(0.0, x), math.sin(r) / r, atol=1e-13)


# ---------------------------------------------------------------------------
# drifts
# ---------------------------------------------------------------------------

def test_coriolis_zero_on_curve(sphere2_chart):
    assert np.allclose(sphere2_chart.coriolis(0.0, np.zeros(2)), 0.0, atol=1e-14)


def test_coriolis_divergence_value(sphere2_chart):
    # div a = -(1/3) R + O(|x|^2) = -2/3 on the unit 2-sphere
    x = np.array([0.07, 0.07]) / math.sqrt(2)
    div = geo.divergence_fd(lambda p: sphere2_chart.coriolis(0.0, p), x,
                            h=1e-3 * sphere2_chart.tube_radius)
    assert abs(div + 2.0 / 3.0) < 0.01


def test_coriolis_closed_vs_fd(sphere2_chart, hyperbolic3_chart):
    rng = np.random.default_rng(3)
    for ch in (sphere2_chart, hyperbolic3_chart):
        x = random_ball_points(rng, ch.d, 0.5 * ch.tube_radius, 20)
        a_closed = ch.coriolis(0.0, x)
        a_fd = ch._coriolis_fd(0.0, x)
        assert np.max(np.abs(a_closed - a_fd)) < 1e-8


def test_besselization_symmetry_and_value(sphere2_chart):
    rng = np.random.default_rng(5)
    x = random_ball_points(rng, 2, 0.55, 200)
    c = sphere2_chart.bessel_drift(0.0, x)
    # c is parallel to x by construction; the cross product only picks up
    # float reassociation noise
    cross = c[:, 0] * x[:, 1] - c[:, 1] * x[:, 0]
    assert np.max(np.abs(cross)) < 1e-15
    # against the closed-form metric: c = x/(2|x|^2) (d - tr g_inv)
    gi = sphere2_chart.metric_inv(0.0, x)
    tr = np.trace(gi, axis1=-2, axis2=-1)
    r2 = np.sum(x * x, axis=1)
    expected = x * ((2 - tr) / (2 * r2))[:, None]
    assert np.max(np.abs(c - expected)) < 1e-12


def test_besselization_divergence_value(sphere3_chart):
    # div c = -(d/6) Ric(u,u) + O(|x|) = -(3/6) * 2 = -1 on the unit 3-sphere
    x = np.array([0.04, 0.03, 0.05])
    div = geo.divergence_fd(lambda p: sphere3_chart.bessel_drift(0.0, p), x,
                            h=1e-3 * sphere3_chart.tube_radius)
    assert abs(div + 1.0) < 0.01


def test_euclidean_drifts_vanish(euclid2_chart):
    x = np.array([[0.3, -0.2], [0.0, 0.0]])
    assert np.all(euclid2_chart.coriolis(0.0, x) == 0.0)
    assert np.all(euclid2_chart.bessel_drift(0.0, x) == 0.0)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,scalar", [
    (geo.euclidean(2), 0.0),
    (geo.sphere(2, 1.0), 2.0),
    (geo.sphere(3, 2.0), 6.0 / 4.0),
    (geo.hyperbolic(3, 1.0), -6.0),
])
def test_scalar_curvature_closed_form(model, scalar):
    ch = geo.fermi_chart(model, geo.constant_curve(T=1.0), 0.4)
    assert abs(ch.curvature_at(0.0).scalar - scalar) < 1e-13


@pytest.mark.parametrize("model", [geo.sphere(2, 1.0), geo.hyperbolic(3, 1.0)])
def test_curvature_fd_agrees_with_closed_form(model):
    ch = geo.fermi_chart(model, geo.constant_curve(T=1.0), 0.4)
    closed = ch.curvature_at(0.0)
    fd = geo.curvature_from_chart_fd(ch)
    assert np.max(np.abs(closed.riemann - fd.riemann)) < 1e-6
    assert abs(closed.scalar - fd.scalar) < 1e-6


def _check_riemann_symmetries(r, tol):
    assert np.max(np.abs(r + np.einsum("jikl->ijkl", r))) < tol
    assert np.max(np.abs(r + np.einsum("ijlk->ijkl", r))) < tol
    assert np.max(np.abs(r - np.einsum("klij->ijkl", r))) < tol
    bianchi = r + np.einsum("ijkl->iklj", r) + np.einsum("ijkl->iljk", r)
    assert np.max(np.abs(bianchi)) < tol


def test_riemann_symmetries(sphere3_chart, warped3_chart):
    for ch in (sphere3_chart, warped3_chart):
        cd = ch.curvature_at(0.0)
        _check_riemann_symmetries(cd.riemann, 1e-8)
        assert np.max(np.abs(cd.ricci - cd.ricci.T)) < 1e-10
        assert abs(cd.scalar - np.trace(cd.ricci)) < 1e-12


def test_warped_curvature_routes_agree(warped3_chart):
    amb = warped3_chart.curvature_at(0.0)
    fd = geo.curvature_from_chart_fd(warped3_chart, h=2e-3 * warped3_chart.tube_radius)
    assert abs(amb.scalar - fd.scalar) < 1e-5
    assert np.max(np.abs(amb.riemann - fd.riemann)) < 1e-5


def test_warped_ricci_is_anisotropic(warped3_chart):
    ev = np.linalg.eigvalsh(warped3_chart.curvature_at(0.0).ricci)
    assert np.min(np.diff(ev)) > 1e-3


# ---------------------------------------------------------------------------
# expansion orders
# ---------------------------------------------------------------------------

def test_expansion_orders_sphere(sphere2_chart, sphere3_chart):
    radii = np.geomspace(0.3, 0.02, 7)
    assert geo.expansion_order_check(sphere2_chart, "sigma_minus_expansion", radii) > 2.7
    assert geo.expansion_order_check(sphere2_chart, "div_a_minus_limit", radii) > 1.7
    assert geo.expansion_order_check(sphere2_chart, "div_c_minus_limit", radii) > 0.7
    assert geo.expansion_order_check(sphere3_chart, "div_c_minus_limit", radii) > 0.7


def test_expansion_exact_on_flat(euclid2_chart):
    radii = np.geomspace(0.5, 0.05, 5)
    assert geo.expansion_order_check(euclid2_chart, "sigma_minus_expansion",
                                     radii) == "exact"


def test_expansion_rejects_bad_radii(sphere2_chart):
    with pytest.raises(ValueError):
        geo.expansion_order_check(sphere2_chart, "sigma_minus_expansion",
                                  [0.1, 0.2])
    with pytest.raises(ChartDomainError):
        geo.expansion_order_check(sphere2_chart, "sigma_minus_expansion",
                                  [2.0, 0.1])


# ---------------------------------------------------------------------------
# shot charts
# ---------------------------------------------------------------------------

def test_shot_chart_reproduces_sphere_closed_form(sphere2_chart):
    # geodesic shooting inside the closed-form ambient metric must land on
    # the same normal-coordinate metric at a different base point
    shot = geo.fermi_chart(geo.sphere(2, 1.0),
                           geo.constant_curve(T=0.5, point=[0.4, 0.2]),
                           0.5, method="shoot")
    rng = np.random.default_rng(11)
    x = random_ball_points(rng, 2, 0.45, 15)
    assert np.max(np.abs(shot.metric(0.0, x) - sphere2_chart.metric(0.0, x))) < 1e-7


def test_warped_chart_identities(warped3_chart):
    rng = np.random.default_rng(2)
    x = random_ball_points(rng, 3, 0.28, 40)
    gi = warped3_chart.metric_inv(0.0, x)
    sg = warped3_chart.sigma(0.0, x)
    assert np.max(np.abs(np.einsum("mij,mj->mi", gi, x) - x)) < 1e-8
    assert np.max(np.abs(np.einsum("mij,mj->mi", sg, x) - x)) < 1e-8
    assert np.max(np.abs(warped3_chart.metric(0.0, np.zeros(3)) - np.eye(3))) < 1e-9
    c = warped3_chart.bessel_drift(0.0, x)
    cross = np.einsum("mi,mj->mij", c, x) - np.einsum("mj,mi->mij", c, x)
    assert np.max(np.abs(cross)) < 1e-15


def test_warped_coriolis_against_refined_fd(warped3_chart):
    rng = np.random.default_rng(4)
    x = random_ball_points(rng, 3, 0.15, 5)
    a1 = warped3_chart.coriolis(0.0, x)
    a2 = warped3_chart._coriolis_fd(0.0, x, h=4e-4)
    assert np.max(np.abs(a1 - a2)) < 1e-8


def test_moving_shot_chart_frame():
    # frame transport along a moving curve of a warped model, read off grid
    def gamma(t):
        return np.array([0.2 + 0.5 * t, 0.1 * math.sin(3 * t), -0.2 + 0.3 * t * t])

    def gamma_dot(t):
        return np.array([0.5, 0.3 * math.cos(3 * t), 0.6 * t])

    curve = geo.ambient_curve(gamma, gamma_dot, T=0.5, n_grid=16)
    ch = geo.fermi_chart(geo.warped_diagonal(3, "bump_strong"), curve, 0.3)
    assert isinstance(ch, geo.ShotChart)
    for t in (0.013, 0.21, 0.437):
        G = ch.ambient.metric(gamma(t))
        E = ch.frames(t)
        assert np.max(np.abs(E.T @ G @ E - np.eye(3))) < 1e-6
        assert np.max(np.abs(ch.metric(t, np.zeros(3)) - np.eye(3))) < 1e-6
        speed = math.sqrt(gamma_dot(t) @ G @ gamma_dot(t))
        assert abs(np.linalg.norm(ch.velocity_frame(t)) - speed) < 1e-6


def test_precomputed_chart_matches_base(warped3_chart):
    fast = geo.PrecomputedChart(warped3_chart, n_nodes=17)
    rng = np.random.default_rng(9)
    x = random_ball_points(rng, 3, 0.25, 30)
    assert np.max(np.abs(fast.metric(0.0, x) - warped3_chart.metric(0.0, x))) < 2e-4
    gi = fast.metric_inv(0.0, x)
    assert np.max(np.abs(np.einsum("mij,mj->mi", gi, x) - x)) < 1e-4


# ---------------------------------------------------------------------------
# curves and frames
# ---------------------------------------------------------------------------

def test_curve_fd_velocity_consistency():
    curve = geo.great_circle_curve(geo.sphere(2, 1.0), 0.7, T=1.0, n_grid=64)
    grid = curve.grid
    h = grid[1] - grid[0]
    for t in grid[2:-2:8]:
        fd = (np.asarray(curve.gamma(t + h)) - np.asarray(curve.gamma(t - h))) / (2 * h)
        assert np.max(np.abs(fd - np.asarray(curve.gamma_dot(t)))) < 2 * h * h


def test_great_circle_frame_velocity_constant():
    model = geo.sphere(2, 1.0)
    curve = geo.great_circle_curve(model, 0.7, T=1.0)
    ch = geo.fermi_chart(model, curve, 0.5)
    for t in (0.0, 0.37, 0.9):
        assert np.allclose(ch.velocity_frame(t), [0.7, 0.0], atol=1e-12)


def test_embedded_transport_matches_great_circle():
    # a great circle fed through the generic embedded transport machinery
    model = geo.sphere(2, 1.0)
    ref = geo.great_circle_curve(model, 0.5, T=1.0)
    curve = geo.embedded_curve(ref.gamma, ref.gamma_dot, T=1.0, n_grid=64)
    ch = geo.fermi_chart(model, curve, 0.5)
    for t in (0.1, 0.5, 0.95):
        v = ch.velocity_frame(t)
        assert abs(np.linalg.norm(v) - 0.5) < 1e-6
        assert abs(abs(v[0]) - 0.5) < 1e-6  # tangent direction is parallel


def test_line_curve_velocity(euclid2_chart):
    ch = geo.fermi_chart(geo.euclidean(2), geo.line_curve([2.0, -1.0], 1.0), 1.0)
    assert np.allclose(ch.velocity_frame(0.4), [2.0, -1.0])


def test_table_curve_roundtrip():
    ts = np.linspace(0.0, 1.0, 21)
    pts = np.stack([np.sin(ts), np.cos(ts)], axis=1)
    curve = geo.table_curve(ts, pts)
    assert np.max(np.abs(np.asarray(curve.gamma(0.5)) - [math.sin(0.5), math.cos(0.5)])) < 1e-9
    assert np.max(np.abs(np.asarray(curve.gamma_dot(0.5))
                         - [math.cos(0.5), -math.sin(0.5)])) < 1e-4


# ---------------------------------------------------------------------------
# validation and dumps
# ---------------------------------------------------------------------------

def test_sphere_tube_radius_bound():
    with pytest.raises(ChartDomainError):
        geo.fermi_chart(geo.sphere(2, 1.0), geo.constant_curve(T=1.0),
                        tube_radius=1.6)


def test_model_validation():
    with pytest.raises(ConstructionError):
        geo.sphere(2, radius=-1.0)
    with pytest.raises(ConstructionError):
        geo.ManifoldModel("torus", 2)
    with pytest.raises(ConstructionError):
        geo.warped_diagonal(2, "no_such_profile")


def test_fermi_chart_rejects_unknown_method():
    s2 = geo.sphere(2, 1.0)
    for curve, method, match in [(geo.constant_curve(T=1.0), "grid", "grid"),
                                 (geo.great_circle_curve(s2, 1.0, 0.1), "shoot",
                                  "constant curve")]:
        with pytest.raises(ConstructionError, match=match):
            geo.fermi_chart(s2, curve, 0.5, method=method)


def test_domain_check(sphere2_chart):
    with pytest.raises(ChartDomainError):
        sphere2_chart.check_domain(np.array([1.0, 1.0]))


def test_chart_dump_json(sphere2_chart):
    doc = json.loads(sphere2_chart.dump_json(n_x=3, n_t=2))
    assert doc["model"]["kind"] == "sphere"
    assert len(doc["grid_times"]) == sphere2_chart.curve.n_grid + 1
    s = doc["samples"][0]
    g = np.array(s["g"])
    assert g.shape == (2, 2)
    assert np.allclose(g, g.T)


def test_profile_fd_fallback():
    p = geo.Profile(name="custom", f=lambda r: 1.0 + 0.2 * r * r)
    assert abs(p.deriv(0.3) - 0.12) < 1e-9
    assert abs(p.deriv2(0.3) - 0.4) < 1e-7
