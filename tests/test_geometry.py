import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from omtube import geometry as geo
from omtube.errors import ChartDomainError, ConstructionError, NumericError

from conftest import random_ball_points


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
    assert dev(ch.sqrt_det(t, x), ch.at(t, x).tl ** (ch.d - 1)) < 1e-13
    # the metric-only route derives the same evaluators from the metric alone
    assert dev(geo.MetricChart.metric_inv(ch, t, x), gi) < 1e-13
    ref = geo.MetricChart.at(ch, t, x)
    assert dev(ref.sigma, sg) < 1e-13
    assert dev(ref.sigma_apply(v), ch.sigma_apply(t, x, v)) < 1e-13
    assert dev(ref.bessel_drift(), ch.bessel_drift(t, x)) < 1e-12
    assert dev(ref.coriolis(), ch.coriolis(t, x)) < 1e-10


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
        a_fd = geo.MetricChart.at(ch, 0.0, x).coriolis()
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


def _mp_radial_scalars(K, d, rho2):
    """tl, A/rho, C/rho, phi, psi and P at 40 digits from their definitions:
    tl = sin(k rho)/(k rho), k = sqrt|K| (sinh for K < 0); on the metric
    g = u u^T + tl^2 (I - u u^T), sqrt(g) g^-1 = tl^(d-1) u u^T +
    tl^(d-3) (I - u u^T), whose divergence over 2 sqrt(g) gives
    A = (d - 1)(tl'/tl + (1 - tl^-2)/rho)/2, and c = (d - tr g^-1) x/(2 rho^2)
    gives C/rho = (d - 1)(1 - tl^-2)/(2 rho^2); phi = tl^2,
    psi = (1 - tl^2)/rho^2 and P = phi'(rho)/rho - psi."""
    import mpmath
    with mpmath.workdps(40):
        k = mpmath.sqrt(abs(mpmath.mpf(K)))
        sin = mpmath.sin if K > 0 else mpmath.sinh
        r2 = mpmath.mpf(rho2)
        r = mpmath.sqrt(r2)
        tl = sin(k * r) / (k * r)
        dtl = mpmath.diff(lambda s: sin(k * s) / (k * s), r)
        psi = (1 - tl * tl) / r2
        return [tl, (d - 1) * (dtl / tl + (1 - tl ** -2) / r) / (2 * r),
                (d - 1) * (1 - tl ** -2) / (2 * r2), tl * tl, psi, 2 * tl * dtl / r - psi]


@pytest.mark.parametrize("K", [1.0, -1.0, 4.0, -0.25])
@pytest.mark.parametrize("d", [2, 3])
def test_radial_scalars_against_mpmath(K, d):
    # rho from 1e-6 to just inside the sphere chart's bound pi/(2 sqrt K),
    # with two radii astride the cut |K| rho^2 = W_CUT
    k = math.sqrt(abs(K))
    rho = np.append(np.geomspace(1e-6, 0.999 * math.pi / 2, 120),
                    math.sqrt(geo._W_CUT) * np.array([1 - 1e-9, 1 + 1e-9])) / k
    rho2 = rho * rho
    assert (abs(K) * rho2 < geo._W_CUT).any() and (abs(K) * rho2 >= geo._W_CUT).any()
    sc = geo._RadialScalars(K, d)
    got = np.stack([sc.tl(rho2), sc.coriolis_over_rho(rho2), sc.bessel_over_rho(rho2),
                    *sc.curl_scalars(rho2)])
    want = np.array([[float(v) for v in _mp_radial_scalars(K, d, r2)] for r2 in rho2]).T
    assert np.max(np.abs(got - want) / np.abs(want)) < 2e-14


@pytest.mark.parametrize("K", [1.0, -1.0, 4.0, -0.25])
@pytest.mark.parametrize("d", [2, 3])
def test_G_against_mpmath(K, d):
    import mpmath

    # G = (d - 1)(1/tl - 1)^2 / rho^4 from 1e-6 to the chart bound, where
    # 1/tl - 1 alone cancels like eps/(|K| rho^2)
    k = math.sqrt(abs(K))
    rho = np.append(np.geomspace(1e-6, 0.999 * math.pi / 2, 120),
                    math.sqrt(geo._W_CUT) * np.array([1 - 1e-9, 1 + 1e-9])) / k
    x = rho[:, None] * np.eye(d)[0]
    got = geo._RadialPoint(geo._RadialScalars(K, d), x).G()
    with mpmath.workdps(40):
        want = np.array([float((d - 1) * (1 / _mp_radial_scalars(K, d, r * r)[0] - 1) ** 2
                               / mpmath.mpf(r) ** 4) for r in rho])
    assert np.max(np.abs(got - want) / want) < 1e-14


# ---------------------------------------------------------------------------
# lane kernels
# ---------------------------------------------------------------------------

@given(st.sampled_from([2, 3, 4]), st.data())
def test_rowdot_sums_left_to_right(d, data):
    # |x| is np.linalg.norm's bit for bit up to d = 4, a single point's too,
    # with axis=-1 (without it a vector's norm is the BLAS dot's, whose order
    # and fused products are the library's), and at d = 2, where a sum of two
    # terms has one order, the dot is also np.einsum's
    el = st.floats(-1e150, 1e150, allow_nan=False)
    x, y = data.draw(arrays(float, st.tuples(st.just(2), st.integers(1, 40), st.just(d)),
                            elements=el))
    assert np.array_equal(np.sqrt(geo._rowdot(x, x)), np.linalg.norm(x, axis=-1))
    assert np.sqrt(geo._rowdot(x[0], x[0])) == np.linalg.norm(x[0], axis=-1)
    if d == 2:
        assert np.array_equal(geo._rowdot(x, y), np.einsum("mi,mi->m", x, y))


@given(st.sampled_from([np.multiply, np.divide]), st.integers(1, 4),
       st.sampled_from([None, 0, 1, 9]), st.data())
def test_rowscale_is_broadcast(op, d, m, data):
    # a scalar a, one point (m None) and batches of m rows, with rows where
    # a is 0 or inf, as u = x / inf on the rows at the origin
    a_el = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, np.inf]))
    shape = (d,) if m is None else (m, d)
    v = data.draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    a = data.draw(st.one_of(a_el, arrays(float, shape[:-1], elements=a_el)))
    with np.errstate(divide="ignore", invalid="ignore"):
        got, want = geo._rowscale(v, a, op), op(v, np.asarray(a)[..., None])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(arrays(float, st.integers(0, 40), elements=st.floats(-1e3, 1e3)),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12))
@example(np.linspace(-0.25, 0.25, 9), list(geo._A_SERIES))
def test_horner_is_polyval(w, coef):
    from numpy.polynomial.polynomial import polyval

    assert np.array_equal(geo._horner(w, coef), polyval(w, coef))


def test_u_at_the_origin_is_zero(sphere3_chart):
    # a row whose squares underflow counts as the origin too
    x = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.05], [1e-170, 0.0, -1e-170]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = sphere3_chart.at(0.0, x).u
        single = sphere3_chart.at(0.0, np.zeros(3)).u
    assert np.array_equal(u[[0, 2]], np.zeros((2, 3))) and np.array_equal(single, np.zeros(3))
    assert np.array_equal(u[1], x[1] / np.linalg.norm(x[1]))


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

def test_shot_chart_reproduces_sphere_closed_form(request):
    # geodesic shooting inside the closed-form ambient metric must land on
    # the same normal-coordinate metric at a different base point, on the
    # spheres and hyperbolic spaces of dimension 2 and 3; on S2 and H3 the
    # shot chart's numeric drifts (the Coriolis stencil, the trace of g^-1)
    # match the closed forms too (|a| and |c| reach 0.24 and 0.12 here)
    rng = np.random.default_rng(11)
    for model, fixture in ((geo.sphere(2, 1.0), "sphere2_chart"),
                           (geo.hyperbolic(2, 1.0), "hyperbolic2_chart"),
                           (geo.sphere(3, 1.0), "sphere3_chart"),
                           (geo.hyperbolic(3, 1.0), "hyperbolic3_chart")):
        d = model.dim
        point = [0.4, 0.2, -0.1][:d]
        shot = geo.fermi_chart(model, geo.constant_curve(T=0.5, point=point), 0.5,
                               method="shoot")
        x = random_ball_points(rng, d, 0.45, 15)
        closed = request.getfixturevalue(fixture)
        assert np.max(np.abs(shot.metric(0.0, x) - closed.metric(0.0, x))) < 1e-7, fixture
        if fixture in ("sphere2_chart", "hyperbolic3_chart"):
            p, q = shot.at(0.0, x), closed.at(0.0, x)
            assert np.max(np.abs(p.coriolis() - q.coriolis())) < 3e-6, fixture
            assert np.max(np.abs(p.bessel_drift() - q.bessel_drift())) < 1e-8, fixture


def test_jacobi_metric_matches_shot_differences(warped3_chart):
    # the shot chart's metric comes from the variational equation along one
    # geodesic per point; the oracle pulls the ambient metric back through a
    # 4-point difference Jacobian of shot end points, h = 5e-3
    x = random_ball_points(np.random.default_rng(6), 3, 0.28, 12)
    h = 5e-3
    eye = np.eye(3)
    stencil = np.concatenate([x + c * h * eye[i] for i in range(3)
                              for c in (-2.0, -1.0, 1.0, 2.0)])
    ends = warped3_chart._shoot(0.0, stencil)[0].reshape(3, 4, len(x), 3)
    J = np.stack([(f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h) for f in ends], axis=-1)
    base = warped3_chart._shoot(0.0, x)[0]
    g = np.einsum("mai,mab,mbj->mij", J, warped3_chart.ambient.metric(base), J)
    assert np.max(np.abs(warped3_chart.metric(0.0, x) - g)) < 1e-8


def test_shot_metric_does_not_depend_on_its_batch(warped3_chart):
    # each geodesic takes its own RK4 steps, so a point's metric is the same
    # bits alone and among points out to the cube corners, whose step counts
    # differ (12 up to |x| = 0.24, 27 at |x| = 0.52)
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(-0.3, 0.3, (17, 3)), 0.3 * np.array(
        [[1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [0.0, 0.0, 0.0]])])
    assert np.max(np.linalg.norm(x, axis=1)) > 0.5
    g = warped3_chart.metric(0.0, x)
    for i in range(len(x)):
        assert np.array_equal(warped3_chart.metric(0.0, x[i:i + 1])[0], g[i]), i


@pytest.mark.parametrize("k", [12, 13, 20, 26])
def test_shot_ends_are_continuous_where_the_step_count_changes(warped3_chart, k):
    # at |X| = 0.02 k a geodesic takes one more step; its end point and J
    # change across that length as they do on either side of it: the end
    # by J dX to within 1e-15, J by its change over the next 2e-9 |X| to
    # within 1e-14 (a jump in the step count would move J by 1e-10 to 1e-9)
    u = np.array([[0.6, -0.48, 0.64], [-0.36, 0.48, 0.8], [0.0, 0.6, -0.8]])
    for s in u:
        X = np.array([0.02 * k * (1 + r) * s for r in (-1e-9, 1e-9, 3e-9)])
        end, J = zip(*(warped3_chart._shoot(0.0, p[None]) for p in X))
        assert np.max(np.abs(end[1] - end[0] - J[1] @ (X[1] - X[0]))) < 1e-15
        assert np.max(np.abs((J[1] - J[0]) - (J[2] - J[1]))) < 1e-14


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
    # the Coriolis stencil steps 1e-3 tube radii: a chart over the same
    # ambient, centers and frames with tube radius 0.4 steps h = 4e-4
    ch = warped3_chart
    refined = geo.ShotChart(ch.model, ch.curve, 0.4, ch._vframe, ch.ambient, ch.centers,
                            ch.frames)
    rng = np.random.default_rng(4)
    x = random_ball_points(rng, 3, 0.15, 5)
    a1 = ch.coriolis(0.0, x)
    a2 = refined.coriolis(0.0, x)
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


def _rates(ambient, y, v, J, Jd):
    """``geodesic_rates`` at rows of points: y and v of shape (n, d), J and
    Jd of shape (n, d, d), and acc and its linearization laid out alike."""
    acc, jvp = ambient.geodesic_rates(y.T, v.T, np.moveaxis(J, 0, -1), np.moveaxis(Jd, 0, -1))
    return acc.T, np.moveaxis(jvp, -1, 0)


def _ambient_case(d):
    """(d, y, v): one to four rows of points y and velocities v in R^d."""
    row = st.lists(st.floats(-1.5, 1.5), min_size=2 * d, max_size=2 * d)
    return st.lists(row, min_size=1, max_size=4).map(np.array).map(
        lambda r: (d, r[:, :d], r[:, d:]))


@given(profile=st.sampled_from(sorted(geo.PROFILES)),
       case=st.sampled_from([2, 3, 4]).flatmap(_ambient_case))
@example(profile="bump_strong", case=(3, np.zeros((1, 3)), np.array([[0.3, -1.0, 0.5]])))
@example(profile="well",  # inside the origin's 1e-12, where grad w takes its limit
         case=(2, np.array([[1e-13, -5e-14]]), np.array([[0.3, -1.0]])))
def test_geodesic_acc_equals_christoffel_einsum(profile, case):
    # the shooting RK4 takes acc = -B/(2w) in closed form; it is the dense
    # einsum of the Christoffel tensor to roundoff (below the smallest
    # normal float, to an absolute tiny)
    d, y, v = case
    amb = geo.DiagonalAmbient(d, np.arange(1, d + 1) / d, geo.PROFILES[profile])
    gam = amb.christoffel(y)
    want = -np.einsum("...kij,...i,...j->...k", gam, v, v)
    size = np.einsum("...kij,...i,...j->...k", *map(np.abs, (gam, v, v)))
    got = _rates(amb, y, v, *[np.zeros(y.shape + (d,))] * 2)[0]
    assert np.all(np.abs(got - want) <= 1e-14 * size + np.finfo(float).tiny)


def _jvp_case(d):
    """(d, y, v, J, Jd): one to four points y, velocities v and d columns of
    variations J (of y) and Jd (of v) in R^d."""
    n = 2 * d + 2 * d * d
    row = st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)
    return st.lists(row, min_size=1, max_size=4).map(np.array).map(
        lambda r: (d, r[:, :d], r[:, d:2 * d], r[:, 2 * d:2 * d + d * d].reshape(-1, d, d),
                   r[:, 2 * d + d * d:].reshape(-1, d, d)))


@given(profile=st.sampled_from(sorted(geo.PROFILES)),
       case=st.sampled_from([2, 3, 4]).flatmap(_jvp_case))
@example(profile="bump_strong",
         case=(3, np.zeros((1, 3)), np.array([[0.3, -1.0, 0.5]]),
               np.array([[[1.0, 0.2, -0.4], [0.0, -0.7, 0.3], [0.5, 0.1, 1.2]]]),
               np.array([[[-0.3, 0.8, 0.0], [1.1, 0.4, -0.6], [0.2, -0.9, 0.7]]])))
@example(profile="well",  # inside the origin's 1e-12, where grad w takes its limit
         case=(2, np.array([[1e-13, -5e-14]]), np.array([[0.3, -1.0]]),
               np.array([[[1.0, 0.2], [-0.7, 0.3]]]), np.array([[[0.8, 0.0], [1.1, -0.6]]])))
@example(profile="bump_strong",  # products that underflow to subnormals
         case=(2, np.array([[0.0, 5.9e-258]]), np.array([[0.0, 4.9e-59]]),
               np.zeros((1, 2, 2)), np.array([[[0.0, 0.0], [0.0, 0.5]]])))
def test_geodesic_jvp(profile, case):
    # the closed form in w, w', w'' is the einsum of the Christoffel tensor
    # and its derivative; both ambients' linearizations are central
    # differences of their own accelerations; the einsum's bound has the
    # acceleration's floor of the smallest normal float
    d, y, v, J, Jd = case
    amb = geo.DiagonalAmbient(d, np.arange(1, d + 1) / d, geo.PROFILES[profile])
    dgam, gam = amb.dchristoffel(y), amb.christoffel(y)
    got = _rates(amb, y, v, J, Jd)[1]
    want = (-np.einsum("...lkij,...lc,...i,...j->...kc", dgam, J, v, v)
            - 2 * np.einsum("...kij,...i,...jc->...kc", gam, v, Jd))
    size = (np.einsum("...lkij,...lc,...i,...j->...kc", *map(np.abs, (dgam, J, v, v)))
            + 2 * np.einsum("...kij,...i,...jc->...kc", *map(np.abs, (gam, v, Jd))))
    assert np.all(np.abs(got - want) <= 1e-12 * size + np.finfo(float).tiny)
    for ambient, eps, tol in ((amb, 1e-5, 1e-8),
                              (geo.CallableAmbient(d, amb.metric), 1e-4, 1e-5)):
        fd = np.stack([(_rates(ambient, y + eps * J[..., c], v + eps * Jd[..., c], J, Jd)[0]
                        - _rates(ambient, y - eps * J[..., c], v - eps * Jd[..., c], J, Jd)[0])
                       / (2 * eps) for c in range(d)], axis=-1)
        assert np.max(np.abs(_rates(ambient, y, v, J, Jd)[1] - fd)) <= tol * (1 + np.max(size))


def test_numeric_point_equals_evaluators(warped3_chart):
    # on a shot chart ``at`` evaluates the metric once per point: at x, whose
    # g^-1 gives sigma and c, and at the 12 points of the Coriolis stencil,
    # stacked into one call; the chart's evaluators read it
    rng = np.random.default_rng(8)
    x = random_ball_points(rng, 3, 0.25, 3)
    v = rng.standard_normal(x.shape)
    ch = warped3_chart
    chart = geo.ShotChart(ch.model, ch.curve, ch.tube_radius, ch._vframe, ch.ambient,
                          ch.centers, ch.frames)
    calls = []

    def metric(t, p):
        calls.append(p)
        return geo.ShotChart.metric(chart, t, p)

    chart.metric = metric
    p = chart.at(0.0, x)
    g_inv = np.linalg.inv(ch.metric(0.0, x))
    sigma = geo._spd_sqrt(g_inv, 0.0, x)
    assert np.array_equal(p.sigma, sigma)
    assert np.array_equal(p.sigma_apply(v), np.einsum("...ij,...j->...i", sigma, v))
    tr = np.trace(g_inv, axis1=-2, axis2=-1)
    rho = np.linalg.norm(x, axis=-1)
    assert np.array_equal(p.bessel_drift(), ((3 - tr) / (2 * rho ** 2))[:, None] * x)
    a = p.coriolis()
    assert [p.shape for p in calls] == [x.shape, (12,) + x.shape]
    assert np.array_equal(a, chart.coriolis(0.0, x))
    assert np.array_equal(p.sigma_apply(v), chart.sigma_apply(0.0, x, v))


def test_grid_point_equals_own_evaluators(warped3_chart):
    # a grid chart tabulates sigma and a, and its evaluators wrap ``at``:
    # point and evaluators agree bit for bit, and c and G come from the
    # tabulated sigma (tr g^-1 = sum_ij sigma_ij^2), not from the metric
    chart = geo.PrecomputedChart(warped3_chart, n_nodes=5)
    rng = np.random.default_rng(8)
    x = random_ball_points(rng, 3, 0.25, 12)
    v = rng.standard_normal(x.shape)
    p = chart.at(0.0, x)
    sigma = chart.sigma(0.0, x)
    assert np.array_equal(sigma, np.swapaxes(sigma, -1, -2))
    assert np.array_equal(p.sigma_apply(v), chart.sigma_apply(0.0, x, v))
    assert np.array_equal(p.sigma_apply(v), np.einsum("...ij,...j->...i", sigma, v))
    assert np.array_equal(chart.sigma_diag(0.0, x), np.diagonal(sigma, axis1=-2, axis2=-1))
    assert np.array_equal(p.coriolis(), chart.coriolis(0.0, x))
    assert np.array_equal(p.bessel_drift(), chart.bessel_drift(0.0, x))
    rho = np.linalg.norm(x, axis=-1)
    tr = np.einsum("...ij,...ij->...", sigma, sigma)
    assert np.array_equal(p.bessel_drift(), ((3 - tr) / (2 * rho ** 2))[:, None] * x)
    dev = sigma - np.eye(3)
    assert np.array_equal(p.G(), np.einsum("...ij,...ji->...", dev, dev) / rho ** 4)
    # an unbatched point gives its row of the batch
    assert np.array_equal(chart.coriolis(0.0, x[0]), p.coriolis()[0])


@pytest.mark.parametrize("n", [5, 6, 15])
def test_grid_table_is_the_mirror_spline_of_ndimage(n):
    # the numpy table is the interpolant of scipy.ndimage's order-3 spline
    # in mode "mirror", up to summation order, everywhere in its cube
    from scipy import ndimage

    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n, n, 9))
    table = geo._GridTable(values, 0.3)
    corners = 0.3 * np.array(np.meshgrid(*[[-1.0, 1.0]] * 3, indexing="ij")).reshape(3, -1).T
    faces = rng.uniform(-0.3, 0.3, (12, 3))
    faces[np.arange(12), np.arange(12) % 3] = np.tile([0.3, -0.3], 6)
    x = np.concatenate([rng.uniform(-0.3, 0.3, (200, 3)), corners, faces, np.zeros((1, 3))])
    coeffs = [ndimage.spline_filter(values[..., k], order=3, mode="mirror") for k in range(9)]
    u = ((x + 0.3) * ((n - 1) / 0.6)).T
    want = np.stack([ndimage.map_coordinates(c, u, order=3, prefilter=False, mode="mirror")
                     for c in coeffs], axis=-1)
    tol = 1e-13 * np.max(np.abs(values))
    assert np.max(np.abs(table(x) - want)) < tol
    nodes = np.stack(np.meshgrid(*[np.linspace(-0.3, 0.3, n)] * 3, indexing="ij"), axis=-1)
    assert np.max(np.abs(table(nodes) - values)) < tol
    # one point alone gives its row of the batch
    assert all(np.array_equal(table(x[i]), table(x)[i]) for i in (0, 200, 215, 220))


def test_grid_table_values_do_not_depend_on_block_size(warped3_chart):
    # each point is contracted with its own weights, so the step and metric
    # tables give the same bits for any lookup block; 2,500 points cross
    # block boundaries at 256 and at 2,048; a third of the points have a
    # coordinate on a node plane and a fifth one on a face of the cube
    chart = geo.PrecomputedChart(warped3_chart, n_nodes=5)
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.3, 0.3, (2500, 3))
    rows = np.arange(0, 2500, 3)
    x[rows, rows % 3] = rng.choice(np.linspace(-0.3, 0.3, 5), rows.size)
    rows = np.arange(0, 2500, 5)
    x[rows, (rows + 1) % 3] = rng.choice([-0.3, 0.3], rows.size)
    for table in (chart._step_table, chart._g):
        want = table(x)
        for block in (1, 7, 2048, 2501):
            table._BLOCK = block
            assert np.array_equal(table(x), want)


def test_grid_table_call_holds_one_block(warped3_chart):
    # a 16,384-point call holds its input, its (16384, 9) output and one
    # block's working set: a (256, 64, 9) gather of 1.2 MB with its index and
    # weight arrays; a 2,048-point block would hold 9.4 MB per gather
    table = geo.PrecomputedChart(warped3_chart, n_nodes=5)._step_table
    x = np.random.default_rng(5).uniform(-0.3, 0.3, (16384, 3))
    tracemalloc.start()
    try:
        table(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_grid_chart_refuses_points_outside_its_cube(warped3_chart):
    # a spline in mirror mode would reflect the table there: a at (0.31, 0, 0)
    # would equal a at (0.29, 0, 0)
    chart = geo.PrecomputedChart(warped3_chart, n_nodes=5)
    assert np.all(np.isfinite(chart.coriolis(0.0, np.array([0.3, -0.3, 0.0]))))
    for x in ([0.31, 0.0, 0.0], [0.9, 0.0, 0.0], [0.0, 0.1, -0.3001], [np.nan, 0.0, 0.0]):
        for evaluate in (chart.coriolis, chart.sigma, chart.metric):
            with pytest.raises(ChartDomainError, match="outside its cube"):
                evaluate(0.0, np.array([[0.1, 0.0, 0.0], x]))


def test_grid_chart_drifts_match_shot_chart(warped3_chart):
    # the tabulated a (4th-order differences of the node values) is closer to
    # the shot chart than finite differences of the interpolated metric
    grid = geo.PrecomputedChart(warped3_chart, n_nodes=15)
    x = random_ball_points(np.random.default_rng(3), 3, 0.1, 40)
    a = warped3_chart.coriolis(0.0, x)
    err_a = np.max(np.abs(grid.coriolis(0.0, x) - a))
    assert err_a < 2e-5
    assert err_a < np.max(np.abs(geo.MetricChart.at(grid, 0.0, x).coriolis() - a))
    assert np.max(np.abs(grid.sigma(0.0, x) - warped3_chart.sigma(0.0, x))) < 5e-6
    assert np.max(np.abs(grid.bessel_drift(0.0, x) - warped3_chart.bessel_drift(0.0, x))) < 5e-5


def test_node_derivative_exact_on_quartics():
    # the grid chart differences a on its nodes: the 5-point stencils, central
    # and one-sided on the outer layers, are exact on polynomials of degree 4
    nodes = np.linspace(-0.3, 0.3, 7)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    f = X ** 4 - 2 * X * Y ** 3 + Y ** 2
    h = nodes[1] - nodes[0]
    assert np.max(np.abs(geo._node_derivative(f, 0, h) - (4 * X ** 3 - 2 * Y ** 3))) < 1e-13
    assert np.max(np.abs(geo._node_derivative(f, 1, h) - (2 * Y - 6 * X * Y ** 2))) < 1e-13


class _Folded(geo.MetricChart):
    """g = diag(1, 1 - 5 x_0 x_1) in d = 2, or (1 - 5 x_0 x_1) I when
    ``scalar``: positive definite inside the tube of radius 0.5, but not at the
    corners x_0 = x_1 = +-0.5 of the cube a grid chart samples."""

    def __init__(self, scalar):
        super().__init__(geo.euclidean(2), geo.constant_curve(T=1.0), 0.5, lambda t: None)
        self.scalar = scalar

    def metric(self, t, x):
        g = np.zeros(np.shape(x) + (2,))
        w = 1.0 - 5.0 * x[..., 0] * x[..., 1]
        g[..., 0, 0] = w if self.scalar else 1.0
        g[..., 1, 1] = w
        return g


def test_grid_chart_build_checks(warped3_chart):
    with pytest.raises(ConstructionError, match="at least 5 nodes"):
        geo.PrecomputedChart(warped3_chart, n_nodes=4)
    # det g < 0 at a corner node
    with pytest.raises(NumericError, match="non-positive metric determinant"):
        geo.PrecomputedChart(_Folded(scalar=False), n_nodes=5)
    # det g > 0 at every node, but g^-1 is negative definite at the corners
    with pytest.raises(NumericError, match="not SPD"):
        geo.PrecomputedChart(_Folded(scalar=True), n_nodes=5)
    # a NaN node value would spread through the spline prefilter
    nan_chart = _Folded(scalar=False)
    nan_chart.metric = lambda t, x: np.where(np.abs(x[..., :1, None]) > 0.4, np.nan,
                                             _Folded.metric(nan_chart, t, x))
    with pytest.raises(NumericError, match="non-finite"):
        geo.PrecomputedChart(nan_chart, n_nodes=5)
    # inside the tube the folded metric is fine
    assert _Folded(scalar=True).sqrt_det(0.0, np.array([0.35, 0.35])) > 0


def test_numeric_point_rejects_nonpositive_determinant():
    # det g = 1 - 10 x_0 is positive at x but not at the Coriolis stencil's
    # outer point x + 2h e_0 (h = 1e-3 tube radii)
    class Folded(geo.MetricChart):
        def metric(self, t, x):
            g = np.zeros(np.shape(x) + (2,))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = 1.0 - 10.0 * x[..., 0]
            return g

    chart = Folded(geo.euclidean(2), geo.constant_curve(T=1.0), 1.0, lambda t: None)
    x = np.array([0.0995, 0.0])
    assert chart.sqrt_det(0.0, x) > 0
    with pytest.raises(NumericError, match="non-positive metric determinant"):
        chart.at(0.0, x).coriolis()


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


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_embedded_transport_on_hyperboloid(s):
    # a unit-speed geodesic keeps its velocity as the first frame vector, and
    # a circle of geodesic radius a keeps the speed s sinh(a/s)
    model = geo.hyperbolic(3, s)
    geodesic = geo.embedded_curve(
        lambda t: np.array([s * math.cosh(t / s), s * math.sinh(t / s), 0.0, 0.0]),
        lambda t: np.array([math.sinh(t / s), math.cosh(t / s), 0.0, 0.0]), T=1.0)
    a = 0.3
    r = s * math.sinh(a / s)
    circle = geo.embedded_curve(
        lambda t: np.array([s * math.cosh(a / s), r * math.cos(t), r * math.sin(t), 0.0]),
        lambda t: np.array([0.0, -r * math.sin(t), r * math.cos(t), 0.0]), T=1.0)
    along = geo.fermi_chart(model, geodesic, 0.5)
    around = geo.fermi_chart(model, circle, 0.5)
    for t in (0.0, 0.13, 0.5, 0.77, 1.0):
        assert np.max(np.abs(along.velocity_frame(t) - [1.0, 0.0, 0.0])) < 1e-10
        assert abs(np.linalg.norm(around.velocity_frame(t)) - r) < 1e-10


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


def test_profile_fd_fallback():
    p = geo.Profile(name="custom", f=lambda r: 1.0 + 0.2 * r * r)
    assert abs(p.deriv(0.3) - 0.12) < 1e-9
    assert abs(p.deriv2(0.3) - 0.4) < 1e-7
