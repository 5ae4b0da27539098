import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from omtube import geometry as geo, om
from omtube.errors import UnitVectorError

from conftest import random_ball_points


# ---------------------------------------------------------------------------
# Lagrangian and action
# ---------------------------------------------------------------------------

def test_lagrangian_flat_zero(euclid2_chart):
    terms = om.om_lagrangian(euclid2_chart, om.zero_field(2), 0.0, v=np.zeros(2))
    assert terms.total == 0.0


def test_lagrangian_kinetic_term(euclid2_chart):
    terms = om.om_lagrangian(euclid2_chart, om.zero_field(2), 0.0, v=np.array([1.0, 0.0]))
    assert abs(terms.total - 0.5) < 1e-14
    assert terms.divergence == 0.0 and terms.curvature == 0.0


def test_lagrangian_sphere_curvature_term(sphere2_chart):
    # R = 2 on the unit 2-sphere; the curvature term is -R/12 = -1/6 (the
    # sign that positive curvature raises the tube probability)
    terms = om.om_lagrangian(sphere2_chart, om.zero_field(2), 0.0, v=np.zeros(2))
    assert abs(terms.total + 1.0 / 6.0) < 1e-13
    assert terms.kinetic == 0.0 and terms.divergence == 0.0


def test_action_flat_constant(euclid2_chart):
    act = om.om_action(euclid2_chart, om.zero_field(2))
    assert act.value == 0.0 and act.error_est == 0.0


def test_action_straight_line():
    ch = geo.fermi_chart(geo.euclidean(2), geo.line_curve([1.0, 0.0], 1.0), 1.0)
    act = om.om_action(ch, om.zero_field(2))
    assert abs(act.value - 0.5) < 1e-12
    assert abs(act.kinetic - 0.5) < 1e-12
    assert act.predicted_ratio() == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_action_ou_divergence(euclid1_chart):
    # f(x) = -x at the origin: kinetic 0, div f = -1, curvature 0
    act = om.om_action(euclid1_chart, om.linear_field(-1.0, d=1))
    assert abs(act.value + 0.5) < 1e-12
    assert abs(act.divergence + 0.5) < 1e-12


def test_action_fd_divergence_matches_analytic(euclid2_chart):
    A = np.array([[0.3, 0.1], [-0.2, -0.7]])
    analytic = om.linear_field(A)
    fd = om.DriftField(d=2, f=analytic.f)
    a1 = om.om_action(euclid2_chart, analytic)
    a2 = om.om_action(euclid2_chart, fd)
    assert abs(a1.value - a2.value) < 1e-8


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_flat_and_einstein(euclid2_chart, sphere2_chart, hyperbolic3_chart):
    u = np.array([0.6, 0.8])
    assert om.beta(euclid2_chart.curvature_at(0.0), u) == 0.0
    assert om.beta(sphere2_chart.curvature_at(0.0), u) == 0.0
    u3 = np.array([1.0, 0.0, 0.0])
    assert om.beta(hyperbolic3_chart.curvature_at(0.0), u3) == 0.0


def test_beta_requires_unit_vector(sphere2_chart):
    with pytest.raises(UnitVectorError):
        om.beta(sphere2_chart.curvature_at(0.0), np.array([0.5, 0.5]))


def test_beta_anisotropic_eigen_oracle(warped3_chart):
    curv = warped3_chart.curvature_at(0.0)
    ev, vecs = np.linalg.eigh(curv.ricci)
    for k in range(3):
        got = om.beta(curv, vecs[:, k])
        want = -(3.0 / 12.0) * (ev[k] - ev.mean())
        assert abs(got - want) < 1e-12


def test_beta_sphere_average(warped3_chart):
    # trace-free contraction: the uniform-sphere average vanishes
    curv = warped3_chart.curvature_at(0.0)
    rng = np.random.default_rng(12)
    u = rng.standard_normal((1_000_000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    vals = om.beta(curv, u)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals)) < 3 * se


# ---------------------------------------------------------------------------
# alpha form and kernel
# ---------------------------------------------------------------------------

def test_alpha_trivial_cases(euclid2_chart):
    x = np.array([0.3, -0.2])
    assert np.allclose(om.alpha_form(euclid2_chart, om.zero_field(2), 0.0, x), 0.0)
    ch = geo.fermi_chart(geo.euclidean(2), geo.line_curve([1.5, -0.5], 1.0), 1.0)
    al = om.alpha_form(ch, om.zero_field(2), 0.2, x)
    assert np.allclose(al, [-1.5, 0.5], atol=1e-14)


def test_alpha_sphere_reassembly(sphere2_chart):
    rng = np.random.default_rng(1)
    x = random_ball_points(rng, 2, 0.5, 30)
    al = om.alpha_form(sphere2_chart, om.zero_field(2), 0.0, x)
    g = sphere2_chart.metric(0.0, x)
    a = sphere2_chart.coriolis(0.0, x)
    c = sphere2_chart.bessel_drift(0.0, x)
    direct = np.einsum("mij,mj->mi", g, a - c)
    assert np.max(np.abs(al - direct)) < 1e-10


def test_alpha_kernel_rotational_value(euclid2_chart):
    # curl alpha = 2 omega everywhere, so the kernel is omega/2 off-diagonal
    K = om.alpha_kernel(euclid2_chart, om.rotational_field(1.0), 0.0,
                        np.array([0.3, 0.1]))
    assert abs(K[0, 1] - 0.5) < 1e-9
    assert K[0, 1] == -K[1, 0]


def test_alpha_kernel_antisymmetric_exact(sphere2_chart):
    rng = np.random.default_rng(8)
    x = random_ball_points(rng, 2, 0.5, 10)
    K = om.alpha_kernel(sphere2_chart, om.rotational_field(0.7), 0.0, x)
    assert np.max(np.abs(K + np.swapaxes(K, -1, -2))) == 0.0


def test_alpha_kernel_zero_for_line(euclid2_chart):
    ch = geo.fermi_chart(geo.euclidean(2), geo.line_curve([1.0, 0.0], 1.0), 1.0)
    K = om.alpha_kernel(ch, om.zero_field(2), 0.0, np.array([0.4, 0.1]))
    assert np.max(np.abs(K)) < 1e-12


def test_alpha_kernel_gauss_doubling(sphere2_chart):
    field = om.rotational_field(0.9)
    x = np.array([0.35, -0.2])
    K8 = om.alpha_kernel(sphere2_chart, field, 0.0, x, n_gauss=8)
    K16 = om.alpha_kernel(sphere2_chart, field, 0.0, x, n_gauss=16)
    assert np.max(np.abs(K8 - K16)) < 1e-10


def test_alpha_kernel_gauge_invariance(euclid2_chart):
    # adding a gradient to the drift must not change the curl kernel
    base = om.rotational_field(1.0)

    def perturbed(t, x):
        return base(t, x) + 0.8 * x  # gradient of 0.4 |x|^2

    field2 = om.DriftField(d=2, f=perturbed)
    x = np.array([0.3, 0.25])
    K1 = om.alpha_kernel(euclid2_chart, base, 0.0, x)
    K2 = om.alpha_kernel(euclid2_chart, field2, 0.0, x)
    assert np.max(np.abs(K1 - K2)) < 1e-9


@st.composite
def _kernel_cases(draw):
    """A closed-form chart, a constant-Jacobian field, a time and points
    inside the tube (the origin among them)."""
    kind = draw(st.sampled_from(["sphere", "hyperbolic", "euclidean"]))
    d = draw(st.sampled_from([2, 3]))
    scale = draw(st.floats(0.5, 2.0))
    model = {"sphere": lambda: geo.sphere(d, scale),
             "hyperbolic": lambda: geo.hyperbolic(d, scale),
             "euclidean": lambda: geo.euclidean(d)}[kind]()
    tube = draw(st.floats(0.15, 1.2)) * scale  # sphere charts need < pi/2 scale
    curve_kind = draw(st.sampled_from(["constant", "line", "great_circle"]))
    speed = draw(st.floats(-2.0, 2.0))
    if curve_kind == "great_circle" and kind == "sphere":
        curve = geo.great_circle_curve(model, speed, 1.0)
    elif curve_kind == "line" and kind == "euclidean":
        curve = geo.line_curve(speed * np.eye(d)[0] + 0.5 * np.eye(d)[-1], 1.0)
    else:
        curve = geo.constant_curve(1.0)
    chart = geo.fermi_chart(model, curve, tube)
    field_kind = draw(st.sampled_from(["zero", "linear", "rotational"]))
    if field_kind == "zero":
        field = om.zero_field(d)
    elif field_kind == "rotational" and d == 2:
        field = om.rotational_field(draw(st.floats(-2.0, 2.0)))
    else:
        field = om.linear_field(draw(arrays(float, (d, d),
                                            elements=st.floats(-2.0, 2.0))))
    t = draw(st.floats(0.0, 1.0))
    cube = draw(arrays(float, (draw(st.integers(1, 6)), d),
                       elements=st.floats(-1.0, 1.0)))
    x = np.vstack([np.zeros(d), cube * (0.99 * tube / np.sqrt(d))])
    return chart, field, t, x


@given(_kernel_cases())
def test_alpha_kernel_closed_form_matches_fd(case):
    chart, field, t, x = case
    K = om.alpha_kernel(chart, field, t, x)
    assert np.max(np.abs(K - om._alpha_kernel_fd(chart, field, t, x))) <= 1e-11
    assert np.array_equal(K, -np.swapaxes(K, -1, -2))
    # an unbatched point gives the same kernel as its row of the batch
    K1 = om.alpha_kernel(chart, field, t, x[-1])
    assert K1.shape == (chart.d, chart.d)
    assert np.max(np.abs(K1 - K[-1])) <= 1e-15


def test_alpha_kernel_routing(sphere2_chart, warped3_chart, monkeypatch):
    rng = np.random.default_rng(21)
    x = random_ball_points(rng, 2, 0.5, 6)
    A = np.array([[0.3, -1.1], [0.4, 0.2]])
    custom = om.DriftField(d=2, f=om.linear_field(A).f)
    axes = (np.linspace(-1, 1, 9),) * 2
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    table = om.table_field(axes, mesh @ A.T)
    for field in (custom, table):
        assert np.array_equal(om.alpha_kernel(sphere2_chart, field, 0.0, x),
                              om._alpha_kernel_fd(sphere2_chart, field, 0.0, x))
    grid = geo.PrecomputedChart(warped3_chart, n_nodes=5)
    x3 = random_ball_points(rng, 3, 0.2, 4)
    field = om.zero_field(3)
    assert np.array_equal(om.alpha_kernel(grid, field, 0.0, x3),
                          om._alpha_kernel_fd(grid, field, 0.0, x3))

    # the closed form evaluates no alpha form at all
    def no_alpha_form(*args):
        raise AssertionError("closed-form kernel called alpha_form")

    monkeypatch.setattr(om, "alpha_form", no_alpha_form)
    om.alpha_kernel(sphere2_chart, om.linear_field(A), 0.0, x)


def test_constant_curve_curvature_is_computed_once(warped3_chart, monkeypatch):
    # a constant curve's centre and frame do not move, so its curvature is
    # computed once for the whole action; every t gets the value a per-t
    # evaluation gives, bit for bit, with its own t in ``at``
    calls, uncounted = [], geo.ambient_curvature

    def counted(ambient, y):
        calls.append(y)
        return uncounted(ambient, y)

    monkeypatch.setattr(geo, "ambient_curvature", counted)
    ch = warped3_chart
    shot = geo.ShotChart(ch.model, ch.curve, ch.tube_radius, ch._vframe, ch.ambient,
                         ch.centers, ch.frames)
    grid = geo.PrecomputedChart(shot, n_nodes=5)
    action = om.om_action(grid, om.zero_field(3))
    assert len(calls) == 1
    assert math.isclose(action.curvature, -grid.curvature_at(0.0).scalar / 12 * ch.curve.T,
                        rel_tol=1e-14)
    for t in ch.curve.grid:
        got, want = grid.curvature_at(t), shot._curvature(t)
        assert np.array_equal(got.riemann, want.riemann)
        assert np.array_equal(got.ricci, want.ricci)
        assert got.scalar == want.scalar
        assert got.at[0] == t and np.array_equal(got.at[1], np.zeros(3))
    assert len(calls) == 1 + len(ch.curve.grid)

    # a moving curve's curvature is evaluated at each t
    line = geo.ambient_curve(lambda t: np.array([-0.9 + 30 * t, 0.05, -0.05]),
                             lambda t: np.array([30.0, 0.0, 0.0]), T=0.06, n_grid=8)
    moving = geo.fermi_chart(ch.model, line, 0.3)
    calls.clear()
    scalars = [moving.curvature_at(t).scalar for t in (0.0, 0.01, 0.03)]
    assert len(calls) == 3 and len(set(scalars)) == 3


def test_zero_field_divergence(euclid2_chart):
    f = om.zero_field(2)
    x = np.zeros(2)
    assert f.divergence(0.0, x, 1e-4) == 0.0


def test_table_field_matches_linear():
    A = np.array([[0.2, -0.4], [0.3, 0.1]])
    lin = om.linear_field(A)
    axes = (np.linspace(-1, 1, 41), np.linspace(-1, 1, 41))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    tab = om.table_field(axes, lin(0.0, mesh))
    x = np.array([[0.3, -0.5], [0.11, 0.07]])
    assert np.max(np.abs(tab(0.0, x) - lin(0.0, x))) < 1e-12
