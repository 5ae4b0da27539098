import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from omtube import coupling as cp, geometry as geo, om, sde
from omtube.errors import ConstructionError, InsufficientSamplesError

from conftest import fit_slope


# ---------------------------------------------------------------------------
# the linear-algebra construction
# ---------------------------------------------------------------------------

def test_build_J_d1():
    j = cp.build_J(1)
    assert j.n == 1
    assert j.J[0, 0, 0] == 1.0


def test_build_J_d2_table():
    j = cp.build_J(2)
    assert j.n == 2
    e0 = np.array([1.0, 0.0])
    e12 = np.array([0.0, 1.0])
    assert np.array_equal(j.J[0] @ [1, 0], e0)
    assert np.array_equal(j.J[0] @ [0, 1], e12)
    assert np.array_equal(j.J[1] @ [1, 0], -e12)
    assert np.array_equal(j.J[1] @ [0, 1], e0)


def test_basis_inner_product_formula():
    # <J^i e_a, J^j e_b> = d_ij d_ab - d_ib d_aj + d_ai d_jb
    d = 4
    j = cp.build_J(d)
    eye = np.eye(d)
    for i in range(d):
        for jj in range(d):
            got = j.J[i].T @ j.J[jj]
            want = (eye[i, jj] * eye - np.einsum("b,a->ab", eye[i], eye[jj])
                    + np.einsum("a,b->ab", eye[i], eye[jj]))
            assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_J_properties(d):
    j = cp.build_J(d)
    rng = np.random.default_rng(d)
    u = rng.standard_normal((1000, d))
    un = u / np.linalg.norm(u, axis=1, keepdims=True)
    for i in range(d):
        assert np.max(np.abs(j.J[i].T @ j.J[i] - np.eye(d))) < 1e-12
    Ju = j.apply(un)
    gram = np.einsum("mia,mja->mij", Ju, Ju)
    assert np.max(np.abs(gram - np.eye(d))) < 1e-12
    e0 = np.zeros(j.n)
    e0[0] = 1.0
    s = np.einsum("mi,mia->ma", u, j.apply(u))
    norms2 = np.sum(u * u, axis=1)
    assert np.max(np.abs(s - norms2[:, None] * e0)) < 1e-12


@given(st.sampled_from([2, 3, 4]), st.data())
def test_J_apply_gathers_the_dense_product(d, data):
    # each row of J^i holds at most one +-1, so J^i u is exact and <J u, w>
    # sums the dense product's nonzero terms; at d = 2 there are two, in
    # one order, and at d = 3 and 4 their sum is within 2 ulp of sum |term|
    j = cp.build_J(d)
    m = data.draw(st.integers(1, 30))
    el = st.floats(-1e100, 1e100, allow_nan=False)
    u = data.draw(arrays(float, (m, d), elements=el))
    w = data.draw(arrays(float, (m, j.n), elements=el))
    Ju = np.einsum("iab,...b->...ia", j.J, u)
    assert np.array_equal(j.apply(u), Ju)
    dense = np.einsum("...ia,...a->...i", Ju, w)
    if d == 2:
        assert np.array_equal(j.apply(u, w), dense)
    else:
        scale = np.einsum("...ia,...a->...i", np.abs(Ju), np.abs(w))
        assert np.all(np.abs(j.apply(u, w) - dense) <= 2 * np.finfo(float).eps * scale)


def _gathered(j, u, w):
    """<J u, w> from (..., d, d) gathers of the entries of J, each row summed
    left to right with J's rows rising: the reference for ``JMaps.apply``."""
    i, a, b = np.nonzero(j.J)
    rows, cols, signs = (v.reshape(j.d, -1) for v in (a, b, j.J[i, a, b]))
    return geo._rowdot(signs * u[..., cols], w[..., rows])


@given(st.integers(1, 4), st.sampled_from([(), (1,), (9,), (2, 3)]), st.data())
def test_J_apply_equals_the_gathered_sum(d, batch, data):
    j = cp.build_J(d)
    el = st.floats(-1e100, 1e100, allow_nan=False)
    u = data.draw(arrays(float, batch + (d,), elements=el))
    w = data.draw(arrays(float, batch + (j.n,), elements=el))
    got = j.apply(u, w)
    assert got.shape == batch + (d,)
    assert np.array_equal(got, _gathered(j, u, w))


def test_J_apply_refuses_a_J_it_cannot_gather():
    j = cp.build_J(3)
    doubled = j.J.copy()
    doubled[0, 1, 0] = 0.5  # a second entry in column 0 of J^0
    scaled = j.J * 2.0
    for J in (doubled, scaled, j.J[:, :, :2]):
        with pytest.raises(ConstructionError):
            cp.JMaps(d=3, n=j.n, J=J).apply(np.ones(3), np.ones(j.n))


# ---------------------------------------------------------------------------
# closed-form per-step quantities
# ---------------------------------------------------------------------------

def _random_state(rng, d):
    U = rng.standard_normal(d)
    U /= np.linalg.norm(U)
    Ut = rng.standard_normal(d)
    Ut /= np.linalg.norm(Ut)
    return U, Ut


def test_H_G_flat(euclid2_chart):
    rng = np.random.default_rng(0)
    U, Ut = _random_state(rng, 2)
    assert cp.H_of(euclid2_chart, 0.0, np.array(0.3), U, Ut) == 0.0
    assert cp.G_of(euclid2_chart, 0.0, np.array(0.3), U) == 0.0


def test_sigma_minus_identity_kills_radial(sphere2_chart):
    rng = np.random.default_rng(1)
    for _ in range(20):
        U, Ut = _random_state(rng, 2)
        R = 0.05 + 0.5 * rng.random()
        dev = sphere2_chart.sigma_apply(0.0, R * U, U) - U
        assert np.max(np.abs(dev)) < 1e-12
        # hence (sigma - I) Ut = (sigma - I)(Ut - U)
        lhs = sphere2_chart.sigma_apply(0.0, R * U, Ut) - Ut
        rhs = (sphere2_chart.sigma_apply(0.0, R * U, Ut - U) - (Ut - U))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def _mp_G(chart, x):
    """(d - 1)(1/tl - 1)^2 / |x|^4 and 1/tl at |x|, in 50-digit arithmetic."""
    import mpmath
    with mpmath.workdps(50):
        r = mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(c)) ** 2 for c in x))
        z = mpmath.sqrt(abs(chart.model.curv)) * r
        ti = z / (mpmath.sin(z) if chart.model.curv > 0 else mpmath.sinh(z))
        return float((chart.d - 1) * (ti - 1) ** 2 / r ** 4), float(ti)


@settings(max_examples=400)
@given(st.data())
def test_H_squared_le_G(request, data):
    # a chart, a radius R of 1e-3 to 0.95 tube radii, and unit vectors U, Ut
    chart = request.getfixturevalue(data.draw(st.sampled_from(
        ["sphere2_chart", "sphere3_chart", "hyperbolic3_chart"])))
    vec = st.lists(st.floats(-1.0, 1.0), min_size=chart.d, max_size=chart.d).map(
        np.array).filter(lambda v: np.linalg.norm(v) > 1e-3)
    U, Ut = data.draw(vec), data.draw(vec)
    U, Ut = U / np.linalg.norm(U), Ut / np.linalg.norm(Ut)
    R = data.draw(st.floats(1e-3, 0.95)) * chart.tube_radius
    x = R * U
    H = cp.H_of(chart, 0.0, np.array(R), U, Ut)
    G = cp.G_of(chart, 0.0, np.array(R), U)
    ref, ti = _mp_G(chart, x)
    # 1/tl - 1 cancels: rounding 1/tl and (sigma - I) v costs a relative
    # error of a few eps (1/tl) / |1/tl - 1| in H and G
    lost = np.finfo(float).eps * ti / abs(ti - 1.0)
    assert H * H <= G * (1 + 4 * lost)
    # G is tr((sigma - I)^2) / R^4 of the sigma matrix ...
    dev = chart.sigma(0.0, x) - np.eye(chart.d)
    G_matrix = np.sum(dev * dev.T) / np.linalg.norm(x) ** 4
    if R >= 0.05 * chart.tube_radius:
        assert abs(G - G_matrix) <= 1e-11 * G_matrix
    # ... and 50 digits see only the rounding of 1/tl, which the matrix form
    # carries as well (over 1,800 points: at most 2.3 lost here, 3.0 there)
    assert abs(G - ref) <= 4 * lost * ref


def test_h2_counter_ignores_rounding_at_small_R(sphere2_chart):
    # U perpendicular to Ut at R = 0.01 on S2: rounding alone puts H^2 about
    # 7e-12 above G, beyond the plain 1e-12 slack but within the
    # roundoff-aware one; a real excess of 1e-9 still counts
    th = 3 * math.pi / 8
    U = np.array([[math.cos(th), math.sin(th)]])
    Ut = np.array([[-math.sin(th), math.cos(th)]])
    R = np.array([0.01])
    H = cp.H_of(sphere2_chart, 0.0, R, U, Ut)
    G = cp.G_of(sphere2_chart, 0.0, R, U)
    assert H[0] ** 2 > G[0] * (1 + 1e-12) + 1e-30
    assert not cp._h2_exceeds_g(H, G, R, 2).any()
    assert cp._h2_exceeds_g(H * (1 + 1e-9), G, R, 2).all()


def test_G_bounded_on_tube(sphere2_chart):
    rng = np.random.default_rng(6)
    U = rng.standard_normal((500, 2))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    R = 1e-4 + (0.6 - 1e-4) * rng.random(500)
    G = cp.G_of(sphere2_chart, 0.0, R, U)
    # tr((sigma - I)^2)/R^4 -> (d-1) K^2 / 36 as R -> 0; stays O(1) on the tube
    assert np.max(G) < 1.0
    assert abs(cp.G_of(sphere2_chart, 0.0, np.array(1e-3),
                       np.array([1.0, 0.0])) - 1.0 / 36.0) < 1e-4


# ---------------------------------------------------------------------------
# Levy areas
# ---------------------------------------------------------------------------

def test_levy_area_first_step_zero():
    y0 = np.zeros(2)
    y1 = np.array([0.3, -0.1])
    A = cp._area_increment(y0, y1)
    # midpoint increment from the origin: ybar = y1/2, dy = y1, cross = 0
    assert np.max(np.abs(A)) < 1e-18


def test_levy_area_circle():
    # deterministic circle of radius r: A^12 after one loop = 2 * area = 2 pi r^2
    r = 0.7
    ts = np.linspace(0.0, 2 * math.pi, 62833)  # dt ~ 1e-4
    pts = np.stack([r * np.cos(ts), r * np.sin(ts)], axis=1)
    A = np.sum(cp._area_increment(pts[:-1], pts[1:]), axis=0)
    want = 2 * math.pi * r * r
    assert abs(A[0, 1] - want) / want < 0.01
    assert A[0, 1] == -A[1, 0]


def test_levy_area_orthogonal_to_radial(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=1e-4, T=0.5, delta=0.2, seed=3)
    ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 1000)
    oc = ens.ortho_cov
    se = float(np.std(oc, ddof=1)) / math.sqrt(len(oc))
    assert abs(float(np.mean(oc))) < 3 * se


# ---------------------------------------------------------------------------
# the coupled pair
# ---------------------------------------------------------------------------

def test_coupled_run_refuses_other_schemes(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.01, delta=0.3, scheme="milstein_diagonal")
    with pytest.raises(ConstructionError, match="milstein_diagonal"):
        cp.simulate_coupled_ensemble(sphere2_chart, cfg, 16)


def test_coupled_run_refuses_unknown_records(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.01, delta=0.3)
    with pytest.raises(ConstructionError, match="survived"):
        cp.simulate_coupled_ensemble(sphere2_chart, cfg, 16, records=("nu", "survived"))


def test_flat_coupling_is_pathwise_identical(euclid2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.3, delta=0.6, seed=2)
    ens = cp.simulate_coupled_ensemble(euclid2_chart, cfg, 2000)
    assert float(np.max(ens.max_radial_gap)) == 0.0
    assert float(np.max(ens.sup_udiff)) < 1e-6  # |U|^2 roundoff only


@pytest.mark.filterwarnings("ignore:dt = ")
@settings(max_examples=8)
@given(st.integers(0, 2 ** 32), st.sampled_from([0.15, 0.25]))
def test_sup_radius_is_the_exit_rule(sphere2_chart, seed, delta):
    # at dt = 0.01 some launches leave at once, so the launch radius is in
    # the running maximum
    cfg = sde.IntegratorConfig(dt=0.01, T=0.03, delta=delta, seed=seed)
    ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 512)
    exited = ~np.isnan(ens.exit_time)
    assert ens.n_survive > 0 and np.any(ens.exit_time == cfg.dt)
    assert np.all(ens.sup_radius[ens.survived] < delta)
    assert np.all(ens.sup_radius[exited] >= delta)


def test_w0_identity_per_step(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.1, delta=0.4, seed=4)
    ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 500)
    assert ens.w0_identity_dev < 1e-13


def test_radial_coincidence_and_tolerance(sphere2_chart):
    delta = 0.2
    gaps = {}
    for dt in (4e-5, 2e-5):
        cfg = sde.IntegratorConfig(dt=dt, T=0.3, delta=delta, seed=3)
        ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 500)
        assert float(np.max(ens.max_radial_gap)) < 50 * math.sqrt(dt) * delta
        assert ens.h2_le_g_violations == 0
        gaps[dt] = float(np.mean(ens.max_radial_gap))
    # the discrete radial gap scales like sqrt(dt): halving dt shrinks the
    # mean gap by about 1/sqrt(2)
    ratio = gaps[2e-5] / gaps[4e-5]
    assert 0.55 < ratio < 0.9


def test_nu_inequality_pathwise(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=2e-4, T=0.2, delta=0.35, seed=9)
    ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 3000)
    bound = np.expm1(ens.G_int)
    assert np.all(ens.nu <= bound * (1 + 1e-9) + 1e-30)


def test_lemma_uu_prediction_converges(sphere2_chart):
    # the directly simulated <U, Ut> and the scalar SDE driven by the
    # extracted W1 increments approach each other as dt shrinks; the median
    # pathwise gap decays at the Euler strong rate ~ sqrt(dt)
    gaps = []
    dts = (1.5e-3, 7.5e-4, 3.75e-4, 1.875e-4)
    for dt in dts:
        cfg = sde.IntegratorConfig(dt=dt, T=0.3, delta=0.35, seed=13)
        ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 8000)
        gaps.append(float(np.median(np.abs(ens.uu_pred_gap))))
    assert gaps[3] < gaps[1] < gaps[0]
    slope = fit_slope(dts, gaps)
    assert 0.25 < slope < 1.2


# ---------------------------------------------------------------------------
# area martingale
# ---------------------------------------------------------------------------

def test_Mp_zero_without_rotation(euclid2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.2, delta=0.5, seed=2)
    forms = om.girsanov_forms(euclid2_chart, om.zero_field(2))
    ens = cp.simulate_coupled_ensemble(euclid2_chart, cfg, 1000, forms=forms)
    assert np.max(np.abs(cp.martingale_Mp(ens, 1.0))) < 1e-12


def test_Mp_conditional_martingale_rotational():
    chart = geo.fermi_chart(geo.euclidean(2), geo.constant_curve(T=0.25), 1.0)
    forms = om.girsanov_forms(chart, om.rotational_field(1.0))
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.25, delta=0.5, seed=21)
    ens = cp.simulate_coupled_ensemble(chart, cfg, 20000, forms=forms)
    surv = ens.survived
    assert surv.sum() > 400
    for p in (1.0, 2.0):
        w = np.exp(cp.martingale_Mp(ens, p)[surv])
        se = float(np.std(w, ddof=1)) / math.sqrt(surv.sum())
        assert abs(float(np.mean(w)) - 1.0) < 3 * se


def test_Mp_linear_in_p(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=5e-4, T=0.1, delta=0.4, seed=5)
    forms = om.girsanov_forms(sphere2_chart, om.rotational_field(0.5))
    ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 500, forms=forms)
    ps = np.array([1.0, 2.0, 4.0])
    ito_parts = np.stack([p * ens.M_ito for p in ps], axis=0)
    # the Ito part is linear in p by bookkeeping: regression R^2 == 1
    for m in range(ito_parts.shape[1]):
        resid = np.polyfit(ps, ito_parts[:, m], 1, full=True)[1]
        assert float(resid[0]) if len(resid) else 0.0 < 1e-20


# ---------------------------------------------------------------------------
# spherical-separation tail
# ---------------------------------------------------------------------------

def test_delta_tail_flat_is_zero(euclid2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.2, delta=0.5, seed=2)
    ens = cp.simulate_coupled_ensemble(euclid2_chart, cfg, 2000)
    lam, tail, K = cp.delta_tail_estimate(ens, lambdas=np.array([0.01, 0.1, 1.0]))
    assert np.all(tail == 0.0)


def test_delta_tail_shape(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=4e-4, T=0.2, delta=0.35, seed=9)
    ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 30000)
    lam, tail, K = cp.delta_tail_estimate(ens)
    mask = tail > 0
    assert mask.sum() >= 3
    slope = np.polyfit(lam[mask] ** 2, np.log(tail[mask]), 1)[0]
    assert slope < -1.0      # Gaussian-in-lambda^2 decay, well away from flat
    assert np.isfinite(K) and K > 0


def test_delta_tail_boundedness_across_delta(sphere2_chart):
    # scaled conditional moments stay bounded by a small constant as the
    # tube shrinks (the sup over the listed deltas, all well under 1.05)
    vals = []
    T = 0.02
    for delta in (0.4, 0.2, 0.1):
        dt = T / math.ceil(T / (delta ** 2 / 50))
        cfg = sde.IntegratorConfig(dt=dt, T=T, delta=delta, seed=5)
        ens = cp.simulate_coupled_ensemble(sphere2_chart, cfg, 30000)
        surv = ens.survived
        vals.append(float(np.mean(
            np.exp(ens.udiff_final[surv] / math.sqrt(delta)))))
    assert max(vals) < 1.05


def test_delta_tail_insufficient_samples(euclid2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=1.0, delta=0.25, seed=2)
    ens = cp.simulate_coupled_ensemble(euclid2_chart, cfg, 1200)
    with pytest.raises(InsufficientSamplesError):
        cp.delta_tail_estimate(ens)


# ---------------------------------------------------------------------------
# stochastic Stokes consistency
# ---------------------------------------------------------------------------

def _y_path(chart, dt, seed, path_index, T=0.3, delta=0.4):
    cfg = sde.IntegratorConfig(dt=dt, T=T, delta=delta, seed=seed,
                               path_index=path_index)
    return sde.simulate_Y(chart, cfg)


def test_stokes_zero_field(euclid2_chart):
    forms = om.girsanov_forms(euclid2_chart, om.zero_field(2))
    path = _y_path(euclid2_chart, 1e-3, 7, 0)
    assert abs(cp.stokes_consistency(euclid2_chart, forms, path)) < 1e-12


def test_stokes_rotational_exact(euclid2_chart):
    # for a linear drift both discretizations coincide term by term
    forms = om.girsanov_forms(euclid2_chart, om.rotational_field(1.0))
    for pi in range(5):
        path = _y_path(euclid2_chart, 1e-3, 7, pi)
        assert abs(cp.stokes_consistency(euclid2_chart, forms, path)) < 1e-12


def test_stokes_gradient_field_invisible(euclid2_chart):
    # gradient drifts have no curl: line integral and closing segment cancel
    grad = om.DriftField(d=2, f=lambda t, x: 0.7 * x,
                         div_f=lambda t, x: np.full(np.shape(x)[:-1], 1.4))
    forms = om.girsanov_forms(euclid2_chart, grad)
    path = _y_path(euclid2_chart, 1e-3, 3, 1)
    assert abs(cp.stokes_consistency(euclid2_chart, forms, path)) < 1e-10


def test_stokes_cubic_field_slope(euclid2_chart):
    cubic = om.DriftField(
        d=2,
        f=lambda t, x: np.stack([-x[..., 1] ** 3, x[..., 0] ** 3], axis=-1),
        div_f=lambda t, x: np.zeros(np.shape(x)[:-1]))
    forms = om.girsanov_forms(euclid2_chart, cubic)
    dts = (2e-3, 1e-3, 5e-4)
    resids = []
    for dt in dts:
        vals = [abs(cp.stokes_consistency(euclid2_chart, forms,
                                          _y_path(euclid2_chart, dt, 77, pi,
                                                  T=0.25)))
                for pi in range(25)]
        resids.append(np.mean(vals))
    slope = fit_slope(dts, resids)
    assert 0.7 < slope < 1.3
