import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omtube import _rng, coupling, geometry as geo, mc, om, sde
from omtube.errors import ConstructionError, EstimationError, InsufficientSamplesError


# ---------------------------------------------------------------------------
# tube estimates
# ---------------------------------------------------------------------------

def test_huge_tube_survival_is_one():
    est = mc.estimate_tube_prob("bm", d=2, delta=25.0, dt=1e-2, T=1.0,
                                n_paths=2000, seed=1)
    assert est.p_hat == 1.0
    assert est.se == 0.0


def test_min_path_count():
    with pytest.raises(EstimationError):
        mc.estimate_tube_prob("bm", d=1, delta=1.0, dt=1e-2, T=1.0,
                              n_paths=500, seed=0)


def test_flat_x_equals_bm_same_stream(euclid2_chart):
    kw = dict(delta=0.6, dt=1e-3, T=0.5, n_paths=20000, seed=77,
              bridge_correction=True, keep_exit_times=True)
    ex = mc.estimate_tube_prob("x", chart=euclid2_chart,
                               field=om.zero_field(2), **kw)
    eb = mc.estimate_tube_prob("bm", d=2, **kw)
    assert ex.n_survive == eb.n_survive
    assert np.array_equal(ex.exit_times, eb.exit_times, equal_nan=True)


def test_insufficient_survivors_warning():
    est = mc.estimate_tube_prob("bm", d=1, delta=0.35, dt=1e-3, T=1.0,
                                n_paths=2000, seed=3)
    assert est.n_survive < 100
    assert est.warning is not None


def test_smallball_reference():
    est = mc.estimate_tube_prob("bm", d=1, delta=1.0, dt=1e-3, T=1.0,
                                n_paths=30000, seed=5)
    ref = sde.bm_tube_survival_theta(1.0, 1.0)
    assert abs(est.p_hat - ref) < 3.5 * est.se


# ---------------------------------------------------------------------------
# ratio estimator
# ---------------------------------------------------------------------------

def test_ratio_flat_shared_streams_is_one(euclid2_chart):
    # on the flat chart X is BM pathwise: legs on one stream have the same
    # survivors and exit times, so their ratio is exactly exp(-S) = 1
    kw = dict(delta=0.5, dt=1e-3, T=euclid2_chart.curve.T, n_paths=5000, seed=5,
              keep_exit_times=True)
    x = mc.estimate_tube_prob("x", chart=euclid2_chart, field=om.zero_field(2), **kw)
    bm = mc.estimate_tube_prob("bm", d=2, **kw)
    assert x.n_survive == bm.n_survive
    assert np.array_equal(x.exit_times, bm.exit_times, equal_nan=True)
    assert om.om_action(euclid2_chart, om.zero_field(2)).predicted_ratio() == 1.0


def test_ratio_legs_use_independent_streams(euclid2_chart):
    r = mc.estimate_ratio(euclid2_chart, om.zero_field(2), delta=0.5, dt=1e-3,
                          n_paths=20000, seed=5)
    # flat case with independent streams: survivor counts differ but agree
    # statistically; the leg seeds derive from different stream keys
    assert _rng.leg_seed(5, 0) != _rng.leg_seed(5, 1)
    assert r.numerator.n_survive != r.denominator.n_survive
    assert abs(r.ratio - 1.0) < 4 * r.ratio_se


def test_ratio_zero_survivors_error(euclid2_chart):
    with pytest.raises(EstimationError, match="rejection"):
        mc.estimate_ratio(euclid2_chart, om.zero_field(2), delta=0.05,
                          dt=4e-5, n_paths=1000, seed=1)


def test_ratio_deterministic(euclid2_chart):
    kw = dict(delta=0.5, dt=1e-3, n_paths=20000, seed=11)
    r1 = mc.estimate_ratio(euclid2_chart, om.zero_field(2), **kw)
    r2 = mc.estimate_ratio(euclid2_chart, om.zero_field(2), **kw)
    assert r1.ratio == r2.ratio and r1.ratio_se == r2.ratio_se


def test_ratio_threads_invariance(euclid2_chart):
    kw = dict(delta=0.5, dt=1e-3, n_paths=80000, seed=11)
    r1 = mc.estimate_ratio(euclid2_chart, om.zero_field(2), threads=1, **kw)
    r2 = mc.estimate_ratio(euclid2_chart, om.zero_field(2), threads=3, **kw)
    assert r1.ratio == r2.ratio
    assert r1.numerator.n_survive == r2.numerator.n_survive


def test_ratio_prediction_breakdown():
    ch = geo.fermi_chart(geo.euclidean(2), geo.line_curve([1.0, 0.0], 0.5), 1.0)
    r = mc.estimate_ratio(ch, om.zero_field(2), delta=0.5, dt=1e-3,
                          n_paths=5000, seed=2)
    assert r.predicted == pytest.approx(math.exp(-0.25), rel=1e-9)
    assert r.action.kinetic == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_extrapolate_recovers_synthetic_sqrt_law():
    deltas = [0.4, 0.3, 0.2, 0.1]
    rows = [(d, math.exp(-0.5 + 0.3 * math.sqrt(d)), 1e-6) for d in deltas]
    ex = mc.extrapolate_ratio(rows)
    assert abs(ex.limit - math.exp(-0.5)) < 1e-10
    assert abs(ex.coef_sqrt - 0.3) < 1e-8
    assert not ex.low_confidence


def test_extrapolate_flat_case():
    rows = [(d, 1.0, 1e-8) for d in (0.3, 0.2, 0.1, 0.05)]
    ex = mc.extrapolate_ratio(rows)
    assert abs(ex.limit - 1.0) < 1e-10
    assert abs(ex.coef_sqrt) < 1e-6


def test_extrapolate_three_points_low_confidence():
    rows = [(d, math.exp(0.1 * math.sqrt(d)), 1e-4) for d in (0.3, 0.2, 0.1)]
    ex = mc.extrapolate_ratio(rows)
    assert ex.dof == 0 and ex.low_confidence


def test_extrapolate_needs_three():
    with pytest.raises(EstimationError):
        mc.extrapolate_ratio([(0.2, 1.0, 1e-3), (0.1, 1.0, 1e-3)])
    with pytest.raises(EstimationError):
        mc.extrapolate_ratio([(0.3, -1.0, 1e-3), (0.2, 1.0, 1e-3),
                              (0.1, 1.0, 1e-3)])


@pytest.mark.parametrize("bad_se", [0.0, -1e-3, float("nan"), float("inf")])
def test_extrapolate_rejects_degenerate_se(bad_se):
    # a zero SE used to become sigma = 1e-12, i.e. a cell weight of 1e24
    rows = [(0.3, 1.0, 1e-3), (0.2, 1.0, bad_se), (0.1, 1.0, 1e-3),
            (0.05, 1.0, 1e-3)]
    with pytest.raises(EstimationError, match="standard errors"):
        mc.extrapolate_ratio(rows)


# ---------------------------------------------------------------------------
# conditional weight
# ---------------------------------------------------------------------------

def test_weight_flat_is_exactly_one(euclid2_chart):
    ens = mc.run_coupled(euclid2_chart, om.zero_field(2), delta=0.5, dt=1e-3,
                         T=0.2, n_paths=5000, seed=3)
    w = mc.estimate_girsanov_weight(ens)
    assert w.mean_weight == 1.0
    assert w.mean_M == 0.0 and w.mean_L == 0.0
    assert w.jensen_lower <= w.mean_weight + 1e-12


def test_weight_jensen_inequality(sphere2_chart):
    ens = mc.run_coupled(sphere2_chart, om.rotational_field(0.8), delta=0.4,
                         dt=1e-3, T=0.15, n_paths=20000, seed=9)
    w = mc.estimate_girsanov_weight(ens)
    assert w.jensen_lower <= w.mean_weight + 1e-12
    assert abs(w.mean_weight - 1.0) < max(4 * w.se, 5e-4)


def test_weight_insufficient_survivors(euclid2_chart):
    ens = mc.run_coupled(euclid2_chart, om.zero_field(2), delta=0.25, dt=1e-3,
                         T=1.0, n_paths=2000, seed=3)
    with pytest.raises(InsufficientSamplesError):
        mc.estimate_girsanov_weight(ens)


def test_holder_exponent_identity():
    for delta in (0.2, 0.1, 0.05, 0.01):
        p = mc.holder_exponent(delta)
        assert p > 1
        assert abs(1.0 / p + 2.0 * math.sqrt(delta) - 1.0) < 1e-12
    assert math.isnan(mc.holder_exponent(0.3))


# ---------------------------------------------------------------------------
# conditional moments
# ---------------------------------------------------------------------------

def test_moment_c_zero_is_one(sphere2_chart):
    rows, bounded = mc.conditional_moment_experiment(
        sphere2_chart, None, deltas=[0.4, 0.2], c=0.0, T=0.02,
        n_paths=5000, seed=5)
    assert all(r["estimate"] == 1.0 for r in rows)
    assert bounded


def test_moment_flat_is_one(euclid2_chart):
    # U and Ut coincide on flat charts; the estimates sit at 1 up to roundoff
    # (the 3-SE trend flag is meaningless at 1e-12 standard errors)
    rows, _ = mc.conditional_moment_experiment(
        euclid2_chart, None, deltas=[0.5, 0.35], c=1.0, T=0.05,
        n_paths=5000, seed=5)
    for r in rows:
        assert abs(r["estimate"] - 1.0) < 1e-6


def test_moment_insufficient(euclid2_chart):
    with pytest.raises(InsufficientSamplesError):
        mc.conditional_moment_experiment(euclid2_chart, None, deltas=[0.1],
                                         c=1.0, T=1.0, n_paths=2000, seed=5)


@pytest.mark.parametrize("deltas", [[], [0.3, 0.0], [-0.2], [0.3, float("nan")]])
def test_moment_refuses_bad_deltas(euclid2_chart, deltas):
    with pytest.raises(ConstructionError, match="positive"):
        mc.conditional_moment_experiment(euclid2_chart, None, deltas=deltas,
                                         c=1.0, T=0.02, n_paths=2000, seed=5)


_MOMENT = dict(c=1.0, T=0.02, n_paths=4000, seed=11)


def _moment_rows(chart, deltas, **kw):
    return mc.conditional_moment_experiment(chart, None, deltas=deltas, **{**_MOMENT, **kw})[0]


def test_moment_one_pass_at_the_largest_delta(sphere2_chart):
    # the largest delta's row is the run at that delta, bit for bit; every
    # row counts that run's lanes whose sup |Y| stays below its delta
    deltas = [0.3, 0.2, 0.4]
    rows = _moment_rows(sphere2_chart, deltas)
    ens = mc.run_coupled(sphere2_chart, None, delta=0.4, dt=sde._auto_dt(_MOMENT["T"], deltas),
                         T=_MOMENT["T"], n_paths=_MOMENT["n_paths"], seed=_MOMENT["seed"],
                         with_forms=False)
    vals = np.exp((1.0 / math.sqrt(0.4)) * ens.udiff_final[ens.survived])
    assert rows[2] == {"delta": 0.4, "estimate": float(np.mean(vals)),
                       "se": float(np.std(vals, ddof=1) / math.sqrt(ens.n_survive)),
                       "n_survive": ens.n_survive}
    for row in rows:
        assert row["n_survive"] == np.count_nonzero(ens.survived & (ens.sup_radius < row["delta"]))
    assert rows[0]["n_survive"] > rows[1]["n_survive"]


@settings(max_examples=4)
@given(st.permutations([0.2, 0.3, 0.4]))
def test_moment_rows_follow_the_delta_order(sphere2_chart, deltas):
    by_delta = {r["delta"]: r for r in _moment_rows(sphere2_chart, [0.4, 0.3, 0.2])}
    assert _moment_rows(sphere2_chart, deltas) == [by_delta[d] for d in deltas]


def test_moment_smaller_delta_agrees_with_its_own_run(sphere2_chart):
    # the one pass and a run at 0.25 alone (same dt, its own noise) estimate
    # the same conditional moment
    shared = _moment_rows(sphere2_chart, [0.4, 0.25], n_paths=8000)[1]
    own = _moment_rows(sphere2_chart, [0.25], n_paths=8000)[0]
    assert shared["n_survive"] != own["n_survive"]
    assert abs(shared["estimate"] - own["estimate"]) <= 3 * math.hypot(shared["se"], own["se"])


# ---------------------------------------------------------------------------
# bootstrap validation
# ---------------------------------------------------------------------------

def test_bootstrap_agrees_with_delta_method(euclid2_chart):
    r = mc.estimate_ratio(euclid2_chart, om.zero_field(2), delta=0.6, dt=2e-3,
                          n_paths=20000, seed=8)
    # parametric bootstrap of the ratio from the two binomial counts
    num, den = r.numerator, r.denominator
    rng = np.random.default_rng(1)
    kn = rng.binomial(num.n_paths, num.p_hat, size=500)
    kd = np.maximum(rng.binomial(den.n_paths, den.p_hat, size=500), 1)
    boot = float(np.std((kn / num.n_paths) / (kd / den.n_paths), ddof=1))
    assert abs(boot - r.ratio_se) / r.ratio_se < 0.2


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------

def _one_and_two_workers(fn, **kw):
    one = fn(threads=1, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # pooling must not warn or fall back
        two = fn(threads=2, **kw)
    return one, two


def _assert_same_ensemble(a, b):
    for name in coupling.RECORDS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert ((a.n_paths, a.delta, a.dt, a.T, a.h2_le_g_violations, a.w0_identity_dev)
            == (b.n_paths, b.delta, b.dt, b.T, b.h2_le_g_violations, b.w0_identity_dev))


def test_pooled_coupled_matches_one_worker():
    model = geo.sphere(2, 1.0)
    chart = geo.fermi_chart(model, geo.great_circle_curve(model, 1.0, 0.02), 0.5)
    n = _rng.CHUNK + 2048  # two chunks, one per worker
    one, two = _one_and_two_workers(
        mc.run_coupled, chart=chart, field=om.rotational_field(1.0), delta=0.2,
        dt=5e-4, T=0.02, n_paths=n, seed=9)
    assert one.n_paths == n and 0 < one.n_survive < n
    assert np.any(one.M_ito != 0) and np.any(one.L != 0)
    assert "sup_radius" in coupling.RECORDS
    _assert_same_ensemble(one, two)


def test_pool_runs_grid_chart_and_custom_field(warped3_chart, sphere2_chart, monkeypatch):
    # workers inherit the caller's chart and field, so charts and fields
    # with no descriptor pool as well; small chunks make several slices
    monkeypatch.setattr(_rng, "CHUNK", 256)
    grid = geo.PrecomputedChart(warped3_chart, n_nodes=5)
    custom = om.DriftField(d=2, f=lambda t, x: 0.3 * np.sin(x[..., ::-1]))
    for chart, field in ((grid, om.zero_field(3)), (sphere2_chart, custom)):
        one, two = _one_and_two_workers(
            mc.estimate_tube_prob, process="x", chart=chart, field=field, delta=0.1,
            dt=2e-4, T=2e-3, n_paths=1000, seed=4, keep_exit_times=True)
        assert (two.n_paths, two.n_survive) == (one.n_paths, one.n_survive)
        assert 0 < one.n_survive < one.n_paths
        assert np.array_equal(two.exit_times, one.exit_times, equal_nan=True)


def test_pool_runs_shot_chart(warped3_chart, monkeypatch):
    monkeypatch.setattr(_rng, "CHUNK", 4)
    one, two = _one_and_two_workers(
        mc.run_coupled, chart=warped3_chart, field=None, delta=0.1, dt=2e-4,
        T=1e-3, n_paths=8, seed=3, with_forms=False)
    _assert_same_ensemble(one, two)


def test_run_coupled_refuses_forms_on_shot_chart(warped3_chart):
    with pytest.raises(ConstructionError, match="PrecomputedChart"):
        mc.run_coupled(warped3_chart, None, delta=0.1, dt=2e-4, T=2e-4, n_paths=8,
                       seed=3, with_forms=True)
