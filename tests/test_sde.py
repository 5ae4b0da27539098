import math

import numpy as np
import pytest
from scipy import stats

from omtube import _rng, coupling as cp, geometry as geo, om, sde
from omtube.errors import ChartDomainError, ConstructionError

from conftest import fit_slope


def theta_oracle_mpmath(delta, T):
    """Independent high-precision evaluation of the small-ball series."""
    import mpmath

    mpmath.mp.dps = 30
    s = mpmath.mpf(0)
    for k in range(300):
        n = 2 * k + 1
        term = (-1) ** k * mpmath.exp(-n * n * mpmath.pi ** 2 * T
                                      / (8 * mpmath.mpf(delta) ** 2)) / n
        s += term
        if abs(term) < mpmath.mpf(10) ** -25:
            break
    return float(4 * s / mpmath.pi)


# ---------------------------------------------------------------------------
# reference value and exit check
# ---------------------------------------------------------------------------

def test_theta_series_against_mpmath():
    # in d = 1 the flat-ball series is the theta series
    for delta, T in [(1.0, 1.0), (0.5, 0.25), (2.0, 1.0), (1.0, 0.2)]:
        assert abs(sde.flat_ball_survival(1, delta, T)
                   - theta_oracle_mpmath(delta, T)) < 1e-12
    assert abs(sde.flat_ball_survival(1, 1.0, 1.0) - 0.3707774298) < 1e-9


def flat_ball_oracle_mpmath(d, delta, T):
    """The Bessel series of P[sup |B| < delta] at 30 digits, from mpmath's
    zeros of J_nu (nu = d/2 - 1; the zeros (k - 1/2) pi for d = 1)."""
    import mpmath

    mpmath.mp.dps = 30
    nu, u = mpmath.mpf(d) / 2 - 1, mpmath.mpf(T) / mpmath.mpf(delta) ** 2
    s = mpmath.mpf(0)
    for k in range(1, 400):
        j = (k - mpmath.mpf(1) / 2) * mpmath.pi if d == 1 else mpmath.besseljzero(nu, k)
        term = (j ** (nu - 1) / (2 ** (nu - 1) * mpmath.gamma(nu + 1) * mpmath.besselj(nu + 1, j))
                * mpmath.exp(-j * j * u / 2))
        s += term
        if abs(term) < mpmath.mpf(10) ** -25 and j * j * u > nu + 1:
            break
    return float(s)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_flat_ball_series_against_mpmath(d):
    # T/delta^2 from 0.02 to 3, and 0.005, where Doob's bound returns 1.0
    for u in (0.005, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0, 1.6, 3.0):
        for delta in (0.25, 1.0):
            p = sde.flat_ball_survival(d, delta, u * delta ** 2)
            assert abs(p - flat_ball_oracle_mpmath(d, delta, u * delta ** 2)) < 1e-12, (u, delta)
    # far inside the shortcut, where the series would need thousands of zeros
    assert sde.flat_ball_survival(d, 25.0, 0.01) == 1.0
    if d == 3:  # j_k = k pi and c_k = 2 (-1)^(k+1)
        k = np.arange(1, 40)
        closed = float(np.sum(2 * (-1.0) ** (k + 1) * np.exp(-(k * np.pi) ** 2 * 0.15)))
        assert abs(sde.flat_ball_survival(3, 1.0, 0.3) - closed) < 1e-14


def test_flat_ball_series_refuses_what_it_does_not_cover():
    for d, delta, T in [(0, 1.0, 1.0), (2.5, 1.0, 1.0), (True, 1.0, 1.0), (2, 0.0, 1.0),
                        (2, -1.0, 1.0), (2, 1.0, 0.0), (2, 1.0, -1.0), (2, math.nan, 1.0),
                        (2, 1.0, math.inf)]:
        with pytest.raises(ConstructionError):
            sde.flat_ball_survival(d, delta, T)
    # in d = 60 at T/delta^2 = 0.005 the terms reach 1e8 and cancel; further
    # out the first term holds the sum, and 0 is returned where it underflows
    with pytest.raises(ConstructionError, match="cancels"):
        sde.flat_ball_survival(60, 1.0, 0.005)
    p = sde.flat_ball_survival(60, 1.0, 0.1)
    assert abs(p / flat_ball_oracle_mpmath(60, 1.0, 0.1) - 1) < 1e-12
    assert sde.flat_ball_survival(2, 0.05, 1.0) == 0.0


def test_tube_exit_check_limits():
    # deep inside the tube the bridge correction fires with probability ~ 0
    assert sde.tube_exit_check(0.0, 0.0, 0.2, 1e-4) < 1e-300
    # on the boundary it fires with probability one
    assert sde.tube_exit_check(0.2, 0.2, 0.2, 1e-4) == 1.0
    assert sde.tube_exit_check(0.1, 0.25, 0.2, 1e-4) == 1.0
    assert sde.tube_exit_check(0.1, 0.15, 0.2, 1e-4, bridge_correction=False) == 0.0


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConstructionError):
        sde.IntegratorConfig(dt=-1e-3)
    with pytest.raises(ConstructionError):
        sde.IntegratorConfig(dt=1e-3, scheme="heun")
    with pytest.warns(UserWarning, match="delta"):
        sde.IntegratorConfig(dt=1e-2, delta=0.2)


def test_horizon_must_be_whole_steps():
    # 0.02 / 4.5e-4 = 44.4 steps: refused when built, not simulated as 44
    with pytest.raises(ConstructionError, match="whole number of steps"):
        sde.IntegratorConfig(dt=4.5e-4, T=0.02)
    cfg = sde.IntegratorConfig(dt=4.5e-4)
    with pytest.raises(ConstructionError, match="whole number of steps"):
        cfg.horizon(geo.constant_curve(T=0.02))
    assert cfg.horizon(geo.constant_curve(T=45 * 4.5e-4)) == (45 * 4.5e-4, 45)
    assert sde.IntegratorConfig(dt=0.1 / 56, T=20 * (0.1 / 56)).horizon() == (20 * (0.1 / 56), 20)


# ---------------------------------------------------------------------------
# flat reduction and determinism
# ---------------------------------------------------------------------------

def test_flat_X_equals_bm_pathwise():
    wide = geo.fermi_chart(geo.euclidean(2), geo.constant_curve(T=0.5), 50.0)
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.5, seed=42, path_index=3)
    px = sde.simulate_X(wide, om.zero_field(2), cfg)
    pb = sde.simulate_bm(2, cfg)
    assert np.array_equal(px.states, pb.states)
    assert np.array_equal(px.increments, pb.increments)


def test_single_path_determinism(euclid2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.2, seed=9, path_index=17, delta=0.4)
    p1 = sde.simulate_X(euclid2_chart, om.zero_field(2), cfg)
    p2 = sde.simulate_X(euclid2_chart, om.zero_field(2), cfg)
    assert np.array_equal(p1.states, p2.states)
    assert p1.exited == p2.exited and p1.exit_time == p2.exit_time


def test_ensemble_determinism():
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.5, delta=0.6, seed=4,
                               bridge_correction=True)
    r1 = sde.run_tube_ensemble("bm", 1, cfg, 20000, want_exit_times=True)
    r2 = sde.run_tube_ensemble("bm", 1, cfg, 20000, want_exit_times=True)
    assert r1.n_survive == r2.n_survive
    assert np.array_equal(r1.exit_times, r2.exit_times, equal_nan=True)


def test_single_path_on_grid_chart(warped3_chart):
    # numerical charts evaluate one point to the shape of its input, so a
    # single path runs on them as one lane
    grid = geo.PrecomputedChart(warped3_chart, n_nodes=5)
    field = om.zero_field(3)
    x = np.array([[0.1, -0.05, 0.12], [0.02, 0.15, -0.1]])
    for fn in (grid.coriolis, lambda t, p: om.alpha_form(grid, field, t, p)):
        one = fn(0.0, x[0])
        assert one.shape == (3,)
        assert np.array_equal(one, fn(0.0, x)[0])
    p = sde.simulate_X(grid, field, sde.IntegratorConfig(dt=1e-4, T=5e-4, seed=2))
    assert p.states.shape == (6, 3) and p.increments.shape == (5, 3)


def _moving_sphere2_chart(request):
    model = geo.sphere(2, 1.0)
    return geo.fermi_chart(model, geo.great_circle_curve(model, 1.0, 0.5), 0.6)


_STEP_CHARTS = {
    "S2": _moving_sphere2_chart,  # a moving curve, so that gamma_dot enters the X drift
    "S3": lambda request: request.getfixturevalue("sphere3_chart"),
    "H3": lambda request: request.getfixturevalue("hyperbolic3_chart"),
    "E2": lambda request: request.getfixturevalue("euclid2_chart"),
    "grid": lambda request: geo.PrecomputedChart(request.getfixturevalue("warped3_chart"),
                                                 n_nodes=5),
}


@pytest.mark.parametrize("name", sorted(_STEP_CHARTS))
def test_steps_equal_evaluator_composition(name, request):
    # the steppers evaluate the chart once per step, through ``chart.at``;
    # each step is bit for bit the one composed from the public evaluators
    chart = _STEP_CHARTS[name](request)
    d = chart.d
    rng = np.random.default_rng(4)
    x = rng.standard_normal((12, d))
    x *= (np.geomspace(0.03, 0.95, 12) * chart.tube_radius / np.linalg.norm(x, axis=1))[:, None]
    if chart.is_radial and chart.model.curv != 0.0:
        # both branches of the radial scalars run
        w = abs(chart.model.curv) * np.sum(x * x, axis=1)
        assert (w < geo._W_CUT).any() and (w >= geo._W_CUT).any()
    dB = 0.03 * rng.standard_normal(x.shape)
    t, dt = 0.2, 1e-3
    field = om.rotational_field(1.0) if d == 2 else om.linear_field(0.5, d=d)
    cfg = sde.IntegratorConfig(dt=dt)
    sig = chart.sigma_apply(t, x, dB)
    drift = chart.coriolis(t, x) - chart.velocity_frame(t) + field(t, x)
    assert np.array_equal(sde._make_stepper("x", chart, field, cfg)(t, x, dB),
                          x + sig + drift * dt)
    assert np.array_equal(sde._make_stepper("y", chart, None, cfg)(t, x, dB),
                          x + sig + chart.bessel_drift(t, x) * dt)
    # the coupled pair's Y, driven through the J maps at U = x/|x| by the dW
    # of a generator with the same key; |Y| and |Yt| leave the step as its
    # R and Rt
    j = cp.build_J(d)
    k = round(t / dt)
    state = {"Y": x, "Yt": x[::-1], "R": np.linalg.norm(x, axis=1),
             "Rt": np.linalg.norm(x[::-1], axis=1),
             **{name: np.full(x.shape[0], v) for name, v in cp._RUNNING.items()}}
    advance = cp._coupled_advance(chart, j, sde.IntegratorConfig(dt=dt, delta=chart.tube_radius),
                                  None, _rng.chunk_generator(4, 0), ())
    out, _ = advance(k, state)
    dW = math.sqrt(dt) * _rng.chunk_generator(4, 0).standard_normal((x.shape[0], j.n))
    dB = j.apply(x / np.linalg.norm(x, axis=1, keepdims=True), dW)
    assert np.array_equal(out["Y"], x + chart.sigma_apply(k * dt, x, dB)
                          + chart.bessel_drift(k * dt, x) * dt)
    assert np.array_equal(out["R"], np.linalg.norm(out["Y"], axis=-1))
    assert np.array_equal(out["Rt"], np.linalg.norm(out["Yt"], axis=-1))


def test_path_sample_invariants(euclid2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.3, delta=0.3, seed=21, path_index=5)
    p = sde.simulate_X(euclid2_chart, om.zero_field(2), cfg)
    assert np.array_equal(p.radial, np.sqrt(np.einsum("ki,ki->k", p.states, p.states)))
    assert len(p.times) == len(p.states) == len(p.increments) + 1
    if p.exited:
        assert p.exit_time == pytest.approx(p.times[-1])


# ---------------------------------------------------------------------------
# marginal laws
# ---------------------------------------------------------------------------

def test_bm_increment_normality():
    cfg = sde.IntegratorConfig(dt=1e-2, T=1.0, seed=2, path_index=0)
    p = sde.simulate_bm(1, cfg)
    z = p.increments[:, 0] / math.sqrt(cfg.dt)
    n = len(z)
    kurt = np.mean(z ** 4) / np.mean(z ** 2) ** 2
    assert abs(kurt - 3.0) < 3 * math.sqrt(24.0 / n)


def test_ou_terminal_variance(euclid1_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=1.0, seed=7)
    res = sde.run_tube_ensemble("x", 1, cfg, 100000, chart=euclid1_chart,
                                drift_field=om.linear_field(-1.0, d=1),
                                want_terminal=True)
    var = float(np.nanvar(res.terminal))
    want = (1 - math.exp(-2.0)) / 2
    se = want * math.sqrt(2.0 / res.n_paths)
    assert abs(var - want) < 3 * se + 2e-3 * want  # 3 SE plus O(dt) bias


def test_sphere_radial_law_ks(sphere2_chart):
    # without a tube no lane exits, so the run to 0.025 is the first half of
    # the run to 0.05 on the same streams
    big = geo.fermi_chart(geo.sphere(2, 1.0), geo.constant_curve(T=0.05), 1.5)
    for tt in (0.025, 0.05):
        cfg = sde.IntegratorConfig(dt=2e-4, T=tt, seed=11)
        y = sde.run_tube_ensemble("y", 2, cfg, 10000, chart=big,
                                  want_terminal=True).terminal
        rr = np.sqrt(np.einsum("mi,mi->m", y, y))
        assert stats.kstest(rr / math.sqrt(tt), stats.chi(2).cdf).pvalue > 0.01
        assert np.all(rr >= 0)


def test_sphere_mean_square_contraction():
    # positive curvature focuses: E|X(t)|^2 = d t - (R/6) t^2 + O(t^3)
    big = geo.fermi_chart(geo.sphere(2, 1.0), geo.constant_curve(T=0.1), 1.55)
    T = 0.06
    cfg = sde.IntegratorConfig(dt=2e-4, T=T, seed=8)
    res = sde.run_tube_ensemble("x", 2, cfg, 200000, chart=big, want_terminal=True)
    vals = np.sum(res.terminal ** 2, axis=1)
    m2 = float(np.nanmean(vals))
    se = float(np.nanstd(vals)) / math.sqrt(res.n_paths)
    assert m2 < 2 * T - 3 * se                       # one-sided focusing trend
    oracle = 2 * T - 2.0 * T ** 2 / 6.0
    assert abs(m2 - oracle) < 4 * se


def test_bessel3_mean():
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.5, seed=13)
    res = sde.run_tube_ensemble("bm", 3, cfg, 50000, want_terminal=True)
    r = np.linalg.norm(res.terminal, axis=1)
    want = math.sqrt(8 * 0.5 / math.pi)  # E|B(t)| for d = 3
    se = float(np.std(r)) / math.sqrt(len(r))
    assert abs(float(np.mean(r)) - want) < 3 * se


def test_bessel_path_nonnegative():
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.3, seed=3, path_index=1)
    p = sde.simulate_bm(3, cfg)
    assert np.all(p.radial >= 0)


# ---------------------------------------------------------------------------
# tube survival
# ---------------------------------------------------------------------------

def test_survival_matches_theta_with_bridge():
    cfg = sde.IntegratorConfig(dt=1e-3, T=1.0, delta=1.0, seed=5,
                               bridge_correction=True)
    res = sde.run_tube_ensemble("bm", 1, cfg, 50000)
    ref = sde.flat_ball_survival(1, 1.0, 1.0)
    se = math.sqrt(ref * (1 - ref) / res.n_paths)
    assert abs(res.survival - ref) < 3.5 * se
    # and the Bessel series in d = 2 and 3 at the default resolution
    # dt = delta^2/50 (relative SE 0.7 %)
    for d, T in [(2, 0.09), (3, 0.054)]:
        cfg = sde.IntegratorConfig(dt=0.3 ** 2 / 50, T=T, delta=0.3, seed=5,
                                   bridge_correction=True)
        res = sde.run_tube_ensemble("bm", d, cfg, 200000)
        ref = sde.flat_ball_survival(d, 0.3, T)
        se = math.sqrt(ref * (1 - ref) / res.n_paths)
        assert abs(res.survival - ref) < 3 * se, d


def test_grid_only_monitoring_bias():
    # without the bridge the discrete-maximum estimate exceeds the continuous
    # value and converges from above at roughly sqrt(dt) rate
    ref = sde.flat_ball_survival(1, 1.0, 1.0)
    dts = (4e-3, 1e-3, 2.5e-4)
    biases = []
    for dt in dts:
        cfg = sde.IntegratorConfig(dt=dt, T=1.0, delta=1.0, seed=9,
                                   bridge_correction=False)
        res = sde.run_tube_ensemble("bm", 1, cfg, 100000)
        biases.append(res.survival - ref)
    assert all(b > 0 for b in biases)
    slope = fit_slope(dts, biases)
    assert 0.3 < slope < 0.7


def test_halving_dt_consistency():
    vals = []
    for dt in (1e-3, 5e-4):
        cfg = sde.IntegratorConfig(dt=dt, T=1.0, delta=1.0, seed=31,
                                   bridge_correction=True)
        res = sde.run_tube_ensemble("bm", 1, cfg, 40000)
        vals.append((res.survival, math.sqrt(res.survival * (1 - res.survival)
                                             / res.n_paths)))
    pooled = math.hypot(vals[0][1], vals[1][1])
    assert abs(vals[0][0] - vals[1][0]) < 2 * pooled


def test_milstein_matches_euler_within_error(sphere2_chart):
    vals = {}
    for scheme in ("euler_maruyama", "milstein_diagonal"):
        est_cfg = sde.IntegratorConfig(dt=2e-3, T=0.2, delta=0.35, seed=11,
                                       bridge_correction=True, scheme=scheme)
        res = sde.run_tube_ensemble("x", 2, est_cfg, 100000, chart=sphere2_chart,
                                    drift_field=om.zero_field(2))
        vals[scheme] = (res.survival,
                        math.sqrt(res.survival * (1 - res.survival) / res.n_paths))
    pooled = math.hypot(vals["euler_maruyama"][1], vals["milstein_diagonal"][1])
    assert abs(vals["euler_maruyama"][0] - vals["milstein_diagonal"][0]) < 2.5 * pooled


# ---------------------------------------------------------------------------
# chart-domain handling and dumps
# ---------------------------------------------------------------------------

def test_domain_error_without_tube(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=1e-3, T=3.0, seed=1)
    with pytest.raises(ChartDomainError):
        sde.run_tube_ensemble("y", 2, cfg, 2000, chart=sphere2_chart)


def test_delta_must_fit_chart(sphere2_chart):
    cfg = sde.IntegratorConfig(dt=1e-4, T=0.1, delta=0.7, seed=1)
    with pytest.raises(ChartDomainError):
        sde.run_tube_ensemble("y", 2, cfg, 2000, chart=sphere2_chart)


@pytest.mark.parametrize("delta", [0.3, 1.2])
def test_single_paths_keep_the_tube_inside_the_chart(delta):
    # single paths build the tube lanes' advance, which refuses a tube that
    # reaches the chart's radius: such a tube lets a path step off the chart
    chart = geo.fermi_chart(geo.sphere(2, 1.0), geo.constant_curve(T=0.5), 0.3)
    cfg = sde.IntegratorConfig(dt=1e-3, T=0.5, delta=delta, seed=1)
    with pytest.raises(ChartDomainError, match="tube delta"):
        sde.simulate_X(chart, om.zero_field(2), cfg)
    with pytest.raises(ChartDomainError, match="tube delta"):
        sde.simulate_Y(chart, cfg)


def test_ndjson_dump(tmp_path, euclid2_chart):
    import json

    cfg = sde.IntegratorConfig(dt=1e-2, T=0.1, seed=3)
    paths = [sde.simulate_bm(2, sde.IntegratorConfig(dt=1e-2, T=0.1, seed=3,
                                                     path_index=i))
             for i in range(5)]
    out = tmp_path / "paths.ndjson"
    with open(out, "w") as fh:
        sde.dump_paths_ndjson(fh, paths, max_paths=3)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert len(rec["times"]) == len(rec["states"])
