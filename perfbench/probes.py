"""Fixed-size, seeded calls into single layers.

``SUITE`` re-measures every closed-form row of the ROADMAP Baseline table
as one direct ensemble call; the traced pass runs each row under the span
recorder and divides the ensemble span by the lane-steps it counted.  The
``time_*`` probes run untraced and time one evaluator at a time.
"""

import statistics

from spans import now
from workloads import sphere_s2

# The S2 tube of the workloads (delta = 0.3, dt as omtube resolves it for
# T = 0.1), run for 20 steps only: most lanes stay alive, so every row is
# timed at nearly its full batch rather than on the few late survivors.
DELTA = 0.3
DT = 0.1 / 56
T = 20 * DT
TUBE_RADIUS = 0.75

# ROADMAP Baseline value of each row, in ns/lane-step; its BM entry
# "52 (85)" is read as bridge off (on), the order the rows measure
BASELINE_NS = {
    "sde.bm_d2_bridge": 85.0,
    "sde.bm_d2_nobridge": 52.0,
    "sde.x_s2": 290.0,
    "sde.x_s3": 357.0,
    "sde.x_s2_milstein": 726.0,
    "coupling.s2_plain": 913.0,
    "coupling.s2_rot_forms": 23000.0,
}


def sphere_chart(dim=2):
    """Chart of the unit sphere S^dim along a unit-speed great circle."""
    from omtube import geometry

    model = geometry.sphere(dim, 1.0)
    return geometry.fermi_chart(model, geometry.great_circle_curve(model, 1.0, T),
                                TUBE_RADIUS)


def _cfg(seed, **kw):
    from omtube import sde

    return sde.IntegratorConfig(dt=DT, T=T, delta=DELTA, seed=seed, **kw)


def _bm(bridge, paths):
    def row(seed):
        from omtube import sde

        sde.run_tube_ensemble("bm", 2, _cfg(seed, bridge_correction=bridge), paths)
    return row


def _x(dim, paths, scheme="euler_maruyama"):
    def row(seed):
        from omtube import om, sde

        chart = sphere_chart(dim)
        sde.run_tube_ensemble("x", dim, _cfg(seed, bridge_correction=True, scheme=scheme),
                              paths, chart=chart, drift_field=om.zero_field(dim))
    return row


def _coupled(with_forms, paths):
    def row(seed):
        from omtube import coupling, om

        chart = sphere_chart()
        forms = om.girsanov_forms(chart, om.rotational_field(1.0)) if with_forms else None
        coupling.simulate_coupled_ensemble(chart, _cfg(seed), paths, forms=forms)
    return row


def _om_action(seed):
    from omtube import om

    om.om_action(sphere_chart(), om.zero_field(2))


# row name -> callable(seed); sizes keep each row well under a second
SUITE = {
    "sde.bm_d2_bridge": _bm(True, 65536),
    "sde.bm_d2_nobridge": _bm(False, 65536),
    "sde.x_s2": _x(2, 32768),
    "sde.x_s3": _x(3, 16384),
    "sde.x_s2_milstein": _x(2, 16384, "milstein_diagonal"),
    "coupling.s2_plain": _coupled(False, 8192),
    "coupling.s2_rot_forms": _coupled(True, 2048),
    "om.om_action": _om_action,
}


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = now()
        fn()
        times.append(now() - t0)
    return statistics.median(times)


def ball_points(rng, d, radius, n):
    """n points with uniform directions and |x| uniform in [0, radius)."""
    import numpy as np

    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * (radius * rng.random((n, 1)))


def time_geometry(chart, t, radius, n, seed, reps=3):
    """ns per point of the chart evaluators the steppers call, at batch n."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = ball_points(rng, chart.d, radius, n)
    v = rng.standard_normal((n, chart.d))
    calls = {
        "sigma_apply": lambda: chart.sigma_apply(t, x, v),
        "coriolis": lambda: chart.coriolis(t, x),
        "bessel_drift": lambda: chart.bessel_drift(t, x),
        "metric": lambda: chart.metric(t, x),
    }
    return {name: _median_time(fn, reps) / n * 1e9 for name, fn in calls.items()}


def time_alpha_kernel(seed, n=2048, reps=3):
    """ns per point of om.alpha_kernel for the rotational field on S2."""
    import numpy as np
    from omtube import om

    chart = sphere_chart()
    field = om.rotational_field(1.0)
    x = ball_points(np.random.default_rng(seed), 2, DELTA, n)
    return _median_time(lambda: om.alpha_kernel(chart, field, 0.5 * T, x), reps) / n * 1e9


def time_normal(seed, reps=20):
    """ns per value of Philox standard_normal at chunk size, d = 2."""
    from omtube import _rng

    gen = _rng.chunk_generator(seed, 0)
    shape = (_rng.CHUNK, 2)
    return _median_time(lambda: gen.standard_normal(shape), reps) / (2 * _rng.CHUNK) * 1e9


def pool_speedup(cfg):
    """Untraced estimate_tube_prob wall at 1 worker over 2 workers, and whether
    the two runs agree exactly."""
    from omtube import mc, om

    chart = sphere_s2(cfg)["chart"]
    kw = dict(chart=chart, field=om.zero_field(2), delta=cfg["deltas"][1], dt=cfg["dt"],
              T=cfg["T"], n_paths=cfg["paths"], seed=cfg["seed"])
    walls, survivors = [], []
    for threads in (1, 2):
        t0 = now()
        est = mc.estimate_tube_prob("x", threads=threads, **kw)
        walls.append(now() - t0)
        survivors.append(est.n_survive)
    return walls[0] / walls[1], survivors[0] == survivors[1]
