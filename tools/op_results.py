"""Print the op results of every benchmark workload, run from one source tree.

    python tools/op_results.py SRC

SRC is the ``src`` directory of the checkout to import ``omtube`` from.
Each workload of this checkout's ``perfbench/workloads.py`` runs one op at
the harness's tiny sizes with seed 1 and one worker, so two trees run the
same ops.  Runs that no workload covers come with them: the results and
the resolved configuration of ``omtube couple`` on S2 with the rotational
field (so flags keep parsing to the same values and types), the states of
five single paths of ``sde.simulate_X`` there, the evaluators of the
warped 3-d chart (the metric, the tabulated sigma v, a and c and the
finite-difference ``om.alpha_kernel`` of its grid chart, and the shot
chart's metric, sigma v, a and c, and sigma v, a and c of the grid chart
at 2,100 points in one call, which its lookup splits into blocks), whose
last bits the ``ratio-warped3`` survivor counts do not show, the geodesic acceleration and its
linearization of the warped 3-d ambient for each profile at three points,
which the shooting RK4 runs but no end point pins alone, the end points and Jacobi fields of single
geodesics shot on either side of the step-count boundaries, and two more finite-difference routes on S2
(the action of a field without an analytic divergence, and the metric of
the shooting oracle, whose ambient differences its metric), and every
record of three coupled ensembles (S2 with and without the rotational
forms, S3 without), of which the workloads show only a few statistics, the
<J u, w> of the coupling's J maps for d = 1 to 4 (the workloads step the
pair in d = 2 and 3 only), the rows of the moment experiment for one delta and, on a seed of its own,
for an unsorted list that holds it (the workload runs one sorted list), and the difference and RK4
routes that nothing else reaches (the Stokes consistency,
finite-difference kernel and divergence of a cubic field on S2, the
derivative of a custom profile, and the transported frame velocity of a
circle on H3), and the radial chart evaluators of H3 and S3 on both sides
of the point where their radial scalars leave the series (no workload runs
a chart of negative curvature), the flat small-ball series for d = 1 to 4
at fixed (delta, T), and the first draws of the chunk and single-path
streams, which every Monte Carlo entry consumes.  The output
is one sorted JSON line holding ``cli.SCHEMA`` and the results, so two
trees can be compared textually: outputs that are meant to stay fixed are
equal, or the schema differs.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# the tiny sizes of perfbench/tests/test_harness.py: enough survivors for
# every estimator, under two seconds per tree in all
TINY = {"ratio-s2": {"paths": 4096}, "weight-s2-rot": {"paths": 1536},
        "moment-s2": {"paths": 4096}, "ratio-warped3": {"paths": 1000, "n_nodes": 6}}


def main(src):
    os.environ["OMTUBE_THREADS"] = "1"
    sys.path[:0] = [str(Path(src).resolve()),
                    str(Path(__file__).resolve().parent.parent / "perfbench")]
    from omtube import cli
    from workloads import WORKLOADS

    results = {}
    for name, wl in WORKLOADS.items():
        cfg = wl.make_config(1, **TINY[name])
        results[name], _ = wl.run(wl.setup(cfg), cfg)
    results["couple-s2-rot"] = couple_s2_rot(cli)
    results["paths-x-s2-rot"] = paths_x_s2_rot()
    results["paths-x-s3"] = paths_x_s3()
    results["warped3-evaluators"] = warped3_evaluators()
    results["grid-blocks"] = grid_blocks()
    results["ambient-rates"] = ambient_rates()
    results["shot-ends"] = shot_ends()
    results["s2-difference-routes"] = s2_difference_routes()
    results["coupled-records"] = coupled_records()
    results["jmaps-apply"] = jmaps_apply()
    results["moment-deltas"] = moment_deltas()
    results["difference-routes"] = difference_routes()
    results["radial-scalars"] = radial_scalars()
    results["flat-series"] = flat_series()
    results["streams"] = streams()
    print(json.dumps({"schema": cli.SCHEMA, "results": results}, sort_keys=True))


def couple_s2_rot(cli):
    """The results and the config echo of ``omtube couple`` on S2 with the
    rotational field."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "couple.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["couple", "--model", "sphere", "--curve", "circle:1.0",
                             "--field", "rotational", "--T", "0.05", "--delta", "0.25,0.3",
                             "--paths", "1024", "--seed", "1", "--out", str(out)])
        doc = json.loads(out.read_text())
        return {"code": code, "config": doc["config"], "results": doc["results"]}


def paths_x_s2_rot():
    """States and exits of five single X paths on S2 with the rotational field."""
    from omtube import geometry, om, sde

    model = geometry.sphere(2, 1.0)
    chart = geometry.fermi_chart(model, geometry.great_circle_curve(model, 1.0, 0.05), 0.75)
    paths = []
    for i in range(5):
        p = sde.simulate_X(chart, om.rotational_field(1.0), sde.IntegratorConfig(
            dt=0.05 / 28, T=0.05, delta=0.3, bridge_correction=True, seed=1, path_index=i))
        paths.append({"states": p.states.tolist(), "exit_time": p.exit_time})
    return paths


def paths_x_s3():
    """The d = 3 tube step: states, radii and exits of four single X paths
    on S3 along a great circle and on H3 with a linear field, and the exit
    times of a 512-path X ensemble on S3, all with the bridge correction."""
    import numpy as np
    from omtube import geometry, om, sde

    s3 = geometry.sphere(3, 1.0)
    runs = {"s3": (geometry.fermi_chart(s3, geometry.great_circle_curve(s3, 1.0, 0.05), 0.75),
                   om.zero_field(3)),
            "h3": (geometry.fermi_chart(geometry.hyperbolic(3, 1.0),
                                        geometry.constant_curve(T=0.05), 0.75),
                   om.linear_field(np.array([[0.2, -1.0, 0.3], [0.9, -0.1, 0.5],
                                             [-0.4, 0.6, 0.3]])))}
    out = {}
    for name, (chart, field) in runs.items():
        out[name] = []
        for i in range(4):
            p = sde.simulate_X(chart, field, sde.IntegratorConfig(
                dt=0.05 / 28, T=0.05, delta=0.35, bridge_correction=True, seed=1, path_index=i))
            out[name].append({"states": p.states.tolist(), "radial": p.radial.tolist(),
                              "exit_time": p.exit_time})
    ens = sde.run_tube_ensemble("x", 3, sde.IntegratorConfig(
        dt=0.05 / 28, T=0.05, delta=0.3, bridge_correction=True, seed=1), 512,
        chart=runs["s3"][0], drift_field=runs["s3"][1], want_exit_times=True)
    out["s3_ensemble_exit_times"] = ens.exit_times.tolist()
    return out


def warped3_evaluators():
    """The metric, sigma v, a and c of a 6-node grid chart of the warped
    3-d model at eight points off its nodes and the alpha kernel of a
    linear field at three, and the metric (its Jacobi fields' bits), sigma
    v, a and c of its shot chart at three."""
    import numpy as np
    from omtube import geometry, om

    chart = geometry.fermi_chart(
        geometry.warped_diagonal(3, "bump_strong"),
        geometry.constant_curve(T=0.005, point=[0.35, 0.15, -0.25]), 0.3)
    pts = np.array([[0.01, -0.03, 0.02], [0.11, 0.07, -0.05], [-0.13, 0.02, 0.09],
                    [0.04, -0.16, -0.11], [-0.07, -0.09, 0.15], [0.19, -0.04, 0.08],
                    [-0.02, 0.21, -0.03], [0.09, 0.12, 0.17]])
    grid = geometry.PrecomputedChart(chart, n_nodes=6)
    at = chart.at(0.0, pts[:3])
    v = np.array([[1.0, -0.5, 0.25], [-0.3, 0.8, 0.6], [0.7, 0.1, -0.9]])
    grid_at = grid.at(0.0, pts)
    A = np.array([[0.2, -1.0, 0.3], [0.9, -0.1, 0.5], [-0.4, 0.6, 0.3]])
    return {"grid_metric": grid.metric(0.0, pts).tolist(),
            "grid_alpha_kernel": om.alpha_kernel(grid, om.linear_field(A), 0.0, pts[:3]).tolist(),
            "grid_sigma_v": grid_at.sigma_apply(np.resize(v, pts.shape)).tolist(),
            "grid_coriolis": grid_at.coriolis().tolist(),
            "grid_bessel_drift": grid_at.bessel_drift().tolist(),
            "shot_metric": chart.metric(0.0, pts[:3]).tolist(),
            "shot_sigma_v": at.sigma_apply(v).tolist(),
            "shot_coriolis": at.coriolis().tolist(),
            "shot_bessel_drift": at.bessel_drift().tolist()}


def grid_blocks():
    """sigma v, a and c of the 6-node grid chart of the warped 3-d model at
    2,100 fixed points in one call, more than any lookup block holds: random
    points in its cube, every third with one coordinate on a node plane and
    the first six on the faces x_i = +-0.3."""
    import numpy as np
    from omtube import geometry

    chart = geometry.fermi_chart(
        geometry.warped_diagonal(3, "bump_strong"),
        geometry.constant_curve(T=0.005, point=[0.35, 0.15, -0.25]), 0.3)
    grid = geometry.PrecomputedChart(chart, n_nodes=6)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.3, 0.3, (2100, 3))
    rows = np.arange(0, 2100, 3)
    pts[rows, rows % 3] = np.resize(np.linspace(-0.3, 0.3, 6), rows.size)
    pts[np.arange(6), np.arange(6) % 3] = [0.3, -0.3, 0.3, -0.3, 0.3, -0.3]
    v = rng.standard_normal(pts.shape)
    at = grid.at(0.0, pts)
    return {"sigma_v": at.sigma_apply(v).tolist(), "coriolis": at.coriolis().tolist(),
            "bessel_drift": at.bessel_drift().tolist()}


def ambient_rates():
    """acc and its linearization from ``DiagonalAmbient.geodesic_rates`` of
    the warped 3-d ambient with each of ``bump``, ``bump_strong`` and
    ``well``, at y = 0, (0.35, 0.15, -0.25) and (-0.9, 0.05, -0.05), with one
    fixed v, J and Jd at every point."""
    import numpy as np
    from omtube import geometry

    y = np.array([[0.0, 0.0, 0.0], [0.35, 0.15, -0.25], [-0.9, 0.05, -0.05]]).T
    v = np.repeat(np.array([[0.3], [-1.0], [0.5]]), 3, axis=1)
    J = np.repeat(np.array([[1.0, 0.2, -0.4], [0.0, -0.7, 0.3], [0.5, 0.1, 1.2]])[..., None],
                  3, axis=2)
    Jd = np.repeat(np.array([[-0.3, 0.8, 0.0], [1.1, 0.4, -0.6], [0.2, -0.9, 0.7]])[..., None],
                   3, axis=2)
    out = {}
    for name in ("bump", "bump_strong", "well"):
        ambient = geometry.DiagonalAmbient(3, np.arange(1, 4) / 3, geometry.PROFILES[name])
        acc, jvp = ambient.geodesic_rates(y, v, J, Jd)
        out[name] = {"acc": acc.T.tolist(), "jvp": np.moveaxis(jvp, -1, 0).tolist()}
    return out


def shot_ends():
    """The end point and the Jacobi fields J of ``ShotChart._shoot``, one
    geodesic at a time, on the warped 3-d chart at |X| = 0.24, 0.3 and 0.5
    times 1 -+ 1e-6, on either side of the lengths where the RK4 takes one
    more step (every 0.02 from 0.24 on), and on the S2 shooting oracle at
    one point."""
    import numpy as np
    from omtube import geometry

    warped = geometry.fermi_chart(
        geometry.warped_diagonal(3, "bump_strong"),
        geometry.constant_curve(T=0.005, point=[0.35, 0.15, -0.25]), 0.3)
    s2 = geometry.sphere(2, 1.0)
    oracle = geometry.fermi_chart(s2, geometry.constant_curve(T=0.5, point=[0.4, 0.2]), 0.5,
                                  method="shoot")
    dirs = np.array([[0.6, -0.48, 0.64], [-0.36, 0.48, 0.8], [0.0, 0.6, -0.8]])
    points = [(length * (1 + side)) * u for u, length in zip(dirs, (0.24, 0.3, 0.5))
              for side in (-1e-6, 1e-6)]
    out = {}
    for name, chart, pts in (("warped", warped, points), ("s2_oracle", oracle, [[0.3, -0.2]])):
        out[name] = []
        for x in pts:
            end, J = chart._shoot(0.0, np.array([x]))
            out[name].append({"x": list(x), "end": end[0].tolist(), "J": J[0].tolist()})
    return out


def s2_difference_routes():
    """The action on S2 of a field given without its divergence, and the
    S2 shooting oracle's metric at three points."""
    import numpy as np
    from omtube import geometry, om

    s2 = geometry.sphere(2, 1.0)
    circle = geometry.fermi_chart(s2, geometry.great_circle_curve(s2, 1.0, 0.5, n_grid=8), 0.5)
    field = om.DriftField(d=2, f=lambda t, x: np.stack(
        [np.sin(x[..., 0] + 0.5), x[..., 0] * x[..., 1] - 0.3 * x[..., 1] ** 3 + t], axis=-1))
    action = om.om_action(circle, field)
    oracle = geometry.fermi_chart(s2, geometry.constant_curve(T=0.5, point=[0.4, 0.2]), 0.5,
                                  method="shoot")
    pts = np.array([[0.01, -0.03], [0.11, 0.07], [-0.13, 0.02]])
    return {"action_fd_divergence": [action.value, action.error_est, action.kinetic,
                                     action.divergence, action.curvature],
            "oracle_metric": oracle.metric(0.0, pts).tolist()}


def coupled_records():
    """Every record of ``coupling.simulate_coupled_ensemble`` along the
    great circle of S2 without and with the rotational forms, and on S3
    without forms: 128 paths, seed 1, delta 0.3, 20 steps."""
    from omtube import coupling, geometry, om, sde

    cfg = sde.IntegratorConfig(dt=0.0015, T=0.03, delta=0.3, seed=1)
    s2 = geometry.sphere(2, 1.0)
    circle = geometry.fermi_chart(s2, geometry.great_circle_curve(s2, 1.0, cfg.T), 0.75)
    s3 = geometry.fermi_chart(geometry.sphere(3, 1.0), geometry.constant_curve(T=cfg.T), 0.75)
    runs = {"s2": (circle, None),
            "s2-rot-forms": (circle, om.girsanov_forms(circle, om.rotational_field(1.0))),
            "s3": (s3, None)}
    out = {}
    for name, (chart, forms) in runs.items():
        ens = coupling.simulate_coupled_ensemble(chart, cfg, 128, forms=forms)
        out[name] = {"h2_le_g_violations": ens.h2_le_g_violations,
                     "w0_identity_dev": ens.w0_identity_dev,
                     **{k: getattr(ens, k).tolist() for k in _COUPLED_ARRAYS}}
    return out


# the per-lane arrays of ``coupling.CoupledEnsemble``, named here so that
# trees whose ``coupling.RECORDS`` differ print the same entry
_COUPLED_ARRAYS = ("survived", "exit_time", "max_radial_gap", "uu_final", "sup_udiff",
                   "sup_radius", "udiff_final", "M_ito", "M_bracket", "L", "L_tilde",
                   "G_int", "nu", "ortho_cov", "uu_pred_gap")


def jmaps_apply():
    """``coupling.build_J(d).apply(u, w)`` for d = 1 to 4 on fixed inputs: a
    batch of seven points and one single point each (the workloads step the
    pair in d = 2 and 3 only)."""
    import numpy as np
    from omtube import coupling

    rng = np.random.default_rng(1)
    out = {}
    for d in range(1, 5):
        j = coupling.build_J(d)
        u, w = rng.standard_normal((7, d)), rng.standard_normal((7, j.n))
        out[str(d)] = {"batch": j.apply(u, w).tolist(), "point": j.apply(u[0], w[0]).tolist()}
    return out


def moment_deltas():
    """The rows of ``mc.conditional_moment_experiment`` along the great
    circle of S2 for one delta (seed 1, the ``moment-s2`` op's) and for an
    unsorted list of three that holds it (seed 2, so its rows pin bits of
    their own): 4096 paths, c = 1, T = 0.1, the default time step."""
    from omtube import geometry, mc, om

    s2 = geometry.sphere(2, 1.0)
    chart = geometry.fermi_chart(s2, geometry.great_circle_curve(s2, 1.0, 0.1, n_grid=64), 0.875)
    out = {}
    for deltas, seed in (([0.35], 1), ([0.3, 0.25, 0.35], 2)):
        rows, bounded = mc.conditional_moment_experiment(
            chart, om.zero_field(2), deltas=deltas, c=1.0, T=0.1, n_paths=4096, seed=seed)
        out[",".join(map(str, deltas))] = {"rows": rows, "bounded": bounded}
    return out


def difference_routes():
    """For a cubic field without an analytic divergence along the great
    circle of S2: ``coupling.stokes_consistency`` of one recorded X path
    (its forms take the finite-difference kernel), and ``om.alpha_kernel``
    and ``geometry.divergence_fd`` at three points.  Also ``Profile.deriv``
    of a custom callable at three radii, and ``velocity_frame`` at three
    times of an embedded circle of geodesic radius 0.3 on H3, whose frame
    is transported by RK4."""
    import math

    import numpy as np
    from omtube import coupling, geometry, om, sde

    s2 = geometry.sphere(2, 1.0)
    chart = geometry.fermi_chart(s2, geometry.great_circle_curve(s2, 1.0, 0.03), 0.75)
    cubic = om.DriftField(d=2, f=lambda t, x: np.stack(
        [0.5 * x[..., 1] ** 3 - x[..., 0], x[..., 0] ** 2 * x[..., 1] + 0.2 + t], axis=-1))
    path = sde.simulate_X(chart, cubic, sde.IntegratorConfig(
        dt=0.0015, T=0.03, delta=0.3, bridge_correction=True, seed=1, path_index=0))
    stokes = coupling.stokes_consistency(chart, om.girsanov_forms(chart, cubic), path)
    pts = np.array([[0.01, -0.03], [0.11, 0.07], [-0.13, 0.02]])
    divergence = geometry.divergence_fd(lambda p: cubic(0.01, p), pts, 1e-4 * chart.tube_radius)
    profile = geometry.Profile(name="custom", f=lambda r: 1.0 + 0.3 * r * r * np.cos(r))

    a = math.sinh(0.3)  # the circle of geodesic radius 0.3 about (1, 0, 0, 0)
    circle = geometry.embedded_curve(
        lambda t: np.array([math.cosh(0.3), a * math.cos(t), a * math.sin(t), 0.0]),
        lambda t: np.array([0.0, -a * math.sin(t), a * math.cos(t), 0.0]), T=1.0)
    h3 = geometry.fermi_chart(geometry.hyperbolic(3, 1.0), circle, 0.5)
    return {"stokes": stokes, "exit_time": path.exit_time,
            "alpha_kernel": om.alpha_kernel(chart, cubic, 0.01, pts).tolist(),
            "divergence_fd": divergence.tolist(),
            "profile_deriv": profile.deriv(np.array([0.0, 0.2, 0.45])).tolist(),
            "h3_velocity_frame": [h3.velocity_frame(t).tolist() for t in (0.0, 0.37, 0.9)]}


def radial_scalars():
    """sigma v, a, c and G of the H3 and S3 charts at nine radii from 5e-4
    to 1.3, on both sides of |K| rho^2 = 0.25, and the closed-form
    ``om.alpha_kernel`` of a linear field there, whose Gauss nodes s x
    cover both sides too."""
    import numpy as np
    from omtube import geometry, om

    radii = np.array([5e-4, 2e-3, 0.05, 0.12, 0.2, 0.45, 0.55, 0.9, 1.3])
    pts = np.random.default_rng(1).standard_normal((radii.size, 3))
    pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]
    v = np.resize([1.0, -0.5, 0.25, -0.3, 0.8, 0.6, 0.7, 0.1, -0.9], pts.shape)
    field = om.linear_field(np.array([[0.2, -1.0, 0.3], [0.9, -0.1, 0.5], [-0.4, 0.6, 0.3]]))
    out = {}
    for name, model in (("h3", geometry.hyperbolic(3, 1.0)), ("s3", geometry.sphere(3, 1.0))):
        chart = geometry.fermi_chart(model, geometry.constant_curve(T=1.0), 1.4)
        at = chart.at(0.0, pts)
        out[name] = {"sigma_v": at.sigma_apply(v).tolist(), "coriolis": at.coriolis().tolist(),
                     "bessel_drift": at.bessel_drift().tolist(), "G": at.G().tolist(),
                     "alpha_kernel": om.alpha_kernel(chart, field, 0.0, pts).tolist()}
    return out


def flat_series():
    """``sde.flat_ball_survival`` for d = 1 to 4 at the (delta, T) of the
    ratio workloads' cells and at T/delta^2 = 0.02 and 3."""
    from omtube import sde

    cells = ((0.25, 0.1), (0.3, 0.1), (0.35, 0.1), (0.1, 0.005), (0.5, 0.005), (0.2, 0.12))
    return {str(d): [sde.flat_ball_survival(d, delta, T) for delta, T in cells]
            for d in range(1, 5)}


def streams():
    """The first four ``standard_normal`` and ``random`` values of
    ``_rng.chunk_generator`` at (seed, chunk) = (0, 0), (1, 1) and
    (2**64 - 1, 3), and of ``_rng.path_generator`` at (1, 0) and (1, 5)."""
    from omtube import _rng

    keys = {"chunk": ((0, 0), (1, 1), (2 ** 64 - 1, 3)), "path": ((1, 0), (1, 5))}
    makers = {"chunk": _rng.chunk_generator, "path": _rng.path_generator}
    out = {}
    for kind, pairs in keys.items():
        for seed, index in pairs:
            gen = makers[kind](seed, index)
            out[f"{kind}:{seed}:{index}"] = {"normal": gen.standard_normal(4).tolist(),
                                             "random": gen.random(4).tolist()}
    return out


if __name__ == "__main__":
    main(sys.argv[1])
