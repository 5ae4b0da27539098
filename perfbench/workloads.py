"""The benchmark's workloads: seeded configs, the omtube calls of one op, and
the checks its results must pass.

This module imports only the standard library at import time.  ``setup``
and ``run`` import omtube lazily, so an op process pays the package import
inside its timed set-up phase, and ``run.py`` can build configs without
importing numpy.

Each op makes the same public calls as the matching ``omtube`` subcommand;
``ratio-warped3`` makes the calls a user of the library would make, since
the CLI cannot build a ``PrecomputedChart``.  Sizes are chosen so that one
op takes a few seconds on a 2-core machine and many ops fit in one run.
"""

import math

# |z| of a ratio cell against exp(-S).  At finite delta the ratio differs
# from exp(-S) by an O(delta) bias besides the binomial noise, so the bound
# flags a broken estimator (|z| in the tens), not the paper's limit.
Z_BOUND = 4.0
# The e0 identity <U, dB> = dW0 holds to rounding; 1e-12 is ~1e4 ulps.
W0_DEV_BOUND = 1e-12


def _auto_dt(T, deltas):
    """dt as ``omtube`` resolves it: T split into round steps, dt <= min(delta)^2/50."""
    target = min(d ** 2 / 50 for d in deltas)
    return T / max(1, math.ceil(T / target))


def _sphere_tube_radius(deltas, radius=1.0):
    """tube_radius as ``omtube`` resolves it on a sphere model."""
    top = max(deltas)
    bound = min(2.5 * top, 0.98 * math.pi * radius / 2)
    return max(bound, 1.25 * top)


class Workload:
    """One named workload; subclasses supply the config and the op's calls."""

    name = ""
    why = ""
    threads = 1  # OMTUBE_THREADS of the untraced op

    def make_config(self, seed, **sizes):
        """The op's full input, a JSON-able dict; ``sizes`` override size keys
        such as ``paths`` (the harness tests run tiny ops this way)."""
        cfg = {**self.base_config(), **sizes}
        cfg["workload"] = self.name
        cfg["seed"] = int(seed)
        return cfg

    def base_config(self):
        raise NotImplementedError

    def setup(self, cfg):
        """Import omtube and build chart and field; returns the op state."""
        raise NotImplementedError

    def run(self, state, cfg):
        """Make the estimator calls; returns (results, headline relative SE).

        The headline relative SE sets tts_1pct_s.  It must be a steady
        function of the seed: the ratio workloads use binomial SEs, which
        are; the conditional means of the coupled workloads take their SE
        from a sample standard deviation, which varies by a third across
        seeds at these sizes, so they use 1/sqrt(survivors), the relative
        SE of a unit-variance conditional mean over the same survivors.
        """
        raise NotImplementedError

    def check(self, results):
        """Problems found in one op's results; empty when the op is correct."""
        problems = [f"non-finite {k}" for k, v in self.estimates(results)
                    if not math.isfinite(v)]
        return problems + self._check(results)

    def estimates(self, results):
        """(name, value) of every estimate and standard error in the results."""
        raise NotImplementedError

    def _check(self, results):
        return []


def sphere_s2(cfg):
    from omtube import geometry, om

    model = geometry.sphere(2, 1.0)
    curve = geometry.great_circle_curve(model, cfg["speed"], cfg["T"], n_grid=64)
    chart = geometry.fermi_chart(model, curve, cfg["tube_radius"])
    field = om.rotational_field(1.0) if cfg["field"] == "rotational" else om.zero_field(2)
    return {"chart": chart, "field": field}


def shot_chart(cfg):
    """The warped chart before tabulation: every evaluation shoots geodesics."""
    from omtube import geometry

    model = geometry.warped_diagonal(3, cfg["profile"])
    curve = geometry.constant_curve(T=cfg["T"], point=cfg["point"])
    return geometry.fermi_chart(model, curve, cfg["tube_radius"])


def _ratio_estimates(cells):
    for i, c in enumerate(cells):
        yield f"cell{i}.ratio", c["ratio"]
        yield f"cell{i}.ratio_se", c["ratio_se"]
        for leg in ("numerator", "denominator"):
            yield f"cell{i}.{leg}.p_hat", c[leg]["p_hat"]
            yield f"cell{i}.{leg}.se", c[leg]["se"]


def _ratio_cells(cells):
    problems = []
    for c in cells:
        if abs(c["z_score"]) > Z_BOUND:
            problems.append(f"delta={c['numerator']['delta']}: |z| = "
                            f"{abs(c['z_score']):.2f} > {Z_BOUND}")
    return problems


class RatioS2(Workload):
    name = "ratio-s2"
    why = ("omtube ratio on S2 over three deltas with a 2-process pool: X step, "
           "BM leg, bridge exit rule, Philox streams and the pool")
    threads = 2

    def base_config(self):
        deltas = [0.25, 0.3, 0.35]
        T = 0.1
        return {"T": T, "deltas": deltas, "dt": _auto_dt(T, deltas),
                "tube_radius": _sphere_tube_radius(deltas), "speed": 1.0,
                "field": "zero", "paths": 65536}

    def setup(self, cfg):
        return sphere_s2(cfg)

    def run(self, state, cfg):
        from omtube import mc

        cells = [mc.estimate_ratio(state["chart"], state["field"], delta=delta,
                                   dt=cfg["dt"], n_paths=cfg["paths"],
                                   seed=cfg["seed"], bridge_correction=True,
                                   scheme="euler_maruyama")
                 for delta in cfg["deltas"]]
        ex = mc.extrapolate_ratio(cells)
        results = {"cells": [c.to_dict() for c in cells], "extrapolation": ex.to_dict()}
        # the smallest delta's cell is the noisiest; the three-point limit
        # interpolates (no degrees of freedom) and its SE is not an estimator SE
        return results, max(c.ratio_se / c.ratio for c in cells)

    def estimates(self, results):
        ex = results["extrapolation"]
        return [*_ratio_estimates(results["cells"]),
                ("limit", ex["limit"]), ("limit_se", ex["limit_se"])]

    def _check(self, results):
        return _ratio_cells(results["cells"])


class WeightS2Rot(Workload):
    name = "weight-s2-rot"
    why = ("omtube weight with the rotational field on S2: coupled pair with "
           "forms, dominated by om.alpha_kernel")

    def base_config(self):
        deltas = [0.3]
        T = 0.1
        return {"T": T, "deltas": deltas, "dt": _auto_dt(T, deltas),
                "tube_radius": _sphere_tube_radius(deltas), "speed": 1.0,
                "field": "rotational", "paths": 2048}

    def setup(self, cfg):
        return sphere_s2(cfg)

    def run(self, state, cfg):
        from omtube import mc

        ens = mc.run_coupled(state["chart"], state["field"], delta=cfg["deltas"][0],
                             dt=cfg["dt"], T=cfg["T"], n_paths=cfg["paths"],
                             seed=cfg["seed"])
        w = mc.estimate_girsanov_weight(ens)
        results = {"weight": w.to_dict(),
                   "h2_le_g_violations": ens.h2_le_g_violations,
                   "w0_identity_dev": ens.w0_identity_dev}
        return results, 1 / math.sqrt(w.n_survive)

    def estimates(self, results):
        w = results["weight"]
        return [(k, w[k]) for k in ("mean_weight", "se", "mean_M", "mean_L",
                                    "mean_L_tilde", "jensen_lower")]

    def _check(self, results):
        problems = []
        if results["h2_le_g_violations"] != 0:
            problems.append(f"{results['h2_le_g_violations']} H2 <= G violations")
        if results["w0_identity_dev"] > W0_DEV_BOUND:
            problems.append(f"w0_identity_dev {results['w0_identity_dev']:.3g} "
                            f"> {W0_DEV_BOUND}")
        return problems


class MomentS2(Workload):
    name = "moment-s2"
    why = ("omtube moment on S2 over three deltas: the coupled pair without "
           "forms, so kernel changes must not move it")

    def base_config(self):
        deltas = [0.25, 0.3, 0.35]
        T = 0.1
        return {"T": T, "deltas": deltas, "tube_radius": _sphere_tube_radius(deltas),
                "speed": 1.0, "field": "zero", "c": 1.0, "paths": 16384}

    def setup(self, cfg):
        return sphere_s2(cfg)

    def run(self, state, cfg):
        from omtube import mc

        rows, bounded = mc.conditional_moment_experiment(
            state["chart"], state["field"], deltas=cfg["deltas"], c=cfg["c"],
            T=cfg["T"], n_paths=cfg["paths"], seed=cfg["seed"])
        return ({"rows": rows, "bounded": bounded},
                1 / math.sqrt(min(r["n_survive"] for r in rows)))

    def estimates(self, results):
        return [(f"row{i}.{k}", r[k]) for i, r in enumerate(results["rows"])
                for k in ("estimate", "se")]

    def _check(self, results):
        return [] if results["bounded"] else ["moment estimates not bounded across deltas"]


class RatioWarped3(Workload):
    name = "ratio-warped3"
    why = ("mc.estimate_ratio on a PrecomputedChart of a warped 3-d model: the "
           "only numerical chart, set-up dominated by the grid build")

    def base_config(self):
        deltas = [0.1]
        T = 0.005
        return {"T": T, "deltas": deltas, "dt": _auto_dt(T, deltas),
                "tube_radius": 0.3, "point": [0.35, 0.15, -0.25],
                "profile": "bump_strong", "n_nodes": 15, "paths": 2048}

    def setup(self, cfg):
        from omtube import geometry, om

        chart = geometry.PrecomputedChart(shot_chart(cfg), n_nodes=cfg["n_nodes"])
        return {"chart": chart, "field": om.zero_field(3)}

    def run(self, state, cfg):
        from omtube import mc

        cell = mc.estimate_ratio(state["chart"], state["field"], delta=cfg["deltas"][0],
                                 dt=cfg["dt"], n_paths=cfg["paths"], seed=cfg["seed"])
        return {"cells": [cell.to_dict()]}, cell.ratio_se / cell.ratio

    def estimates(self, results):
        return list(_ratio_estimates(results["cells"]))

    def _check(self, results):
        return _ratio_cells(results["cells"])


WORKLOADS = {w.name: w for w in (RatioS2(), WeightS2Rot(), MomentS2(), RatioWarped3())}
