"""Command-line entry point: experiment orchestration with structured output.

Every run writes a JSON artifact embedding the schema version, the package
version, and the fully resolved configuration, so identical (config, seed)
pairs produce bit-identical artifacts under any worker count
(``OMTUBE_THREADS`` caps the pool, a fork-inherited process pool, so
POSIX only).  Flags may be combined with an INI config file; flags
override file values.  The file holds one ``[run]`` section whose keys are
the flag names, read without regard to case and with ``-`` and ``_`` alike
(``T``, ``t``, ``tube-radius``, ``tube_radius``).  An unknown key or any
other section is refused.  Flag and file values are both read as text and
converted and checked in one place, ``resolve_config``.

Exit codes: 0 success, 2 invalid configuration, 3 estimation failure
(for example too few surviving paths); on estimation failure the partial
artifact is still written.
"""

import argparse
import configparser
import json
import math
import sys

import numpy as np

from . import __version__, coupling, geometry, mc, om, sde
from .errors import ConstructionError, EstimationError, OmtubeError

SCHEMA = 11


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "model": "euclidean",
    "dim": 2,
    "radius": 1.0,
    "curvature_scale": 1.0,
    "profile": "bump",
    "curve": "constant",
    "field": "zero",
    "T": 0.04,
    "delta": [0.2],
    "dt": None,
    "paths": 10000,
    "seed": 0,
    "trials": 1000,
    "c": 1.0,
    "tube_radius": None,
    "n_grid": 64,
    "bridge": True,
    "scheme": "euler_maruyama",
    "out": None,
    "csv": None,
    "dump": None,
    "max_dump": 100,
}

_NUMBERS = {**dict.fromkeys(("dim", "paths", "trials", "seed", "n_grid", "max_dump"), int),
            **dict.fromkeys(("radius", "curvature_scale", "T", "c", "dt", "tube_radius"),
                            float)}


def _number(key, v, kind):
    try:
        n = kind(v)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key}: expected a number, got {v!r}") from None
    # no bools, and no Python floats that int() would truncate
    if isinstance(v, bool) or kind is int and not isinstance(v, str) and n != v:
        raise ValueError(f"{key}: expected {'an integer' if kind is int else 'a number'}, got {v!r}")
    return n


def _parse_delta(text):
    if not isinstance(text, (list, tuple)):
        text = [v for v in str(text).split(",") if v.strip()]
    return [_number("delta", v, float) for v in text]


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _parse_bool(key, v):
    word = str(v).strip().lower()
    if word not in _BOOLS:
        raise ValueError(f"{key}: expected one of {', '.join(_BOOLS)}, got {v!r}")
    return _BOOLS[word]


def resolve_config(raw):
    """Convert and validate raw values (text or typed) and fill defaults;
    raises ValueError naming the field."""
    for key in raw:
        if key not in _DEFAULTS:
            raise ValueError(f"{key}: unknown option")
    cfg = dict(_DEFAULTS)
    cfg.update((k, v) for k, v in raw.items() if v is not None)
    for key, kind in _NUMBERS.items():
        if cfg[key] is not None:
            cfg[key] = _number(key, cfg[key], kind)
    cfg["bridge"] = _parse_bool("bridge", cfg["bridge"])
    cfg["delta"] = _parse_delta(cfg["delta"])
    if not 0 <= cfg["seed"] < 2 ** 64:
        raise ValueError(f"seed: must lie in [0, 2**64), got {cfg['seed']}")
    if not cfg["delta"]:
        raise ValueError("delta: needs at least one value")
    # numeric fields but seed must be finite, all but c positive
    numeric = [(key, cfg[key]) for key in _NUMBERS if key != "seed"]
    for key, v in numeric + [("delta", dv) for dv in cfg["delta"]]:
        if v is None:
            continue
        if not math.isfinite(v):
            raise ValueError(f"{key}: must be finite, got {v}")
        if key != "c" and v <= 0:
            raise ValueError(f"{key}: must be positive, got {v}")
    if cfg["model"] not in ("euclidean", "sphere", "hyperbolic", "warped"):
        raise ValueError(f"model: unknown kind {cfg['model']!r}")
    if cfg["scheme"] not in sde.SCHEMES:
        raise ValueError(f"scheme: unknown scheme {cfg['scheme']!r}")
    if cfg["tube_radius"] is None:
        top = max(cfg["delta"])
        bound = 2.5 * top
        if cfg["model"] == "sphere":
            inj = math.pi * cfg["radius"] / 2
            if top >= 0.98 * inj:
                raise ValueError(
                    f"delta: {top} does not fit inside the sphere chart bound {inj:.4g}")
            bound = min(bound, 0.98 * inj)
        cfg["tube_radius"] = max(bound, 1.25 * top)
    if max(cfg["delta"]) >= cfg["tube_radius"]:
        raise ValueError("delta: must stay below tube_radius")
    if cfg["dt"] is None:
        cfg["dt"] = float(sde._auto_dt(cfg["T"], cfg["delta"]))
    return cfg


def _build_model(cfg):
    kind = cfg["model"]
    if kind == "euclidean":
        return geometry.euclidean(cfg["dim"])
    if kind == "sphere":
        return geometry.sphere(cfg["dim"], cfg["radius"])
    if kind == "hyperbolic":
        return geometry.hyperbolic(cfg["dim"], cfg["curvature_scale"])
    return geometry.warped_diagonal(cfg["dim"], cfg["profile"])


def _build_curve(cfg, model):
    spec = str(cfg["curve"])
    T, n_grid = cfg["T"], cfg["n_grid"]
    if spec == "constant":
        return geometry.constant_curve(T, n_grid=n_grid)
    if spec.startswith("line:"):
        if model.kind != "euclidean":
            raise ValueError("curve: line curves need a euclidean model")
        v = np.array([float(s) for s in spec[5:].split(",")])
        if v.size != model.dim:
            raise ValueError(f"curve: line velocity needs {model.dim} components")
        return geometry.line_curve(v, T, n_grid=n_grid)
    if spec.startswith("circle:"):
        return geometry.great_circle_curve(model, float(spec[7:]), T, n_grid=n_grid)
    if spec.startswith("table:"):
        data = np.loadtxt(spec[6:], delimiter=",")
        return geometry.table_curve(data[:, 0], data[:, 1:], T=T, n_grid=n_grid)
    raise ValueError(f"curve: unknown specification {spec!r}")


def _build_field(cfg, model):
    spec = str(cfg["field"])
    d = model.dim
    if spec == "zero":
        return om.zero_field(d)
    if spec.startswith("linear:"):
        vals = [float(s) for s in spec[7:].split(",")]
        if len(vals) == 1:
            return om.linear_field(vals[0], d=d)
        if len(vals) != d * d:
            raise ValueError(f"field: linear matrix needs 1 or {d * d} entries")
        return om.linear_field(np.array(vals).reshape(d, d))
    if spec == "rotational" or spec.startswith("rotational:"):
        if d != 2:
            raise ValueError("field: rotational drift is 2-d only")
        w = float(spec.split(":")[1]) if ":" in spec else 1.0
        return om.rotational_field(w)
    if spec.startswith("table:"):
        with np.load(spec[6:]) as npz:
            axes = tuple(npz[f"axis{i}"] for i in range(d))
            return om.table_field(axes, npz["values"])
    raise ValueError(f"field: unknown specification {spec!r}")


def _setup(cfg):
    model = _build_model(cfg)
    try:
        curve = _build_curve(cfg, model)
        field = _build_field(cfg, model)
    except (ValueError, OSError) as e:  # malformed spec or unreadable table file
        raise ConstructionError(str(e)) from e
    return geometry.fermi_chart(model, curve, cfg["tube_radius"]), field


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_jmap_check(cfg):
    d = cfg["dim"]
    j = coupling.build_J(d)
    rng = np.random.default_rng(cfg["seed"])
    u = rng.standard_normal((cfg["trials"], d))
    un = u / np.linalg.norm(u, axis=1, keepdims=True)
    dev_a = max(float(np.max(np.abs(j.J[i].T @ j.J[i] - np.eye(d))))
                for i in range(d))
    Ju = j.apply(un)
    dev_b = float(np.max(np.abs(np.einsum("mia,mja->mij", Ju, Ju) - np.eye(d))))
    e0 = np.zeros(j.n)
    e0[0] = 1.0
    s = np.einsum("mi,mia->ma", u, j.apply(u))
    dev_c = float(np.max(np.abs(s - (np.linalg.norm(u, axis=1) ** 2)[:, None] * e0)))
    worst = max(dev_a, dev_b, dev_c)
    print(f"jmap-check dim={d} trials={cfg['trials']} "
          f"max deviation {worst:.3e} ({'ok' if worst < 1e-12 else 'FAIL'})")
    result = {"n": j.n, "dev_isometry": dev_a, "dev_orthonormal": dev_b,
              "dev_e0": dev_c, "passed": bool(worst < 1e-12)}
    return result, None, 0 if worst < 1e-12 else 1


def _cmd_expansions(cfg):
    chart, _ = _setup(cfg)
    radii = np.geomspace(0.5 * chart.tube_radius, 0.02 * chart.tube_radius, 8)
    out = {}
    for q in ("sigma_minus_expansion", "div_a_minus_limit", "div_c_minus_limit"):
        s = geometry.expansion_order_check(chart, q, radii, seed=cfg["seed"])
        out[q] = s
        print(f"expansions {cfg['model']}{cfg['dim']} {q}: "
              f"{s if isinstance(s, str) else f'slope {s:.3f}'}")
    return out, None, 0


def _cmd_smallball(cfg):
    delta = cfg["delta"][0]
    est = mc.estimate_tube_prob("bm", d=cfg["dim"], delta=delta, dt=cfg["dt"],
                                T=cfg["T"], n_paths=cfg["paths"], seed=cfg["seed"],
                                bridge_correction=cfg["bridge"], scheme=cfg["scheme"])
    ref = sde.bm_tube_survival_theta(delta, cfg["T"]) if cfg["dim"] == 1 else None
    line = (f"smallball d={cfg['dim']} delta={delta} T={cfg['T']}: "
            f"p_hat {est.p_hat:.5f} +- {est.se:.5f}")
    if ref is not None:
        line += f"   theta-series {ref:.6f}"
        if est.se > 0:  # p_hat 0 or 1 has no z
            line += f"   z {(est.p_hat - ref) / est.se:+.2f}"
    print(line)
    _maybe_dump(cfg, "bm", None, None)
    return {"estimate": est.to_dict(), "theta_reference": ref}, None, 0


def _cmd_ratio(cfg):
    chart, field = _setup(cfg)
    cells = []
    rows = []
    for delta in cfg["delta"]:
        r = mc.estimate_ratio(chart, field, delta=delta, dt=cfg["dt"],
                              n_paths=cfg["paths"], seed=cfg["seed"],
                              bridge_correction=cfg["bridge"], scheme=cfg["scheme"])
        cells.append(r)
        rows.append([delta, cfg["dt"], cfg["paths"], r.numerator.n_survive,
                     r.denominator.n_survive, r.ratio, r.ratio_se, r.predicted,
                     r.z_score])
        print(f"ratio delta={delta} dt={cfg['dt']:.3g}: {r.ratio:.5f} +- "
              f"{r.ratio_se:.5f}   predicted {r.predicted:.5f}   z {r.z_score:+.2f}")
    result = {"cells": [c.to_dict() for c in cells]}
    if len(cells) >= 3:
        ex = mc.extrapolate_ratio(cells)
        result["extrapolation"] = ex.to_dict()
        print(f"ratio extrapolated limit {ex.limit:.5f} +- {ex.limit_se:.5f}"
              f"{'   (low confidence)' if ex.low_confidence else ''}")
    csv_rows = [["delta", "dt", "paths", "num_survive", "den_survive", "ratio",
                 "ratio_se", "predicted", "z_score"]] + rows
    _maybe_dump(cfg, "x", chart, field)
    return result, csv_rows, 0


# the coupled records that ``couple`` reports
_COUPLE_RECORDS = ("max_radial_gap", "ortho_cov", "sup_udiff", "h2_le_g_violations",
                   "w0_identity_dev")


def _cmd_couple(cfg):
    chart, field = _setup(cfg)
    rows = [list(coupling.DIAGNOSTICS_HEADER)]
    out = []
    for delta in cfg["delta"]:
        ens = mc.run_coupled(chart, field, delta=delta, dt=cfg["dt"], T=cfg["T"],
                             n_paths=cfg["paths"], seed=cfg["seed"], records=_COUPLE_RECORDS)
        oc = ens.ortho_cov
        ose = float(np.std(oc, ddof=1) / math.sqrt(len(oc))) if len(oc) > 1 else 0.0
        ostat = float(np.mean(oc) / ose) if ose > 0 else 0.0
        scaled = ens.sup_udiff / math.sqrt(delta)
        qs = np.quantile(scaled, [0.5, 0.9, 0.99])
        rows.append([delta, cfg["dt"], ens.n_paths, ens.n_survive,
                     float(np.max(ens.max_radial_gap)), ostat,
                     ens.h2_le_g_violations, *[float(q) for q in qs]])
        out.append({"delta": delta, "survivors": ens.n_survive,
                    "radial_gap_max": float(np.max(ens.max_radial_gap)),
                    "orthogonality_stat": ostat,
                    "h2_le_g_violations": ens.h2_le_g_violations,
                    "w0_identity_dev": ens.w0_identity_dev})
        print(f"couple delta={delta}: survivors {ens.n_survive}/{ens.n_paths} "
              f"gap_max {np.max(ens.max_radial_gap):.3e} "
              f"H2<=G violations {ens.h2_le_g_violations}")
    return {"cells": out}, rows, 0


def _cmd_weight(cfg):
    chart, field = _setup(cfg)
    delta = cfg["delta"][0]
    ens = mc.run_coupled(chart, field, delta=delta, dt=cfg["dt"], T=cfg["T"],
                         n_paths=cfg["paths"], seed=cfg["seed"],
                         records=coupling.FORM_RECORDS)
    w = mc.estimate_girsanov_weight(ens)
    print(f"weight delta={delta}: E[exp(M+L)|tube] {w.mean_weight:.5f} +- {w.se:.5f} "
          f"(survivors {w.n_survive}, jensen lower {w.jensen_lower:.5f})")
    return w.to_dict(), None, 0


def _cmd_moment(cfg):
    chart, field = _setup(cfg)
    rows, bounded = mc.conditional_moment_experiment(
        chart, field, deltas=cfg["delta"], c=cfg["c"], T=cfg["T"],
        n_paths=cfg["paths"], seed=cfg["seed"], dt=cfg["dt"])
    csv_rows = [["delta", "estimate", "se", "n_survive"]]
    for r in rows:
        csv_rows.append([r["delta"], r["estimate"], r["se"], r["n_survive"]])
        print(f"moment delta={r['delta']}: {r['estimate']:.5f} +- {r['se']:.5f} "
              f"(survivors {r['n_survive']})")
    print(f"moment bounded across deltas: {bounded}")
    return {"rows": rows, "bounded": bounded}, csv_rows, 0


def _maybe_dump(cfg, kind, chart, field):
    if not cfg.get("dump"):
        return
    n = min(cfg["max_dump"], cfg["paths"])
    paths = []
    for i in range(n):
        pc = sde.IntegratorConfig(dt=cfg["dt"], T=cfg["T"], delta=cfg["delta"][0],
                                  bridge_correction=cfg["bridge"],
                                  seed=cfg["seed"], path_index=i)
        if kind == "bm":
            paths.append(sde.simulate_bm(cfg["dim"], pc))
        else:
            paths.append(sde.simulate_X(chart, field, pc))
    with open(cfg["dump"], "w") as fh:
        sde.dump_paths_ndjson(fh, paths, max_paths=n)


_COMMANDS = {
    "jmap-check": _cmd_jmap_check,
    "expansions": _cmd_expansions,
    "smallball": _cmd_smallball,
    "ratio": _cmd_ratio,
    "couple": _cmd_couple,
    "weight": _cmd_weight,
    "moment": _cmd_moment,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_HELP = {"delta": "tube radius or comma list", "out": "JSON artifact path",
         "csv": "CSV artifact path", "dump": "NDJSON path dump (debugging)"}


def build_parser():
    """One flag ``--x-y`` per config key ``x_y``; values stay text for
    ``resolve_config``."""
    p = argparse.ArgumentParser(prog="omtube",
                                description="tube-probability experiments for "
                                            "diffusions on Riemannian manifolds")
    p.add_argument("--version", action="version", version=f"omtube {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="INI file with a [run] section")
        for key in _DEFAULTS:
            if key != "bridge":
                sp.add_argument("--" + key.replace("_", "-"), help=_HELP.get(key))
        sp.add_argument("--bridge", action="store_true", default=None)
        sp.add_argument("--no-bridge", dest="bridge", action="store_false")
    return p


def _load_config_file(path):
    """The ``[run]`` section of an INI file, keyed by option name."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"config: cannot read {path!r}")
    for section in parser.sections():
        if section != "run":
            raise ValueError(f"config: unknown section [{section}]; options go in [run]")
    names = {k.lower(): k for k in _DEFAULTS}
    return {names.get(k.replace("-", "_"), k): v for k, v in parser.items("run")}


def _write_artifacts(cfg, command, result, csv_rows, status):
    # artifact paths are I/O destinations, not experiment configuration;
    # excluding them keeps artifacts bit-identical for identical runs
    echo = {k: cfg[k] for k in sorted(_DEFAULTS) if k not in ("out", "csv", "dump")}
    artifact = {"schema": SCHEMA, "version": __version__, "command": command,
                "config": echo, "status": status, "results": result}
    text = json.dumps(artifact, sort_keys=True, indent=1, default=float)
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(text + "\n")
    if cfg.get("csv") and csv_rows:
        import csv as _csv

        with open(cfg["csv"], "w", newline="") as fh:
            _csv.writer(fh).writerows(csv_rows)
    return artifact


def main(argv=None):
    args = build_parser().parse_args(argv)
    raw = {k: v for k, v in vars(args).items()
           if k not in ("command", "config") and v is not None}
    try:
        if args.config:
            raw = {**_load_config_file(args.config), **raw}
        cfg = resolve_config(raw)
    except (ValueError, configparser.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    fn = _COMMANDS[args.command]
    try:
        result, csv_rows, code = fn(cfg)
        _write_artifacts(cfg, args.command, result, csv_rows,
                         "ok" if code == 0 else "failed")
        return code
    except EstimationError as e:
        print(f"estimation error: {e}", file=sys.stderr)
        _write_artifacts(cfg, args.command, {"error": str(e)}, None,
                         "estimation_error")
        return 3
    except OmtubeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
