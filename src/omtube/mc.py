"""Monte Carlo estimators: tube probabilities, the ratio against
exp(-S(gamma)), conditional measure-change weights, conditional moments of
the coupled spherical separation, and extrapolation of the ratio to
vanishing tube radius.

Estimation policy: plain rejection conditioning (no importance sampling or
splitting), binomial standard errors, numerator and denominator legs always
sharing the time step and the exit-monitoring scheme so the
discrete-monitoring bias cancels in the ratio.  All estimators are
deterministic functions of (seed, configuration), and ensembles can fan
out over a process pool (``OMTUBE_THREADS``) without changing any output
bit: chunk streams are keyed by path block, and reductions are combined in
block order.
"""

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _rng, coupling, geometry, om, sde
from .errors import ConstructionError, EstimationError, InsufficientSamplesError

__all__ = [
    "TubeEstimate",
    "RatioResult",
    "ExtrapolationResult",
    "GirsanovWeightEstimate",
    "estimate_tube_prob",
    "estimate_ratio",
    "extrapolate_ratio",
    "estimate_girsanov_weight",
    "conditional_moment_experiment",
    "bootstrap_ratio_se",
    "holder_exponent",
]


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class TubeEstimate:
    """Rejection estimate of a tube-survival probability."""

    p_hat: float
    se: float
    n_paths: int
    n_survive: int
    delta: float
    dt: float
    T: float
    process: str = ""
    warning: str = None
    exit_times: np.ndarray = None

    def to_dict(self):
        return {"p_hat": self.p_hat, "se": self.se, "n_paths": self.n_paths,
                "n_survive": self.n_survive, "delta": self.delta, "dt": self.dt,
                "T": self.T, "process": self.process, "warning": self.warning}


@dataclass
class RatioResult:
    """Tube-probability ratio with its prediction exp(-S(gamma))."""

    numerator: TubeEstimate
    denominator: TubeEstimate
    ratio: float
    ratio_se: float
    predicted: float
    action: om.ActionResult
    z_score: float

    @property
    def delta(self):
        return self.numerator.delta

    def to_dict(self):
        return {"numerator": self.numerator.to_dict(),
                "denominator": self.denominator.to_dict(),
                "ratio": self.ratio, "ratio_se": self.ratio_se,
                "predicted": self.predicted, "z_score": self.z_score,
                "action": {"value": self.action.value,
                           "error_est": self.action.error_est,
                           "kinetic": self.action.kinetic,
                           "divergence": self.action.divergence,
                           "curvature": self.action.curvature}}


@dataclass
class ExtrapolationResult:
    """Weighted fit of log ratio = log limit + a sqrt(delta) + b delta."""

    limit: float
    limit_se: float
    coef_sqrt: float
    coef_lin: float
    residual: float
    dof: int
    low_confidence: bool

    def to_dict(self):
        return {"limit": self.limit, "limit_se": self.limit_se,
                "coef_sqrt": self.coef_sqrt, "coef_lin": self.coef_lin,
                "residual": self.residual, "dof": self.dof,
                "low_confidence": self.low_confidence}


@dataclass
class GirsanovWeightEstimate:
    """Conditional mean of exp(M + L) over tube-surviving coupled paths."""

    mean_weight: float
    se: float
    mean_M: float
    mean_L: float
    mean_L_tilde: float
    p_holder: float
    jensen_lower: float
    n_survive: int
    delta: float

    def to_dict(self):
        return {"mean_weight": self.mean_weight, "se": self.se,
                "mean_M": self.mean_M, "mean_L": self.mean_L,
                "mean_L_tilde": self.mean_L_tilde, "p_holder": self.p_holder,
                "jensen_lower": self.jensen_lower, "n_survive": self.n_survive,
                "delta": self.delta}


def holder_exponent(delta):
    """p = 1 / (1 - 2 sqrt(delta)), the exponent pairing with two sqrt(delta) factors."""
    if delta >= 0.25:
        return float("nan")
    return 1.0 / (1.0 - 2.0 * math.sqrt(delta))


# ---------------------------------------------------------------------------
# worker-pool plumbing
# ---------------------------------------------------------------------------

def _resolve_threads(threads):
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("OMTUBE_THREADS", "1")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _chart_payload(chart, field):
    """Descriptor payload for worker-side rebuild, or None when not possible.

    Only closed-form charts are rebuilt from descriptors: a worker would
    rebuild a shot chart or a ``PrecomputedChart`` as a different chart.
    """
    if chart is None:
        return {"model": None, "field": None}
    if not chart.is_radial:
        return None
    curve = chart.curve
    if curve.kind not in ("constant", "line", "great_circle", "table"):
        return None
    if field is not None and field.kind not in ("zero", "linear", "rotational"):
        return None
    return {
        "model": chart.model.describe(),
        "tube_radius": chart.tube_radius,
        "curve": curve.describe(),
        "curve_point": None if curve.params.get("point") is None
        else np.asarray(curve.params["point"]).tolist(),
        "field": None if field is None else field.describe(),
    }


def rebuild_setup(payload):
    """Rebuild (chart, field) from a descriptor payload (worker side)."""
    if payload["model"] is None:
        return None, None
    m = payload["model"]
    kind = m["kind"]
    if kind == "euclidean":
        model = geometry.euclidean(m["dim"])
    elif kind == "sphere":
        model = geometry.sphere(m["dim"], m["radius"])
    elif kind == "hyperbolic":
        model = geometry.hyperbolic(m["dim"], m["curvature_scale"])
    else:
        model = geometry.warped_diagonal(m["dim"], m["profile"])
    c = payload["curve"]
    if c["kind"] == "constant":
        curve = geometry.constant_curve(c["T"], point=payload.get("curve_point"),
                                        n_grid=c["n_grid"])
    elif c["kind"] == "line":
        curve = geometry.line_curve(np.asarray(c["v"]), c["T"], n_grid=c["n_grid"],
                                    origin=np.asarray(c["origin"]))
    elif c["kind"] == "great_circle":
        curve = geometry.great_circle_curve(model, c["speed"], c["T"], n_grid=c["n_grid"])
    elif c["kind"] == "table":
        curve = geometry.table_curve(np.asarray(c["times"]), np.asarray(c["points"]),
                                     T=c["T"], n_grid=c["n_grid"])
    else:
        raise ConstructionError(f"cannot rebuild curve kind {c['kind']!r}")
    chart = geometry.fermi_chart(model, curve, payload["tube_radius"])
    f = payload["field"]
    if f is None:
        field = None
    elif f["kind"] == "zero":
        field = om.zero_field(f["d"])
    elif f["kind"] == "linear":
        field = om.linear_field(np.asarray(f["A"]))
    elif f["kind"] == "rotational":
        field = om.rotational_field(f["omega"])
    else:
        raise ConstructionError(f"cannot rebuild field kind {f['kind']!r}")
    return chart, field


def _tube_job(args):
    payload, kind, d, cfg_kw, n_paths, chunk_range, want_exit = args
    chart, field = rebuild_setup(payload)
    cfg = sde.IntegratorConfig(**cfg_kw)
    res = sde.run_tube_ensemble(kind, d, cfg, n_paths, chart=chart,
                                drift_field=field, chunk_range=chunk_range,
                                want_exit_times=want_exit)
    return res.n_paths, res.n_survive, res.exit_times, res.T


def _coupled_job(args):
    payload, cfg_kw, n_paths, chunk_range, with_forms = args
    chart, field = rebuild_setup(payload)
    forms = om.girsanov_forms(chart, field or om.zero_field(chart.d)) if with_forms else None
    cfg = sde.IntegratorConfig(**cfg_kw)
    return coupling.simulate_coupled_ensemble(chart, cfg, n_paths, forms=forms,
                                              chunk_range=chunk_range)


def _chunk_slices(n_paths, threads):
    n_chunks = (n_paths + _rng.CHUNK - 1) // _rng.CHUNK
    per = (n_chunks + threads - 1) // threads
    return [(j, min(j + per, n_chunks)) for j in range(0, n_chunks, per)]


def _run_pool(job_fn, payload_args, threads):
    if threads == 1 or len(payload_args) == 1:
        return [job_fn(a) for a in payload_args]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(job_fn, payload_args))


# ---------------------------------------------------------------------------
# tube-probability estimation
# ---------------------------------------------------------------------------

def estimate_tube_prob(process, *, chart=None, field=None, d=None, delta, dt,
                       T=None, n_paths, seed=0, bridge_correction=True,
                       scheme="euler_maruyama", threads=None,
                       keep_exit_times=False):
    """Rejection Monte Carlo estimate of a tube-survival probability.

    process: "x" (lifted diffusion), "y" (radial reference), or "bm".
    """
    if n_paths < 1000:
        raise EstimationError("tube estimation needs at least 1e3 paths")
    process = process.lower()
    if process in ("x", "y"):
        if chart is None:
            raise ConstructionError(f"process {process!r} needs a chart")
        d = chart.d
    elif d is None:
        raise ConstructionError("plain BM needs the dimension d")
    threads = _resolve_threads(threads)
    cfg_kw = dict(dt=dt, T=T, delta=delta, bridge_correction=bridge_correction,
                  seed=seed, scheme=scheme)
    payload = _chart_payload(chart, field) if process == "x" else _chart_payload(chart, None)
    if process == "bm":
        payload = {"model": None, "field": None}
    if threads > 1 and payload is None:
        warnings.warn("chart/field not descriptor-rebuildable; running single-threaded")
        threads = 1

    if threads == 1:
        cfg = sde.IntegratorConfig(**cfg_kw)
        res = sde.run_tube_ensemble(process, d, cfg, n_paths, chart=chart,
                                    drift_field=field if process == "x" else None,
                                    want_exit_times=keep_exit_times)
        n_tot, n_surv = res.n_paths, res.n_survive
        exit_times = res.exit_times
        T_res = res.T
    else:
        slices = _chunk_slices(n_paths, threads)
        args = [(payload, process, d, cfg_kw, n_paths, s, keep_exit_times)
                for s in slices]
        parts = _run_pool(_tube_job, args, threads)
        n_tot = sum(p[0] for p in parts)
        n_surv = sum(p[1] for p in parts)
        exit_times = (np.concatenate([p[2] for p in parts])
                      if keep_exit_times else None)
        T_res = parts[0][3]

    p_hat = n_surv / n_tot
    se = math.sqrt(p_hat * (1 - p_hat) / n_tot)
    warning = None
    if n_surv < 100:
        warning = f"only {n_surv} surviving paths; conditional statistics unreliable"
    return TubeEstimate(p_hat=p_hat, se=se, n_paths=n_tot, n_survive=n_surv,
                        delta=delta, dt=dt, T=T_res, process=process,
                        warning=warning, exit_times=exit_times)


def estimate_ratio(chart, field, *, delta, dt, n_paths, seed=0,
                   bridge_correction=True, scheme="euler_maruyama",
                   threads=None, share_streams=False):
    """Tube-probability ratio of the lifted diffusion against flat BM.

    Both legs use the same dt, the same horizon, and the same monitoring
    scheme; they draw from independent streams unless ``share_streams``
    (exactly valid only in the flat case, where the two processes then
    coincide pathwise).
    """
    field = field or om.zero_field(chart.d)
    T = chart.curve.T
    seeds = (seed, seed) if share_streams else (_rng.leg_seed(seed, 0),
                                                _rng.leg_seed(seed, 1))
    num = estimate_tube_prob("x", chart=chart, field=field, delta=delta, dt=dt,
                             T=T, n_paths=n_paths, seed=seeds[0],
                             bridge_correction=bridge_correction, scheme=scheme,
                             threads=threads)
    den = estimate_tube_prob("bm", d=chart.d, delta=delta, dt=dt, T=T,
                             n_paths=n_paths, seed=seeds[1],
                             bridge_correction=bridge_correction, scheme=scheme,
                             threads=threads)
    if num.n_survive == 0 or den.n_survive == 0:
        raise EstimationError(
            f"zero survivors (numerator {num.n_survive}, denominator "
            f"{den.n_survive}) at delta={delta}, T={T}; the tube event is too rare "
            "for rejection sampling at this sample size")
    ratio = num.p_hat / den.p_hat
    rel = math.sqrt((num.se / num.p_hat) ** 2 + (den.se / den.p_hat) ** 2)
    ratio_se = ratio * rel
    action = om.om_action(chart, field)
    predicted = action.predicted_ratio()
    z = (ratio - predicted) / ratio_se if ratio_se > 0 else float("inf")
    return RatioResult(numerator=num, denominator=den, ratio=ratio,
                       ratio_se=ratio_se, predicted=predicted, action=action,
                       z_score=z)


def extrapolate_ratio(results):
    """Extrapolate finite-tube ratios to delta -> 0.

    Accepts RatioResult objects or (delta, ratio, ratio_se) triples; fits
    log ratio = log limit + a sqrt(delta) + b delta by weighted least
    squares.  With exactly three inputs the fit interpolates (zero degrees
    of freedom) and the result is flagged low-confidence.
    """
    rows = []
    for r in results:
        if isinstance(r, RatioResult):
            rows.append((r.delta, r.ratio, r.ratio_se))
        else:
            rows.append(tuple(r))
    if len(rows) < 3:
        raise EstimationError("extrapolation needs at least 3 delta values")
    deltas = np.array([r[0] for r in rows], dtype=float)
    ratios = np.array([r[1] for r in rows], dtype=float)
    ses = np.array([r[2] for r in rows], dtype=float)
    if np.any(ratios <= 0) or not np.all(np.isfinite(ratios)):
        raise EstimationError("extrapolation needs finite positive ratios")
    if np.any(ses <= 0) or not np.all(np.isfinite(ses)):
        raise EstimationError("extrapolation needs finite positive standard errors; "
                              "a zero SE would give its cell unbounded weight")
    y = np.log(ratios)
    sig = ses / ratios
    X = np.stack([np.ones_like(deltas), np.sqrt(deltas), deltas], axis=1)
    W = 1.0 / sig ** 2
    XtW = X.T * W
    cov = np.linalg.inv(XtW @ X)
    beta = cov @ (XtW @ y)
    resid = y - X @ beta
    dof = len(rows) - 3
    chi2 = float(np.sum(W * resid ** 2))
    low_conf = (dof == 0) or (dof > 0 and chi2 / dof > 4.0)
    limit = float(np.exp(beta[0]))
    limit_se = limit * float(np.sqrt(cov[0, 0]))
    return ExtrapolationResult(limit=limit, limit_se=limit_se,
                               coef_sqrt=float(beta[1]), coef_lin=float(beta[2]),
                               residual=float(np.sqrt(np.mean(resid ** 2))),
                               dof=dof, low_confidence=low_conf)


# ---------------------------------------------------------------------------
# conditional estimators over coupled ensembles
# ---------------------------------------------------------------------------

def run_coupled(chart, field, *, delta, dt, T=None, n_paths, seed=0,
                with_forms=True, threads=None):
    """Coupled ensemble with optional measure-change bookkeeping (pooled)."""
    threads = _resolve_threads(threads)
    cfg_kw = dict(dt=dt, T=T, delta=delta, bridge_correction=False, seed=seed)
    payload = _chart_payload(chart, field)
    if threads > 1 and payload is None:
        warnings.warn("chart/field not descriptor-rebuildable; running single-threaded")
        threads = 1
    if threads == 1:
        forms = om.girsanov_forms(chart, field or om.zero_field(chart.d)) \
            if with_forms else None
        cfg = sde.IntegratorConfig(**cfg_kw)
        return coupling.simulate_coupled_ensemble(chart, cfg, n_paths, forms=forms)
    slices = _chunk_slices(n_paths, threads)
    args = [(payload, cfg_kw, n_paths, s, with_forms) for s in slices]
    parts = _run_pool(_coupled_job, args, threads)
    return _merge_coupled(parts)


def _merge_coupled(parts):
    first = parts[0]
    arrays = {}
    for name in ("survived", "exit_time", "max_radial_gap", "uu_final",
                 "sup_udiff", "udiff_final", "M_ito", "M_bracket", "L",
                 "L_tilde", "G_int", "nu", "ortho_cov", "uu_pred_gap"):
        arrays[name] = np.concatenate([getattr(p, name) for p in parts])
    return coupling.CoupledEnsemble(
        n_paths=int(arrays["survived"].size), delta=first.delta, dt=first.dt,
        T=first.T,
        h2_le_g_violations=sum(p.h2_le_g_violations for p in parts),
        w0_identity_dev=max(p.w0_identity_dev for p in parts), **arrays)


def estimate_girsanov_weight(ensemble):
    """Conditional mean of exp(M(T) + L(T)) over tube-surviving paths."""
    surv = ensemble.survived
    n = int(np.count_nonzero(surv))
    if n < 100:
        raise InsufficientSamplesError(f"only {n} surviving paths; need >= 100")
    M = coupling.martingale_Mp(ensemble, 1.0)[surv]
    L = ensemble.L[surv]
    Lt = ensemble.L_tilde[surv]
    w = np.exp(M + L)
    mean_w = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(n))
    jensen = float(np.exp(np.mean(M + L)))
    return GirsanovWeightEstimate(
        mean_weight=mean_w, se=se, mean_M=float(np.mean(M)),
        mean_L=float(np.mean(L)), mean_L_tilde=float(np.mean(Lt)),
        p_holder=holder_exponent(ensemble.delta), jensen_lower=jensen,
        n_survive=n, delta=ensemble.delta)


def conditional_moment_experiment(chart, field, *, deltas, c, T, n_paths,
                                  seed=0, dt=None, threads=None):
    """E[exp((c/sqrt(delta)) |U - Ut|(T)) | tube] across a list of deltas.

    All cells share one time step (default: T divided into round steps so
    that dt <= min(delta)^2/50), so the scaled separations are compared at
    identical resolution.  Returns (rows, bounded) where each row is a dict
    with the estimate and its standard error, and ``bounded`` flags the
    absence of any increase beyond 3 pooled standard errors as delta
    decreases.
    """
    if dt is None:
        target = min(d ** 2 / 50 for d in deltas)
        dt = T / max(1, math.ceil(T / target))
    rows = []
    for delta in deltas:
        ens = run_coupled(chart, field, delta=delta, dt=dt, T=T,
                          n_paths=n_paths, seed=seed, with_forms=False,
                          threads=threads)
        surv = ens.survived
        n = int(np.count_nonzero(surv))
        if n < 100:
            raise InsufficientSamplesError(
                f"only {n} survivors at delta={delta}; enlarge n_paths or T")
        vals = np.exp((c / math.sqrt(delta)) * ens.udiff_final[surv])
        rows.append({"delta": delta, "estimate": float(np.mean(vals)),
                     "se": float(np.std(vals, ddof=1) / math.sqrt(n)),
                     "n_survive": n})
    bounded = True
    for a, b in zip(rows[:-1], rows[1:]):
        pooled = math.hypot(a["se"], b["se"])
        if b["estimate"] > a["estimate"] + 3 * pooled:
            bounded = False
    return rows, bounded


def bootstrap_ratio_se(num, den, n_boot=500, seed=0):
    """Parametric bootstrap of the ratio SE from the two binomial counts."""
    rng = np.random.default_rng(seed)
    kn = rng.binomial(num.n_paths, num.p_hat, size=n_boot)
    kd = rng.binomial(den.n_paths, den.p_hat, size=n_boot)
    kd = np.maximum(kd, 1)
    ratios = (kn / num.n_paths) / (kd / den.n_paths)
    return float(np.std(ratios, ddof=1))
