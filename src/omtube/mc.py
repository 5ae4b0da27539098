"""Monte Carlo estimators: tube probabilities, the ratio against
exp(-S(gamma)), conditional measure-change weights, conditional moments of
the coupled spherical separation, and extrapolation of the ratio to
vanishing tube radius.

Estimation policy: plain rejection conditioning (no importance sampling or
splitting) and binomial standard errors.  The ratio's denominator, the flat
small-ball probability, is exact (``sde.flat_ball_survival``), so the X leg
is a cell's one Monte Carlo leg and holds all of its dt bias.  A
bridge-corrected flat leg would have cancelled none of it: with 8,388,608
paths per cell it was within 1.6 SE of the series (0.08-0.27 % relative SE)
at every dt <= delta^2/25 in d = 2, 3 and 4, while the X leg on S^3 (delta
0.3, T 0.06, against the exact sine series) read -0.19 %, -0.19 %, -0.12 %
and +0.02 % at dt = delta^2/26, /51, /102 and /204 (SE 0.085 %).  Coarser
steps bias the bridge rule itself (-0.7 % at delta^2/12 and -2.3 % at
delta^2/6 for d = 2, delta = 0.25), which the ratio no longer shares with
a flat leg; ``sde.IntegratorConfig`` warns above delta^2/50.  All estimators are
deterministic functions of (seed, configuration), and ensembles can fan
out over a process pool (``OMTUBE_THREADS`` workers, an integer >= 1)
without changing any output bit: each chunk of paths draws from its own
SFC64 stream keyed by (seed, chunk index), and reductions are combined in
chunk order.  The pool forks its workers, which inherit the caller's
chart, field and forms, so any chart or field pools; it needs a POSIX
``fork``, and elsewhere one worker runs every slice.
"""

import math
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import _rng, coupling, om, sde
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
    "holder_exponent",
]


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

class _Result:
    def to_dict(self):
        """The fields as plain data, nested results included, without the
        per-path exit times."""
        return asdict(self, dict_factory=lambda kv: {k: v for k, v in kv
                                                     if k != "exit_times"})


@dataclass
class TubeEstimate(_Result):
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


@dataclass
class RatioResult(_Result):
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


@dataclass
class ExtrapolationResult(_Result):
    """Weighted fit of log ratio = log limit + a sqrt(delta) + b delta."""

    limit: float
    limit_se: float
    coef_sqrt: float
    coef_lin: float
    residual: float
    dof: int
    low_confidence: bool


@dataclass
class GirsanovWeightEstimate(_Result):
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
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConstructionError(f"OMTUBE_THREADS: expected an integer >= 1, got {env!r}")
    return int(env)


def _chunk_slices(n_paths, threads):
    n_chunks = (n_paths + _rng.CHUNK - 1) // _rng.CHUNK
    per = (n_chunks + threads - 1) // threads
    return [(j, min(j + per, n_chunks)) for j in range(0, n_chunks, per)]


_job = None


def _install_job(job):
    global _job
    _job = job


def _call_job(chunk_range):
    return _job(chunk_range)


def _run_pool(job, n_paths, threads):
    """Run ``job(chunk_range)`` on each chunk slice; results in slice order.

    ``threads`` (None: ``OMTUBE_THREADS``) sets the number of slices.
    Several slices run in forked workers, which inherit ``job`` with the
    caller's chart, field and forms as they are: nothing is pickled on the
    way in, so every chart and field pools.  The pool's modules are
    imported only here, so a run on one worker never loads them.
    """
    slices = _chunk_slices(n_paths, _resolve_threads(threads))
    if len(slices) == 1:
        return [job(slices[0])]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" in multiprocessing.get_all_start_methods():
        with ProcessPoolExecutor(len(slices), multiprocessing.get_context("fork"),
                                 initializer=_install_job, initargs=(job,)) as pool:
            return list(pool.map(_call_job, slices))
    warnings.warn("no fork start method on this platform; running one worker")
    return [job(s) for s in slices]


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
    process = process.lower()
    if n_paths < 1000:
        raise EstimationError("tube estimation needs at least 1e3 paths")
    if process in ("x", "y"):
        if chart is None:
            raise ConstructionError(f"process {process!r} needs a chart")
        d = chart.d
    elif d is None:
        raise ConstructionError("plain BM needs the dimension d")
    cfg = sde.IntegratorConfig(dt=dt, T=T, delta=delta, seed=seed, scheme=scheme,
                               bridge_correction=bridge_correction)
    drift_field = field if process == "x" else None

    def job(chunk_range):
        return sde.run_tube_ensemble(process, d, cfg, n_paths, chart=chart,
                                     drift_field=drift_field, chunk_range=chunk_range,
                                     want_exit_times=keep_exit_times)

    parts = _run_pool(job, n_paths, threads)
    n_tot = sum(p.n_paths for p in parts)
    n_surv = sum(p.n_survive for p in parts)
    exit_times = (np.concatenate([p.exit_times for p in parts])
                  if keep_exit_times else None)
    p_hat = n_surv / n_tot
    se = math.sqrt(p_hat * (1 - p_hat) / n_tot)
    warning = None
    if n_surv < 100:
        warning = f"only {n_surv} surviving paths; conditional statistics unreliable"
    return TubeEstimate(p_hat=p_hat, se=se, n_paths=n_tot, n_survive=n_surv,
                        delta=delta, dt=dt, T=parts[0].T, process=process,
                        warning=warning, exit_times=exit_times)


def estimate_ratio(chart, field, *, delta, dt, n_paths, seed=0,
                   bridge_correction=True, scheme="euler_maruyama", threads=None):
    """Tube-probability ratio of the lifted diffusion against flat BM.

    The numerator is the X leg, ``estimate_tube_prob("x", ...)`` on the
    stream seed ``_rng.leg_seed(seed, 0)``.  The denominator is the flat
    small-ball probability from its series, ``sde.flat_ball_survival``: a
    ``TubeEstimate`` with that ``p_hat``, ``se`` 0, no paths, ``dt`` 0
    (continuous monitoring) and ``process`` "series".  So ``ratio_se`` is
    the ratio times the numerator's relative SE.  Raises EstimationError
    when the series underflows to 0 or the X leg has no survivor.
    """
    field = field or om.zero_field(chart.d)
    T = chart.curve.T
    flat = sde.flat_ball_survival(chart.d, delta, T)
    if flat == 0.0:
        raise EstimationError(
            f"the flat small-ball probability underflows to 0 at delta={delta}, T={T}; "
            "the tube event is too rare for rejection sampling at any sample size")
    num = estimate_tube_prob("x", chart=chart, field=field, delta=delta, dt=dt, T=T,
                             n_paths=n_paths, seed=_rng.leg_seed(seed, 0),
                             bridge_correction=bridge_correction, scheme=scheme,
                             threads=threads)
    if num.n_survive == 0:
        raise EstimationError(
            f"zero survivors of the X leg at delta={delta}, T={T}; the tube event is "
            "too rare for rejection sampling at this sample size")
    den = TubeEstimate(p_hat=flat, se=0.0, n_paths=0, n_survive=0, delta=delta, dt=0.0,
                       T=T, process="series")
    ratio = num.p_hat / flat
    ratio_se = ratio * num.se / num.p_hat
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
                records=coupling.RECORDS, threads=None):
    """Coupled ensemble holding ``records`` (default: all of
    ``coupling.RECORDS``; the others come back None), pooled.  The
    measure-change forms of ``field`` (None: the zero field) are built only
    when a record of ``coupling.FORM_RECORDS`` is asked for."""
    records = tuple(records)
    forms = (om.girsanov_forms(chart, field or om.zero_field(chart.d))
             if set(records) & set(coupling.FORM_RECORDS) else None)
    cfg = sde.IntegratorConfig(dt=dt, T=T, delta=delta, bridge_correction=False,
                               seed=seed)

    def job(chunk_range):
        return coupling.simulate_coupled_ensemble(chart, cfg, n_paths, forms=forms,
                                                  chunk_range=chunk_range, records=records)

    parts = _run_pool(job, n_paths, threads)
    return coupling.CoupledEnsemble.concat(parts)


def estimate_girsanov_weight(ensemble):
    """Conditional mean of exp(M(T) + L(T)) over tube-surviving paths.
    Reads ``survived`` and the records of ``coupling.FORM_RECORDS`` (M from
    ``M_ito`` and ``M_bracket``, ``L`` and ``L_tilde``), so a run made for it
    needs to keep only those."""
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

    The pair's dynamics do not depend on delta, only its exit rule does, so
    one coupled ensemble at max(deltas) serves every cell: a cell's
    survivors are the lanes whose ``sup_radius`` stays below its delta, the
    exit rule of a run at that delta applied to the shared paths.  That run
    keeps only the two records read here, ``sup_radius`` and
    ``udiff_final``, with the bits a run keeping every record gives them.  The
    max(deltas) row is the run at that delta alone; every other row depends
    on the list's largest delta, whose run draws the noise, and the rows
    share lanes, so they are positively correlated.  All cells share one
    time step (default: T divided into round steps so that
    dt <= min(delta)^2/50), so the scaled separations are compared at
    identical resolution.  Returns (rows, bounded), rows in the order of
    ``deltas``, where each row is a dict with the estimate and its standard
    error; ``bounded`` is False when a cell exceeds the one before it in
    the given order of ``deltas`` by 3 pooled standard errors, a check as
    delta decreases only for descending lists, which nothing enforces
    (ROADMAP item 16 sorts them).
    """
    if not deltas or not all(delta > 0 for delta in deltas):
        raise ConstructionError(f"deltas must be a non-empty list of positive radii, got {deltas}")
    if dt is None:
        dt = sde._auto_dt(T, deltas)
    ens = run_coupled(chart, field, delta=max(deltas), dt=dt, T=T, n_paths=n_paths,
                      seed=seed, records=("sup_radius", "udiff_final"), threads=threads)
    rows = []
    for delta in deltas:
        surv = ens.survived & (ens.sup_radius < delta)
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
