"""Discretized simulation of the lifted diffusion, the radial reference
process and plain Brownian motion (whose modulus is the Bessel process),
with tube-exit detection.

Two entry styles:

* ``simulate_X`` / ``simulate_Y`` / ``simulate_bm`` record one full
  trajectory as a :class:`PathSample`; the driving noise comes from a
  Philox stream keyed by ``(seed, path_index)``.
* ``run_tube_ensemble`` steps many paths at once (vectorized over fixed
  32768-lane chunks, ``_rng.CHUNK``, with per-chunk Philox streams) and
  returns survival counts plus whatever terminal statistics were
  requested.  Identical ``(seed, cfg)`` give bit-identical results for
  any worker count.

Both styles decide tube exits with the one rule ``tube_exit_check``.

The denominator of the tube-probability ratio is always simulated with the
same time step and the same exit monitoring as the numerator, so the
discrete-monitoring bias largely cancels in the ratio.
"""

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _rng
from .errors import ChartDomainError, ConstructionError, EstimationError

__all__ = [
    "IntegratorConfig",
    "PathSample",
    "EnsembleResult",
    "simulate_X",
    "simulate_Y",
    "simulate_bm",
    "tube_exit_check",
    "run_tube_ensemble",
    "bm_tube_survival_theta",
    "dump_paths_ndjson",
]


@dataclass
class IntegratorConfig:
    """Time stepping, tube, and stream parameters for one simulation."""

    dt: float
    T: float = None
    scheme: str = "euler_maruyama"
    delta: float = None
    bridge_correction: bool = False
    seed: int = 0
    path_index: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ConstructionError("dt must be positive")
        if self.scheme not in ("euler_maruyama", "milstein_diagonal"):
            raise ConstructionError(f"unknown scheme {self.scheme!r}")
        if self.delta is not None and self.delta <= 0:
            raise ConstructionError("delta must be positive when set")
        if self.delta is not None and self.dt > self.delta ** 2 / 50:
            warnings.warn(
                f"dt = {self.dt:g} above delta^2/50 = {self.delta ** 2 / 50:g}; "
                "tube-scale dynamics may be under-resolved", stacklevel=2)

    def horizon(self, curve=None):
        T = self.T if self.T is not None else (curve.T if curve is not None else None)
        if T is None or T <= 0:
            raise ConstructionError("no positive time horizon available")
        n = int(round(T / self.dt))
        if abs(n * self.dt - T) > 1e-9 * max(1.0, T):
            warnings.warn(f"T = {T:g} is not a multiple of dt = {self.dt:g}; "
                          f"using {n} steps", stacklevel=2)
        return T, max(n, 1)


@dataclass
class PathSample:
    """One recorded trajectory on the uniform grid, stopped at tube exit."""

    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray
    radial: np.ndarray
    exited: bool
    exit_time: float = None
    log_weight: float = 0.0


@dataclass
class EnsembleResult:
    """Reduction of a path ensemble: counts plus optional per-path arrays."""

    n_paths: int
    n_survive: int
    delta: float
    dt: float
    T: float
    exit_times: np.ndarray = None
    terminal: np.ndarray = None
    radial_at: dict = dc_field(default_factory=dict)

    @property
    def survival(self):
        return self.n_survive / self.n_paths


def tube_exit_check(r0, r1, delta, dt, bridge_correction=True):
    """Probability that the radial part crossed ``delta`` inside one step.

    Grid values at or above delta exit with probability one.  With the
    bridge correction the crossing probability of the in-between excursion
    is approximated by the 1-d Brownian bridge barrier formula
    exp(-2 (delta - r0)(delta - r1) / dt), exact for a flat radial
    diffusion of unit volatility.
    """
    r0 = np.asarray(r0, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    if not bridge_correction:
        return np.where((r0 >= delta) | (r1 >= delta), 1.0, 0.0)
    # a grid value at or above delta zeroes its clamped factor, so p = exp(-0) = 1
    return np.exp((-2.0 / dt) * np.maximum(delta - r0, 0.0) * np.maximum(delta - r1, 0.0))


# ---------------------------------------------------------------------------
# stepping kernels
# ---------------------------------------------------------------------------

def _make_stepper(kind, chart, drift_field, cfg):
    """Return step(t, y, dB) -> y_next for the chosen process kind."""
    milstein = cfg.scheme == "milstein_diagonal"

    if kind == "bm":
        def step(t, y, dB):
            return y + dB
        return step

    if chart is None:
        raise ConstructionError(f"process kind {kind!r} needs a chart")

    def milstein_term(t, y, dB):
        # diagonal correction 0.5 * d(sigma_ii)/dx_i * (dB_i^2 - dt)
        h = 1e-4 * chart.tube_radius
        d = y.shape[-1]
        corr = np.zeros_like(y)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            ds = (chart.sigma_diag(t, y + h * e)[..., i]
                  - chart.sigma_diag(t, y - h * e)[..., i]) / (2 * h)
            corr[..., i] = 0.5 * ds * (dB[..., i] ** 2 - cfg.dt)
        return corr

    if kind == "y":
        def step(t, y, dB):
            out = y + chart.sigma_apply(t, y, dB) + chart.bessel_drift(t, y) * cfg.dt
            if milstein:
                out = out + milstein_term(t, y, dB)
            return out
        return step

    if kind == "x":
        def step(t, y, dB):
            drift = chart.coriolis(t, y) - chart.velocity_frame(t)
            if drift_field is not None:
                drift = drift + drift_field(t, y)
            out = y + chart.sigma_apply(t, y, dB) + drift * cfg.dt
            if milstein:
                out = out + milstein_term(t, y, dB)
            return out
        return step

    raise ConstructionError(f"unknown process kind {kind!r}")


def _simulate_single(kind, d, cfg, chart=None, drift_field=None, curve=None):
    T, n_steps = cfg.horizon(curve if curve is not None else
                             (chart.curve if chart is not None else None))
    gen = _rng.path_generator(cfg.seed, cfg.path_index)
    step = _make_stepper(kind, chart, drift_field, cfg)
    sq = math.sqrt(cfg.dt)
    times = np.array([0.0])
    y = np.zeros(d)
    states = [y.copy()]
    incs = []
    radial = [0.0]
    exited = False
    exit_time = None
    delta = cfg.delta
    for k in range(n_steps):
        t = k * cfg.dt
        dB = sq * gen.standard_normal(d)
        ub = gen.random() if (delta is not None and cfg.bridge_correction) else None
        y_new = step(t, y, dB)
        # the |states| convention: sqrt of the plain squared sum, so that
        # PathSample.radial reproduces bit-for-bit from states
        r0 = math.sqrt(float(np.einsum("i,i->", y, y)))
        r1 = math.sqrt(float(np.einsum("i,i->", y_new, y_new)))
        incs.append(dB)
        states.append(y_new.copy())
        radial.append(r1)
        y = y_new
        if delta is not None:
            p = float(tube_exit_check(r0, r1, delta, cfg.dt, cfg.bridge_correction))
            if (p >= 1.0) or (ub is not None and ub < p):
                exited = True
                exit_time = (k + 1) * cfg.dt
                break
        elif chart is not None and r1 > chart.tube_radius:
            raise ChartDomainError(
                f"path left the chart domain (|x| = {r1:.4g}) at t = {(k + 1) * cfg.dt:.4g}")
    n_rec = len(states)
    return PathSample(
        times=np.arange(n_rec) * cfg.dt,
        states=np.array(states),
        increments=np.array(incs) if incs else np.zeros((0, d)),
        radial=np.array(radial),
        exited=exited,
        exit_time=exit_time,
    )


def simulate_X(chart, field, curve, cfg):
    """One path of the lifted diffusion dX = sigma dB + (a + f - gamma_dot) dt."""
    return _simulate_single("x", chart.d, cfg, chart=chart, drift_field=field,
                            curve=curve)


def simulate_Y(chart, cfg, curve=None):
    """One path of the radial reference dY = sigma dB + c dt (Bessel radial law)."""
    return _simulate_single("y", chart.d, cfg, chart=chart, curve=curve)


def simulate_bm(d, cfg):
    """One standard d-dimensional Brownian path.

    The sample's ``radial`` array is its modulus, a Bessel(d) path.
    """
    return _simulate_single("bm", d, cfg)


# ---------------------------------------------------------------------------
# vectorized ensembles
# ---------------------------------------------------------------------------

def run_tube_ensemble(kind, d, cfg, n_paths, chart=None, drift_field=None,
                      record_radial_at=(), want_terminal=False,
                      want_exit_times=False, chunk_range=None):
    """Simulate ``n_paths`` paths and reduce to counts and optional arrays.

    kind: "x", "y", or "bm".  ``record_radial_at`` collects |state| of every
    path at the listed times (valid only without a tube stop).  When
    ``chunk_range`` is given, only those chunk indices are simulated (the
    pool in :mod:`omtube.mc` hands each forked worker one such slice);
    counts then refer to that slice.

    Exited lanes are compacted away between steps and noise is drawn only
    for the lanes still alive; see :mod:`omtube._rng` for the determinism
    contract this preserves.
    """
    T, n_steps = cfg.horizon(chart.curve if chart is not None else None)
    if cfg.delta is not None and chart is not None and cfg.delta >= chart.tube_radius:
        raise ChartDomainError("tube delta must stay below the chart tube radius")
    step = _make_stepper(kind, chart, drift_field, cfg)
    sq = math.sqrt(cfg.dt)
    delta = cfg.delta
    bridge = cfg.bridge_correction and delta is not None
    rec_steps = {}
    for treq in record_radial_at:
        krec = int(round(treq / cfg.dt))
        if abs(krec * cfg.dt - treq) > 1e-9:
            raise ConstructionError(f"record time {treq} not on the dt grid")
        if delta is not None:
            raise ConstructionError("radial recording needs delta=None")
        rec_steps.setdefault(krec, treq)

    chunks = list(_rng.iter_chunks(n_paths))
    if chunk_range is not None:
        chunks = [(j, m) for (j, m) in chunks if chunk_range[0] <= j < chunk_range[1]]

    n_survive = 0
    n_total = 0
    exit_times = [] if want_exit_times else None
    terminals = [] if want_terminal else None
    radial_records = {treq: [] for treq in rec_steps.values()}

    tube_bound = chart.tube_radius if chart is not None else np.inf
    for chunk_id, m in chunks:
        gen = _rng.chunk_generator(cfg.seed, chunk_id)
        lanes = np.arange(m)
        y = np.zeros((m, d))
        r = np.zeros(m)
        tex = np.full(m, np.nan)
        y_final = np.full((m, d), np.nan) if want_terminal else None
        for k in range(n_steps):
            if lanes.size == 0:
                break
            t = k * cfg.dt
            y_new = step(t, y, sq * gen.standard_normal((lanes.size, d)))
            r1 = np.sqrt(np.einsum("mi,mi->m", y_new, y_new))
            if delta is not None:
                p = tube_exit_check(r, r1, delta, cfg.dt, bridge)
                out = gen.random(lanes.size) < p if bridge else p >= 1.0
                if out.any():
                    gone = lanes[out]
                    tex[gone] = (k + 1) * cfg.dt
                    keep = ~out
                    lanes = lanes[keep]
                    y = y_new[keep]
                    r = r1[keep]
                else:
                    y = y_new
                    r = r1
            else:
                if np.any(r1 > tube_bound):
                    raise ChartDomainError("a path left the chart domain; "
                                           "set delta or enlarge tube_radius")
                y = y_new
                r = r1
            if (k + 1) in rec_steps:
                radial_records[rec_steps[k + 1]].append(r.copy())
        n_total += m
        n_survive += int(lanes.size)
        if want_exit_times:
            exit_times.append(tex)
        if want_terminal:
            y_final[lanes] = y
            terminals.append(y_final)

    return EnsembleResult(
        n_paths=n_total,
        n_survive=n_survive,
        delta=delta if delta is not None else np.inf,
        dt=cfg.dt,
        T=T,
        exit_times=np.concatenate(exit_times) if want_exit_times else None,
        terminal=np.concatenate(terminals) if want_terminal else None,
        radial_at={t: np.concatenate(v) for t, v in radial_records.items()},
    )


# ---------------------------------------------------------------------------
# small-ball reference value
# ---------------------------------------------------------------------------

def bm_tube_survival_theta(delta, T, tol=1e-16, max_terms=200):
    """P[max_{[0,T]} |B(t)| <= delta] for 1-d Brownian motion.

    Alternating theta series (4/pi) sum (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 T
    / (8 delta^2)), summed until the term drops below ``tol``.
    """
    if delta <= 0 or T <= 0:
        raise EstimationError("delta and T must be positive")
    s = 0.0
    lam = math.pi ** 2 * T / (8.0 * delta ** 2)
    for k in range(max_terms):
        n = 2 * k + 1
        term = ((-1) ** k / n) * math.exp(-n * n * lam)
        s += term
        if abs(term) < tol:
            break
    return 4.0 * s / math.pi


def dump_paths_ndjson(fh, paths, max_paths=100):
    """Write one JSON object per path: {"times": [...], "states": [[...]]}."""
    import json

    for i, p in enumerate(paths):
        if i >= max_paths:
            break
        fh.write(json.dumps({
            "times": np.asarray(p.times).tolist(),
            "states": np.asarray(p.states).tolist(),
            "exited": bool(p.exited),
            "exit_time": None if p.exit_time is None else float(p.exit_time),
        }) + "\n")
