"""Discretized simulation of the lifted diffusion, the radial reference
process and plain Brownian motion (whose modulus is the Bessel process),
with tube-exit detection.

One stepping loop, ``_step_lanes``, advances the live lanes of a chunk;
each caller supplies only the per-step ``advance`` (noise draw, step, exit
mask).  ``run_tube_ensemble`` steps fixed 32768-lane chunks
(``_rng.CHUNK``) with per-chunk Philox streams and returns survival counts
plus whatever terminal statistics were requested; identical
``(seed, cfg)`` give bit-identical results for any worker count.
``simulate_X`` / ``simulate_Y`` / ``simulate_bm`` run a single path as one
lane, on a Philox stream keyed by ``(seed, path_index)``, and record it as
a :class:`PathSample`.  :mod:`omtube.coupling` steps the coupled pair with
the same loop.  Tube lanes exit by the one rule ``tube_exit_check``.

The denominator of the tube-probability ratio is always simulated with the
same time step and the same exit monitoring as the numerator, so the
discrete-monitoring bias largely cancels in the ratio.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _rng
from .errors import ChartDomainError, ConstructionError, EstimationError

__all__ = [
    "SCHEMES",
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

SCHEMES = ("euler_maruyama", "milstein_diagonal")


def _auto_dt(T, deltas):
    """Default time step: T split into whole steps of at most min(delta)^2/50."""
    target = min(d ** 2 / 50 for d in deltas)
    return T / max(1, math.ceil(T / target))


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
        if self.scheme not in SCHEMES:
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


def _tube_advance(step, cfg, chart, gen):
    """``advance`` of tube lanes (state ``y`` and ``r`` = |y|) moved by ``step``
    on noise from ``gen``; without a tube, a lane beyond the chart raises."""
    delta, dt = cfg.delta, cfg.dt
    bridge = cfg.bridge_correction and delta is not None
    bound = chart.tube_radius if chart is not None else np.inf
    sq = math.sqrt(dt)

    def advance(k, s):
        y = step(k * dt, s["y"], sq * gen.standard_normal(s["y"].shape))
        # sqrt of the plain squared sum, as PathSample.radial, so that a
        # recorded path's radii are the ones its exit rule saw
        r = np.sqrt(np.einsum("mi,mi->m", y, y))
        if delta is None:
            if np.any(r > bound):
                raise ChartDomainError(f"a path left the chart domain at t = {(k + 1) * dt:.4g}"
                                       "; set delta or enlarge tube_radius")
            return {"y": y, "r": r}, None
        p = tube_exit_check(s["r"], r, delta, dt, bridge)
        return {"y": y, "r": r}, (gen.random(r.size) < p if bridge else p >= 1.0)
    return advance


def _step_lanes(advance, steps, dt, state, lanes, exit_time, records):
    """The stepping loop: advance the live lanes of one chunk over ``steps``.

    ``state`` maps names to arrays over the live ``lanes`` (chunk indices);
    ``advance(k, state)`` returns the next state and a mask of the lanes
    that left (None: none can).  Leaving lanes get exit time (k + 1) dt and
    are compacted away, their entries of the states named in ``records``
    copied there first; survivors' entries are copied at the end.  Returns
    the surviving lanes and their state.
    """
    for k in steps:
        if lanes.size == 0:
            break
        # ``stepped`` lives through the next step: freeing it on compaction
        # gave a forked worker's X leg 2-3x the page faults, up to 8 % slower
        stepped, out = advance(k, state)
        state = stepped
        if out is not None and out.any():
            gone = lanes[out]
            exit_time[gone] = (k + 1) * dt
            for name, rec in records.items():
                rec[gone] = stepped[name][out]
            keep = ~out
            lanes = lanes[keep]
            state = {name: v[keep] for name, v in stepped.items()}
    for name, rec in records.items():
        rec[lanes] = state[name]
    return lanes, state


def _chunks(n_paths, chunk_range):
    """(index, lane count) of the chunks of ``n_paths`` in ``chunk_range``."""
    return [(j, m) for j, m in _rng.iter_chunks(n_paths)
            if chunk_range is None or chunk_range[0] <= j < chunk_range[1]]


def _simulate_single(kind, d, cfg, chart=None, drift_field=None):
    """One lane of the stepping loop, its increments and states recorded."""
    _, n_steps = cfg.horizon(chart.curve if chart is not None else None)
    step = _make_stepper(kind, chart, drift_field, cfg)
    incs, states = [], [np.zeros(d)]

    def recorded_step(t, y, dB):
        y_new = step(t, y, dB)
        incs.append(dB[0])
        states.append(y_new[0])
        return y_new

    gen = _rng.path_generator(cfg.seed, cfg.path_index)
    tex = np.full(1, np.nan)
    _step_lanes(_tube_advance(recorded_step, cfg, chart, gen), range(n_steps), cfg.dt,
                {"y": np.zeros((1, d)), "r": np.zeros(1)}, np.arange(1), tex, {})
    states = np.array(states)
    exited = not np.isnan(tex[0])
    return PathSample(
        times=np.arange(len(states)) * cfg.dt,
        states=states,
        increments=np.array(incs),
        radial=np.sqrt(np.einsum("ki,ki->k", states, states)),
        exited=exited,
        exit_time=float(tex[0]) if exited else None,
    )


def simulate_X(chart, field, cfg):
    """One path of the lifted diffusion dX = sigma dB + (a + f - gamma_dot) dt."""
    return _simulate_single("x", chart.d, cfg, chart=chart, drift_field=field)


def simulate_Y(chart, cfg):
    """One path of the radial reference dY = sigma dB + c dt (Bessel radial law)."""
    return _simulate_single("y", chart.d, cfg, chart=chart)


def simulate_bm(d, cfg):
    """One standard d-dimensional Brownian path.

    The sample's ``radial`` array is its modulus, a Bessel(d) path.
    """
    return _simulate_single("bm", d, cfg)


# ---------------------------------------------------------------------------
# vectorized ensembles
# ---------------------------------------------------------------------------

def run_tube_ensemble(kind, d, cfg, n_paths, chart=None, drift_field=None,
                      want_terminal=False, want_exit_times=False, chunk_range=None):
    """Simulate ``n_paths`` paths and reduce to counts and optional arrays.

    kind: "x", "y", or "bm".  Each chunk runs the stepping loop from the
    origin on its own Philox stream, drawing noise only for the lanes still
    alive (see :mod:`omtube._rng` for the determinism contract).
    ``terminal`` is NaN for exited paths, ``exit_times`` NaN for survivors.
    When ``chunk_range`` is given, only those chunk indices are simulated
    (the pool in :mod:`omtube.mc` hands each forked worker one such slice);
    counts then refer to that slice.
    """
    T, n_steps = cfg.horizon(chart.curve if chart is not None else None)
    if cfg.delta is not None and chart is not None and cfg.delta >= chart.tube_radius:
        raise ChartDomainError("tube delta must stay below the chart tube radius")
    step = _make_stepper(kind, chart, drift_field, cfg)
    exit_times = []
    terminals = []
    for chunk_id, m in _chunks(n_paths, chunk_range):
        gen = _rng.chunk_generator(cfg.seed, chunk_id)
        tex = np.full(m, np.nan)
        exit_times.append(tex)
        lanes, state = _step_lanes(_tube_advance(step, cfg, chart, gen),
                                   range(n_steps), cfg.dt,
                                   {"y": np.zeros((m, d)), "r": np.zeros(m)},
                                   np.arange(m), tex, {})
        if want_terminal:
            terminals.append(np.full((m, d), np.nan))
            terminals[-1][lanes] = state["y"]

    exit_times = np.concatenate(exit_times)
    return EnsembleResult(
        n_paths=exit_times.size,
        n_survive=int(np.count_nonzero(np.isnan(exit_times))),
        delta=cfg.delta if cfg.delta is not None else np.inf,
        dt=cfg.dt,
        T=T,
        exit_times=exit_times if want_exit_times else None,
        terminal=np.concatenate(terminals) if want_terminal else None,
    )


# ---------------------------------------------------------------------------
# small-ball reference value
# ---------------------------------------------------------------------------

def bm_tube_survival_theta(delta, T):
    """P[max_{[0,T]} |B(t)| <= delta] for 1-d Brownian motion.

    Alternating theta series (4/pi) sum (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 T
    / (8 delta^2)), summed until a term drops below 1e-16 (at most 200 terms).
    """
    if delta <= 0 or T <= 0:
        raise EstimationError("delta and T must be positive")
    s = 0.0
    lam = math.pi ** 2 * T / (8.0 * delta ** 2)
    for k in range(200):
        n = 2 * k + 1
        term = ((-1) ** k / n) * math.exp(-n * n * lam)
        s += term
        if abs(term) < 1e-16:
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
