"""Span recorder for the traced pass, and the arithmetic over its spans.

The recorder wraps omtube's public functions and the public methods of its
public classes from outside the package: nothing under ``src/`` changes.
A span is ``(name, start, end, parent, op)``: the layer-qualified name, two
CLOCK_MONOTONIC readings, the index of the enclosing span (None at top
level) and the id of the op that made it.  Spans stay in memory and are
written once, when the op ends.

The ensemble entry points also record counts at the same boundary: paths,
survivors, lane-steps (one path advanced one step) and loop iterations,
all derived from the public outputs.  ``sde.run_tube_ensemble`` is asked
for its per-lane exit times (``want_exit_times=True``, which draws no
extra random numbers) and ``CoupledEnsemble.exit_time`` gives the same for
coupled runs.
"""

import functools
import inspect
import time

LAYERS = ("geometry", "om", "_rng", "sde", "coupling", "mc")
ENSEMBLES = ("sde.run_tube_ensemble", "coupling.simulate_coupled_ensemble")


def now():
    """System-wide monotonic clock, comparable across processes on one host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Records nested spans and ensemble counts while installed."""

    def __init__(self, op="op"):
        self.spans = []   # [name, start, end, parent, op]
        self.counts = []  # one dict per ensemble call, keyed to its span
        self.op = op
        self._stack = []
        self._undo = []

    def open(self, name):
        i = len(self.spans)
        self.spans.append([name, now(), None, self._stack[-1] if self._stack else None,
                           self.op])
        self._stack.append(i)
        return i

    def close(self, i):
        self.spans[i][2] = now()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, omtube):
        """Wrap the public functions and methods of every omtube layer."""
        from omtube import _rng

        for layer in ("geometry", "om", "sde", "coupling", "mc"):
            mod = getattr(omtube, layer)
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isclass(obj):
                    self._install_class(layer, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    if attr == "run_tube_ensemble":
                        obj = self._count_tube(obj)
                    elif attr == "simulate_coupled_ensemble":
                        obj = self._count_coupled(obj)
                    self._set(mod, attr, self.wrap(f"{layer}.{attr}", obj))
        for attr in ("chunk_generator", "path_generator"):
            self._set(_rng, attr, self.wrap(f"_rng.{attr}", self._timed_stream(
                getattr(_rng, attr))))
        self._set(_rng, "leg_seed", self.wrap("_rng.leg_seed", _rng.leg_seed))
        self._chunk = _rng.CHUNK

    def _install_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if not inspect.isfunction(val):
                continue
            if attr in ("__init__", "__call__"):
                self._set(cls, attr, self.wrap(f"{layer}.{cls.__name__}", val))
            elif not attr.startswith("_"):
                self._set(cls, attr, self.wrap(f"{layer}.{attr}", val))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- random streams -----------------------------------------------------

    def _timed_stream(self, make):
        tracer = self

        @functools.wraps(make)
        def timed(*args, **kwargs):
            return _TimedGenerator(make(*args, **kwargs), tracer)
        return timed

    # -- ensemble counts ----------------------------------------------------

    def _chunk_sizes(self, n_paths, chunk_range):
        n_chunks = -(-n_paths // self._chunk)
        lo, hi = chunk_range if chunk_range is not None else (0, n_chunks)
        return [min(self._chunk, n_paths - j * self._chunk)
                for j in range(n_chunks) if lo <= j < hi]

    def _count_tube(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            asked = ba.arguments["want_exit_times"]
            ba.arguments["want_exit_times"] = True
            res = fn(*ba.args, **ba.kwargs)
            n_steps = max(int(round(res.T / res.dt)), 1)
            steps = lane_steps_tube(res.exit_times, res.dt, n_steps)
            self._record("sde", ba.arguments["kind"], res.n_paths, res.n_survive, steps,
                         self._chunk_sizes(ba.arguments["n_paths"],
                                           ba.arguments["chunk_range"]), 0)
            if not asked:
                res.exit_times = None
            return res
        return counted

    def _count_coupled(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            ens = fn(*ba.args, **ba.kwargs)
            n_steps = max(int(round(ens.T / ens.dt)), 1)
            steps = lane_steps_coupled(ens.survived, ens.exit_time, ens.dt, n_steps)
            kind = "forms" if ba.arguments["forms"] is not None else "plain"
            # the launch step is shared by all lanes and runs outside the loop
            self._record("coupling", kind, ens.n_paths, ens.n_survive, steps,
                         self._chunk_sizes(ba.arguments["n_paths"],
                                           ba.arguments["chunk_range"]), 1)
            return ens
        return counted

    def _record(self, layer, kind, paths, survivors, steps, chunk_sizes, launch):
        self.counts.append({"span": self._stack[-1], "op": self.op, "layer": layer,
                            "kind": kind, "paths": int(paths),
                            "survivors": int(survivors),
                            "lane_steps": int(steps.sum()),
                            "iterations": loop_iterations(steps, chunk_sizes, launch)})


class _TimedGenerator:
    """Delegating stand-in for a numpy Generator whose draws are spans."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self.standard_normal = tracer.wrap("_rng.standard_normal", gen.standard_normal)
        self.random = tracer.wrap("_rng.random", gen.random)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


# ---------------------------------------------------------------------------
# lane-step arithmetic
# ---------------------------------------------------------------------------

def lane_steps_tube(exit_times, dt, n_steps):
    """Steps each lane of a tube ensemble was advanced.

    A lane that exits in loop iteration k carries exit time (k + 1) dt and
    was advanced k + 1 times; a survivor (NaN exit time) all n_steps.
    """
    import numpy as np

    tex = np.asarray(exit_times, dtype=float)
    return np.where(np.isnan(tex), n_steps, np.rint(np.nan_to_num(tex) / dt)
                    ).astype(np.int64)


def lane_steps_coupled(survived, exit_time, dt, n_steps):
    """Steps each lane of a coupled ensemble was advanced, the launch included.

    Survivors ran all n_steps; an exited lane carries exit time (k + 1) dt
    after k loop steps plus the launch; a degenerate launch (NaN exit time,
    not survived) took the launch step only.
    """
    import numpy as np

    tex = np.asarray(exit_time, dtype=float)
    exited = np.rint(np.nan_to_num(tex, nan=dt) / dt)
    return np.where(survived, n_steps, exited).astype(np.int64)


def loop_iterations(steps, chunk_sizes, launch=0):
    """Stepping-loop iterations: per chunk the longest lane, less the launch."""
    total = 0
    start = 0
    for m in chunk_sizes:
        total += max(int(steps[start:start + m].max()) - launch, 0)
        start += m
    return total


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of every span: its duration less the time its children cover."""
    kids = [[] for _ in spans]
    for s in spans:
        if s[3] is not None:
            kids[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered(kids[i], s[1], s[2]) for i, s in enumerate(spans)]


def layer_of(name):
    return name.split(".", 1)[0]


def layer_self_times(spans, selfs, op):
    """Self time summed per layer over the spans of one op."""
    out = dict.fromkeys(LAYERS, 0.0)
    out["omtube"] = 0.0
    for s, t in zip(spans, selfs):
        if s[4] == op:
            out[layer_of(s[0])] += t
    return out


def ensemble_ancestor(spans):
    """Index of the nearest enclosing ensemble span of each span, or None."""
    anc = []
    for i, s in enumerate(spans):
        if s[0] in ENSEMBLES:
            anc.append(i)
        else:
            anc.append(anc[s[3]] if s[3] is not None else None)
    return anc


def unattributed(spans, op, lo, hi):
    """Share of [lo, hi] that no top-level span of ``op`` covers."""
    top = [(s[1], s[2]) for s in spans if s[4] == op and s[3] is None]
    return 1.0 - covered(top, lo, hi) / (hi - lo)
