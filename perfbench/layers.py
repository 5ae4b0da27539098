"""Per-layer figures of the traced pass, computed from one op's spans.

A layer group (sde ensembles, coupled ensembles, the action) that the
workload's op does not run is taken from the layer suite's rows for that
layer instead, so that every figure is a measurement on every workload;
``source`` names where each group came from.
"""

import math

import probes
from spans import (ensemble_ancestor, layer_of, layer_self_times, self_times,
                   unattributed)
from workloads import WORKLOADS, shot_chart

EVALUATORS = ("sigma_apply", "coriolis", "bessel_drift", "metric")
PER_LAYER = (
    "omtube.import_s",
    "geometry.chart_build_s",
    "geometry.self_s",
    *[f"geometry.{e}.calls_per_step" for e in EVALUATORS],
    *[f"geometry.{e}.ns_per_pt" for e in EVALUATORS],
    *[f"geometry.shot.{e}.ns_per_pt" for e in EVALUATORS],
    "om.self_s",
    "om.om_action_s",
    "om.alpha_kernel.ns_per_pt",
    "om.alpha_kernel.share",
    "om.alpha_form.calls_per_step",
    "rng.self_s",
    "rng.normal.ns_per_value",
    "sde.x.ns_per_lane_step",
    "sde.bm.ns_per_lane_step",
    "sde.self.ns_per_lane_step",
    "sde.lane_steps",
    "sde.survival_frac",
    "coupling.ns_per_lane_step",
    "coupling.self.ns_per_lane_step",
    "coupling.lane_steps",
    "coupling.survival_frac",
    "mc.self_s",
    "mc.pool_speedup",
    "mc.relse_x_sqrt_lane_steps",
    "trace.overhead_frac",
    "trace.unattributed_frac",
    *[f"{row}.ns_per_lane_step" for row in probes.BASELINE_NS],
)
SDE_FALLBACK = ("suite:sde.x_s2", "suite:sde.bm_d2_bridge")
COUPLING_FALLBACK = ("suite:coupling.s2_plain",)


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith((".calls_per_step", ".lane_steps")):
        return "count"
    return "ratio"  # shares, fractions, speed-up, relSE x sqrt(lane-steps)


def _dur(span):
    return span[2] - span[1]


def _ns_per_lane_step(spans, counts):
    lane = sum(c["lane_steps"] for c in counts)
    return sum(_dur(spans[c["span"]]) for c in counts) / lane * 1e9 if lane else 0.0


def _group(spans, selfs, counts, layer, ops):
    """Lane-step figures of one ensemble layer over the spans of ``ops``."""
    cs = [c for c in counts if c["op"] in ops and c["layer"] == layer]
    lane = sum(c["lane_steps"] for c in cs)
    own = sum(t for s, t in zip(spans, selfs) if s[4] in ops and layer_of(s[0]) == layer)
    out = {f"{layer}.self.ns_per_lane_step": own / lane * 1e9,
           f"{layer}.lane_steps": lane,
           f"{layer}.survival_frac": (sum(c["survivors"] for c in cs)
                                      / sum(c["paths"] for c in cs))}
    if layer == "sde":
        for kind in ("x", "bm"):
            out[f"sde.{kind}.ns_per_lane_step"] = _ns_per_lane_step(
                spans, [c for c in cs if c["kind"] == kind])
    else:
        out["coupling.ns_per_lane_step"] = _ns_per_lane_step(spans, cs)
    return out


def traced_report(tracer, state, cfg, relse, t0, t_run):
    """Run the layer suite and probes after a traced op; returns (report, problems)."""
    for name, row in probes.SUITE.items():
        tracer.op = f"suite:{name}"
        row(cfg["seed"])
    tracer.uninstall()

    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    anc = ensemble_ancestor(spans)
    op_counts = [c for c in counts if c["op"] == "op"]
    own = layer_self_times(spans, selfs, "op")
    m = {"omtube.import_s": _dur(spans[0])}
    m["geometry.chart_build_s"] = sum(
        _dur(s) for s in spans if s[4] == "op" and s[3] is None
        and s[0] in ("geometry.fermi_chart", "geometry.PrecomputedChart"))
    for layer in ("geometry", "om", "mc"):
        m[f"{layer}.self_s"] = own[layer]
    m["rng.self_s"] = own["_rng"]

    # exact call counts inside the ensembles that step on the chart
    stepping = [c for c in op_counts if c["kind"] != "bm"]
    iters = sum(c["iterations"] for c in stepping)
    ens = {c["span"] for c in stepping}
    for name in [f"geometry.{e}" for e in EVALUATORS] + ["om.alpha_form"]:
        n = sum(1 for i, s in enumerate(spans) if s[0] == name and anc[i] in ens)
        m[f"{name}.calls_per_step"] = n / iters if iters else 0.0

    coupled = {c["span"] for c in op_counts if c["layer"] == "coupling"}
    coupled_s = sum(_dur(spans[i]) for i in coupled)
    kernel_s = sum(_dur(s) for i, s in enumerate(spans)
                   if s[0] == "om.alpha_kernel" and anc[i] in coupled)
    m["om.alpha_kernel.share"] = kernel_s / coupled_s if coupled_s else 0.0

    source = {}
    for layer, fallback in (("sde", SDE_FALLBACK), ("coupling", COUPLING_FALLBACK)):
        ran = any(c["layer"] == layer for c in op_counts)
        source[layer] = "op" if ran else "+".join(fallback)
        m.update(_group(spans, selfs, counts, layer, ("op",) if ran else fallback))
    action = [_dur(s) for s in spans if s[4] == "op" and s[0] == "om.om_action"]
    source["om.om_action_s"] = "op" if action else "suite:om.om_action"
    m["om.om_action_s"] = sum(action) if action else sum(
        _dur(s) for s in spans if s[4] == "suite:om.om_action" and s[0] == "om.om_action")

    m["mc.relse_x_sqrt_lane_steps"] = relse * math.sqrt(
        sum(c["lane_steps"] for c in op_counts))
    m["trace.unattributed_frac"] = unattributed(spans, "op", t0, t_run)

    suite = {}
    for name in probes.SUITE:
        cs = [c for c in counts if c["op"] == f"suite:{name}"]
        if cs:
            suite[name] = _ns_per_lane_step(spans, cs)
            m[f"{name}.ns_per_lane_step"] = suite[name]

    # untraced probes
    chart = state["chart"]
    n = 32768 if chart.is_radial else 4096
    geo = probes.time_geometry(chart, 0.5 * cfg["T"], max(cfg["deltas"]), n, cfg["seed"])
    for name, ns in geo.items():
        m[f"geometry.{name}.ns_per_pt"] = ns
    warped = WORKLOADS["ratio-warped3"].base_config()
    shot = probes.time_geometry(shot_chart(warped), 0.0, max(warped["deltas"]), 32,
                                cfg["seed"])
    for name, ns in shot.items():
        m[f"geometry.shot.{name}.ns_per_pt"] = ns
    m["om.alpha_kernel.ns_per_pt"] = probes.time_alpha_kernel(cfg["seed"])
    m["rng.normal.ns_per_value"] = probes.time_normal(cfg["seed"])
    speedup, same = probes.pool_speedup(WORKLOADS["ratio-s2"].make_config(cfg["seed"]))
    m["mc.pool_speedup"] = speedup
    problems = [] if same else ["estimate_tube_prob differs between 1 and 2 workers"]

    report = {"metrics": m, "source": source, "layer_self_s": own,
              "suite_ns": suite, "geometry_batch": n}
    return report, problems
