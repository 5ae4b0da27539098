"""omtube benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports omtube from ``src``.  Every
op is a fresh Python process (``op.py``) that runs one workload config.
The configs follow from ``--seed``: ops come in pairs that share a seed
(``op_seed``), and ops with the same seed must return bit-identical results.

``--trace 0`` runs ops back to back until ``--seconds`` would be exceeded
(at least ``MIN_OPS``) and reports the end-to-end metrics as medians over
the ops.  ``--trace 1`` runs the traced pass, a fixed amount of work that
``--seconds`` does not change: one untraced op with one worker, the
workload's untraced pool op when it uses more than one worker, and one
traced op, which also runs the layer suite and probes.  It reports the
per-layer metrics and writes the spans under ``.perfbench/``.

The human-readable report goes to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER, per_layer_unit
from probes import BASELINE_NS
from spans import now
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
MIN_OPS = 3
OP_TIMEOUT_S = 150
# name -> unit, in BENCHMARK.json order
END_TO_END = {"wall_s": "s", "setup_s": "s", "tts_1pct_s": "s", "peak_rss_mb": "MB"}


def tts_1pct(wall_s, relse):
    """Time to a 1 % relative standard error: wall x (relSE / 0.01)^2."""
    return wall_s * (relse / 0.01) ** 2


def highest_percentile(n, beyond=10):
    """Highest whole percentile with at least ``beyond`` of n samples above it."""
    p = int(100 * (1 - beyond / n)) if n else 0
    return p if p > 50 else None


def summarize(values):
    """Median, the highest supported percentile and the sample count."""
    vals = sorted(values)
    out = {"n": len(vals), "median": statistics.median(vals), "max": vals[-1]}
    p = highest_percentile(len(vals))
    if p is not None:
        out[f"p{p}"] = statistics.quantiles(vals, n=100, method="inclusive")[p - 1]
    return out


def op_env(threads):
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OMTUBE_THREADS=str(threads),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_op(cfg, threads, trace_path=None):
    """Run one op process; returns its record, with ``problems`` empty when it passed."""
    args = [sys.executable, str(HERE / "op.py"), json.dumps(cfg)]
    t0 = now()
    args.append(repr(t0))
    if trace_path:
        args += ["--trace", str(trace_path)]
    proc = subprocess.Popen(args, cwd=ROOT, env=op_env(threads), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        # pool workers share the op's session: none may outlive the op, even
        # when this process is stopped while it waits
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if timed_out:
        proc.communicate()
        return {"seed": cfg["seed"], "wall": now() - t0,
                "problems": [f"timed out after {OP_TIMEOUT_S} s"]}
    wall = now() - t0
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or [""]
        return {"seed": cfg["seed"], "wall": wall,
                "problems": [f"exit code {proc.returncode}: {tail[0]}"]}
    rec = json.loads(out.strip().splitlines()[-1])
    rec.update(seed=cfg["seed"], wall=wall)
    rec["results_text"] = json.dumps(rec.pop("results"), sort_keys=True)
    return rec


def warm_up():
    """Import omtube once untimed, so bytecode and the page cache are warm."""
    subprocess.run([sys.executable, "-c", "import omtube"], cwd=ROOT, env=op_env(1),
                   check=True, timeout=OP_TIMEOUT_S)


def op_seed(seed, k):
    """Seed of the k-th op pair of a run: ops 2k and 2k + 1 share it."""
    return (seed * 1000 + k) % 2 ** 64


def judge(ops):
    """Mark ops whose results differ from the first op of the same seed;
    returns the failed count."""
    first = {}
    for rec in ops:
        if "results_text" in rec:
            ref = first.setdefault(rec["seed"], rec["results_text"])
            if rec["results_text"] != ref:
                rec["problems"].append("results differ from an earlier op of the same seed")
    return sum(1 for rec in ops if rec["problems"])


def run_untraced(wl, seed, seconds, sizes=None):
    ops = []
    t_end = now() + seconds
    while len(ops) < MIN_OPS or now() + statistics.median(r["wall"] for r in ops) <= t_end:
        ops.append(run_op(wl.make_config(op_seed(seed, len(ops) // 2), **(sizes or {})),
                          wl.threads))
    failed = judge(ops)
    done = [r for r in ops if "t_setup" in r]
    if not done:
        return ops, failed, {}, {}
    # relSE is a property of the seed, wall time of the run: average relSE^2
    # over the run's seeds, so that one seed's luck does not set the metric
    relse2 = {r["seed"]: r["relse"] ** 2 for r in done}
    rms_relse = math.sqrt(sum(relse2.values()) / len(relse2))
    series = {"wall_s": [r["wall"] for r in done], "setup_s": [r["t_setup"] for r in done],
              "peak_rss_mb": [r["peak_rss_mb"] for r in done]}
    report = {name: summarize(vals) for name, vals in series.items()}
    report["import_s"] = summarize([r["t_import"] for r in done])
    report["run_s"] = summarize([r["t_run"] - r["t_setup"] for r in done])
    report["relse"] = {str(k): math.sqrt(v) for k, v in relse2.items()}
    report["env"] = done[0]["env"]
    values = {name: report[name]["median"] for name in series}
    values["tts_1pct_s"] = tts_1pct(values["wall_s"], rms_relse)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return ops, failed, metrics, report


def run_traced(wl, seed, sizes=None):
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    cfg = wl.make_config(op_seed(seed, 0), **(sizes or {}))
    base = run_op(cfg, 1)
    ops = [base]
    if wl.threads != 1:
        ops.append(run_op(cfg, wl.threads))
    traced = run_op(cfg, 1, trace_path)
    ops.append(traced)
    # one seed: the pool run and the traced run must both match the plain
    # one-worker run exactly
    failed = judge(ops)
    if "layers" not in traced or "t_run" not in base:
        return ops, failed, {}, {}
    layer = traced["layers"]
    m = dict(layer["metrics"])
    m["trace.overhead_frac"] = traced["t_run"] / base["t_run"] - 1
    metrics = {name: {"value": m[name], "unit": per_layer_unit(name)} for name in PER_LAYER}
    baseline = {name: {"ns_per_lane_step": ns, "roadmap": BASELINE_NS[name],
                       "ratio": ns / BASELINE_NS[name],
                       "over_2x": not 0.5 <= ns / BASELINE_NS[name] <= 2.0}
                for name, ns in layer["suite_ns"].items()}
    report = {"source": layer["source"], "layer_self_s": layer["layer_self_s"],
              "baseline": baseline, "geometry_batch": layer["geometry_batch"],
              "spans": str(trace_path.relative_to(ROOT)), "env": traced["env"]}
    return ops, failed, metrics, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a stopped benchmark still kills its current op (see run_op)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "omtube" / "__init__.py").is_file():
        print(f"error: no omtube package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    warm_up()
    if args.trace:
        ops, failed, metrics, report = run_traced(wl, args.seed)
    else:
        ops, failed, metrics, report = run_untraced(wl, args.seed, args.seconds)
    print(json.dumps({"workload": wl.name, "config": wl.base_config(), "report": report,
                      "ops": [{key: r.get(key) for key in ("seed", "wall", "problems")}
                              for r in ops]}, indent=1))
    if not metrics:
        print("error: no op produced timings", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
