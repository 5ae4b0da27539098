"""One benchmark op: a fresh process that runs one workload config and exits.

    python3 perfbench/op.py CONFIG_JSON T0 [--trace SPANS_PATH]

CONFIG_JSON is a config made by ``workloads.Workload.make_config``; T0 is
the CLOCK_MONOTONIC reading the parent took just before starting this
process.  The op imports omtube, builds chart and field (set-up), makes
the estimator calls (run), checks the results and prints one JSON object.
``src`` must be on PYTHONPATH; the parent pins the thread environment.

With ``--trace`` the op runs under the span recorder with one worker,
then runs the fixed layer suite traced and the untraced layer probes, and
adds the per-layer figures to its output; the spans go to SPANS_PATH.
"""

import json
import os
import platform
import resource
import sys

from spans import Tracer, now


def main(argv):
    cfg = json.loads(argv[1])
    t0 = float(argv[2])
    tracer = Tracer() if "--trace" in argv else None
    if tracer:
        i = tracer.open("omtube.import")
    import omtube
    if tracer:
        tracer.close(i)
        tracer.install(omtube)
    t_import = now()

    from workloads import WORKLOADS

    wl = WORKLOADS[cfg["workload"]]
    state = wl.setup(cfg)
    t_setup = now()
    results, relse = wl.run(state, cfg)
    t_run = now()

    import numpy
    import scipy

    out = {"t_import": t_import - t0, "t_setup": t_setup - t0, "t_run": t_run - t0,
           "results": results, "relse": relse, "problems": wl.check(results),
           "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "numpy": numpy.__version__, "scipy": scipy.__version__,
                   **{k: os.environ.get(k) for k in ("OMTUBE_THREADS", "OPENBLAS_NUM_THREADS",
                                                     "OMP_NUM_THREADS")}}}
    if tracer:
        import layers

        out["layers"], problems = layers.traced_report(tracer, state, cfg, relse, t0, t_run)
        out["problems"] += problems
        with open(argv[argv.index("--trace") + 1], "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    # ru_maxrss is in KiB on Linux; CHILDREN covers reaped pool workers
    out["peak_rss_mb"] = max(resource.getrusage(who).ru_maxrss for who in
                             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
