"""Print the op results of every benchmark workload, run from one source tree.

    python tools/op_results.py SRC

SRC is the ``src`` directory of the checkout to import ``omtube`` from.
Each workload of this checkout's ``perfbench/workloads.py`` runs one op at
the harness's tiny sizes with seed 1 and one worker, so two trees run the
same ops.  The output is one sorted JSON line
holding ``cli.SCHEMA`` and the results, so two trees can be compared
textually: outputs that are meant to stay fixed are equal, or the schema
differs.
"""

import json
import os
import sys
from pathlib import Path

# the tiny sizes of perfbench/tests/test_harness.py: enough survivors for
# every estimator, under two seconds per tree in all
TINY = {"ratio-s2": {"paths": 4096}, "weight-s2-rot": {"paths": 1536},
        "moment-s2": {"paths": 4096}, "ratio-warped3": {"paths": 1000, "n_nodes": 6}}


def main(src):
    os.environ["OMTUBE_THREADS"] = "1"
    sys.path[:0] = [str(Path(src).resolve()),
                    str(Path(__file__).resolve().parent.parent / "perfbench")]
    from omtube import cli
    from workloads import WORKLOADS

    results = {}
    for name, wl in WORKLOADS.items():
        cfg = wl.make_config(1, **TINY[name])
        results[name], _ = wl.run(wl.setup(cfg), cfg)
    print(json.dumps({"schema": cli.SCHEMA, "results": results}, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
