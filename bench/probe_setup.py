"""Set-up probe: run in a fresh interpreter by ``bench/run.py``.

    python3 bench/probe_setup.py <config.json>

Times ``import tomolab`` and the warm-up of one workload config (load,
validate, build priors and the design rule, emit one design), and prints
``{"import_s": ..., "warm_s": ...}``.
"""

import json
import sys
import time

import workloads

workloads.require_program()
t0 = time.perf_counter()
import tomolab.cli  # noqa: E402,F401  (the import is what is timed)
t1 = time.perf_counter()
workloads.warm(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warm_s": t2 - t1}))
