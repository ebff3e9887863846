"""Time one fresh import; prints ``{"import_s": ..., "modules": ...}``.

Usage: ``python probe.py repro`` (``import repro``, then the experiment
registry) or ``python probe.py repro.service.client``.
"""

import importlib
import json
import sys
import time

before = len(sys.modules)
t0 = time.perf_counter()
importlib.import_module(sys.argv[1])
import_s = time.perf_counter() - t0
modules = len(sys.modules) - before
if sys.argv[1] == "repro":
    from repro.core.experiments import all_experiments

    all_experiments()
print(json.dumps({"import_s": import_s, "modules": modules}))
