"""Time a fresh process's set-up: import the package, then load the jobs.

    python3 perfbench/setup_probe.py {lib|cli} JOB [JOB...]

Prints {"import_s": ..., "parse_s": ...}; "cli" also imports mlstar.cli.
"""

import sys
import time

start = time.perf_counter()
import mlstar.jobs  # noqa: E402  (the imports are what this probe times)

if sys.argv[1] == "cli":
    import mlstar.cli  # noqa: F401
imported = time.perf_counter()
for path in sys.argv[2:]:
    mlstar.jobs.load_job(path)
parsed = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported}))
