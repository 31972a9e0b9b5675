"""Run the mlstar CLI in this process with module-boundary spans recorded.

    python3 perfbench/trace_cli.py OUT_JSON [mlstar arguments...]

The package import is one span of the pseudo-layer "package" and the CLI
entry point is the root span of the "cli" layer. OUT_JSON gets the per-layer
aggregates and the in-process wall time; the exit code is the CLI's.
"""

import json
import sys
import time

from tracer import Tracer

out_path = sys.argv[1]
sys.argv = ["mlstar", *sys.argv[2:]]
tracer = Tracer()
start = time.perf_counter_ns()
import mlstar.cli  # noqa: E402  (the import is what this span measures)

tracer.record("package", "package.import", start, time.perf_counter_ns())
tracer.install()
main = tracer.wrap("cli", "cli.main", mlstar.cli.main)
code = 0
try:
    main()
except SystemExit as exc:
    code = exc.code
finally:
    summary = tracer.summary()
    summary["wall_s"] = (time.perf_counter_ns() - start) * 1e-9
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
sys.exit(code)
