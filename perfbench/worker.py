"""Run one in-process workload: certificates through mlstar's jobs layer.

    python3 perfbench/worker.py JOB ROUND_SIZE SECONDS TRACE OUT_DIR

Each operation runs one operator as a job of its own (run_job, then the
report's to_dict), so an evaluation error ends that operation only. Rounds
of ROUND_SIZE operators are repeated, cycling over the job, until SECONDS
have passed; the last round always completes.

The process keeps nothing that grows with the number of operations, so its
peak resident memory is the program's: every operation appends one
fixed-size record (operator index, success, seconds) to OUT_DIR/ops.bin
through a small write buffer, and the first certificate of each operator
goes to OUT_DIR/certificates.jsonl as its report entry plus "index"; a
repeat only has to reproduce the first result's observed value.
OUT_DIR/result.json gets the peak resident memory, taken when the timed loop
ends, the first error of each failing operator and, with TRACE 1, the
per-layer aggregates.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import struct
import sys
import time

OP_RECORD = struct.Struct("<i?d")  # operator index, succeeded, seconds


def main(job_path, round_size, seconds, trace, out_dir):
    # imported here, so that run.py can read OP_RECORD without loading mlstar
    from mlstar.errors import MLStarError
    from mlstar.jobs import load_job, run_job

    from tracer import Tracer

    job = load_job(job_path)
    singles = [dataclasses.replace(job, operators=(op,)) for op in job.operators]
    run = run_job
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("jobs", "jobs.run_job", run_job)

    def operate(single):
        return run(single).to_dict(include_timings=False)["certificates"][0]

    errors = {}
    first_observed = {}
    mismatched = 0
    rounds = len(singles) // round_size
    clock = time.perf_counter
    deadline = clock() + seconds
    round_index = 0
    with open(f"{out_dir}/ops.bin", "wb") as ops, \
            open(f"{out_dir}/certificates.jsonl", "w", encoding="utf-8") as certificates:
        while True:
            base = (round_index % rounds) * round_size
            for index in range(base, base + round_size):
                start = clock()
                try:
                    entry = operate(singles[index])
                except MLStarError as exc:
                    ops.write(OP_RECORD.pack(index, False, clock() - start))
                    errors.setdefault(index, f"{type(exc).__name__}: {exc}")
                    continue
                ops.write(OP_RECORD.pack(index, True, clock() - start))
                if index in first_observed:
                    mismatched += first_observed[index] != entry["observed"]
                    continue
                first_observed[index] = entry["observed"]
                certificates.write(json.dumps({"index": index, **entry}) + "\n")
            round_index += 1
            if clock() >= deadline:
                break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"peak_kib": peak_kib, "errors": sorted(errors.items()),
              "mismatched": mismatched, "rounds": round_index}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(f"{out_dir}/result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    job_arg, size_arg, seconds_arg, trace_arg, out_arg = sys.argv[1:]
    main(job_arg, int(size_arg), float(seconds_arg), trace_arg == "1", out_arg)
