#!/usr/bin/env python3
"""mlstar benchmark: cold CLI processes, an operator grid and a series sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of an mlstar checkout. The last line of standard output
is one JSON object with "correct", "attempted", "failed" and "metrics":
with --trace 0 the end-to-end metrics, measured with no wrappers installed;
with --trace 1 the per-layer metrics, from a traced half of the run, with the
untraced other half as the baseline of the tracing overhead. --smoke runs
every workload at a tiny size, traced and untraced, with all output checks.
See perfbench/README.md.
"""

import os

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy loads here, and inherited by every child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 7
PYTHON = sys.executable


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv, out_path: Path, env: dict):
    """Run one child to its end; returns (wall seconds, exit code, peak RSS in KiB)."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def _require_ok(code: int, what: str, out_path: Path):
    if code != 0:
        stderr = out_path.with_suffix(".err").read_text(errors="replace")
        raise BenchError(f"{what} exited with {code}:\n{stderr}")


def measure_setup(kind: str, job_paths, repeats: int, tmp: Path, env: dict) -> list:
    """(import_s, parse_s) of `repeats` fresh processes."""
    samples = []
    out = tmp / "setup.out"
    for _ in range(repeats):
        _, code, _ = spawn([PYTHON, BENCH / "setup_probe.py", kind, *job_paths], out, env)
        _require_ok(code, "setup probe", out)
        probe = json.loads(out.read_text())
        samples.append((probe["import_s"], probe["parse_s"]))
    return samples


def _empty_trace() -> dict:
    return {"self_s": dict.fromkeys(tracer.LAYERS, 0.0), "calls": dict.fromkeys(tracer.LAYERS, 0),
            "series_points": 0, "grid_points": 0, "failed_points": 0, "report_s": 0.0,
            "wall_s": 0.0}


def _add_trace(total: dict, part: dict):
    for key in ("self_s", "calls"):
        for layer, value in part[key].items():
            total[key][layer] += value
    for key in ("series_points", "grid_points", "failed_points", "report_s", "wall_s"):
        total[key] += part[key]


def _comparable(label: str, stdout: str) -> str:
    """The output a repeat must reproduce: all of it but the report's timings."""
    if label != "certify":
        return stdout
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


def run_cli(inputs: dict, seconds: float, traced: bool, tmp: Path, env: dict) -> dict:
    """Whole rounds of fresh CLI processes until `seconds` have passed."""
    out, trace_out = tmp / "cli.out", tmp / "trace.json"
    report_path = ROOT / inputs["report_path"]
    times, ok_times, op_points, peak_kib, failed = [], [], [], 0, 0
    problems, first = [], {}
    trace = _empty_trace() if traced else None
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for command in inputs["commands"]:
            if traced:
                argv = [PYTHON, BENCH / "trace_cli.py", trace_out, *command["argv"]]
            else:
                argv = [PYTHON, "-m", "mlstar.cli", *command["argv"]]
            elapsed, code, kib = spawn(argv, out, env)
            times.append(elapsed)
            peak_kib = max(peak_kib, kib)
            stdout = out.read_text()
            op_points.append(command["points"] if code == 0 else 0)
            if code != 0:
                failed += 1
            else:
                ok_times.append(elapsed)
            if traced:
                _add_trace(trace, json.loads(trace_out.read_text()))
            label = command["label"]
            output = (code, _comparable(label, stdout))
            if label not in first:
                report_text = report_path.read_text() if label == "certify" else ""
                problems += checks.cli_output(command, inputs, code, stdout, report_text)
                first[label] = output
            elif output != first[label]:
                problems.append(f"{label}: output changed between rounds")
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    return {"times": times, "ok_times": ok_times, "op_points": op_points,
            "round_size": len(inputs["commands"]), "peak_kib": peak_kib,
            "attempted": len(times), "failed": failed,
            "problems": problems, "trace": trace, "rounds": rounds}


def run_in_process(inputs: dict, seconds: float, traced: bool, tmp: Path, env: dict) -> dict:
    """One worker process running whole rounds of certificates; then the checks."""
    job_path = tmp / "job.json"
    out_dir = tmp / ("traced" if traced else "untraced")
    out_dir.mkdir()
    _, code, _ = spawn(
        [PYTHON, BENCH / "worker.py", job_path, inputs["round_size"], seconds,
         int(traced), out_dir], out_dir / "worker.out", env)
    _require_ok(code, "worker", out_dir / "worker.out")
    result = json.loads((out_dir / "result.json").read_text())
    ops = inputs["job"]["operators"]
    problems, faulty, points_of = [], set(), {}
    with open(out_dir / "certificates.jsonl", encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            index, cert = entry["index"], checks.certificate_from_report(entry)
            points_of[index] = cert["total_points"]
            found = checks.certificate(ops[index], cert, inputs["angles"])
            if found and workloads.is_known_fault(ops[index]):
                faulty.add(index)   # a wrong certificate of a known fault: a failed operation
            else:
                problems += found
    for index, message in result["errors"]:
        if not workloads.is_known_fault(ops[index]):
            problems.append(f"{ops[index]['name']} failed: {message}")
    if result["mismatched"]:
        problems.append(f"{result['mismatched']} repeated certificates changed their result")
    records = list(worker.OP_RECORD.iter_unpack((out_dir / "ops.bin").read_bytes()))
    times = [t for _, _, t in records]
    ok = [succeeded and index not in faulty for index, succeeded, _ in records]
    trace = None
    if traced:
        trace = result["trace"]
        trace["wall_s"] = sum(times)
    return {"times": times, "ok_times": [t for t, good in zip(times, ok) if good],
            "op_points": [points_of[i] if good else 0 for (i, _, _), good in zip(records, ok)],
            "round_size": inputs["round_size"], "peak_kib": result["peak_kib"],
            "attempted": len(records), "failed": ok.count(False), "problems": problems,
            "trace": trace, "rounds": result["rounds"]}


def end_to_end(setup: list, run: dict) -> dict:
    # a median over rounds, so that a slow spell of the machine moves it less than a mean
    size, times, points = run["round_size"], run["times"], run["op_points"]
    rates = [sum(points[i:i + size]) / sum(times[i:i + size]) for i in range(0, len(times), size)]
    return {
        "setup_s": (statistics.median(i + p for i, p in setup), "s"),
        "points_per_s": (statistics.median(rates), "points/s"),
        "op_p50_s": (statistics.median(run["ok_times"]), "s"),
        "peak_rss_mb": (run["peak_kib"] / 1024.0, "MB"),
    }


def per_layer(setup: list, untraced: dict, traced: dict) -> dict:
    trace, n = traced["trace"], traced["attempted"]
    self_s = trace["self_s"]
    metrics = {
        "package.import_s": (statistics.median(i for i, _ in setup), "s"),
        "jobs.parse_s": (statistics.median(p for _, p in setup), "s"),
    }
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / n, "s/op")
    metrics["jobs.report_s"] = (trace["report_s"] / n, "s/op")
    for layer in ("operators", "mittag_leffler", "numerics"):
        metrics[f"{layer}.calls"] = (trace["calls"][layer] / n, "count/op")
    metrics["mittag_leffler.points"] = (trace["series_points"] / n, "count/op")
    metrics["certify.points"] = (trace["grid_points"] / n, "count/op")
    metrics["certify.failed_points"] = (trace["failed_points"] / n, "count/op")
    metrics["mittag_leffler.points_per_grid_point"] = (
        trace["series_points"] / trace["grid_points"] if trace["grid_points"] else 0.0, "ratio")
    wall = trace["wall_s"]
    metrics["trace.wall_s"] = (wall / n, "s/op")
    metrics["trace.unattributed_pct"] = (100.0 * (wall - sum(self_s.values())) / wall, "%")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.mean(traced["times"]) / statistics.mean(untraced["times"]) - 1.0), "%")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 tmp: Path) -> dict:
    env = _child_env()
    inputs = workloads.make(name, seed, smoke, str((tmp / "report.json").relative_to(ROOT)))
    if name == "cli-cold":
        probe, run = ("cli", [workloads.CORPUS]), run_cli
    else:
        (tmp / "job.json").write_text(json.dumps(inputs["job"]))
        probe, run = ("lib", [tmp / "job.json"]), run_in_process
    # half the set-up probes before the run and half after, so that their
    # median spans the run rather than one moment of the machine's speed
    repeats = 1 if smoke else SETUP_REPEATS
    setup = measure_setup(*probe, (repeats + 1) // 2, tmp, env)
    if not trace:
        passes = [run(inputs, seconds, False, tmp, env)]
    else:
        passes = [run(inputs, seconds / 2.0, traced, tmp, env) for traced in (False, True)]
    setup += measure_setup(*probe, repeats // 2, tmp, env)
    metrics = end_to_end(setup, passes[0]) if not trace else per_layer(setup, *passes)
    problems = [p for r in passes for p in r["problems"]]
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for r in passes:
        print(f"{name}: {r['attempted']} operations in {r['rounds']} rounds, "
              f"{r['failed']} failed{' (traced)' if r['trace'] else ''}")
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def environment_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = " ".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    return (f"python {platform.python_version()} | numpy {np.__version__} | "
            f"blas {blas.get('name')} {blas.get('version')} | nproc {os.cpu_count()} "
            f"(affinity {len(os.sched_getaffinity(0))}) | {pins}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    for needed in ("src/mlstar/__init__.py", workloads.CORPUS):
        if not (ROOT / needed).is_file():
            print(f"not an mlstar checkout: {ROOT / needed} is missing", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    compiled = subprocess.run([PYTHON, "-m", "compileall", "-q", "src/mlstar"], env=_child_env())
    if compiled.returncode != 0:
        raise BenchError("byte-compiling src/mlstar failed")
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.smoke:
            results = []
            for name in workloads.WORKLOADS:
                for trace in (False, True):
                    sub = tmp / f"{name}-{int(trace)}"
                    sub.mkdir()
                    results.append(run_workload(name, args.seed, 0.0, trace, True, sub))
                    print(json.dumps(results[-1]))
            result = {"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": {}}
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  False, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()    # unless another run is using it
        except OSError:
            pass
    print(environment_line())
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
