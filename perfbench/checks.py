"""Checks of mlstar's outputs against reference.py and the method's properties.

Each check returns a list of problems; an empty list means the output is
correct. Nothing is compared with stored output.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference
from workloads import DEFAULT_RADII, grid_points

SERIES_TOL = 1e-10       # series quantities: mlstar truncates at 1e-14
# |z f'/f - 1| of log-deriv-bound is about beta^-alpha, down to 1e-11 here, so
# it is compared relatively, with an absolute floor for the cancellation in
# z f'/f - 1 (up to 1.2e-14 seen between mlstar and the reference)
BOUND_REL_TOL = 1e-8
BOUND_ABS_TOL = 5e-14
OPERATOR_TOL = 1e-8      # ray quadrature: certificates integrate to 1e-9
PRINTED_TOL = 1e-10      # values the CLI prints with 12 significant digits
STARLIKE_SAMPLES = 128   # angles per radius compared on rooted operators


def _tol(op: dict, reference_value=0.0):
    """How far a certified value may be from reference_value."""
    if op["kind"] == "log-deriv-bound":
        return BOUND_ABS_TOL + BOUND_REL_TOL * np.abs(reference_value)
    return OPERATOR_TOL if op["kind"] == "starlike" else SERIES_TOL


def certificate(op: dict, cert: dict, angles: int) -> list:
    """Problems with one certificate of op on the default radii at `angles`.

    cert holds verdict, predicted, observed, re, im, radius, hypothesis_ok,
    failed_count and total_points.
    """
    name = op["name"]
    problems = []
    largest = op["kind"] == "log-deriv-bound"
    predicted, hypothesis_ok = reference.predicted_order(op)
    predicted = op.get("predicted", predicted)
    if not math.isclose(cert["predicted"], predicted, rel_tol=1e-12, abs_tol=1e-14):
        problems.append(f"{name}: predicted {cert['predicted']!r}, reference {predicted!r}")
    if cert["hypothesis_ok"] != hypothesis_ok:
        problems.append(f"{name}: hypothesis_ok {cert['hypothesis_ok']}, reference {hypothesis_ok}")
    if cert["total_points"] != len(DEFAULT_RADII) * angles or cert["failed_count"]:
        problems.append(f"{name}: {cert['failed_count']} of {cert['total_points']} "
                        f"grid points failed")
    if abs(cert["radius"] - DEFAULT_RADII[-1]) > 1e-12:
        problems.append(f"{name}: argmin on radius {cert['radius']}, not the outermost")
    at_argmin = float(reference.certified_values(op, [complex(cert["re"], cert["im"])])[0])
    if not abs(at_argmin - cert["observed"]) <= _tol(op, at_argmin):
        problems.append(f"{name}: observed {cert['observed']!r}, reference {at_argmin!r} "
                        f"at the argmin")
    z = grid_points(angles)
    if op["kind"] == "starlike":
        stride = max(1, angles // STARLIKE_SAMPLES)
        z = z.reshape(len(DEFAULT_RADII), angles)[:, ::stride].ravel()
    values = reference.certified_values(op, z)
    beyond = values - cert["observed"] if largest else cert["observed"] - values
    if np.any(beyond > _tol(op, values)):
        problems.append(f"{name}: a grid point lies {float(np.max(beyond)):.3g} "
                        f"{'above' if largest else 'below'} observed")
    if "predicted" in op:
        if cert["verdict"] != "fail":
            problems.append(f"{name}: negative control gave verdict {cert['verdict']}")
    elif hypothesis_ok and cert["verdict"] != "pass":
        problems.append(f"{name}: hypotheses hold but verdict is {cert['verdict']}")
    return problems


def certificate_from_report(entry: dict) -> dict:
    """The fields certificate() checks, from one entry of a report's "certificates"."""
    grid = entry["grid"]
    return {"verdict": entry["verdict"], "predicted": entry["predicted"],
            "observed": entry["observed"], "re": entry["argmin"]["re"],
            "im": entry["argmin"]["im"], "radius": entry["argmin"]["radius"],
            "hypothesis_ok": entry["hypothesis_ok"],
            "failed_count": entry["failed_points"]["count"],
            "total_points": len(grid["radii"]) * grid["angles"]}


def _close(value: complex, expected: complex, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def cli_output(command: dict, inputs: dict, code: int, stdout: str, report_text: str) -> list:
    """Problems with one CLI process's exit code and output."""
    label = command["label"]
    if code != 0:
        return [f"{label}: exit code {code}, documented 0"]
    ops = {op["name"]: op for op in inputs["corpus"]["operators"]}
    lines = stdout.splitlines()
    problems = []
    if label == "orders":
        if [line.split()[0] for line in lines] != list(ops):
            return [f"orders: rows {lines!r} do not list the corpus operators"]
        for line in lines:
            name, _, delta, flag = line.split()
            expected, ok = reference.predicted_order(ops[name])
            if not math.isclose(float(delta.removeprefix("delta=")), expected, rel_tol=1e-10):
                problems.append(f"orders: {name} {delta}, reference {expected!r}")
            if (flag == "ok") != ok:
                problems.append(f"orders: {name} flag {flag}, reference hypothesis {ok}")
    elif label == "certify":
        try:
            doc = json.loads(stdout)
            written = json.loads(report_text)
        except json.JSONDecodeError as exc:
            return [f"certify: report is not JSON: {exc}"]
        if written != doc:
            problems.append("certify: the -o report differs from the printed one")
        if doc["summary"]["verdict"] != "pass":
            problems.append(f"certify: summary verdict {doc['summary']['verdict']}")
        if [c["name"] for c in doc["certificates"]] != list(ops):
            return problems + ["certify: certificates do not match the corpus operators"]
        for entry in doc["certificates"]:
            problems += certificate(ops[entry["name"]], certificate_from_report(entry),
                                    inputs["angles"])
    elif label.startswith("eval"):
        z = np.array(command["z"])
        if len(lines) != len(z):
            return [f"{label}: {len(lines)} rows for {len(z)} points"]
        values = [complex(line.split()[1]) for line in lines]
        if "operator" in command:
            op = ops[command["operator"]]
            expected = reference.operator_value(op["factors"], op["zeta"], z)
        else:
            expected = reference.ml_value(command["alpha"], command["beta"], z)
        for zi, value, ref in zip(z, values, expected):
            if not _close(value, ref, PRINTED_TOL):
                problems.append(f"{label}: value {value} at {zi}, reference {ref}")
    else:
        problems += _dump(command, inputs, ops[command["operator"]], lines)
    return problems


def _dump(command, inputs, op, lines) -> list:
    label, angles = command["label"], inputs["angles"]
    if len(lines) < 2 or not lines[0].startswith(f"# spec={op['name']} ") \
            or lines[1] != "radius,angle,re,im":
        return [f"{label}: missing header"]
    rows = lines[2:]
    if len(rows) != len(DEFAULT_RADII) * angles:
        return [f"{label}: {len(rows)} rows, grid has {len(DEFAULT_RADII) * angles}"]
    if any("error" in row for row in rows):
        return [f"{label}: error rows present"]
    index = np.array(inputs["sample_rows"])
    fields = np.array([[float(x) for x in rows[i].split(",")] for i in index])
    theta = 2.0 * np.pi * (index % angles) / angles
    radius = np.array(DEFAULT_RADII)[index // angles]
    if np.max(np.abs(fields[:, 0] - radius)) > 1e-15 or np.max(np.abs(fields[:, 1] - theta)) > 1e-12:
        return [f"{label}: rows are not in radius-major grid order"]
    value = fields[:, 2] + 1j * fields[:, 3]
    # dump prints the complex quantity itself, near 1 for log-deriv-bound
    tol = OPERATOR_TOL if op["kind"] == "starlike" else SERIES_TOL
    expected = reference.quantity(op, radius * np.exp(1j * theta))
    bad = [i for i, v, e in zip(index, value, expected) if not _close(v, e, tol)]
    return [f"{label}: rows {bad} differ from the reference"] if bad else []
