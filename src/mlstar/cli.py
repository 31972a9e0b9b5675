"""Command-line front end.

Commands:
    eval     evaluate normalized Mittag-Leffler functions or an operator
    orders   print the predicted orders and hypothesis flags of a job
    certify  run a job's certificates and emit a report
    dump     sample one certified quantity over a grid as CSV

Exit codes: 0 success (certify: all pass, or hypothesis warnings without
--strict), 1 any failed certificate, 2 bad usage or unparseable job,
3 evaluation errors.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import sys

import click

from . import __version__
from .certify import GridSpec, VERDICT_FAIL, VERDICT_HYPOTHESIS, sample_grid
from .defaults import SERIES_TOL
from .errors import DomainError, JobFileError, MLStarError
from .jobs import (
    Job,
    KIND_CONVEX,
    KIND_STARLIKE,
    _claim,
    job_digest,
    load_job,
    operator_to_dict,
    run_job,
)
from .mittag_leffler import MLParams, log_deriv, ml_norm, ml_raw
from .operators import f_conv_value, f_value

_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_EVAL = 3


@click.group()
@click.version_option(version=__version__, prog_name="mlstar")
@click.option("--tol", type=float, default=None,
              help="Series truncation tolerance (default 1e-14); it also cuts the "
                   "operators' series.")
@click.option("--grid-angles", type=int, default=None,
              help="Override the number of sampled angles per circle.")
@click.option("--r-max", type=float, default=None,
              help="Override the outermost sampled radius (< 1).")
@click.option("--strict", is_flag=True,
              help="Treat hypothesis violations as failures (exit 1).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default=None,
              help="Report format; defaults to the job's 'outputs' entry or text.")
@click.pass_context
def cli(ctx, tol, grid_angles, r_max, strict, fmt):
    """Evaluate normalized Mittag-Leffler functions, build their integral
    operators, and certify predicted orders of starlikeness and convexity
    by dense sampling of the unit disk."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise click.BadParameter(f"must be finite and > 0, got {tol!r}", param_hint="--tol")
    ctx.obj = {
        "tol": tol,
        "grid_angles": grid_angles,
        "r_max": r_max,
        "strict": strict,
        "format": fmt,
    }


def _load(path) -> Job:
    try:
        return load_job(path)
    except JobFileError as exc:
        raise click.UsageError(str(exc))


def _operator(job: Job, name: str):
    for op in job.operators:
        if op.name == name:
            return op
    raise click.UsageError(f"job has no operator named {name!r}")


def _apply_overrides(job: Job, options) -> Job:
    """The job with the global --tol, --grid-angles and --r-max applied."""
    tol = options.get("tol")
    if tol is not None:
        if tol > job.margin_tol:
            raise click.UsageError(f"--tol {tol!r} exceeds the job's margin tolerance "
                                   f"{job.margin_tol!r}")
        job = dataclasses.replace(job, series_tol=tol)
    angles = options.get("grid_angles")
    r_max = options.get("r_max")
    if angles is None and r_max is None:
        return job
    try:
        kwargs = {}
        if r_max is not None:
            kwargs["r_max"] = r_max
        else:
            kwargs["r_max"] = job.grid.r_max
            kwargs["radii"] = job.grid.radii
        kwargs["angles"] = angles if angles is not None else job.grid.angles
        grid = GridSpec(**kwargs)
    except DomainError as exc:
        raise click.UsageError(str(exc))
    return dataclasses.replace(job, grid=grid)


def _parse_z(values):
    points = []
    for raw in values:
        try:
            z = complex(raw)
        except ValueError:
            raise click.UsageError(f"cannot parse {raw!r} as a complex number")
        if not (cmath.isfinite(z) and abs(z) <= 1.0):
            raise click.UsageError(f"|z| must be finite and <= 1, got {raw!r}")
        points.append(z)
    if not points:
        raise click.UsageError("at least one --z value is required")
    return points


@cli.command("eval")
@click.option("--alpha", type=float, default=None, help="Series parameter alpha (>= 1).")
@click.option("--beta", type=float, default=None, help="Series parameter beta (> 0).")
@click.option("--raw", is_flag=True, help="Evaluate the raw series instead of the normalization.")
@click.option("--deriv", "quantity", flag_value="log-deriv",
              help="Evaluate z E'/E instead of the value.")
@click.option("--job", "job_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Job file providing an operator to evaluate.")
@click.option("--operator", "op_name", default=None,
              help="Name of the job operator to evaluate (implies --job).")
@click.option("--z", "z_values", multiple=True, required=True,
              help="Evaluation point; may repeat. Accepts complex literals like 0.3+0.4j.")
@click.pass_context
def cmd_eval(ctx, alpha, beta, raw, quantity, job_path, op_name, z_values):
    """Evaluate function or operator values at a list of points.

    Examples:

        mlstar eval --alpha 2 --beta 3 --z 0.49

        mlstar eval --raw --alpha 1 --beta 1 --z 0.5

        mlstar eval --job corpus.json --operator star-24 --z 0.25 --z 0.5j
    """
    options = ctx.obj
    tol = options.get("tol") or SERIES_TOL
    points = _parse_z(z_values)

    if op_name is not None or job_path is not None:
        if job_path is None or op_name is None:
            raise click.UsageError("operator evaluation needs both --job and --operator")
        rows, failed = _eval_operator_rows(_operator(_load(job_path), op_name), points, tol)
    else:
        if alpha is None or beta is None:
            raise click.UsageError("function evaluation needs --alpha and --beta")
        try:
            params = MLParams(alpha, beta)
        except DomainError as exc:
            raise click.UsageError(str(exc))
        rows, failed = _eval_ml_rows(params, points, raw, quantity, tol)

    width = max(len(r[0]) for r in rows)
    for label, body in rows:
        click.echo(f"{label:<{width}}  {body}")
    if failed:
        sys.exit(_EXIT_EVAL)


def _eval_ml_rows(params, points, raw, quantity, tol):
    rows, failed = [], False
    for z in points:
        label = _fmt_complex(z)
        try:
            if quantity == "log-deriv":
                value = log_deriv(params, z, tol)
                rows.append((label, f"{_fmt_complex(value)}"))
            else:
                result = ml_raw(params, z, tol) if raw else ml_norm(params, z, tol)
                rows.append((label, f"{_fmt_complex(result.value)}  "
                                    f"terms={result.terms_used} tail={result.tail_bound:.3e}"))
        except MLStarError as exc:
            rows.append((label, f"error: {exc}"))
            failed = True
    return rows, failed


def _eval_operator_rows(op, points, tol):
    rows, failed = [], False
    for z in points:
        label = _fmt_complex(z)
        try:
            if op.kind == KIND_STARLIKE:
                value = f_value(op.operator_spec(), z, tol)
            elif op.kind == KIND_CONVEX:
                value = f_conv_value(op.factors, z, tol)
            else:
                raise click.UsageError(
                    f"operator {op.name!r} has kind {op.kind!r}; only starlike and "
                    f"convex operators have values to evaluate")
            rows.append((label, _fmt_complex(value)))
        except MLStarError as exc:
            rows.append((label, f"error: {exc}"))
            failed = True
    return rows, failed


def _fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}j"


@cli.command("orders")
@click.argument("job_path", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def cmd_orders(ctx, job_path):
    """Print each operator's predicted order and hypothesis flag.

    Hypothesis violations produce a warning but still exit 0; the numbers
    remain useful as diagnostics.
    """
    job = _load(job_path)
    rows = []
    for op in job.operators:
        claim = _claim(op)
        rows.append((op.name, op.kind, claim.predicted, claim.hypothesis_ok))
    if not rows:
        raise click.UsageError("job lists no operators")
    fmt = ctx.obj.get("format") or "text"
    if fmt == "json":
        doc = [
            {"name": name, "kind": kind, "delta": delta, "hypothesis_ok": ok}
            for name, kind, delta, ok in rows
        ]
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
    else:
        name_w = max(len(r[0]) for r in rows)
        for name, kind, delta, ok in rows:
            flag = "ok" if ok else "HYPOTHESIS-VIOLATED"
            click.echo(f"{name:<{name_w}}  {kind:<12} delta={delta:.12g}  {flag}")
    if any(not ok for _, _, _, ok in rows):
        click.echo("warning: some operators violate the theorem hypotheses; "
                   "their predicted orders are not guaranteed", err=True)


@cli.command("certify")
@click.argument("job_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="Also write the JSON report to this path.")
@click.pass_context
def cmd_certify(ctx, job_path, output):
    """Run every certificate in a job and report the verdicts.

    Exit 0 when all certificates pass, 1 when any fails (or, with
    --strict, when any hypothesis is violated).
    """
    options = ctx.obj
    job = _apply_overrides(_load(job_path), options)
    if not job.operators:
        raise click.UsageError("job lists no operators; nothing to certify")

    report = run_job(job)
    fmt = options.get("format") or (job.outputs[0] if job.outputs else "text")
    doc = report.to_dict()
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if fmt == "json":
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_text_report(report)

    verdict = report.summary_verdict
    if verdict == VERDICT_FAIL:
        sys.exit(_EXIT_FAIL)
    if verdict == VERDICT_HYPOTHESIS:
        click.echo("warning: hypothesis violations; predictions not guaranteed", err=True)
        if options.get("strict"):
            sys.exit(_EXIT_FAIL)


def _print_text_report(report):
    name_w = max(len(n) for n in report.names)
    for name, cert, seconds in zip(report.names, report.certificates, report.timings):
        click.echo(
            f"{name:<{name_w}}  {cert.quantity:<17} predicted={cert.predicted:+.9f} "
            f"observed={cert.observed:+.9f} margin={cert.margin:+.3e} "
            f"[{cert.verdict}] ({seconds:.2f}s)"
        )
        if cert.failed_count:
            click.echo(f"{'':<{name_w}}  {cert.failed_count} grid points failed to evaluate")
    click.echo(f"summary: {report.summary_verdict}")


@cli.command("dump")
@click.option("--job", "job_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Job file providing the operator.")
@click.option("--operator", "op_name", required=True, help="Operator name within the job.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="Write CSV here instead of stdout.")
@click.pass_context
def cmd_dump(ctx, job_path, op_name, output):
    """Sample the operator's certified quantity over the grid as CSV.

    Rows are emitted radius-major in grid order as radius,angle,re,im; the
    header carries a digest of the sampled spec so dumps are traceable.
    """
    job = _apply_overrides(_load(job_path), ctx.obj)
    op = _operator(job, op_name)
    claim = _claim(op)
    digest_doc = {"operator": operator_to_dict(op), "grid": job.grid.to_dict()}
    lines = [f"# spec={op.name} quantity={claim.sampled} digest={job_digest(digest_doc)}",
             "radius,angle,re,im"]
    failed = False
    evaluate = claim.evaluator(job.grid.radii[-1], job.series_tol)
    for r, angles, deviation, failures in sample_grid(job.grid, evaluate):
        values = (1.0 + deviation).tolist()
        for k, theta in enumerate(angles.tolist()):
            if k in failures:
                lines.append(f"{r!r},{theta!r},error,error")
                failed = True
            else:
                lines.append(f"{r!r},{theta!r},{values[k].real!r},{values[k].imag!r}")
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)
    if failed:
        sys.exit(_EXIT_EVAL)


def main():
    cli(prog_name="mlstar")


if __name__ == "__main__":
    main()
