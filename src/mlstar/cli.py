"""Command-line front end, on the standard library's argparse.

Commands:
    eval     evaluate normalized Mittag-Leffler functions or an operator
    orders   print the predicted orders and hypothesis flags of a job
    certify  run a job's certificates and emit a report
    dump     sample one certified quantity over a grid as CSV

Global flags (--tol, --grid-angles, --r-max, --strict, --format) go before
the command. main() always ends in SystemExit with the exit code: 0 success
(certify: all pass, or hypothesis warnings without --strict), 1 any failed
certificate, 2 bad usage, an invalid job file, an output (stdout or a path)
that cannot be written or a stdout pipe that its reader closed, 3
evaluation errors (eval or dump points that failed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import json
import os
import sys
from functools import partial

from . import __version__
from .certify import VERDICT_FAIL, VERDICT_HYPOTHESIS, _circle, _finite_or_none
from .defaults import SERIES_TOL
from .errors import DomainError, JobFileError, MLStarError
from .jobs import (
    GridSpec,
    Job,
    KIND_CONVEX,
    KIND_STARLIKE,
    _claim,
    job_digest,
    load_job,
    run_job,
)
from .mittag_leffler import MLParams, _check_disk, _check_tol, _log_deriv_value, ml_norm, ml_raw
from .operators import _operator_value

_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_EVAL = 3


class UsageError(Exception):
    """Bad usage: main reports it with the usage line and exits 2."""


def _operator(job: Job, name: str):
    for op in job.operators:
        if op.name == name:
            return op
    raise UsageError(f"job has no operator named {name!r}")


def _apply_overrides(job: Job, args) -> Job:
    """The job with the global --tol, --grid-angles and --r-max applied; Job checks --tol."""
    if args.tol is not None:
        job = dataclasses.replace(job, series_tol=args.tol)
    if args.grid_angles is None and args.r_max is None:
        return job
    angles = args.grid_angles if args.grid_angles is not None else job.grid.angles
    if args.r_max is not None:
        grid = GridSpec(r_max=args.r_max, angles=angles)
    else:
        grid = GridSpec(radii=job.grid.radii, angles=angles)
    return dataclasses.replace(job, grid=grid)


def _parse_z(values):
    """The --z points; a point outside the closed disk raises DomainError, exit 2 in main."""
    points = []
    for raw in values:
        try:
            z = complex(raw)
        except ValueError:
            raise UsageError(f"cannot parse {raw!r} as a complex number")
        points.append(_check_disk(z))
    return points


def _open(path):
    """path opened for writing before any work, so that a bad path is bad usage at once;
    without a path, a context that yields None."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}")


def cmd_eval(args) -> int:
    """Evaluate function or operator values at a list of points.

    Each row prints the value, terms=N, the terms summed, and tail=T, which
    bounds the truncation, the terms dropped, and not the rounding of the
    terms summed. An operator's tail sums the terms its table drops and
    takes the terms past the table to keep decaying: it is not yet proven.

    Examples:

        mlstar eval --alpha 2 --beta 3 --z 0.49

        mlstar eval --raw --alpha 1 --beta 1 --z 0.5

        mlstar eval --job corpus.json --operator star-24 --z 0.25 --z 0.5j
    """
    points = _parse_z(args.z)

    if args.operator is not None or args.job is not None:
        if args.job is None or args.operator is None:
            raise UsageError("operator evaluation needs both --job and --operator")
        for flag in ("alpha", "beta", "raw", "deriv"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} does not apply to operator evaluation")
        job = load_job(args.job)
        op = _operator(job, args.operator)
        if op.kind not in (KIND_STARLIKE, KIND_CONVEX):
            raise UsageError(f"operator {op.name!r} has kind {op.kind!r}; only starlike "
                             f"and convex operators have values to evaluate")
        # F, as f_value sums it, or F^zeta at zeta = 1, as f_conv_value; eval meets no
        # margin, so --tol overrides the job's series tolerance unchecked against one
        evaluate = partial(_operator_value, op.spec, tol=args.tol or job.series_tol,
                           power=op.kind == KIND_CONVEX)
    else:
        if args.alpha is None or args.beta is None:
            raise UsageError("function evaluation needs --alpha and --beta")
        params = MLParams(args.alpha, args.beta)
        value = _log_deriv_value if args.deriv else ml_raw if args.raw else ml_norm
        evaluate = partial(value, params, tol=args.tol or SERIES_TOL)

    rows, failed = [], False
    for z in points:
        try:
            result = evaluate(z)
            body = (f"{_fmt_complex(result.value, repr)}  "
                    f"terms={result.terms_used} tail={result.tail_bound:.3e}")
        except MLStarError as exc:
            body, failed = f"error: {exc}", True
        rows.append((_fmt_complex(z), body))
    width = max(len(label) for label, _ in rows)
    for label, body in rows:
        print(f"{label:<{width}}  {body}")
    return _EXIT_EVAL if failed else 0


def _fmt_complex(z, fmt=lambda x: f"{x:.12g}") -> str:
    """z as re+imj, or re alone when z is real; fmt prints each part.

    A value column passes repr, whose digits read back to the same float, so
    that no printed value is further from the sum than its printed tail.
    """
    z = complex(z)
    if z.imag == 0.0:
        return fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt(z.real)}{sign}{fmt(abs(z.imag))}j"


def cmd_orders(args) -> int:
    """Print each operator's predicted order and hypothesis flag.

    Hypothesis violations produce a warning but still exit 0; the numbers
    remain useful as diagnostics.
    """
    job = load_job(args.job_path)
    rows = []
    for op in job.operators:
        claim = _claim(op.kind, op.spec)
        rows.append((op.name, op.kind, claim.predicted, claim.hypothesis_ok))
    if not rows:
        raise UsageError("job lists no operators")
    if args.format == "json":
        doc = [
            {"name": name, "kind": kind, "delta": _finite_or_none(delta), "hypothesis_ok": ok}
            for name, kind, delta, ok in rows
        ]
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
    else:
        name_w = max(len(r[0]) for r in rows)
        for name, kind, delta, ok in rows:
            flag = "ok" if ok else "HYPOTHESIS-VIOLATED"
            print(f"{name:<{name_w}}  {kind:<12} delta={delta:.12g}  {flag}")
    if any(not ok for _, _, _, ok in rows):
        print("warning: some operators violate the theorem hypotheses; "
              "their predicted orders are not guaranteed", file=sys.stderr)
    return 0


def cmd_certify(args) -> int:
    """Run every certificate in a job and report the verdicts.

    Exit 0 when all certificates pass, 1 when any fails (or, with
    --strict, when any hypothesis is violated).
    """
    job = _apply_overrides(load_job(args.job_path), args)
    if not job.operators:
        raise UsageError("job lists no operators; nothing to certify")
    fmt = args.format or job.outputs[0]
    with _open(args.output) as output:
        report = run_job(job)
        if output or fmt == "json":
            text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
            if output:
                output.write(text)
    if fmt == "json":
        sys.stdout.write(text)
    else:
        _print_text_report(report)

    verdict = report.summary_verdict
    if verdict == VERDICT_FAIL:
        return _EXIT_FAIL
    if verdict == VERDICT_HYPOTHESIS:
        print("warning: hypothesis violations; predictions not guaranteed", file=sys.stderr)
        if args.strict:
            return _EXIT_FAIL
    return 0


def _print_text_report(report):
    name_w = max(len(n) for n in report.names)
    for name, cert, seconds in zip(report.names, report.certificates, report.timings):
        print(
            f"{name:<{name_w}}  {cert.quantity:<17} predicted={cert.predicted:+.9f} "
            f"observed={cert.observed:+.9f} margin={cert.margin:+.3e} "
            f"[{cert.verdict}] ({seconds:.2f}s)"
        )
        if cert.reason is not None:
            print(f"{'':<{name_w}}  not summed: {cert.reason}")
    print(f"summary: {report.summary_verdict}")


def cmd_dump(args) -> int:
    """Sample the operator's certified quantity over the grid as CSV.

    Rows are emitted radius-major in grid order as radius,angle,re,im; the
    header carries a digest of the sampled spec so dumps are traceable.
    dump sums every radius, a circle's half at a time, mirrored, from the
    table's cut on r_max, which holds on the inner circles too. A
    certificate takes the extremum on r_max itself, so every row on r_max
    lies on its safe side, and a row at its argmin, theta = 0 or pi, holds
    the certificate's own sum. A table without a cut on r_max sums no
    point: every row reads error,error, and dump exits 3.
    """
    job = _apply_overrides(load_job(args.job), args)
    op = _operator(job, args.operator)
    claim = _claim(op.kind, op.spec)
    with _open(args.output) as output:
        terms, _, reason = claim.table(job.grid.r_max, job.series_tol)
        out = output or sys.stdout
        out.write(f"# spec={op.name} quantity={claim.sampled} digest={job_digest(op, job.grid)}\n"
                  "radius,angle,re,im\n")
        m, angles = job.grid.angles, [repr(theta) for theta in job.grid.circle_angles()]
        for r in job.grid.radii:  # each circle is summed as it is written
            radius = repr(r)
            if reason is not None:
                rows = (f"{radius},{theta},error,error" for theta in angles)
            else:
                rows = (f"{radius},{theta},{value.real!r},{value.imag!r}"
                        for theta, value in zip(angles, (1.0 + v for v in _circle(terms, r, m))))
            out.write("\n".join(rows) + "\n")
    return 0 if reason is None else _EXIT_EVAL


def _tolerance(text: str) -> float:
    try:
        return _check_tol(float(text), "the series tolerance")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlstar", allow_abbrev=False,
        description="Evaluate normalized Mittag-Leffler functions, build their integral "
                    "operators, and certify predicted orders of starlikeness and convexity "
                    "by the extremum on the circle |z| = r_max.")
    parser.add_argument("--version", action="version", version=f"mlstar, version {__version__}")
    parser.add_argument("--tol", type=_tolerance,
                        help="Series truncation tolerance (default: a job's "
                             "tolerance.series, else 1e-14); it also cuts the operators' series.")
    parser.add_argument("--grid-angles", type=int,
                        help="Override the number of angles per circle that dump samples; "
                             "a certify report only echoes it.")
    parser.add_argument("--r-max", type=float,
                        help="Override the certificate radius, in (0, 1], and dump's outer circle.")
    parser.add_argument("--strict", action="store_true",
                        help="Treat hypothesis violations as failures (exit 1).")
    parser.add_argument("--format", choices=["text", "json"],
                        help="Report format; defaults to the job's 'outputs' entry or text.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        doc = inspect.cleandoc(run.__doc__)
        sub = commands.add_parser(name, help=doc.splitlines()[0], description=doc,
                                  allow_abbrev=False,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
        sub.set_defaults(run=run, error=sub.error)  # usage errors read 'mlstar <name>: error:'
        return sub

    sub = command("eval", cmd_eval)
    sub.add_argument("--alpha", type=float, help="Series parameter alpha (>= 1).")
    sub.add_argument("--beta", type=float, help="Series parameter beta (> 0).")
    form = sub.add_mutually_exclusive_group()  # unset is None, as for --alpha and --beta
    form.add_argument("--raw", action="store_true", default=None,
                      help="Evaluate the raw series instead of the normalization.")
    form.add_argument("--deriv", action="store_true", default=None,
                      help="Evaluate z E'/E instead of the value.")
    sub.add_argument("--job", help="Job file providing an operator to evaluate.")
    sub.add_argument("--operator",
                     help="Name of the job operator to evaluate (implies --job).")
    sub.add_argument("--z", action="append", required=True,
                     help="Evaluation point; may repeat. Accepts complex literals like "
                          "0.3+0.4j and -0.3+0.4j.")
    command("orders", cmd_orders).add_argument("job_path")
    sub = command("certify", cmd_certify)
    sub.add_argument("job_path")
    sub.add_argument("-o", "--output", help="Also write the JSON report to this path.")
    sub = command("dump", cmd_dump)
    sub.add_argument("--job", required=True, help="Job file providing the operator.")
    sub.add_argument("--operator", required=True, help="Operator name within the job.")
    sub.add_argument("-o", "--output", help="Write CSV here instead of stdout.")
    return parser


# the options whose value is a number, which may start with '-'
_NUMBER_OPTIONS = ("--z", "--alpha", "--beta", "--tol", "--r-max", "--grid-angles")


def _option_strings(parser) -> set:
    """Every option string that the parser or one of its commands defines."""
    strings = set()
    for action in parser._actions:  # argparse lists a parser's actions nowhere public
        strings.update(action.option_strings)
        if isinstance(action.choices, dict):  # the commands' own parsers
            for command in action.choices.values():
                strings |= _option_strings(command)
    return strings


def _attach_numbers(argv, options) -> list:
    """argv with each number option and a number after it joined as '<option>=<number>',
    and --operator and the name after it as '--operator=<name>'.

    argparse reads a token that starts with '-' as an option unless it is a plain
    negative number, so '--z -0.3+0.4j', '--beta -4e0' or '--operator -m' would
    leave the option without its value. A next token that complex() cannot read,
    or after --operator one of the parser's options, with or without '=<value>',
    stays apart, for argparse to refuse, and the tokens after '--' are left as
    they are.
    """
    out = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + list(argv[i:])
        if out and out[-1] == "--operator" and token.split("=", 1)[0] not in options:
            out[-1] = f"--operator={token}"
            continue
        if out and out[-1] in _NUMBER_OPTIONS:
            try:
                complex(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


def main(argv=None):
    """Run the CLI on argv (default sys.argv[1:]); always ends in SystemExit."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_numbers(argv, _option_strings(parser)))
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
    except (UsageError, DomainError, JobFileError) as exc:
        args.error(str(exc))
    except OSError as exc:  # writing stdout or the -o file failed; reading errors are JobFileError
        # the interpreter flushes stdout again at exit; point it at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a closed pipe is its reader's choice, as head's
            args.error(f"cannot write the output: {exc}")
        code = _EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
