"""Command-line front end: evaluation, table generation, verification.

Exit status: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.  A usage error includes an argument outside the target's domain,
a nan or infinite one among them (only ``eval E --z inf`` is in its
domain: it prints nu).  A numerical failure is a result the function
cannot certify, or a nan or infinite result from finite arguments.
Output is deterministic: identical invocations produce identical bytes.
Reals print with 17 significant digits; exact rationals print as
"numerator/denominator" text.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import click

from .core import ConvergenceError, LogScaled, SeriesEval
from .discrete import pochhammer_discrete, stirling_triangle
from .gammafns import gamma, gamma_y, pochhammer_continuous, regularized_q
from .rho import E_quadrature, mu_function, nu, rho
from .rtilde import groupoid_cardinalities, rtilde_ext, rtilde_poly, rtilde_triangle
from .verify import SUITE_NAMES, run_suite


def _require_integer(name: str, value: float) -> int:
    if not (value >= 0 and value.is_integer()):  # inf and nan are not integers
        raise click.UsageError(f"--{name} must be a non-negative integer for this target")
    return int(value)


# target -> (required parameters, optional parameters, call(tol, **parameters));
# anything else on the line is rejected
_XYZ = ("x", "y", "z")
EVAL_TARGETS = {
    "r": (_XYZ, (), lambda tol, x, y, z: pochhammer_discrete(x, y, _require_integer("z", z))),
    "r-cont": (_XYZ, (), lambda tol, x, y, z: pochhammer_continuous(x, y, z)),
    "rtilde": (_XYZ, (), lambda tol, x, y, z: rtilde_poly(x, y, _require_integer("z", z))),
    "rtilde-ext": (_XYZ, (), lambda tol, x, y, z: rtilde_ext(x, y, z)),
    "rho": (_XYZ, (), lambda tol, x, y, z: rho(x, y, z, tol)),
    "E": (("x", "z"), (), lambda tol, x, z: E_quadrature(x, z, tol)),
    "nu": (("x",), (), lambda tol, x: nu(x, tol)),
    "mu": (("x",), ("beta", "alpha"),
           lambda tol, x, beta=0.0, alpha=0.0: mu_function(x, beta, alpha, tol)),
    "gamma": (("z",), (), lambda tol, z: gamma(z)),
    "gamma-y": (("x", "y"), (), lambda tol, x, y: gamma_y(y, x)),
    "Q": (("z", "x"), (), lambda tol, z, x: regularized_q(z, x, tol)),
}

TABLE_KINDS = ("stirling1", "stirling2", "rtilde", "stilde", "Stilde", "groupoid")

GROUPOID_TABLE_MAX_N = 19  # part of the CLI contract; the cells themselves have no size limit


def _real(value: float) -> str:
    return format(value, ".17g")


def _cell(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return _real(value)


@click.group()
def main():
    """Pochhammer symbol, Stirling triangles, and their continuous analogues."""


@main.command("eval")
@click.argument("target", type=click.Choice(sorted(EVAL_TARGETS), case_sensitive=True))
@click.option("--x", type=float, default=None, help="first argument")
@click.option("--y", type=float, default=None, help="second argument")
@click.option("--z", type=float, default=None, help="order / limit argument")
@click.option("--alpha", type=float, default=None, help="mu shift parameter")
@click.option("--beta", type=float, default=None, help="mu weight exponent")
@click.option("--tol", type=float, default=1e-10, show_default=True, help="tolerance")
@click.option("--log-scaled", is_flag=True, help="print sign and log magnitude")
@click.option("--format", "fmt", type=click.Choice(["plain", "json"]), default="plain",
              show_default=True)
def eval_command(target, x, y, z, alpha, beta, tol, log_scaled, fmt):
    """Evaluate one function and print one value."""
    provided = {k: v for k, v in (("x", x), ("y", y), ("z", z), ("alpha", alpha),
                                  ("beta", beta)) if v is not None}
    required, optional, call = EVAL_TARGETS[target]
    allowed = required + optional
    unknown = sorted(set(provided) - set(allowed))
    if unknown:
        raise click.UsageError(
            f"{target} does not take --{', --'.join(unknown)} (takes --{', --'.join(allowed)})"
        )
    missing = sorted(set(required) - set(provided))
    if missing:
        raise click.UsageError(f"{target} requires --{', --'.join(missing)}")
    try:
        result = call(tol, **provided)
    except (ConvergenceError, OverflowError) as exc:
        click.echo(f"numerical failure in {target}: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    converged = True
    if isinstance(result, SeriesEval):
        converged = result.converged
        result = result.value
    if isinstance(result, LogScaled):  # LogScaled(0, -inf) is zero
        non_finite = math.isnan(result.log_magnitude) or result.log_magnitude == math.inf
    else:
        non_finite = isinstance(result, float) and not math.isfinite(result)
    if non_finite:
        click.echo(f"numerical failure in {target}: result is {result}", err=True)
        sys.exit(3)
    if log_scaled and not isinstance(result, LogScaled):
        result = LogScaled.from_float(float(result))

    if fmt == "json":
        record = {"name": target, "inputs": provided, "converged": converged}
        if isinstance(result, LogScaled):
            record.update(value=None, sign=result.sign, log_magnitude=result.log_magnitude)
        else:
            record.update(value=float(result), sign=None, log_magnitude=None)
        click.echo(json.dumps(record, sort_keys=True))
    elif isinstance(result, LogScaled):
        click.echo(f"{result.sign} {_real(result.log_magnitude)}")
    else:
        click.echo(_real(float(result)))
    if not converged:
        click.echo(f"numerical failure in {target}: series did not converge", err=True)
        sys.exit(3)


def _table_rows(kind: str, max_n: int):
    """Yield (header, rows) with entries already rendered as text."""
    if kind == "groupoid":
        if max_n > GROUPOID_TABLE_MAX_N:
            raise click.UsageError(f"groupoid tables are limited to --max-n <= {GROUPOID_TABLE_MAX_N}")
        header = ["n", "k", "g", "g_even", "g_odd"]
        rows = []
        for n in range(1, max_n + 1):
            for k in range(1, n + 1):
                cards = groupoid_cardinalities(n, k)
                rows.append([str(n), str(k), _cell(cards.g), _cell(cards.g_even),
                             _cell(cards.g_odd)])
        return header, rows
    if kind in ("stirling1", "stirling2"):
        tri = stirling_triangle("first_unsigned" if kind == "stirling1" else "second", max_n)
        values = [[tri.value(n, k) for k in range(n + 1)] for n in range(max_n + 1)]
    else:
        tri = rtilde_triangle(max_n)
        pick = {"rtilde": tri.r_rows, "stilde": tri.s_rows, "Stilde": tri.S_rows}[kind]
        values = [list(row) for row in pick]
    header = ["n"] + [f"k={k}" for k in range(max_n + 1)]
    rows = []
    for n, row in enumerate(values):
        rows.append([str(n)] + [_cell(v) for v in row] + [""] * (max_n - n))
    return header, rows


@main.command("table")
@click.argument("kind", type=click.Choice(TABLE_KINDS, case_sensitive=True))
@click.option("--max-n", "max_n", type=int, required=True, help="largest row index")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def table_command(kind, max_n, fmt):
    """Emit a coefficient triangle (or the groupoid cardinality table)."""
    if max_n < 0:
        raise click.UsageError("--max-n must be non-negative")
    try:
        header, rows = _table_rows(kind, max_n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "csv":
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(row))
        return
    for row in rows:
        inputs = dict(zip(header, row))
        name_inputs = {k: v for k, v in inputs.items() if k in ("n", "k")}
        values = {k: v for k, v in inputs.items() if k not in ("n", "k")}
        record = {
            "name": kind,
            "inputs": name_inputs,
            "value": values if kind == "groupoid" else {k: v for k, v in values.items() if v != ""},
            "sign": None,
            "log_magnitude": None,
            "converged": True,
        }
        click.echo(json.dumps(record, sort_keys=True))


@main.command("verify")
@click.option("--suite", default="all",
              type=click.Choice(("all",) + SUITE_NAMES, case_sensitive=True),
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def verify_command(suite, fmt):
    """Run the named property suite; exit 0 only if every case passes."""
    report = run_suite(suite)
    if fmt == "csv":
        click.echo("suite,case,inputs,expected,actual,residual,pass")
        for c in report.cases:
            inputs = ";".join(f"{k}={v}" for k, v in c.inputs.items())
            fields = [c.suite, c.case_id, inputs, c.expected, c.actual,
                      _real(c.residual), "true" if c.passed else "false"]
            click.echo(",".join(f.replace(",", ";") for f in fields))
    else:
        for c in report.cases:
            record = {
                "name": f"{c.suite}/{c.case_id}",
                "inputs": {k: str(v) for k, v in c.inputs.items()},
                "value": c.actual,
                "expected": c.expected,
                "residual": c.residual,
                "pass": c.passed,
            }
            click.echo(json.dumps(record, sort_keys=True))
    good, total = report.counts
    click.echo(f"{report.suite}: {good}/{total} cases passed", err=True)
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
