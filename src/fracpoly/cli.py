"""Command-line surface: tables, operator evaluation, identity verification.

Output goes to stdout in text, CSV (RFC 4180) or JSON; diagnostics go to
stderr.  Exit codes: 0 success / all suites pass, 1 verification failure,
2 usage or parameter error, including every FracPolyError and
ArithmeticError a subcommand raises.  Identical invocations produce
byte-identical output.  FRACPOLY_PRECISION sets the precision (bits) when
--precision is not given.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction

import click

from .errors import DomainError, FracPolyError
from .families import FamilyKind, FamilyParams, family_numbers, family_polynomial
from .fractional import (
    CaputoOrder,
    caputo_closed_form,
    caputo_derivative_poly,
    caputo_quadrature_oracle,
    eval_frac_expansion,
    rl_integral_poly,
)
from .mittag import MLParams, ml_eval, ml_one_m_closed
from .scalars import DEFAULT_PRECISION, as_rational, precision_of, render
from .verify import SUITES, SUITE_ALIASES, RunConfig, check_grids, run_suite, unread_fields

FORMATS = ("text", "csv", "json")


class ScalarParam(click.ParamType):
    name = "number"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return as_rational(str(value).strip())
        except FracPolyError:
            raise  # reported as "error: ..." with exit 2, as in a subcommand
        except (ValueError, ZeroDivisionError) as exc:
            self.fail(f"cannot parse number {value!r}: {exc}", param, ctx)


SCALAR = ScalarParam()

# the largest --max, --degree and verify --max-degree: the exact number
# series costs about N^3.2 (README gives the time of calls at the cap)
MAX_DEGREE = 200


class DegreeParam(click.IntRange):
    """An index or degree from 0 to MAX_DEGREE.  Above the cap it is refused
    as a package error, reported like every other bound."""

    def __init__(self):
        super().__init__(min=0)

    def convert(self, value, param, ctx):
        n = super().convert(value, param, ctx)
        if n > MAX_DEGREE:
            raise DomainError(f"degree or index {n} is above the cap {MAX_DEGREE}")
        return n


DEGREE = DegreeParam()


def _cells(v, precision: int | None) -> list:
    """The value, domain and precision cells of a table row for a raw value
    made at ``precision``."""
    precision = precision_of(v, precision)
    return [render(v, precision), "rational" if precision is None else "float", precision]


def _emit_table(columns: list[str], rows: list[list], fmt: str):
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        click.echo(json.dumps(payload, indent=2, sort_keys=False))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else str(v) for v in row])
        click.echo(buf.getvalue(), nl=False)
    else:
        str_rows = [[("" if v is None else str(v)) for v in row] for row in rows]
        widths = [
            max(len(columns[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(columns[i])
            for i in range(len(columns))
        ]
        click.echo("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip())
        for r in str_rows:
            click.echo("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())


def _family_options(fn):
    fn = click.option("--family", type=click.Choice([k.value for k in FamilyKind]),
                      default="bernoulli", show_default=True, help="Polynomial family kind.")(fn)
    fn = click.option("--alpha", type=SCALAR, default="1", show_default=True,
                      help="Family parameter alpha (> 0).")(fn)
    fn = click.option("--lambda", "lam", type=SCALAR, default="1", show_default=True,
                      help="Family parameter lambda (> 0).")(fn)
    fn = click.option("--h", type=int, default=1, show_default=True,
                      help="Order h (>= 2 only for bernoulli at alpha = 1).")(fn)
    return fn


def _common_options(fn):
    fn = click.option("--precision", type=int, default=DEFAULT_PRECISION, show_default=True,
                      envvar="FRACPOLY_PRECISION", show_envvar=True,
                      help="Working precision in bits.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(FORMATS), default="text",
                      show_default=True, help="Output format.")(fn)
    return fn


class _Cli(click.Group):
    """Reports the package's errors from any subcommand as exit 2, without a
    traceback; exit 1 stays reserved for a failed verification suite.  So
    is a number too long to print (Python caps int-to-str conversion at
    4300 digits), be it a parameter or a result."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (FracPolyError, ArithmeticError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise
            click.echo("error: value too long to print: over Python's int-to-str digit limit", err=True)
            ctx.exit(2)


@click.group(cls=_Cli)
def cli():
    """Exact and arbitrary-precision generalized Bernoulli/Euler/Genocchi
    polynomial families, fractional operators on them, and machine
    verification of their identities."""


@cli.command()
@_family_options
@_common_options
@click.option("--max", "max_index", type=DEGREE, required=True, help="Largest index to print.")
def numbers(family, alpha, lam, h, precision, fmt, max_index):
    """Print family numbers 0..MAX (generating-series coefficients)."""
    p = FamilyParams(family, alpha, lam, h)
    nums = family_numbers(p, max_index, precision)
    rows = [[n, *_cells(v, nums.precision)] for n, v in enumerate(nums)]
    _emit_table(["index", "value", "domain", "precision"], rows, fmt)


@cli.command()
@_family_options
@_common_options
@click.option("--degree", type=DEGREE, required=True, help="Polynomial degree n.")
def poly(family, alpha, lam, h, precision, fmt, degree):
    """Print the coefficients of the degree-n family polynomial."""
    p = FamilyParams(family, alpha, lam, h)
    q = family_polynomial(p, degree, precision)
    rows = [[k, *_cells(c, q.precision)] for k, c in enumerate(q)]
    _emit_table(["power", "coefficient", "domain", "precision"], rows, fmt)


@cli.command("eval")
@_family_options
@_common_options
@click.option("--degree", type=DEGREE, required=True, help="Polynomial degree n.")
@click.option("--at", "at_", type=SCALAR, required=True, help="Evaluation point x.")
def eval_cmd(family, alpha, lam, h, precision, fmt, degree, at_):
    """Evaluate the degree-n family polynomial at a point."""
    p = FamilyParams(family, alpha, lam, h)
    value = family_polynomial(p, degree, precision).evaluate(at_)
    rows = [[str(at_), *_cells(value, precision)]]
    _emit_table(["x", "value", "domain", "precision"], rows, fmt)


@cli.command()
@_common_options
@click.option("--alpha", type=SCALAR, required=True, help="First parameter (> 0).")
@click.option("--beta", type=SCALAR, default="1", show_default=True, help="Second parameter (> 0).")
@click.option("--z", type=SCALAR, required=True, help="Evaluation point (|z| <= 50).")
@click.option("--tol", type=SCALAR, default=None, help="Relative tolerance of the sum.")
@click.option("--closed-form", is_flag=True,
              help="Also print the subtracted-exponential closed form "
                   "(alpha = 1, integer beta >= 2).")
def mleval(precision, fmt, alpha, beta, z, tol, closed_form):
    """Evaluate the two-parameter Mittag-Leffler function."""
    p = MLParams(alpha, beta)
    value = ml_eval(p, z, tol, precision)
    rows = [["series", render(value, precision)]]
    if closed_form:
        if alpha != 1 or beta.denominator != 1 or beta < 2:
            raise click.UsageError(
                "--closed-form requires alpha = 1 and integer beta >= 2"
            )
        rows.append(["closed-form", render(ml_one_m_closed(beta.numerator, z, precision), precision)])
    _emit_table(["route", "value"], rows, fmt)


@cli.command()
@_family_options
@_common_options
@click.option("--degree", type=DEGREE, required=True, help="Family polynomial degree m.")
@click.option("--order", type=SCALAR, required=True, help="Fractional order (> 0).")
@click.option("--at", "at_", type=SCALAR, default=None,
              help="Also evaluate at t > 0 and print the quadrature cross-check.")
def fracderiv(family, alpha, lam, h, precision, fmt, degree, order, at_):
    """Caputo derivative of a family polynomial: closed-form terms."""
    p = FamilyParams(family, alpha, lam, h)
    ord_ = CaputoOrder(order)
    polynomial = family_polynomial(p, degree, precision)
    if degree < ord_.n:
        click.echo(
            f"note: degree {degree} < ceil(order) = {ord_.n}; the derivative "
            "vanishes termwise and no closed-form expansion applies",
            err=True,
        )
        expansion = caputo_derivative_poly(polynomial, ord_, precision)
    else:
        expansion = caputo_closed_form(p, degree, ord_, precision)
    _emit_expansion(expansion, _route_values(expansion, polynomial, ord_, at_, precision), fmt)


def _route_values(expansion, polynomial, ord_, at_, precision):
    if at_ is None:
        return None
    routes = [["closed-form", render(eval_frac_expansion(expansion, at_, precision), precision)]]
    if ord_ is not None:
        routes.append(["quadrature", render(caputo_quadrature_oracle(polynomial, ord_, at_, precision), precision)])
    return routes


def _emit_expansion(expansion, routes, fmt):
    """Terms table, plus the evaluated routes; one JSON document either way."""
    rows = [[render(c, expansion.precision), str(e)] for c, e in expansion]
    if fmt == "json":
        payload = {"terms": [dict(zip(("coefficient", "exponent"), r)) for r in rows]}
        if routes is not None:
            payload["values"] = {name: value for name, value in routes}
        click.echo(json.dumps(payload, indent=2))
        return
    _emit_table(["coefficient", "exponent"], rows, fmt)
    if routes is not None:
        _emit_table(["route", "value"], routes, fmt)


@cli.command()
@_family_options
@_common_options
@click.option("--degree", type=DEGREE, required=True, help="Family polynomial degree m.")
@click.option("--order", type=SCALAR, required=True, help="Integral order (> 0).")
@click.option("--at", "at_", type=SCALAR, default=None, help="Evaluate the result at t > 0.")
def fracint(family, alpha, lam, h, precision, fmt, degree, order, at_):
    """Riemann-Liouville integral of a family polynomial."""
    p = FamilyParams(family, alpha, lam, h)
    polynomial = family_polynomial(p, degree, precision)
    expansion = rl_integral_poly(polynomial, order, precision)
    _emit_expansion(expansion, _route_values(expansion, polynomial, None, at_, precision), fmt)


@cli.command()
@_common_options
@click.option("--family", type=click.Choice([k.value for k in FamilyKind]), default=None,
              help="Restrict suites to one family kind.")
@click.option("--alpha", type=SCALAR, default=None, help="Restrict the family alpha grid.")
@click.option("--lambda", "lam", type=SCALAR, default=None, help="Restrict the lambda grid.")
@click.option("--h", type=int, default=None, help="Restrict the order-h grid.")
@click.option("--order", "orders", type=SCALAR, multiple=True,
              help="Restrict the fractional-order grid (repeatable).")
@click.option("--max-degree", type=DEGREE, default=None, help="Cap the degree/index grid.")
@click.option("--tolerance", type=SCALAR, default=None, help="Override every suite tolerance.")
@click.argument("suites", nargs=-1)
def verify(precision, fmt, family, alpha, lam, h, orders, max_degree, tolerance, suites):
    """Run identity suites (names or 'all') and report pass/fail."""
    known = sorted(set(SUITES) | set(SUITE_ALIASES))
    if not suites or "all" in suites:
        selected = list(SUITES)
    else:
        bad = [s for s in suites if s not in SUITES and s not in SUITE_ALIASES]
        if bad:
            raise DomainError(f"unknown suite(s) {', '.join(bad)}; valid: {', '.join(known)}")
        selected = list(suites)
    cfg = RunConfig(
        family=family,
        alpha=alpha,
        lam=lam,
        h=h,
        max_degree=max_degree,
        orders=tuple(orders) if orders else None,
        precision=precision,
        tolerance=tolerance,
    )
    flags = {p.name: p.opts[0] for p in click.get_current_context().command.params}
    unread = [flags[f] for f in unread_fields(selected, cfg)]
    if unread:
        raise DomainError(f"no selected suite reads {', '.join(unread)}")
    check_grids(selected, cfg)
    reports = [run_suite(name, cfg) for name in selected]
    if fmt == "json":
        click.echo(json.dumps([asdict(r) for r in reports], indent=2))
    else:
        rows = [
            [r.identity, r.comparisons, f"{r.max_abs_err:.3e}", f"{r.max_rel_err:.3e}",
             f"{r.tolerance:.3e}", r.verdict]
            for r in reports
        ]
        _emit_table(
            ["identity", "comparisons", "max_abs_err", "max_rel_err", "tolerance", "verdict"],
            rows,
            fmt,
        )
    bad = [r for r in reports if r.verdict == "fail"]
    if bad:
        click.echo(f"{len(bad)} suite(s) failed: {', '.join(r.identity for r in bad)}", err=True)
        sys.exit(1)


def main():
    cli(prog_name="fracpoly")


if __name__ == "__main__":
    main()
