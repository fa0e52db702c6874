"""Command-line front end: expression parser and the hm command set.

Grammar for group expressions (whitespace insignificant, "x" is the
left-associative direct product):

    expr  := atom ("x" atom)*
    atom  := C(num) | D(num) | Q(num) | SD(num) | E(num,num) | S(num)
           | SL23 | Dic(num) | Cat(num,num)
    num   := INT | INT "^" INT

D/Q/SD arguments are the group ORDER (D(8) is the dihedral group of
order 8).  Every number is below 10^MAX_NUMBER_DIGITS.  Exit codes:
0 success, 1 check failure, 2 usage error, 3 cap/resource error.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
import time
from fractions import Fraction

import click

from . import caps
from .catalog import (CatalogFormatError, InvalidEntry, MissingEntry, default_catalog,
                      load_catalog_file, validate_catalog)
from .exactmath import format_rational, rational_decimal
from .groupkernel import is_isomorphic
from .statistics import ATOMS, GroupExpr, Product, eval_expr, realize
from .verifier import CHECKS, run_checks, scan_integer_hm


class ExprParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- lexer / parser -----------------------------------------------------------


# Numbers in expressions are below 10^MAX_NUMBER_DIGITS, checked before they
# are built.  The h_m of a lone atom of order n can have a numerator near n^2,
# and Python prints integers of at most 4300 digits.
MAX_NUMBER_DIGITS = 2150
_NUMBER_LIMIT = 10 ** MAX_NUMBER_DIGITS


def _number_too_large(offset: int) -> ExprParseError:
    return ExprParseError(
        f"number not below 10^{MAX_NUMBER_DIGITS}, the bound on expression numbers",
        offset)


# per atom head: the expression class and its number of fields
_ATOM_HEADS = {row.head: (cls, len(dataclasses.fields(cls))) for cls, row in ATOMS.items()}
# longest match first so "SL23x" lexes as SL23 then the product operator
_TOKEN_HEADS = tuple(sorted([*_ATOM_HEADS, "x"], key=len, reverse=True))


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits int() reads; isdigit() also takes "²"
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            digits = text[i:j]
            if not digits.isascii():
                digits = "".join(str(int(d)) for d in digits)
            digits = digits.lstrip("0")
            if len(digits) > MAX_NUMBER_DIGITS:
                raise _number_too_large(i)
            tokens.append(("int", int(digits or "0"), i))
            i = j
        elif ch.isalpha():
            for head in _TOKEN_HEADS:
                if text.startswith(head, i):
                    tokens.append(("word", head, i))
                    i += len(head)
                    break
            else:
                j = i
                while j < n and text[j].isalnum():
                    j += 1
                raise ExprParseError(f"unknown token {text[i:j]!r}", i)
        elif ch in "(),^":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ExprParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _found(tok) -> str:
    return "end of input" if tok[0] == "end" else repr(tok[1])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ExprParseError(f"expected {kind!r}, found {_found(tok)}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> GroupExpr:
        factors = [self.parse_atom()]
        while True:
            kind, value, offset = self.peek()
            if kind == "word" and value == "x":
                self.pos += 1
                factors.append(self.parse_atom())
            elif kind == "end":
                break
            else:
                raise ExprParseError(f"unexpected token {value!r}", offset)
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_number(self) -> int:
        kind, value, offset = self.take("int")
        if self.peek()[0] == "^":
            self.take("^")
            _, exp, exp_off = self.take("int")
            if value < 1 or exp < 0:
                raise ExprParseError("power must have base >= 1, exponent >= 0",
                                     exp_off)
            # value^exp >= 2^(exp * (bits - 1)): refuse before building it
            if exp * (value.bit_length() - 1) >= _NUMBER_LIMIT.bit_length():
                raise _number_too_large(offset)
            value **= exp
        if value >= _NUMBER_LIMIT:
            raise _number_too_large(offset)
        return value

    def parse_args(self, count: int) -> list[int]:
        self.take("(")
        args = [self.parse_number()]
        while len(args) < count:
            self.take(",")
            args.append(self.parse_number())
        self.take(")")
        return args

    def parse_atom(self) -> GroupExpr:
        kind, head, offset = tok = self.peek()
        if kind != "word":
            raise ExprParseError(f"expected a group name, found {_found(tok)}", offset)
        if head not in _ATOM_HEADS:
            raise ExprParseError(f"unknown group name {head!r}", offset)
        self.pos += 1
        make, count = _ATOM_HEADS[head]
        args = self.parse_args(count) if count else []
        try:
            return make(*args)  # the atom checks its own rule
        except ValueError as exc:
            raise ExprParseError(str(exc), offset) from None


def parse_expr(text: str) -> GroupExpr:
    """Parse an expression like "SL23 x C(7^7)" into a GroupExpr."""
    return _Parser(text).parse()


# -- CLI plumbing -------------------------------------------------------------


class ResourceError(click.ClickException):
    exit_code = 3


class _Command(click.Command):
    """Every command reports a refusal as exit 3, and a missing catalog entry
    or one that names no group of its declared order as a usage error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except caps.CapExceeded as exc:
            raise ResourceError(str(exc))
        except MissingEntry as exc:
            raise click.UsageError(str(exc), ctx)
        except InvalidEntry as exc:
            raise click.UsageError(f"invalid catalog entry {exc}", ctx)


class _Commands(click.Group):
    command_class = _Command


class CliState:
    def __init__(self, catalog_path, fmt, digits, timestamp):
        self.catalog_path = catalog_path
        self.format = fmt
        self.digits = digits
        self.timestamp = timestamp
        self._entries = None

    @property
    def entries(self):
        if self._entries is None:
            if self.catalog_path:
                try:
                    self._entries = load_catalog_file(self.catalog_path)
                except (OSError, CatalogFormatError) as exc:
                    raise click.UsageError(f"cannot load catalog: {exc}")
            else:
                self._entries = default_catalog()
        return self._entries


def _echo_header(state: CliState):
    if state.timestamp:
        click.echo(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")


@click.group(cls=_Commands, context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--catalog", "catalog_path", envvar="HM_CATALOG", default=None,
              metavar="PATH", help="Catalog file (default: embedded; env HM_CATALOG).")
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]),
              default="table", show_default=True, help="Report format.")
@click.option("--digits", type=click.IntRange(0, 50), default=6, show_default=True,
              help="Decimal display precision (display only; math is exact).")
@click.option("--caps", "enumeration", type=click.IntRange(1), default=None,
              help="Override the enumeration limit (stats, scan, iso, verify).")
@click.option("--timestamp", is_flag=True, default=False,
              help="Prepend a timestamp line to reports.")
@click.version_option(package_name="hmgroups", prog_name="hm")
@click.pass_context
def main(ctx, catalog_path, fmt, digits, enumeration, timestamp):
    """Exact harmonic mean of element orders for finite groups."""
    ctx.obj = CliState(catalog_path, fmt, digits, timestamp)
    if enumeration is not None:
        ctx.with_resource(caps.override(enumeration=enumeration))


def _parse_or_usage(text: str) -> GroupExpr:
    try:
        return parse_expr(text)
    except ExprParseError as exc:
        raise click.UsageError(f"bad expression {text!r}: {exc}")


@main.command()
@click.argument("expression")
@click.pass_obj
def stats(state: CliState, expression):
    """Evaluate h_m and related statistics of a group expression."""
    expr = _parse_or_usage(expression)
    report = eval_expr(expr, state.entries)
    _echo_header(state)
    if state.format == "json":
        click.echo(report.to_json(state.digits))
        return
    d = report.to_dict(state.digits)
    click.echo(f"expression: {d['label']}")
    click.echo(f"order: {d['order']}")
    click.echo(f"exponent: {d['exponent']}")
    spec = " ".join(f"{o}:{c}" for o, c in d["spectrum"])
    click.echo(f"spectrum: {spec}")
    click.echo(f"m: {d['m']} (~{d['m_approx']})")
    click.echo(f"h_m: {d['h_m']} (~{d['h_m_approx']})")
    click.echo(f"cyclic subgroups: {d['c_count']}")
    click.echo(f"integer: {'yes' if d['integer'] else 'no'}")
    click.echo(f"path: {d['path']}")


def _parse_predicate(text: str | None):
    """The --predicate test on h_m = num/den (den > 0, not necessarily
    reduced), or None for no filter, and its description."""
    if text is None:
        return None, "all"
    if text == "integer":
        return (lambda num, den: num % den == 0), "integer"
    for head in ("eq", "le"):
        if text.startswith(head + "="):
            raw = text[len(head) + 1:]
            try:
                if "/" in raw:
                    num, den = raw.split("/", 1)
                    value = Fraction(int(num), int(den))
                else:
                    value = Fraction(int(raw))
            except (ValueError, ZeroDivisionError):
                raise click.UsageError(f"bad predicate value {raw!r}")
            p, q = value.numerator, value.denominator
            if head == "eq":
                return (lambda num, den: num * q == p * den), f"h_m = {value}"
            return (lambda num, den: num * q <= p * den), f"h_m <= {value}"
    raise click.UsageError(
        f"bad predicate {text!r}; use integer, eq=K, or le=R (K, R rational)")


def _parse_families(text: str | None) -> dict[str, int]:
    ranges = {"cyclic": 0, "dihedral": 0}
    if not text:
        return ranges
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise click.UsageError(f"bad family range {part!r}; use name:N")
        name, _, raw = part.partition(":")
        if name not in ranges:
            raise click.UsageError(
                f"unknown family {name!r}; valid: cyclic, dihedral")
        try:
            ranges[name] = int(raw)
        except ValueError:
            raise click.UsageError(f"bad family bound {raw!r}")
        if ranges[name] < 0:
            raise click.UsageError(f"bad family bound {raw!r}; use N >= 0")
    return ranges


@main.command()
@click.argument("expressions", nargs=-1)
@click.option("--max-order", type=click.IntRange(1), default=None,
              help="Keep only rows with order <= N.")
@click.option("--families", "families_spec", default=None, metavar="SPEC",
              help="Family ranges, e.g. cyclic:128,dihedral:64.")
@click.option("--predicate", default=None, metavar="PRED",
              help="Row filter: integer | eq=K | le=R.")
@click.pass_obj
def scan(state: CliState, expressions, max_order, families_spec, predicate):
    """Tabulate h_m over the catalog, family ranges, and expressions."""
    keep, pred_desc = _parse_predicate(predicate)
    ranges = _parse_families(families_spec)
    exprs = tuple(_parse_or_usage(t) for t in expressions)
    # rows the filters drop are never built
    report = scan_integer_hm(state.entries, cyclic_max=ranges["cyclic"],
                             dihedral_max=ranges["dihedral"], exprs=exprs,
                             max_order=max_order, keep=keep)
    report.population += f"; filter: {pred_desc}"
    _echo_header(state)
    click.echo(_scan_text(report, state.format, state.digits), nl=False)


def _scan_text(report, fmt: str, digits: int) -> str:
    """A scan report as the scan command prints it."""
    if fmt == "json":
        return report.to_json(digits) + "\n"
    rows = report.rows
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "order", "h_m", "h_m_approx", "integer", "source"])
        for r in rows:
            writer.writerow([r.label, r.order, format_rational(r.h_m),
                             rational_decimal(r.h_m, digits),
                             "yes" if r.integer else "no", r.source])
        return buf.getvalue()
    width = max([len(r.label) for r in rows] + [5])
    buf.write(f"{'label':<{width}}  {'order':>8}  {'h_m':>16}  "
              f"{'approx':>14}  int  source\n")
    for r in rows:
        buf.write(f"{r.label:<{width}}  {r.order:>8}  "
                  f"{format_rational(r.h_m):>16}  "
                  f"{rational_decimal(r.h_m, digits):>14}  "
                  f"{'yes' if r.integer else ' no'}  {r.source}\n")
    buf.write(f"# population: {report.population}\n")
    for c in report.caveats:
        buf.write(f"# caveat: {c}\n")
    return buf.getvalue()


@main.command()
@click.option("--check", "check_list", default=None, metavar="LIST",
              help="Comma-separated check ids (default: all).")
@click.option("--all", "run_all_flag", is_flag=True, default=False,
              help="Run every check.")
@click.option("--nmax", type=click.IntRange(4), default=100_000, show_default=True,
              help="Scan bound for the prop2.6 dihedral scan.")
@click.pass_obj
def verify(state: CliState, check_list, run_all_flag, nmax):
    """Run verification checks; exit 1 if any check fails."""
    if check_list is not None and run_all_flag:
        raise click.UsageError("--check and --all are mutually exclusive")
    if check_list is not None:
        ids = [c.strip() for c in check_list.split(",") if c.strip()]
        unknown = [c for c in ids if c not in CHECKS]
        if unknown or not ids:
            problem = f"unknown check id(s) {unknown}" if unknown else "no check id given"
            raise click.UsageError(
                f"{problem}; valid ids: {', '.join(sorted(CHECKS))}")
    else:
        ids = None  # all
    results = run_checks(state.entries, ids, nmax=nmax)
    _echo_header(state)
    if state.format == "json":
        click.echo(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        for r in results:
            click.echo(f"[{'PASS' if r.passed else 'FAIL'}] {r.check_id}")
            click.echo(f"    population: {r.population}")
            for label, detail in r.witnesses:
                click.echo(f"    witness {label}: {detail}")
            for c in r.caveats:
                click.echo(f"    caveat: {c}")
    if any(not r.passed for r in results):
        sys.exit(1)


@main.command()
@click.argument("expr_a")
@click.argument("expr_b")
@click.pass_obj
def iso(state: CliState, expr_a, expr_b):
    """Decide whether two group expressions are isomorphic."""
    ga = realize(_parse_or_usage(expr_a), state.entries)
    gb = realize(_parse_or_usage(expr_b), state.entries)
    click.echo("isomorphic" if is_isomorphic(ga, gb) else "not isomorphic")


@main.command("catalog-validate")
@click.pass_obj
def catalog_validate(state: CliState):
    """Validate the active catalog (closures, axioms, non-isomorphism)."""
    report = validate_catalog(state.entries)
    click.echo(report.summary())
    if not report.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
