import csv
import io
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgroups import caps
from hmgroups.catalog import default_catalog
from hmgroups.cli import ExprParseError, _scan_text, main, parse_expr
from hmgroups.statistics import (CatalogRef, Cyclic, Dicyclic, Dihedral,
                                 ElemAbelian, GenQuaternion, GroupExpr, Product,
                                 SL23, SemiDihedral, Symmetric, expr_text)
from hmgroups.verifier import CHECKS, scan_integer_hm


@pytest.fixture
def runner():
    return CliRunner()


class TestParser:
    def test_atoms(self):
        assert parse_expr("C(7^7)") == Cyclic(823543)
        assert parse_expr("D(8)") == Dihedral(8)
        assert parse_expr("Q(16)") == GenQuaternion(16)
        assert parse_expr("SD(32)") == SemiDihedral(32)
        assert parse_expr("E(2,3)") == ElemAbelian(2, 3)
        assert parse_expr("S(4)") == Symmetric(4)
        assert parse_expr("SL23") == SL23()
        assert parse_expr("Dic(3)") == Dicyclic(3)
        assert parse_expr("Cat(12,1)") == CatalogRef(12, 1)

    def test_product(self):
        expr = parse_expr("SL23 x C(7^7)")
        assert expr == Product((SL23(), Cyclic(823543)))

    def test_left_associative_chain_flattens(self):
        expr = parse_expr("C(2) x C(3) x C(5)")
        assert expr == Product((Cyclic(2), Cyclic(3), Cyclic(5)))

    def test_whitespace_insignificant(self):
        assert parse_expr("  SL23x C( 7^7 ) ") == parse_expr("SL23 x C(7^7)")

    def test_print_parse_roundtrip(self):
        exprs = [Cyclic(823543), Dihedral(8), GenQuaternion(16),
                 SemiDihedral(32), ElemAbelian(2, 3), Symmetric(4), SL23(),
                 Dicyclic(3), CatalogRef(12, 1),
                 Product((SL23(), Cyclic(823543), Dihedral(10)))]
        for e in exprs:
            assert parse_expr(expr_text(e)) == e

    def test_number_bound(self):
        # numbers are below 10^2150 whether written as literals or powers
        assert parse_expr("C(" + "9" * 2150 + ")") == Cyclic(10 ** 2150 - 1)
        assert parse_expr("C(0" + "9" * 2150 + ")") == Cyclic(10 ** 2150 - 1)
        for text in ("C(1" + "0" * 2150 + ")", "C(10^2150)", "C(100^1075)",
                     "E(2,10^2150)"):
            with pytest.raises(ExprParseError, match="bound on expression numbers"):
                parse_expr(text)

    def test_unicode_digits(self):
        # int() reads every decimal digit; "²" is a digit but not a decimal one
        assert parse_expr("C(\u0663)") == Cyclic(3)           # Arabic-Indic 3
        assert parse_expr("C(1\u0663^\U0001d7d0)") == Cyclic(13 ** 2)
        # leading zeros of any script do not count towards the number bound
        assert parse_expr("C(" + "\u0660" * 3000 + "7)") == Cyclic(7)
        for text in ("C(\u00b2)", "C(2\u00b2)", "E(2,\u00b3)", "C(\u00bd)"):
            with pytest.raises(ExprParseError, match="unexpected character"):
                parse_expr(text)

    @pytest.mark.parametrize("text", [
        "D(7)",        # odd dihedral order
        "Q(12)",       # not a power of two
        "SD(8)",       # too small
        "E(4,2)",      # composite p
        "C(0)",        # empty group order
        "Dic(1)",      # too small
        "X(3)",        # unknown head
        "C(4",         # missing paren
        "C(4) y D(8)",  # bad operator
        "C(4) x",      # dangling product
        "",            # empty input
        "C(4)!",       # stray character
    ])
    def test_errors_carry_offset(self, text):
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        assert "offset" in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("C(0)", "C(n) needs n >= 1"),
        ("D(0)", "D(n) needs an even order >= 2, got 0"),
        ("Q(4)", "Q(n) needs a power of two >= 8, got 4"),
        ("SD(24)", "SD(n) needs a power of two >= 16, got 24"),
        ("E(4,0)", "E(p,k) needs p prime, got 4"),
        ("E(2,0)", "E(p,k) needs k >= 1, got 0"),
        ("S(0)", "S(n) needs n >= 1, got 0"),
        ("Dic(1)", "Dic(n) needs n >= 2, got 1"),
        ("Cat(4,0)", "Cat(order,id) needs positive arguments"),
        ("C(2) x D(9)", "D(n) needs an even order >= 2, got 9"),
    ])
    def test_requirement_messages(self, text, message):
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        offset = text.rindex(" ") + 1 if " " in text else 0
        assert str(err.value) == f"{message} (at offset {offset})"

    @pytest.mark.parametrize("text, message", [
        ("C(4)x", "expected a group name, found end of input (at offset 5)"),
        ("C(4", "expected ')', found end of input (at offset 3)"),
        ("", "expected a group name, found end of input (at offset 0)"),
        ("C(4,", "expected ')', found ',' (at offset 3)"),
    ])
    def test_end_of_input_is_named(self, text, message):
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        assert str(err.value) == message


# Grammar tokens mixed with digits of other scripts, decimal or not.  Up to
# 40 tokens, so a literal can reach 38 digits: E(p,k) tests p for primality
# while parsing, which answers below the exact Miller-Rabin bound (about
# 3.3 * 10^24) and, at or above it, answers "composite" on a witness and
# refuses, naming factor_work, without one.
_FUZZ_TOKENS = ["C", "D", "Q", "SD", "E", "S", "Dic", "Cat", "SL23", "x", "X",
                "(", ")", ",", "^", " ", "-", "0", "1", "2", "3", "7", "9",
                "\u0663", "\u06f7", "\U0001d7d7", "\u00b2", "\u00b3", "\u00bd",
                "\u216b", "\u00e9"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(),
                 st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=40).map("".join)))
def test_parse_expr_parses_or_refuses(text):
    try:
        expr = parse_expr(text)
    except ExprParseError as exc:
        assert "offset" in str(exc)
    except caps.CapExceeded as exc:
        assert exc.name == "factor_work"
    else:
        assert isinstance(expr, GroupExpr)


@pytest.mark.parametrize("args", [["stats", "C(\u00b2)"], ["scan", "C(\u00b2)"],
                                  ["iso", "C(2)", "C(\u00b2)"]],
                         ids=["stats", "scan", "iso"])
def test_non_decimal_digits_are_usage_errors(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "unexpected character '\u00b2'" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["stats", "scan"])
def test_missing_catalog_entry_is_usage_error(runner, command):
    res = runner.invoke(main, [command, "Cat(16,99)"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1] == "Error: no catalog entry (16, 99)"
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["stats", "scan"])
def test_catalog_file_answers_expressions(runner, tmp_path, entries, command):
    # Cat(12,1) resolves against --catalog, not the embedded catalog
    partial = tmp_path / "no12.jsonl"
    partial.write_text("\n".join(e.to_json_line() for e in entries
                                 if (e.order, e.id) != (12, 1)) + "\n")
    res = runner.invoke(main, ["--catalog", str(partial), command, "Cat(12,1)"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "no catalog entry (12, 1)" in res.output


# per case: a catalog line naming no group of its declared order, and the finding
INVALID_ENTRIES = {
    "not-a-permutation": ({"order": 2, "id": 1, "name": "bad", "degree": 2,
                           "gens": [[0, 0]]},
                          "generator 0 is not a permutation of 0..1"),
    "S4-declared-16": ({"order": 16, "id": 1, "name": "S4", "degree": 4,
                        "gens": [[1, 2, 3, 0], [1, 0, 2, 3]]},
                       "closure has 24 elements, declared order is 16"),
}


def _invalid_catalog(tmp_path, case):
    line, problem = INVALID_ENTRIES[case]
    path = tmp_path / "invalid.jsonl"
    path.write_text(json.dumps(line) + "\n")
    return str(path), f"({line['order']},1) {line['name']}: {problem}"


@pytest.mark.parametrize("case", sorted(INVALID_ENTRIES))
@pytest.mark.parametrize("command", ["stats", "scan", "iso", "verify"])
def test_entry_naming_no_group_of_its_order_is_usage_error(runner, tmp_path, case,
                                                           command):
    path, finding = _invalid_catalog(tmp_path, case)
    ref = f"Cat({INVALID_ENTRIES[case][0]['order']},1)"
    args = {"stats": ["stats", ref], "scan": ["scan"], "iso": ["iso", ref, "C(2)"],
            "verify": ["verify", "--check", "thm2.8"]}[command]
    res = runner.invoke(main, ["--catalog", path, *args])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1].startswith(f"Error: invalid catalog entry {finding}")
    assert "Traceback" not in res.output


@pytest.mark.parametrize("case", sorted(INVALID_ENTRIES))
def test_catalog_validate_reports_entry_naming_no_group(runner, tmp_path, case):
    path, finding = _invalid_catalog(tmp_path, case)
    res = runner.invoke(main, ["--catalog", path, "catalog-validate"])
    assert res.exit_code == 1
    assert res.output.splitlines()[-1] == f"  - {finding}"


@pytest.mark.parametrize("text", [
    "C(10^5000)",                # a power whose decimal form str() refuses
    "C(2^100000000)",            # a power that would take 12 MB to build
    "C(1" + "0" * 5000 + ")",    # a literal that int() refuses
    "C(2^7143)",                 # the first power of two above the bound
], ids=["10^5000", "2^100000000", "5001-digit-literal", "2^7143"])
def test_numbers_above_the_bound_are_usage_errors(runner, text):
    res = runner.invoke(main, ["stats", text])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "number not below 10^2150, the bound on expression numbers" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("text", ["C(2^7142)", "D(2^7142)", "C(00012)"])
def test_numbers_below_the_bound_print(runner, text):
    res = runner.invoke(main, ["stats", text])
    assert res.exit_code == 0
    assert "h_m: " in res.output


class TestStats:
    def test_d8(self, runner):
        res = runner.invoke(main, ["stats", "D(8)"])
        assert res.exit_code == 0
        assert "h_m: 2/1" in res.output
        assert "path: closed_form" in res.output

    def test_multiplicative_path(self, runner):
        res = runner.invoke(main, ["stats", "SL23 x C(7^7)"])
        assert res.exit_code == 0
        assert "h_m: 403368/1" in res.output
        assert "path: multiplicative" in res.output

    def test_large_prime(self, runner):
        p = 10 ** 18 + 3
        res = runner.invoke(main, ["stats", f"C({p})"])
        assert res.exit_code == 0
        assert f"h_m: {p * p}/{2 * p - 1} " in res.output
        assert "Traceback" not in res.output

    def test_trivial(self, runner):
        res = runner.invoke(main, ["stats", "C(1)"])
        assert res.exit_code == 0
        assert "h_m: 1/1" in res.output

    def test_parse_error_is_usage_error(self, runner):
        res = runner.invoke(main, ["stats", "D(7)"])
        assert res.exit_code == 2
        assert "offset" in res.output

    def test_cap_error_exit_3(self, runner):
        res = runner.invoke(main, ["stats", "S(9)"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("text, k", [("S(100000)", 456573),
                                         ("E(2,100000)", 30102)])
    def test_huge_order_cap_error(self, runner, text, k):
        # the order has too many digits for str(); the message bounds it
        res = runner.invoke(main, ["stats", text])
        assert res.exit_code == 3
        assert (f"{text} has order > 10^{k}, above the enumeration cap 4096"
                in res.output)
        assert "Traceback" not in res.output

    def test_caps_override(self, runner):
        res = runner.invoke(main, ["--caps", "6000", "stats", "E(2,12)"])
        assert res.exit_code == 0
        assert "order: 4096" in res.output

    def test_json_format(self, runner):
        res = runner.invoke(main, ["--format", "json", "stats", "SL23"])
        doc = json.loads(res.output)
        assert doc["h_m"] == "24/7"
        assert doc["h_m_approx"] == "3.428571"

    def test_digits(self, runner):
        res = runner.invoke(main, ["--digits", "3", "stats", "SL23"])
        assert "(~3.429)" in res.output

    def test_degenerate_dihedral(self, runner):
        res = runner.invoke(main, ["stats", "D(2)"])
        assert res.exit_code == 0
        assert "h_m: 4/3" in res.output

    def test_family_values_match_kernel(self, runner):
        # CLI-reported h_m agrees with an independent kernel enumeration
        from hmgroups import families as fam
        from hmgroups.exactmath import format_rational
        from hmgroups.statistics import h_m_of
        cases = [("C(12)", fam.cyclic(12)), ("D(12)", fam.dihedral(12)),
                 ("Q(16)", fam.generalized_quaternion(16)),
                 ("SD(16)", fam.semidihedral(16)),
                 ("E(3,2)", fam.elementary_abelian(3, 2)),
                 ("S(4)", fam.symmetric(4)), ("SL23", fam.sl23()),
                 ("Dic(3)", fam.dicyclic(3))]
        for text, group in cases:
            res = runner.invoke(main, ["stats", text])
            assert f"h_m: {format_rational(h_m_of(group))} " in res.output, text


class TestRefusals:
    """Each limit the CLI can reach exits 3 naming it, without a traceback."""

    @pytest.mark.parametrize("args, name", [
        (["--caps", "3000000", "stats", "Dic(600000)"], "closure"),
        (["--caps", "3000000", "stats", "E(2,21)"], "closure"),
        (["iso", "C(300)", "C(300)"], "iso"),
        (["stats", "S(10^7)"], "enumeration"),
        (["stats", "E(7,10^2000)"], "enumeration"),
        (["stats", "S(10^6) x C(7)"], "enumeration"),
        # the verifier builds its reference groups as atoms, within the cap
        (["--caps", "100", "verify", "--check", "c-convention"], "enumeration"),
    ])
    def test_refusal(self, runner, args, name):
        res = runner.invoke(main, args)
        assert res.exit_code == 3
        assert f"above the {name} cap" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("args", [["stats", "E(1000000000000000003,1)"],
                                      ["iso", "E(1000000000000000003,1)", "C(2)"]])
    def test_large_prime_reaches_its_cap(self, runner, args):
        # E(p,k) tests p while parsing; 10^18 + 3 is prime and answers at once
        res = runner.invoke(main, args)
        assert res.exit_code == 3
        assert "E(1000000000000000003,1) has order 1000000000000000003" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("args", [["stats", "C(1000000000000000000000000000057)"],
                                      ["stats", "E(1000000000000000000000000000057,1)"],
                                      ["scan", "D(2000000000000000000000000000114)"]])
    def test_above_the_miller_rabin_bound(self, runner, args):
        # 10^30 + 57 is prime, and above the bound of exact primality testing
        res = runner.invoke(main, args)
        assert res.exit_code == 3
        assert "(factor_work)" in res.output
        assert "Traceback" not in res.output

    def test_composite_above_the_miller_rabin_bound(self, runner):
        # p = 10000000000037 * 10000001000029: a witness proves it composite
        res = runner.invoke(main, ["stats", "E(100000010000660000037001073,1)"])
        assert res.exit_code == 2
        assert "E(p,k) needs p prime, got 100000010000660000037001073" in res.output
        assert "Traceback" not in res.output

    def test_catalog_validate_refusal(self, runner, tmp_path):
        # two cyclic groups of order 300 are compared by the isomorphism search
        lines = ["# hmcat v1"]
        for gid, step in ((1, 1), (2, 7)):
            gen = [(i + step) % 300 for i in range(300)]
            lines.append(json.dumps({"order": 300, "id": gid, "name": f"C300-{gid}",
                                     "degree": 300, "gens": [gen]}))
        path = tmp_path / "big.jsonl"
        path.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["--catalog", str(path), "catalog-validate"])
        assert res.exit_code == 3
        assert "above the iso cap 256" in res.output
        assert "Traceback" not in res.output

    def test_caps_reaches_scan(self, runner):
        res = runner.invoke(main, ["--caps", "100000", "scan", "E(2,13)"])
        assert res.exit_code == 0
        assert "E(2,13)        8192        16384/8193" in res.output

    def test_caps_reaches_iso(self, runner):
        res = runner.invoke(main, ["iso", "E(2,13)", "C(2) x E(2,12)"])
        assert res.exit_code == 3
        assert "above the enumeration cap 4096" in res.output
        res = runner.invoke(main, ["--caps", "8192", "iso", "E(2,13)", "C(2) x E(2,12)"])
        assert res.exit_code == 3
        assert "above the iso cap 256" in res.output

    @pytest.mark.parametrize("args", [["--caps", "6000", "stats", "E(2,12)"],
                                      ["--caps", "6000", "stats", "E(2,13)"]])
    def test_caps_restored_after_command(self, runner, args):
        defaults = dict(caps.LIMITS)
        runner.invoke(main, args)
        assert caps.LIMITS == defaults

    def test_caps_bounded_by_int_parsing(self, runner):
        res = runner.invoke(main, ["--caps", "1" * 4301, "stats", "C(2)"])
        assert res.exit_code == 2
        assert "Traceback" not in res.output


class TestScan:
    def test_eq_2(self, runner):
        res = runner.invoke(main, ["scan", "--predicate", "eq=2"])
        assert res.exit_code == 0
        lines = [l for l in res.output.splitlines()
                 if l and not l.startswith(("#", "label"))]
        assert [l.split()[0] for l in lines] == ["C4", "D8"]

    def test_eq_3(self, runner):
        res = runner.invoke(main, ["scan", "--predicate", "eq=3"])
        rows = [l.split()[0] for l in res.output.splitlines()
                if l and not l.startswith(("#", "label"))]
        assert rows == ["Dic3"]

    def test_le_2_matches_classification(self, runner):
        res = runner.invoke(main, ["scan", "--predicate", "le=2",
                                   "--max-order", "16"])
        rows = {l.split()[0] for l in res.output.splitlines()
                if l and not l.startswith(("#", "label"))}
        assert rows == {"1", "C2", "C3", "C4", "C2^2", "S3", "D8",
                        "C2^3", "C2^4"}

    def test_integer_predicate_with_families(self, runner):
        res = runner.invoke(main, ["scan", "--families",
                                   "cyclic:64,dihedral:32",
                                   "--predicate", "integer"])
        rows = [l.split()[0] for l in res.output.splitlines()
                if l and not l.startswith(("#", "label"))]
        assert "C64" in rows and "C27" in rows

    def test_expression_argument(self, runner):
        res = runner.invoke(main, ["scan", "--predicate", "integer",
                                   "SL23 x C(823543)"])
        assert "403368/1" in res.output

    def test_fractional_predicate(self, runner):
        res = runner.invoke(main, ["scan", "--predicate", "eq=24/7"])
        rows = [l.split()[0] for l in res.output.splitlines()
                if l and not l.startswith(("#", "label"))]
        assert rows == ["SL(2,3)"]

    def test_bad_predicate(self, runner):
        res = runner.invoke(main, ["scan", "--predicate", "ge=2"])
        assert res.exit_code == 2

    def test_negative_family_bound(self, runner):
        res = runner.invoke(main, ["scan", "--families", "cyclic:-5"])
        assert res.exit_code == 2
        assert "bad family bound '-5'" in res.output
        assert "Traceback" not in res.output

    def test_csv_format(self, runner):
        res = runner.invoke(main, ["--format", "csv", "scan",
                                   "--predicate", "eq=2"])
        rows = list(csv.reader(io.StringIO(res.output)))
        assert rows[0] == ["label", "order", "h_m", "h_m_approx",
                           "integer", "source"]
        assert [r[0] for r in rows[1:]] == ["C4", "D8"]

    def test_json_format(self, runner):
        res = runner.invoke(main, ["--format", "json", "scan",
                                   "--predicate", "eq=2"])
        doc = json.loads(res.output)
        assert {r["label"] for r in doc["rows"]} == {"C4", "D8"}
        assert "population" in doc

    def test_deterministic_output(self, runner):
        args = ["scan", "--families", "cyclic:30,dihedral:10"]
        a = runner.invoke(main, args).output
        b = runner.invoke(main, args).output
        assert a == b

    def test_timestamp_flag(self, runner):
        plain = runner.invoke(main, ["scan", "--predicate", "eq=2"]).output
        stamped = runner.invoke(main, ["--timestamp", "scan",
                                       "--predicate", "eq=2"]).output
        assert not plain.startswith("# generated")
        assert stamped.startswith("# generated")


def _scan_filtered_after(fmt, families, predicate, max_order, exprs):
    """What `hm scan` printed when it built every row and then dropped
    those above --max-order or failing --predicate."""
    report = scan_integer_hm(default_catalog(), *families,
                             exprs=tuple(parse_expr(t) for t in exprs))
    rows = report.rows
    if max_order is not None:
        rows = [r for r in rows if r.order <= max_order]
    desc = "all"
    if predicate == "integer":
        rows, desc = [r for r in rows if r.integer], "integer"
    elif predicate is not None:
        head, raw = predicate.split("=")
        value = Fraction(raw)
        if head == "eq":
            rows, desc = [r for r in rows if r.h_m == value], f"h_m = {value}"
        else:
            rows, desc = [r for r in rows if r.h_m <= value], f"h_m <= {value}"
    report.rows = rows
    report.population += f"; filter: {desc}"
    return _scan_text(report, fmt, 6)


# (cyclic, dihedral), predicate, --max-order, expressions
SCAN_FILTER_CASES = [
    ((0, 0), None, None, ()),
    ((0, 0), "integer", None, ()),
    ((0, 0), "le=2", 16, ()),
    ((300, 200), "integer", None, ()),
    ((300, 200), None, 97, ()),
    ((300, 200), None, 1, ()),
    ((0, 150), "eq=2", 200, ()),
    ((120, 90), "le=12/5", 150, ("SL23 x C(5)", "Cat(16,3) x C(3)")),
    ((64, 0), "eq=24/7", None, ("SL23", "C(5) x SL23")),
    ((0, 0), "integer", None, ("SL23 x C(823543)", "D(8)")),
    ((50, 50), "le=3", 24, ("D(64)",)),
    ((257, 257), "eq=2", 64, ("C(4)", "D(8) x C(1)")),
]


class TestScanFilters:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("families, predicate, max_order, exprs", SCAN_FILTER_CASES)
    def test_same_output_as_filtering_built_rows(self, runner, fmt, families, predicate,
                                                 max_order, exprs):
        args = ["--format", fmt, "scan", "--families",
                f"cyclic:{families[0]},dihedral:{families[1]}"]
        if predicate is not None:
            args += ["--predicate", predicate]
        if max_order is not None:
            args += ["--max-order", str(max_order)]
        res = runner.invoke(main, args + list(exprs))
        assert res.exit_code == 0, res.output
        assert res.output == _scan_filtered_after(fmt, families, predicate, max_order,
                                                  exprs)


class TestVerify:
    def test_single_check(self, runner):
        res = runner.invoke(main, ["verify", "--check", "prop2.6",
                                   "--nmax", "2000"])
        assert res.exit_code == 0
        assert "[PASS] prop2.6" in res.output

    def test_all_exits_1_due_to_failed_bound_check(self, runner):
        res = runner.invoke(main, ["verify", "--all", "--nmax", "500"])
        assert res.exit_code == 1
        assert "[FAIL] lemma2.1" in res.output
        assert "[PASS] thm2.5" in res.output

    def test_unknown_check(self, runner):
        res = runner.invoke(main, ["verify", "--check", "thm9.9"])
        assert res.exit_code == 2
        assert "thm2.5" in res.output  # usage error lists valid ids

    @pytest.mark.parametrize("check_list", [",", "", " , "])
    def test_check_list_naming_no_id(self, runner, check_list):
        res = runner.invoke(main, ["verify", "--check", check_list])
        assert res.exit_code == 2
        assert res.output.splitlines()[-1] == (
            "Error: no check id given; valid ids: " + ", ".join(sorted(CHECKS)))

    def test_incomplete_catalog_caveat(self, runner, tmp_path, entries):
        partial = tmp_path / "partial.jsonl"
        partial.write_text(
            "\n".join(e.to_json_line() for e in entries if e.order != 8) + "\n")
        res = runner.invoke(main, ["--catalog", str(partial),
                                   "verify", "--check", "thm2.5"])
        assert res.exit_code == 0
        assert "population incomplete" in res.output

    def test_catalog_without_small_groups(self, runner, tmp_path):
        # two cyclic groups of order 300: no group of order 2..16 for thm2.8's minimum
        lines = ["# hmcat v1"]
        for gid, step in ((1, 1), (2, 7)):
            lines.append(json.dumps({"order": 300, "id": gid, "name": f"C300-{gid}",
                                     "degree": 300,
                                     "gens": [[(i + step) % 300 for i in range(300)]]}))
        path = tmp_path / "big.jsonl"
        path.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["--catalog", str(path), "verify", "--check", "thm2.8"])
        assert res.exit_code == 0
        assert "[PASS] thm2.8" in res.output
        assert "witness minimum: no catalog group of order 2..16" in res.output
        assert "population incomplete" in res.output
        assert "Traceback" not in res.output
        res = runner.invoke(main, ["--catalog", str(path), "verify", "--all", "--nmax", "500"])
        assert res.exit_code == 0
        assert res.output.count("[PASS]") == 10

    def test_json_format(self, runner):
        res = runner.invoke(main, ["--format", "json", "verify",
                                   "--check", "eq9"])
        doc = json.loads(res.output)
        assert doc[0]["check_id"] == "eq9"
        assert doc[0]["passed"] is True


class TestIso:
    def test_isomorphic(self, runner):
        res = runner.invoke(main, ["iso", "D(6)", "S(3)"])
        assert res.exit_code == 0
        assert res.output.strip() == "isomorphic"

    def test_not_isomorphic(self, runner):
        res = runner.invoke(main, ["iso", "C(4)", "E(2,2)"])
        assert res.output.strip() == "not isomorphic"

    def test_catalog_identification(self, runner):
        res = runner.invoke(main, ["iso", "Dic(3)", "Cat(12,1)"])
        assert res.output.strip() == "isomorphic"

    def test_product_with_many_generators(self, runner):
        res = runner.invoke(main, ["iso", "C(4) x C(2) x Cat(16,12)",
                                   "C(4) x Cat(16,12) x C(2)"])
        assert res.exit_code == 0
        assert res.output.strip() == "isomorphic"

    def test_missing_catalog_entry(self, runner):
        res = runner.invoke(main, ["iso", "C(17)", "Cat(17,1)"])
        assert res.exit_code == 2


class TestCatalogValidate:
    def test_default_ok(self, runner):
        res = runner.invoke(main, ["catalog-validate"])
        assert res.exit_code == 0
        assert "catalog OK" in res.output

    def test_corrupt_catalog(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"order":12,"id":1,"name":"liar","degree":3,'
                       '"gens":[[1,2,0],[1,0,2]]}\n')
        res = runner.invoke(main, ["--catalog", str(bad), "catalog-validate"])
        assert res.exit_code == 1
        assert "closure has 6" in res.output

    def test_env_var_catalog(self, runner, tmp_path, entries):
        path = tmp_path / "cat.jsonl"
        path.write_text("\n".join(e.to_json_line() for e in entries) + "\n")
        res = runner.invoke(main, ["catalog-validate"],
                            env={"HM_CATALOG": str(path)})
        assert res.exit_code == 0
        assert "44 entries" in res.output
