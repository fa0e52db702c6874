import dataclasses
import json
import math
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgroups import caps, exactmath, groupkernel, statistics
from hmgroups import families as fam
from hmgroups.catalog import default_catalog
from hmgroups.cli import ExprParseError, parse_expr
from hmgroups.exactmath import euler_phi
from hmgroups.groupkernel import CapExceeded, direct_product
from hmgroups.statistics import (CatalogRef, Cyclic, Dicyclic, Dihedral,
                                 ElemAbelian, GenQuaternion, GroupExpr, Product, SL23,
                                 SemiDihedral, Symmetric, eval_expr, expr_order,
                                 expr_text, h_m_cyclic_closed,
                                 h_m_dihedral_closed, h_m_of, h_m_pgroup_closed,
                                 lemma_bound, m_cyclic_closed, m_of, realize,
                                 weak_bound)


class TestBasicStatistics:
    def test_m_values(self):
        assert m_of(fam.cyclic(4)) == 2
        assert m_of(fam.dihedral(8)) == 4
        assert m_of(fam.cyclic(2)) == Fraction(3, 2)
        assert m_of(fam.symmetric(3)) == Fraction(19, 6)

    def test_h_m_values(self):
        assert h_m_of(fam.cyclic(1)) == 1
        assert h_m_of(fam.dihedral(8)) == 2
        assert h_m_of(fam.cyclic(2)) == Fraction(4, 3)
        assert h_m_of(fam.sl23()) == Fraction(24, 7)
        assert h_m_of(fam.dicyclic(3)) == 3

    def test_h_times_m_is_order(self, entries):
        for e in entries:
            g = e.group()
            assert h_m_of(g) * m_of(g) == g.size


class TestCyclicClosedForm:
    def test_examples(self):
        assert m_cyclic_closed(4) == 2
        assert m_cyclic_closed(9) == Fraction(7, 3)
        assert m_cyclic_closed(1) == 1

    def test_matches_enumeration(self):
        for n in range(1, 201):
            assert m_cyclic_closed(n) == m_of(fam.cyclic(n)), n

    def test_h_m_cyclic(self):
        assert h_m_cyclic_closed(8) == Fraction(16, 5)
        assert h_m_cyclic_closed(823543) == 7 ** 6


class TestDihedralClosedForm:
    def test_examples(self):
        assert h_m_dihedral_closed(4) == 2
        assert h_m_dihedral_closed(3) == Fraction(36, 19)
        assert h_m_dihedral_closed(2) == Fraction(8, 5)

    def test_matches_enumeration(self):
        for n in range(2, 61):
            assert h_m_dihedral_closed(n) == h_m_of(fam.dihedral(2 * n)), n

    def test_requires_n_at_least_2(self):
        with pytest.raises(ValueError):
            h_m_dihedral_closed(1)


class TestPGroupClosedForm:
    def test_examples(self):
        assert h_m_pgroup_closed(2, 2, 3) == 2
        assert h_m_pgroup_closed(2, 3, 7) == 2
        assert h_m_pgroup_closed(2, 6, 7) == 16

    def test_matches_enumeration_on_p_groups(self):
        cases = [(fam.cyclic(16), 2, 4), (fam.dihedral(8), 2, 3),
                 (fam.generalized_quaternion(16), 2, 4),
                 (fam.elementary_abelian(3, 2), 3, 2),
                 (fam.semidihedral(32), 2, 5)]
        for g, p, n in cases:
            assert h_m_pgroup_closed(p, n, g.cyclic_subgroup_count()) == h_m_of(g)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            h_m_pgroup_closed(1, 2, 3)


class TestBounds:
    def test_p_group_equality(self):
        for g in (fam.dihedral(8), fam.cyclic(9), fam.generalized_quaternion(16),
                  fam.elementary_abelian(2, 4)):
            assert lemma_bound(g) == h_m_of(g)

    def test_s3_bound_exceeds_h_m(self):
        # the claimed bound fails here: |C(S3)| = 5 gives bound 2 > 36/19
        s3 = fam.symmetric(3)
        assert lemma_bound(s3) == 2
        assert h_m_of(s3) < lemma_bound(s3)

    def test_weak_bound_below_h_m(self, entries):
        for e in entries:
            if e.order >= 2:
                assert h_m_of(e.group()) >= weak_bound(e.order)

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            lemma_bound(fam.cyclic(1))
        with pytest.raises(ValueError):
            weak_bound(1)


# per atom class: a small instance, then for each clause of its rule, in
# order, arguments that fail it and pass the clauses before it
ATOM_CASES = {
    Cyclic: (Cyclic(6), [(0,)]),
    Dihedral: (Dihedral(12), [(7,)]),
    GenQuaternion: (GenQuaternion(16), [(12,)]),
    SemiDihedral: (SemiDihedral(16), [(8,)]),
    ElemAbelian: (ElemAbelian(3, 2), [(4, 1), (2, 0)]),
    Symmetric: (Symmetric(4), [(0,)]),
    SL23: (SL23(), []),
    Dicyclic: (Dicyclic(3), [(1,)]),
    CatalogRef: (CatalogRef(12, 1), [(0, 1)]),
}


class TestAtomTable:
    def test_every_atom_class_has_a_row(self):
        atom_classes = set(typing.get_args(GroupExpr)) - {Product}
        assert set(statistics.ATOMS) == atom_classes == set(ATOM_CASES)
        heads = [row.head for row in statistics.ATOMS.values()]
        assert len(set(heads)) == len(heads)

    @pytest.mark.parametrize("cls", list(statistics.ATOMS),
                             ids=[row.head for row in statistics.ATOMS.values()])
    def test_row(self, monkeypatch, entries, cls):
        row = statistics.ATOMS[cls]
        e, bad = ATOM_CASES[cls]
        args = tuple(vars(e).values())
        assert parse_expr(expr_text(e)) == e
        assert expr_order(e) == row.order(*args) == realize(e, entries).size
        assert (row.check is None) == (not bad)
        if row.check is not None:
            row.check(*args)
        for bad_args in bad:
            with pytest.raises(ValueError) as rule:
                row.check(*bad_args)
            with pytest.raises(ExprParseError) as err:
                parse_expr(f"{row.head}({','.join(map(str, bad_args))})")
            assert str(err.value) == f"{rule.value} (at offset 0)"
        if row.spectrum is not None:
            spectrum, primes, path = row.spectrum(*args)
            assert spectrum == realize(e, entries).order_spectrum()
            assert primes == exactmath.factorize(expr_order(e)).primes()
            assert path == "closed_form"
        if row.builder is None:
            return
        # builders are looked up on the module at each call, so a wrapper
        # installed there (as a profiler installs one) sees every build
        calls = []
        real = getattr(fam, row.builder)

        def counting(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(fam, row.builder, counting)
        assert realize(e, entries).size == expr_order(e)
        assert calls == [args]


# the messages of the parser (test_cli's test_requirement_messages), raised
# alike by the expression classes and the families constructors
@pytest.mark.parametrize("cls, builder, args, message", [
    (Cyclic, "cyclic", (0,), "C(n) needs n >= 1"),
    (Dihedral, "dihedral", (7,), "D(n) needs an even order >= 2, got 7"),
    (GenQuaternion, "generalized_quaternion", (12,),
     "Q(n) needs a power of two >= 8, got 12"),
    (SemiDihedral, "semidihedral", (8,), "SD(n) needs a power of two >= 16, got 8"),
    (ElemAbelian, "elementary_abelian", (4, 1), "E(p,k) needs p prime, got 4"),
    (ElemAbelian, "elementary_abelian", (2, 0), "E(p,k) needs k >= 1, got 0"),
    (Symmetric, "symmetric", (0,), "S(n) needs n >= 1, got 0"),
    (Dicyclic, "dicyclic", (1,), "Dic(n) needs n >= 2, got 1"),
    (CatalogRef, None, (4, 0), "Cat(order,id) needs positive arguments"),
])
def test_library_messages(cls, builder, args, message):
    makers = [cls] if builder is None else [cls, getattr(fam, builder)]
    for make in makers:
        with pytest.raises(ValueError) as err:
            make(*args)
        assert str(err.value) == message


# arguments at the edges of every rule: 0..3, odd and even values, and powers
# of two and their neighbours
_EDGE_ARGS = st.one_of(
    st.sampled_from([0, 1, 2, 3]),
    st.integers(2, 5000).map(lambda n: 2 * n + 1),
    st.integers(2, 5000).map(lambda n: 2 * n),
    st.builds(lambda k, d: 2 ** k + d, st.integers(1, 14), st.sampled_from([-1, 0, 1])))


def _outcome(make, *args) -> str | None:
    """None if make(*args) accepts its arguments, else the ValueError text."""
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(statistics.ATOMS)), st.data())
def test_every_route_applies_the_same_rule(cls, data):
    # the parser, the expression class, the families constructor (on orders up
    # to 64) and the closed-form spectrum accept exactly the same arguments
    row = statistics.ATOMS[cls]
    args = tuple(data.draw(_EDGE_ARGS) for _ in dataclasses.fields(cls))
    made = _outcome(cls, *args)
    text = f"{row.head}({','.join(map(str, args))})" if args else row.head
    parsed = _outcome(parse_expr, text)
    assert parsed == (None if made is None else f"{made} (at offset 0)")
    order = row.order(*args)
    if row.builder is not None and isinstance(order, int) and order <= 64:
        assert _outcome(getattr(fam, row.builder), *args) == made
    if row.spectrum is not None:
        assert (_outcome(row.spectrum, *args) is None) == (made is None)


class TestExpr:
    def test_orders_without_enumeration(self):
        assert expr_order(Cyclic(7 ** 7)) == 823543
        assert expr_order(Product((SL23(), Cyclic(7 ** 7)))) == 24 * 7 ** 7
        assert expr_order(Symmetric(6)) == 720
        assert expr_order(Dicyclic(5)) == 20
        assert expr_order(ElemAbelian(2, 10)) == 1024
        assert expr_order(CatalogRef(12, 1)) == 12

    def test_text_roundtrip_forms(self):
        exprs = [Cyclic(823543), Dihedral(8), GenQuaternion(16), SemiDihedral(32),
                 ElemAbelian(2, 3), Symmetric(4), SL23(), Dicyclic(3),
                 CatalogRef(12, 1), Product((SL23(), Cyclic(823543)))]
        texts = ["C(823543)", "D(8)", "Q(16)", "SD(32)", "E(2,3)", "S(4)",
                 "SL23", "Dic(3)", "Cat(12,1)", "SL23 x C(823543)"]
        assert [expr_text(e) for e in exprs] == texts

    def test_products_flatten(self):
        e = Product((Product((Cyclic(2), Cyclic(3))), Cyclic(5)))
        assert len(e.factors) == 3

    def test_realize_catalog(self, entries):
        g = realize(CatalogRef(12, 1), entries)
        assert h_m_of(g) == 3


class TestEvalExpr:
    def test_cyclic_closed_form(self):
        rep = eval_expr(Cyclic(7 ** 7))
        assert rep.h_m == 7 ** 6
        assert rep.path == "closed_form"
        assert rep.c_count == 8
        assert rep.m * rep.h_m == rep.order

    def test_multiplicative_product(self):
        rep = eval_expr(Product((SL23(), Cyclic(7 ** 7))))
        assert rep.h_m == 24 * 7 ** 5 == 403368
        assert rep.path == "multiplicative"
        assert rep.integer
        assert rep.order == 24 * 7 ** 7
        assert rep.m * rep.h_m == rep.order
        assert rep.exponent == math.lcm(12, 7 ** 7)

    def test_non_coprime_product_enumerates(self):
        rep = eval_expr(Product((Cyclic(2), Cyclic(2))))
        assert rep.h_m == Fraction(8, 5)
        assert rep.path == "brute"

    def test_non_coprime_product_over_cap(self):
        with pytest.raises(CapExceeded):
            eval_expr(Product((Cyclic(2), Cyclic(2 * 10 ** 6))))

    def test_dihedral_closed_form(self):
        rep = eval_expr(Dihedral(8))
        assert rep.h_m == 2
        assert rep.path == "closed_form"
        assert rep.c_count == 7
        assert rep.spectrum is not None
        assert dict(rep.spectrum.entries) == {1: 1, 2: 5, 4: 2}

    def test_odd_dihedral_order_rejected(self):
        # D(7) is no group: the atom checks the rule of families.dihedral_n
        # when it is made, so no expression holds it
        for make in (lambda: Dihedral(7), lambda: Product((Dihedral(7), Cyclic(5)))):
            with pytest.raises(ValueError, match=r"^D\(n\) needs an even order >= 2, got 7$"):
                eval_expr(make())

    def test_dihedral_closed_form_matches_enumeration(self):
        for order in (4, 6, 8, 12, 20, 30):
            rep = eval_expr(Dihedral(order))
            g = fam.dihedral(order)
            assert rep.spectrum == g.order_spectrum()
            assert rep.c_count == g.cyclic_subgroup_count()
            assert rep.h_m == h_m_of(g)

    def test_brute_paths(self):
        assert eval_expr(CatalogRef(12, 1)).h_m == 3
        assert eval_expr(GenQuaternion(8)).h_m == Fraction(8, 3)
        assert eval_expr(ElemAbelian(2, 3)).h_m == Fraction(16, 9)
        assert eval_expr(Dicyclic(3)).path == "brute"

    def test_convolved_spectrum_matches_enumeration(self):
        rep = eval_expr(Product((Cyclic(3), Cyclic(4))))
        assert rep.path == "multiplicative"
        enumerated = direct_product(fam.cyclic(3), fam.cyclic(4)).order_spectrum()
        assert rep.spectrum == enumerated

    def test_multiplicative_c_count(self):
        rep = eval_expr(Product((SL23(), Cyclic(5))))
        concrete = direct_product(fam.sl23(), fam.cyclic(5))
        assert rep.c_count == concrete.cyclic_subgroup_count()

    def test_trivial_cyclic(self):
        rep = eval_expr(Cyclic(1))
        assert rep.h_m == 1 and rep.integer


ENTRIES = default_catalog()

ATOMS = st.one_of(
    st.integers(1, 32).map(Cyclic),
    st.integers(1, 16).map(lambda n: Dihedral(2 * n)),
    st.sampled_from([8, 16, 32]).map(GenQuaternion),
    st.sampled_from([16, 32]).map(SemiDihedral),
    st.integers(2, 8).map(Dicyclic),
    st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]).map(
        lambda pk: ElemAbelian(*pk)),
    st.integers(1, 4).map(Symmetric),
    st.just(SL23()),
    st.sampled_from([(e.order, e.id) for e in ENTRIES]).map(
        lambda key: CatalogRef(*key)),
)
EXPRS = st.lists(ATOMS, min_size=1, max_size=3).map(
    lambda fs: fs[0] if len(fs) == 1 else Product(tuple(fs))).filter(
    lambda e: expr_order(e) <= 512)


def expected_path(e) -> str:
    if isinstance(e, (Cyclic, Dihedral)):
        return "closed_form"
    if isinstance(e, Product):
        orders = [expr_order(f) for f in e.factors]
        if all(math.gcd(a, b) == 1
               for i, a in enumerate(orders) for b in orders[i + 1:]):
            return "multiplicative"
    return "brute"


class TestSpectrumSources:
    """Every source (closed form, coprime convolution, enumeration) against
    the spectrum of the realized group, with m, h_m, |C(G)| and the exponent
    recomputed here from that spectrum alone."""

    @settings(max_examples=120, deadline=None)
    @given(EXPRS)
    def test_matches_realized_group(self, e):
        rep = eval_expr(e, ENTRIES)
        spectrum = realize(e, ENTRIES).order_spectrum()
        m = sum((Fraction(n, d) for d, n in spectrum), Fraction(0))
        assert rep.spectrum == spectrum
        assert rep.order == expr_order(e) == spectrum.total()
        assert rep.m == m
        assert rep.h_m == Fraction(rep.order) / m
        assert rep.integer == (rep.h_m.denominator == 1)
        assert rep.c_count == sum(n // euler_phi(d) for d, n in spectrum)
        assert rep.exponent == math.lcm(*(d for d, _ in spectrum))
        assert rep.path == expected_path(e)
        assert rep.label == expr_text(e)

    @pytest.mark.parametrize("e", [Cyclic(2 ** 3 * 3 ** 2 * 7 * 999983),
                                   Cyclic(1), Cyclic(999983),
                                   Dihedral(2 * 3 ** 4 * 1000003), Dihedral(2)])
    def test_closed_form_factors_n_once(self, monkeypatch, e):
        calls = []
        real = exactmath.factorize

        def counting(n):
            calls.append(n)
            return real(n)
        for module in (exactmath, groupkernel, statistics):
            monkeypatch.setattr(module, "factorize", counting)
        rep = eval_expr(e)
        n = e.n if isinstance(e, Cyclic) else e.order // 2
        assert calls == [n]
        assert rep.path == "closed_form"

    CAP_TEXT = ("{} has order {}, above the enumeration cap 4096; raise the cap "
                "or use a coprime product / closed-form expression")

    @pytest.mark.parametrize("text, refused, order", [
        ("E(2,13)", "E(2,13)", 8192),
        ("C(12) x C(12) x C(12) x C(12)", "C(12) x C(12) x C(12) x C(12)", 12 ** 4),
        ("Dic(1025)", "Dic(1025)", 4100),
        ("S(7)", "S(7)", 5040),
        ("D(2050) x C(2)", "D(2050) x C(2)", 4100),
        ("C(2) x D(2050)", "C(2) x D(2050)", 4100),
        ("SD(2^40)", f"SD({2 ** 40})", 2 ** 40),
        ("Cat(16,3) x D(258)", "Cat(16,3) x D(258)", 16 * 258),
        # a coprime product is answered factor by factor: the atom is refused
        ("C(11) x S(7)", "S(7)", 5040),
        ("Q(8192) x C(3^5)", "Q(8192)", 8192),
    ])
    def test_refusals(self, text, refused, order):
        with pytest.raises(CapExceeded) as err:
            eval_expr(parse_expr(text), ENTRIES)
        assert str(err.value) == self.CAP_TEXT.format(refused, order)

    @pytest.mark.parametrize("text, path, h_m", [
        ("D(2^20) x C(3)", "multiplicative",
         h_m_dihedral_closed(2 ** 19) * h_m_cyclic_closed(3)),
        ("C(2^40) x C(3^25)", "multiplicative",
         h_m_cyclic_closed(2 ** 40) * h_m_cyclic_closed(3 ** 25)),
        ("D(4000000)", "closed_form", h_m_dihedral_closed(2 * 10 ** 6)),
        ("Q(1024) x C(3)", "multiplicative",
         h_m_pgroup_closed(2, 10, 2 ** 8 + 10) * h_m_cyclic_closed(3)),
        ("E(2,12)", "brute", Fraction(2 ** 13, 2 ** 12 + 1)),
    ])
    def test_answered_controls(self, text, path, h_m):
        rep = eval_expr(parse_expr(text), ENTRIES)
        assert rep.path == path
        assert rep.h_m == h_m

    def test_huge_order_cap_message(self):
        # orders from 10^50 on are named by a power of ten below them
        with pytest.raises(CapExceeded) as err:
            eval_expr(ElemAbelian(2, 166))  # 2^166 < 10^50 < 2^167
        assert str(err.value) == self.CAP_TEXT.format("E(2,166)", 2 ** 166)
        with pytest.raises(CapExceeded) as err:
            eval_expr(ElemAbelian(2, 167))
        assert str(err.value) == self.CAP_TEXT.format("E(2,167)", "> 10^50")
        with pytest.raises(CapExceeded) as err:  # 3^9101 has 4343 digits
            eval_expr(Product((ElemAbelian(3, 9100), Cyclic(3))))
        assert str(err.value) == self.CAP_TEXT.format("E(3,9100) x C(3)", "> 10^4342")

    @pytest.mark.parametrize("e, k", [
        (Symmetric(10 ** 6), 2709269),  # 500000 * 18 bits
        (Symmetric(10 ** 7), 33113299),
        (ElemAbelian(2, 10 ** 9), 301029995),
        (ElemAbelian(7, 10 ** 2000), 2 * 10 ** 2000 * 3010299956 // 10 ** 10),
        (Product((Symmetric(10 ** 6), Cyclic(7))), 2709269),
        (Product((Cyclic(3), ElemAbelian(2, 10 ** 9))), 301029995),
    ])
    def test_huge_order_not_built(self, e, k):
        assert isinstance(expr_order(e), caps.Huge)
        with pytest.raises(CapExceeded) as err:
            eval_expr(e)
        assert str(err.value) == self.CAP_TEXT.format(expr_text(e), f"> 10^{k}")

    @pytest.mark.parametrize("text, atoms, refused", [
        ("S(20000) x C(2)", 1, "> 10^77337"), ("S(5) x C(2)", 1, None),
        ("S(5) x C(7)", 1, None), ("S(3) x S(4)", 2, None), ("S(3) x S(4) x C(5)", 2, None),
    ])
    def test_each_symmetric_order_built_once(self, monkeypatch, text, atoms, refused):
        calls = []
        factorial = math.factorial

        def counting(n):
            calls.append(n)
            return factorial(n)

        monkeypatch.setattr(math, "factorial", counting)
        if refused:
            with pytest.raises(CapExceeded) as err:
                eval_expr(parse_expr(text))
            assert str(err.value) == self.CAP_TEXT.format(text, refused)
        else:
            eval_expr(parse_expr(text))
        assert len(calls) == atoms

    @pytest.mark.parametrize("e, exact", [(Symmetric(n), math.factorial(n))
                                          for n in (1, 2, 3, 4, 5, 17, 64, 1000)]
                             + [(ElemAbelian(p, k), p ** k)
                                for p in (2, 3, 7, 31) for k in (1, 5, 99)])
    def test_order_bound_is_a_lower_bound(self, monkeypatch, e, exact):
        monkeypatch.setattr(statistics, "_BUILD_BITS", 0)
        bound = expr_order(e)
        assert bound == exact if isinstance(bound, int) else 2 ** bound.bits <= exact


class TestStatReportSerialization:
    def test_exact_strings(self):
        d = eval_expr(SL23()).to_dict()
        assert d["h_m"] == "24/7"
        assert d["h_m_approx"] == "3.428571"
        assert d["m"] == "7/1"
        assert d["path"] == "brute"

    def test_json_parses_and_is_stable(self):
        rep = eval_expr(Product((SL23(), Cyclic(7 ** 7))))
        one = rep.to_json()
        two = rep.to_json()
        assert one == two
        parsed = json.loads(one)
        assert parsed["h_m"] == "403368/1"
        assert parsed["integer"] is True

    def test_digits_param(self):
        d = eval_expr(SL23()).to_dict(digits=2)
        assert d["h_m_approx"] == "3.43"


class TestMultiplicativity:
    def test_coprime_catalog_pairs(self, entries):
        small = [e for e in entries if e.order <= 16]
        for i, a in enumerate(small):
            for b in small[i:]:
                if a.order * b.order > 128:
                    continue
                ga, gb = a.group(), b.group()
                prod = direct_product(ga, gb)
                if math.gcd(a.order, b.order) == 1:
                    assert h_m_of(prod) == h_m_of(ga) * h_m_of(gb)
                    assert m_of(prod) == m_of(ga) * m_of(gb)
                else:
                    assert m_of(prod) > m_of(ga) * m_of(gb)
