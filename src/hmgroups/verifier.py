"""Executable checks for the classification statements about h_m.

Each check runs over an explicit population (the embedded catalog,
family scans, constructed products) and returns a CheckResult carrying
pass/fail, witnesses, and caveats.  Statements proven for all finite
groups can only be verified on a bounded population here, so every
result records exactly what was tested; scan output above order 16 is
labeled non-exhaustive.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from .catalog import CATALOG_EXHAUSTIVE_LIMIT, CatalogEntry, missing_orders
from .exactmath import (euler_phi, factorize, format_rational, is_integer,
                        m_cyclic_terms, rational_decimal)
from .groupkernel import Group, OrderSpectrum, direct_product, is_isomorphic
from .statistics import (Cyclic, Dicyclic, Dihedral, ElemAbelian, GenQuaternion,
                         SemiDihedral, Symmetric, eval_expr, h_m_of, h_m_pgroup_closed,
                         lemma_bound, m_of, m_of_spectrum, realize, weak_bound)

WITNESS_CAP = 20


@dataclass
class CheckResult:
    check_id: str
    population: str
    passed: bool
    witnesses: list[tuple[str, str]] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)

    def add_witness(self, label: str, detail: str):
        if len(self.witnesses) < WITNESS_CAP:
            self.witnesses.append((label, detail))

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "population": self.population,
            "passed": self.passed,
            "witnesses": [[l, d] for l, d in self.witnesses],
            "caveats": list(self.caveats),
        }


@dataclass
class ScanRow:
    label: str
    order: int
    h_m: Fraction
    integer: bool
    source: str
    sort_id: int

    def sort_key(self):
        return (self.order, self.sort_id, self.label)


@dataclass
class ScanReport:
    rows: list[ScanRow]
    population: str
    caveats: list[str]

    def to_dict(self, digits: int = 6) -> dict:
        return {
            "population": self.population,
            "caveats": list(self.caveats),
            "rows": [
                {
                    "label": r.label,
                    "order": r.order,
                    "h_m": format_rational(r.h_m),
                    "h_m_approx": rational_decimal(r.h_m, digits),
                    "integer": r.integer,
                    "source": r.source,
                }
                for r in self.rows
            ],
        }

    def to_json(self, digits: int = 6) -> str:
        return json.dumps(self.to_dict(digits), indent=2)


def _small_entries(entries: list[CatalogEntry],
                   limit: int = CATALOG_EXHAUSTIVE_LIMIT) -> list[CatalogEntry]:
    return [e for e in entries if e.order <= limit]


def _completeness_caveat(result: CheckResult, entries: list[CatalogEntry]) -> bool:
    """Record population caveats; returns True when the catalog is complete."""
    missing = missing_orders(entries)
    if missing:
        result.caveats.append(
            f"population incomplete: catalog is missing groups at orders {missing}")
    result.caveats.append(
        f"exhaustive only up to order {CATALOG_EXHAUSTIVE_LIMIT}; the statement "
        f"is checked, not proven, beyond the catalog")
    return not missing


def _named(g: Group, references) -> str | None:
    """Label of the first reference isomorphic to g (orders compared first)."""
    for ref in references:
        if ref.size == g.size and is_isomorphic(g, ref):
            return ref.label
    return None


# -- individual checks --------------------------------------------------------


def check_theorem_2_2(entries: list[CatalogEntry], s_max: int = 2,
                      cyclic_primes: tuple[int, ...] = (2, 3, 5)) -> CheckResult:
    """Integer h_m among p-groups: only cyclic of order p^(p + p^2 + ... + p^s)
    and the dihedral group of order 8."""
    pgroup_entries = [e for e in entries
                      if factorize(e.order).is_prime_power() and e.order > 1]
    result = CheckResult(
        check_id="thm2.2",
        population=(f"{len(pgroup_entries)} prime-power-order catalog groups plus "
                    f"cyclic p-groups for p in {cyclic_primes}, s <= {s_max}"),
        passed=True)
    d8 = realize(Dihedral(8))
    for e in pgroup_entries:
        g = e.group()
        h = h_m_of(g)
        p = factorize(e.order).primes()[0]
        n = factorize(e.order).pairs[0][1]
        expected = ((g.is_cyclic() and n in _integer_exponents(p, s_max))
                    or _named(g, [d8]) is not None)
        if is_integer(h) != expected:
            result.passed = False
            result.add_witness(e.name,
                               f"h_m = {format_rational(h)}, integer = "
                               f"{is_integer(h)}, expected integer = {expected}")
    for p in cyclic_primes:
        n_max = sum(p ** i for i in range(1, s_max + 1))
        expected_ns = _integer_exponents(p, s_max)
        for n in range(1, n_max + 1):
            h = h_m_pgroup_closed(p, n, n + 1)  # |C(C_p^n)| = n + 1
            if is_integer(h) != (n in expected_ns):
                result.passed = False
                result.add_witness(
                    f"C{p}^{n}", f"h_m = {format_rational(h)}, integer = "
                    f"{is_integer(h)}, expected {n in expected_ns}")
    result.caveats.append(
        "family scan covers cyclic p-groups only; non-cyclic p-groups are "
        "covered by the catalog orders 4, 8, 9, 16")
    return result


def _integer_exponents(p: int, s_max: int) -> set[int]:
    return {sum(p ** i for i in range(1, s + 1)) for s in range(1, s_max + 1)}


def check_theorem_2_5(entries: list[CatalogEntry]) -> CheckResult:
    """h_m = 2 exactly for the cyclic group of order 4 and the dihedral
    group of order 8 (exhaustive to order 16)."""
    small = _small_entries(entries)
    result = CheckResult(
        check_id="thm2.5",
        population=f"all {len(small)} catalog groups of order <= 16",
        passed=True)
    references = [realize(Cyclic(4)), realize(Dihedral(8))]
    hits = [e for e in small if h_m_of(e.group()) == 2]
    for e in hits:
        ok = _named(e.group(), references) is not None
        if not ok:
            result.passed = False
        result.add_witness(e.name, f"h_m = 2 ({'expected' if ok else 'UNEXPECTED'})")
    complete = _completeness_caveat(result, entries)
    if complete and sorted(e.order for e in hits) != [4, 8]:
        result.passed = False
        result.add_witness("scan", f"expected exactly the orders [4, 8], "
                                   f"found {sorted(e.order for e in hits)}")
    return result


EXPECTED_LE_2 = (Cyclic(2), ElemAbelian(2, 2), ElemAbelian(2, 3), ElemAbelian(2, 4),
                 Cyclic(3), Symmetric(3), Cyclic(4), Dihedral(8))


def check_theorem_2_8(entries: list[CatalogEntry]) -> CheckResult:
    """Nontrivial groups with h_m <= 2: elementary abelian 2-groups, C3, S3,
    C4, D8; minimum 4/3 attained by C2 alone (exhaustive to order 16)."""
    small = _small_entries(entries)
    result = CheckResult(
        check_id="thm2.8",
        population=f"all {len(small)} catalog groups of order <= 16",
        passed=True)
    references = [realize(atom) for atom in EXPECTED_LE_2]
    found = set()
    min_h = None
    min_entries = []
    for e in small:
        if e.order == 1:
            continue
        h = h_m_of(e.group())
        if min_h is None or h < min_h:
            min_h, min_entries = h, [e]
        elif h == min_h:
            min_entries.append(e)
        if h <= 2:
            matched = _named(e.group(), references)
            found.add(matched)
            result.add_witness(e.name,
                               f"h_m = {format_rational(h)} <= 2 -> "
                               f"{matched or 'UNEXPECTED CLASS'}")
            if matched is None:
                result.passed = False
    complete = _completeness_caveat(result, entries)
    missing = {ref.label for ref in references} - found
    if missing and complete:
        result.passed = False
        result.add_witness("missing", f"expected classes not found: {sorted(missing)}")
    min_ok = (min_h == Fraction(4, 3) and len(min_entries) == 1
              and _named(min_entries[0].group(), references) == "C2")
    if min_ok:
        result.add_witness("minimum", "min h_m = 4/3, attained only by C2")
    else:
        if complete:
            result.passed = False
        result.add_witness("minimum",
                           "no catalog group of order 2..16" if min_h is None else
                           f"min h_m = {format_rational(min_h)} at "
                           f"{[e.name for e in min_entries]}")
    return result


def check_prop_2_6(n_max: int = 100_000) -> CheckResult:
    """Among dihedral groups of order 2n, 2 <= n <= n_max, h_m is an integer
    only at n = 4, and 1 < h_m < 4 throughout."""
    result = CheckResult(
        check_id="prop2.6",
        population=f"dihedral groups of order 2n for 2 <= n <= {n_max} "
                   f"(closed form)",
        passed=True)
    integer_ns = []
    for n, a, b in m_cyclic_terms(n_max):
        if n < 2:
            continue
        num, den = _dihedral_terms(n, a, b)
        if num % den == 0:
            integer_ns.append(n)
            result.add_witness(f"D{2 * n}", f"h_m = {format_rational(Fraction(num, den))}")
        if not den < num < 4 * den:
            result.passed = False
            result.add_witness(f"D{2 * n}", f"h_m = {format_rational(Fraction(num, den))} "
                                            f"outside (1, 4)")
    if integer_ns != [4]:
        result.passed = False
    result.caveats.append(
        f"scan bound {n_max} is desk-scale evidence, not a proof for all n")
    return result


def _dihedral_terms(n: int, a: int, b: int) -> tuple[int, int]:
    """h_m(D_2n) = 2n / (m(C_n) + n/2) as (numerator, denominator), both
    positive and not reduced, when m(C_n) = a/b."""
    return 4 * n * b, 2 * a + n * b


def check_prop_2_9_2_10(entries: list[CatalogEntry]) -> CheckResult:
    """No odd-order group and no nilpotent group has h_m = 3; the dicyclic
    group of order 12 attains 3 and is even-order, non-nilpotent."""
    result = CheckResult(
        check_id="prop2.9-2.10",
        population=f"all {len(entries)} catalog groups; dicyclic group of "
                   f"order 12; elementary abelian 2-groups of rank 1..4",
        passed=True)
    for e in entries:
        g = e.group()
        h = h_m_of(g)
        if h == 3:
            if e.order % 2 == 1:
                result.passed = False
                result.add_witness(e.name, "odd order with h_m = 3")
            if g.is_nilpotent():
                result.passed = False
                result.add_witness(e.name, "nilpotent with h_m = 3")
    dic3 = realize(Dicyclic(3))
    h_dic3 = h_m_of(dic3)
    if h_dic3 != 3 or dic3.size % 2 or dic3.is_nilpotent():
        result.passed = False
        result.add_witness("Dic3",
                           f"h_m = {format_rational(h_dic3)}, order {dic3.size}, "
                           f"nilpotent = {dic3.is_nilpotent()}")
    else:
        result.add_witness("Dic3", "h_m = 3, even order, not nilpotent")
    for k in range(1, 5):
        g = realize(ElemAbelian(2, k))
        expected = Fraction(2 ** (k + 1), 2 ** k + 1)
        if h_m_of(g) != expected:
            result.passed = False
            result.add_witness(g.label, f"h_m = {format_rational(h_m_of(g))}, "
                                        f"expected {format_rational(expected)}")
    if h_m_of(realize(Cyclic(3))) != Fraction(9, 5):
        result.passed = False
        result.add_witness("C3", "h_m != 9/5")
    _completeness_caveat(result, entries)
    return result


def check_lemma_2_1(entries: list[CatalogEntry]) -> CheckResult:
    """Claimed bound h_m(G) >= p|G|/((p-1)|C(G)|+1) with equality exactly at
    prime-power order, plus the always-true relaxation with |C(G)| -> |G|.

    The strong bound is tested as stated.  It does fail on small groups
    (S3 already violates it), and equality occurs at some non-prime-power
    orders; witnesses document both, so expect passed=False on the full
    catalog.  The p-group equality direction does hold and is what the
    closed-form p-group evaluator relies on.
    """
    result = CheckResult(
        check_id="lemma2.1",
        population=f"all {len(entries)} catalog groups of order >= 2",
        passed=True)
    for e in entries:
        if e.order < 2:
            continue
        g = e.group()
        h = h_m_of(g)
        strong = lemma_bound(g)
        weak = weak_bound(e.order)
        prime_power = factorize(e.order).is_prime_power()
        if h < strong:
            result.passed = False
            result.add_witness(e.name,
                               f"bound violated: h_m = {format_rational(h)} < "
                               f"{format_rational(strong)}")
        elif (h == strong) != prime_power:
            result.passed = False
            detail = ("equality at non-prime-power order"
                      if h == strong else "strict at prime-power order")
            result.add_witness(e.name, f"{detail}: h_m = {format_rational(h)}, "
                                       f"bound = {format_rational(strong)}")
        if h < weak:
            result.passed = False
            result.add_witness(e.name,
                               f"weak bound violated: h_m = {format_rational(h)} "
                               f"< {format_rational(weak)}")
    return result


def check_eq_9(entries: list[CatalogEntry]) -> CheckResult:
    """Groups with h_m = 2 satisfy sum over d of n'_d (phi(d) - 1) <= 1;
    groups violating that inequality have h_m != 2."""
    result = CheckResult(
        check_id="eq9",
        population=f"all {len(entries)} catalog groups",
        passed=True)
    for e in entries:
        g = e.group()
        h = h_m_of(g)
        total = sum(c * (euler_phi(d) - 1)
                    for d, c in g.order_spectrum().cyclic_counts())
        if h == 2:
            if total > 1:
                result.passed = False
                result.add_witness(e.name, f"h_m = 2 but sum = {total}")
            else:
                result.add_witness(e.name, f"h_m = 2, sum = {total} <= 1")
    return result


def check_congruences(entries: list[CatalogEntry]) -> CheckResult:
    """Cyclic-subgroup-count congruences for non-cyclic p-groups: for odd p,
    n'_p = p+1 (mod p^2) and n'_(p^i) = 0 (mod p) for i >= 2; for p = 2 and
    groups not of maximal class, n'_2 = 3 (mod 4) and n'_(2^i) = 0 (mod 2)."""
    pgroups = [e for e in entries
               if e.order > 1 and factorize(e.order).is_prime_power()]
    result = CheckResult(
        check_id="congruences",
        population=f"{len(pgroups)} prime-power-order catalog groups "
                   f"(non-cyclic ones tested)",
        passed=True)
    maximal_class: dict[int, list[Group]] = {}  # reference groups by order, built once
    for e in pgroups:
        g = e.group()
        if g.is_cyclic():
            continue
        p = factorize(e.order).primes()[0]
        if p == 2 and _is_maximal_class_2group(g, maximal_class):
            result.add_witness(e.name, "maximal class, exempt")
            continue
        counts = dict(g.order_spectrum().cyclic_counts())
        n1 = counts.get(p, 0)
        if p % 2 == 1:
            ok = n1 % (p * p) == (p + 1) % (p * p)
            higher_ok = all(counts[d] % p == 0 for d in counts if d > p)
        else:
            ok = n1 % 4 == 3
            higher_ok = all(counts[d] % 2 == 0 for d in counts if d > 2)
        if not (ok and higher_ok):
            result.passed = False
            result.add_witness(e.name, f"cyclic subgroup counts {counts}")
    return result


def _is_maximal_class_2group(g: Group, built: dict[int, list[Group]]) -> bool:
    """For order 2^n >= 8: dihedral, generalized quaternion or semidihedral."""
    n = g.size
    if n < 8:
        return False
    if n not in built:
        built[n] = [ref for ref, _ in _maximal_class(n)]
    return _named(g, built[n]) is not None


def _maximal_class(order: int):
    """Each maximal-class 2-group of `order` = 2^n that its family's rule
    allows, with its closed-form |C(G)|."""
    n = order.bit_length() - 1
    for family, c_count in ((Dihedral, 2 ** (n - 1) + n),
                            (GenQuaternion, 2 ** (n - 2) + n),
                            (SemiDihedral, 3 * 2 ** (n - 3) + n)):
        try:
            atom = family(order)
        except ValueError:  # the family has no group of this order
            continue
        yield realize(atom), c_count


def check_c_convention() -> CheckResult:
    """Brute-force |C(G)| for the maximal-class 2-group families against the
    closed-form counts 2^(n-1)+n, 2^(n-2)+n, 3*2^(n-3)+n, resolving whether
    the trivial subgroup is included in the counts."""
    result = CheckResult(
        check_id="c-convention",
        population="dihedral and generalized quaternion groups of order 2^n, "
                   "n = 3..8; semidihedral from n = 4",
        passed=True)
    rows = []
    for n in range(3, 9):
        for g, formula in _maximal_class(2 ** n):
            by_spectrum = g.cyclic_subgroup_count()
            by_sets = len(g.cyclic_subgroups())
            if by_spectrum != by_sets:
                result.passed = False
                result.add_witness(g.label,
                                   f"count mismatch: spectrum {by_spectrum}, "
                                   f"distinct <a> {by_sets}")
            rows.append((g.label, by_sets, formula))
            if by_sets != formula:
                result.passed = False
                result.add_witness(g.label,
                                   f"brute force {by_sets} != formula {formula}")
    if result.passed:
        result.caveats.append(
            "convention resolved: the closed-form counts equal the brute-force "
            "number of cyclic subgroups WITH the trivial subgroup included; "
            "no off-by-one adjustment is needed for any of the three families")
        sample = ", ".join(f"{lbl}: {got}" for lbl, got, _ in rows[:6])
        result.add_witness("counts", sample + ", ...")
    result.caveats.append(
        "semidihedral groups exist only from order 16, so n = 3 has no SD case")
    return result


# -- proposition 2.1 / 2.2 inequality suite -----------------------------------


def _m_of_elements(g: Group, elements) -> Fraction:
    """m of a set of elements of g: the sum of 1/o(x), from their spectrum."""
    return m_of_spectrum(OrderSpectrum.from_orders(map(g.element_order, elements)))


def check_prop_2_1_2_2(entries: list[CatalogEntry],
                       product_cap: int = 256) -> CheckResult:
    """Monotonicity and multiplicativity suite for m and h_m over subgroups,
    quotients, normal cyclic Sylow subgroups, and direct products."""
    small = _small_entries(entries)
    result = CheckResult(
        check_id="prop2.1-2.2",
        population=(f"{len(small)} catalog groups of order <= 16 with all "
                    f"subgroups and quotients; normal cyclic Sylow subgroups; "
                    f"all catalog pairs with product order <= {product_cap}"),
        passed=True)

    cyclic_cache: dict[int, tuple[Fraction, Group]] = {}

    def cyclic_stats(n: int) -> tuple[Fraction, Group]:
        if n not in cyclic_cache:
            g = realize(Cyclic(n))
            cyclic_cache[n] = (m_of(g), g)
        return cyclic_cache[n]

    for e in small:
        g = e.group()
        mg = m_of(g)
        hg = h_m_of(g)
        n = g.size

        # (a) cyclic minimizes m / maximizes h_m at fixed order
        m_cyc, cyc = cyclic_stats(n)
        is_cyc = g.is_cyclic()
        if not (m_cyc <= mg and (m_cyc == mg) == is_cyc):
            result.passed = False
            result.add_witness(e.name, f"(a) m(C{n}) = {m_cyc} vs m(G) = {mg}")
        if not (hg <= n / m_cyc and (hg == n / m_cyc) == is_cyc):
            result.passed = False
            result.add_witness(e.name, f"(a) h_m comparison with C{n} fails")
        if is_cyc != is_isomorphic(g, cyc):
            result.passed = False
            result.add_witness(e.name, "(a) cyclicity test inconsistent")

        subs = g.all_subgroups()
        # (m(N), G/N) by the members of each normal subgroup N, for (d)
        quotients: dict[tuple[int, ...], tuple[Fraction, Group]] = {}
        for sub in subs:
            mh = _m_of_elements(g, sub.members)
            # (b) subgroup monotonicity, strict below the whole group
            if not (mh <= mg and (mh == mg) == sub.is_whole_group()):
                result.passed = False
                result.add_witness(e.name, f"(b) m over subgroup of size {sub.size}")
            index = n // sub.size
            h_sub = Fraction(sub.size) / mh
            if not (hg <= index * h_sub
                    and (hg == index * h_sub) == sub.is_whole_group()):
                result.passed = False
                result.add_witness(e.name, f"(b) h_m vs [G:H] h_m(H), |H| = {sub.size}")
            # (c) quotient monotonicity for normal subgroups
            if g.is_normal(sub):
                q = g.quotient(sub)
                quotients[sub.members] = (mh, q)
                mq = m_of(q)
                if not (mq <= mg and (mq == mg) == sub.is_trivial()):
                    result.passed = False
                    result.add_witness(e.name, f"(c) m over quotient by |N| = {sub.size}")
                hq = h_m_of(q)
                if not (hg <= sub.size * hq
                        and (hg == sub.size * hq) == sub.is_trivial()):
                    result.passed = False
                    result.add_witness(e.name, f"(c) h_m vs |H| h_m(G/H), |H| = {sub.size}")

        # (d) normal cyclic Sylow subgroups and their quotients, taken from
        #     (b) and (c): flagged, not failed
        center = set(g.center().members)
        for p, k in factorize(n):
            for syl in [h for h in subs if h.size == p ** k]:
                if not syl.is_cyclic() or syl.members not in quotients:
                    continue
                mp, q = quotients[syl.members]
                mq = m_of(q)
                central = set(syl.members) <= center
                if not (mg >= mp * mq and (mg == mp * mq) == central):
                    result.caveats.append(
                        f"(d) flagged on {e.name}, P = Sylow-{p}: m(G) = {mg}, "
                        f"m(P)m(G/P) = {mp * mq}, P central = {central}")
                hq = h_m_of(q)
                hp = Fraction(syl.size) / mp
                if not (hg <= hp * hq and (hg == hp * hq) == central):
                    result.caveats.append(
                        f"(d) flagged on {e.name}, P = Sylow-{p}: h_m(G) = {hg}, "
                        f"h_m(P)h_m(G/P) = {hp * hq}, P central = {central}")
                # coset-level inequality m(Px) >= m(P)/o(Px); element cid
                # of q is the coset rep.P
                _, reps = g.cosets(syl)
                for cid, rep in enumerate(reps):
                    m_coset = _m_of_elements(g, [g.op(rep, h) for h in syl.members])
                    o_coset = q.element_order(cid)
                    centralizes = all(g.op(rep, h) == g.op(h, rep)
                                      for h in syl.members)
                    lhs_ok = m_coset >= mp / o_coset
                    eq_ok = (m_coset == mp / o_coset) == centralizes
                    if not (lhs_ok and eq_ok):
                        result.caveats.append(
                            f"(d) coset flagged on {e.name}, Sylow-{p}, coset "
                            f"{cid}: m(Px) = {m_coset}, m(P)/o(Px) = {mp / o_coset}, "
                            f"x centralizes P = {centralizes}")

    # (e) products: m(A x B) >= m(A) m(B), equality iff coprime orders;
    #     h_m multiplies exactly in the coprime case
    k = len(entries)
    for i in range(k):
        for j in range(i, k):
            a, b = entries[i], entries[j]
            if a.order * b.order > product_cap:
                continue
            ga, gb = a.group(), b.group()
            prod = direct_product(ga, gb)
            mp = m_of(prod)
            ma, mb = m_of(ga), m_of(gb)
            coprime = math.gcd(a.order, b.order) == 1
            if not (mp >= ma * mb and (mp == ma * mb) == coprime):
                result.passed = False
                result.add_witness(f"{a.name} x {b.name}",
                                   f"(e) m = {mp}, m(A)m(B) = {ma * mb}, "
                                   f"coprime = {coprime}")
            if coprime:
                hp = h_m_of(prod)
                ha = Fraction(a.order) / ma
                hb = Fraction(b.order) / mb
                if hp != ha * hb:
                    result.passed = False
                    result.add_witness(f"{a.name} x {b.name}",
                                       f"(e) h_m = {hp} != {ha * hb}")
    if not any(c.startswith("(d)") for c in result.caveats):
        result.caveats.append(
            "(d) checked with P a normal cyclic Sylow p-subgroup; no "
            "counterexamples to flag")
    return result


# -- integer-value scan (open question data gathering) -------------------------

# the sort_id of family and expression rows, after the catalog ids in use
_UNLISTED = 10 ** 9


def _family_rows(cyclic_max: int, dihedral_max: int, keep) -> list[ScanRow]:
    """The C{n} and D{2n} rows in ScanRow.sort_key order, straight from the
    sieve: C{n} at step n, and D{2n}, built at step n, held back until step
    2n, where it follows C{2n}.  The integer flags come from the unreduced
    numerator and denominator, as does `keep`."""
    rows = []
    held = deque()
    for n, a, b in m_cyclic_terms(max(cyclic_max, dihedral_max)):
        if n <= cyclic_max:
            num = n * b  # h_m(C_n) = n / m(C_n) = nB/A
            if keep is None or keep(num, a):
                rows.append(ScanRow(f"C{n}", n, Fraction(num, a), num % a == 0,
                                    "cyclic-family", _UNLISTED))
        if held and held[0].order == n:
            rows.append(held.popleft())
        if 2 <= n <= dihedral_max:
            num, den = _dihedral_terms(n, a, b)
            if keep is None or keep(num, den):
                held.append(ScanRow(f"D{2 * n}", 2 * n, Fraction(num, den),
                                    num % den == 0, "dihedral-family", _UNLISTED))
    rows.extend(held)
    return rows


def scan_integer_hm(entries: list[CatalogEntry], cyclic_max: int = 128,
                    dihedral_max: int = 64, exprs=(), max_order: int | None = None,
                    keep=None) -> ScanReport:
    """Tabulate h_m over the catalog, cyclic and dihedral family ranges, and
    optional expressions; flags the integer values.

    Rows come sorted by ScanRow.sort_key.  Only rows of order at most
    `max_order` for which `keep(num, den)` holds are built, where
    h_m = num/den with den > 0, not necessarily reduced; the population
    still names the requested ranges.
    """
    if max_order is None:
        c_max, d_max = cyclic_max, dihedral_max
    else:
        c_max, d_max = min(cyclic_max, max_order), min(dihedral_max, max_order // 2)

    def wanted(order: int, h: Fraction) -> bool:
        return ((max_order is None or order <= max_order)
                and (keep is None or keep(h.numerator, h.denominator)))

    catalog = []
    for e in entries:
        h = h_m_of(e.group())
        if wanted(e.order, h):
            catalog.append(ScanRow(e.name, e.order, h, is_integer(h), "catalog", e.id))
    expressions = []
    for expr in exprs:
        rep = eval_expr(expr, entries)
        if wanted(rep.order, rep.h_m):
            expressions.append(ScanRow(rep.label, rep.order, rep.h_m, rep.integer,
                                       "expression", _UNLISTED))
    rows = _family_rows(c_max, d_max, keep)
    # family rows above every other row's order are already in place; the
    # stable sort keeps catalog, family, expression order at equal keys
    top = max((r.order for r in catalog + expressions), default=0)
    cut = bisect_right(rows, top, key=attrgetter("order"))
    rows[:cut] = sorted(catalog + rows[:cut] + expressions, key=ScanRow.sort_key)
    caveats = [f"exhaustive only for catalog orders <= {CATALOG_EXHAUSTIVE_LIMIT}; "
               f"family and expression rows are samples from an infinite range"]
    missing = missing_orders(entries)
    if missing:
        caveats.append(f"population incomplete: missing orders {missing}")
    parts = [f"catalog ({len(entries)} groups)"]
    if cyclic_max:
        parts.append(f"cyclic n <= {cyclic_max}")
    if dihedral_max >= 2:
        parts.append(f"dihedral orders <= {2 * dihedral_max}")
    exprs = tuple(exprs)
    if exprs:
        parts.append(f"{len(exprs)} expression(s)")
    return ScanReport(rows=rows, population=" + ".join(parts), caveats=caveats)


# -- registry -----------------------------------------------------------------


CHECKS = {
    "thm2.2": lambda entries, nmax: check_theorem_2_2(entries),
    "thm2.5": lambda entries, nmax: check_theorem_2_5(entries),
    "thm2.8": lambda entries, nmax: check_theorem_2_8(entries),
    "prop2.6": lambda entries, nmax: check_prop_2_6(nmax),
    "prop2.9-2.10": lambda entries, nmax: check_prop_2_9_2_10(entries),
    "lemma2.1": lambda entries, nmax: check_lemma_2_1(entries),
    "eq9": lambda entries, nmax: check_eq_9(entries),
    "congruences": lambda entries, nmax: check_congruences(entries),
    "prop2.1-2.2": lambda entries, nmax: check_prop_2_1_2_2(entries),
    "c-convention": lambda entries, nmax: check_c_convention(),
}


def run_checks(entries: list[CatalogEntry], ids=None,
               nmax: int = 100_000) -> list[CheckResult]:
    """Run the checks named by `ids` (default: all); `nmax` bounds the
    prop2.6 dihedral scan."""
    ids = list(CHECKS) if ids is None else list(ids)
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check id(s) {unknown}; valid ids: {sorted(CHECKS)}")
    return [CHECKS[i](entries, nmax) for i in ids]
