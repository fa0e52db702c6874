import math
import random

import pytest

from hmgroups import caps, groupkernel
from hmgroups import families as fam
from hmgroups.catalog import default_catalog, get
from hmgroups.cli import parse_expr
from hmgroups.exactmath import euler_phi
from hmgroups.groupkernel import (CapExceeded, Group, OrderSpectrum, compose,
                                  direct_product, is_isomorphic, perm_order)
from hmgroups.statistics import realize


def spectrum_dict(g):
    return dict(g.order_spectrum().entries)


class TestConstruction:
    def test_s3_from_generators(self):
        g = Group.from_generators(3, [(1, 2, 0), (1, 0, 2)])
        assert g.size == 6

    def test_trivial(self):
        g = Group.from_generators(1, [])
        assert g.size == 1
        assert g.element_order(0) == 1

    def test_c4(self):
        g = Group.from_generators(4, [(1, 2, 3, 0)])
        assert g.size == 4

    def test_identity_is_index_zero(self):
        g = fam.dihedral(8)
        assert g.perms[0] == tuple(range(g.degree))
        assert all(g.op(0, i) == i == g.op(i, 0) for i in range(g.size))

    def test_non_bijective_generator(self):
        with pytest.raises(ValueError):
            Group.from_generators(3, [(0, 0, 1)])

    def test_closure_cap(self, monkeypatch):
        monkeypatch.setitem(caps.LIMITS, "closure", 3)
        with pytest.raises(CapExceeded):
            Group.from_generators(5, [(1, 2, 3, 4, 0)])

    def test_deterministic_enumeration(self):
        a = Group.from_generators(3, [(1, 2, 0), (1, 0, 2)])
        b = Group.from_generators(3, [(1, 2, 0), (1, 0, 2)])
        assert a.perms == b.perms


class TestElementOrder:
    def test_identity(self):
        assert fam.cyclic(5).element_order(0) == 1

    def test_d8_rotation_and_reflections(self):
        d8 = fam.dihedral(8)
        orders = sorted(d8.element_order(i) for i in range(8))
        assert orders == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_dihedral_reflections_all_order_2(self):
        for two_n in (6, 10, 14, 20):
            g = fam.dihedral(two_n)
            n = two_n // 2
            outside = [i for i in range(g.size)
                       if g.element_order(i) == 2]
            # n reflections, plus the half-turn when n is even
            assert len(outside) == n + (1 if n % 2 == 0 else 0)

    def test_perm_order_matches_power_iteration(self):
        g = fam.dicyclic(5)
        for i in range(g.size):
            k, x = 1, i
            while x != 0:
                x = g.op(x, i)
                k += 1
            assert g.element_order(i) == k


class TestSpectrum:
    def test_c4(self):
        assert spectrum_dict(fam.cyclic(4)) == {1: 1, 2: 1, 4: 2}

    def test_d8(self):
        assert spectrum_dict(fam.dihedral(8)) == {1: 1, 2: 5, 4: 2}

    def test_sl23(self):
        assert spectrum_dict(fam.sl23()) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}

    def test_sums_and_phi_divisibility(self, entries):
        for e in entries:
            g = e.group()
            spec = g.order_spectrum()
            assert spec.total() == g.size
            assert spec.entries[0] == (1, 1)  # identity alone has order 1
            exp = spec.exponent()
            for d, n in spec:
                assert n % euler_phi(d) == 0
                assert exp % d == 0

    def test_computed_once(self):
        g = fam.dihedral(8)
        assert g.order_spectrum() is g.order_spectrum()

    def test_exponent(self):
        assert fam.elementary_abelian(2, 3).exponent() == 2
        assert fam.dihedral(8).exponent() == 4
        assert fam.cyclic(6).exponent() == 6


class TestCyclicSubgroups:
    def test_d8(self):
        assert fam.dihedral(8).cyclic_subgroup_count() == 7

    def test_q8(self):
        # 1 trivial + 1 of order 2 + 3 of order 4
        q8 = fam.generalized_quaternion(8)
        assert q8.cyclic_subgroup_count() == 5
        assert len(q8.cyclic_subgroups()) == 5

    def test_cyclic_prime_powers(self):
        for p, n in ((2, 4), (3, 3), (5, 2)):
            g = fam.cyclic(p ** n)
            assert g.cyclic_subgroup_count() == n + 1

    def test_two_counting_paths_agree(self, entries):
        for e in entries:
            g = e.group()
            assert g.cyclic_subgroup_count() == len(g.cyclic_subgroups())


class TestSubgroups:
    def test_prime_cyclic(self):
        assert len(fam.cyclic(5).all_subgroups()) == 2

    def test_s3(self):
        subs = fam.symmetric(3).all_subgroups()
        assert len(subs) == 6
        assert sorted(s.size for s in subs) == [1, 2, 2, 2, 3, 6]

    def test_d8(self):
        assert len(fam.dihedral(8).all_subgroups()) == 10

    def test_lagrange(self, entries):
        for e in entries:
            if e.order > 16:
                continue
            for s in e.group().all_subgroups():
                assert e.order % s.size == 0

    def test_cap(self, monkeypatch):
        monkeypatch.setitem(caps.LIMITS, "subgroups", 10)
        with pytest.raises(CapExceeded):
            fam.cyclic(12).all_subgroups()

    def test_subgroup_wrapper_rejects_non_closed(self):
        s3 = fam.symmetric(3)
        refl = next(i for i in range(6) if s3.element_order(i) == 2)
        rot = next(i for i in range(6) if s3.element_order(i) == 3)
        with pytest.raises(ValueError):
            s3.subgroup((0, refl, rot))


class TestNormalityAndQuotients:
    def test_abelian_all_normal(self):
        g = fam.cyclic(12)
        assert all(g.is_normal(s) for s in g.all_subgroups())

    def test_rotation_subgroup_normal(self):
        d = fam.dihedral(12)
        rot = next(i for i in range(12) if d.element_order(i) == 6)
        sub = d.subgroup(d.generated_subgroup((rot,)))
        assert d.is_normal(sub)

    def test_reflection_not_normal_in_d8(self):
        d8 = fam.dihedral(8)
        rot = next(i for i in range(8) if d8.element_order(i) == 4)
        rotsub = set(d8.generated_subgroup((rot,)))
        refl = next(i for i in range(1, 8) if i not in rotsub)
        sub = d8.subgroup(d8.generated_subgroup((refl,)))
        assert not d8.is_normal(sub)

    def test_cosets_partition_the_group(self):
        d12 = fam.dihedral(12)
        for sub in d12.all_subgroups():
            coset_of, reps = d12.cosets(sub)
            assert len(reps) == 12 // sub.size
            for cid, rep in enumerate(reps):
                members = {d12.op(rep, h) for h in sub.members}
                assert {x for x in range(12) if coset_of[x] == cid} == members
                assert rep == min(members)

    def test_quotient_by_whole_group(self):
        s3 = fam.symmetric(3)
        q = s3.quotient(s3.subgroup(range(6)))
        assert q.size == 1

    def test_quotient_by_trivial_is_isomorphic(self):
        s3 = fam.symmetric(3)
        q = s3.quotient(s3.subgroup((0,)))
        assert is_isomorphic(q, s3)

    def test_d8_mod_center(self):
        d8 = fam.dihedral(8)
        rot = next(i for i in range(8) if d8.element_order(i) == 4)
        r2 = d8.op(rot, rot)
        q = d8.quotient(d8.subgroup(d8.generated_subgroup((r2,))))
        assert q.size == 4
        assert q.exponent() == 2

    def test_s3_mod_c3(self):
        s3 = fam.symmetric(3)
        rot = next(i for i in range(6) if s3.element_order(i) == 3)
        q = s3.quotient(s3.subgroup(s3.generated_subgroup((rot,))))
        assert is_isomorphic(q, fam.cyclic(2))

    def test_quotient_requires_normal(self):
        s3 = fam.symmetric(3)
        refl = next(i for i in range(6) if s3.element_order(i) == 2)
        sub = s3.subgroup(s3.generated_subgroup((refl,)))
        with pytest.raises(ValueError):
            s3.quotient(sub)


def _normal_by_definition(g, sub):
    return all(g.op(g.op(x, h), g.inverse(x)) in sub
               for x in range(g.size) for h in sub.members)


def _center_by_definition(g):
    return tuple(z for z in range(g.size)
                 if all(g.op(z, x) == g.op(x, z) for x in range(g.size)))


def _with_quotients(groups):
    """Each group, then its quotients by its normal subgroups, which are
    built from tables, so their generators are the greedy generating set."""
    out = []
    for g in groups:
        out.append(g)
        for sub in g.all_subgroups():
            if _normal_by_definition(g, sub):
                out.append(g.quotient(sub))
    return out


SMALL_AND_QUOTIENTS = _with_quotients(e.group() for e in default_catalog()
                                      if e.order <= 16)


class TestGeneratorShortcuts:
    """is_normal and center use the generators of G; these compare them with
    the definitions over every element."""

    def test_is_normal(self):
        for g in SMALL_AND_QUOTIENTS:
            for sub in g.all_subgroups():
                assert g.is_normal(sub) == _normal_by_definition(g, sub), \
                    (g.label, sub.members)

    def test_center(self, entries):
        groups = _with_quotients(e.group() for e in entries)
        assert any(not g._gen_indices for g in groups)
        for g in groups:
            assert g.center().members == _center_by_definition(g), g.label

    def test_products(self):
        d8 = fam.dihedral(8)
        # D8/Z(D8) is built from a table, so the product takes its generators
        # from the greedy generating set
        for a, b in ((d8, fam.cyclic(2)),
                     (fam.symmetric(3), fam.generalized_quaternion(8)),
                     (fam.dicyclic(3), fam.cyclic(4)),
                     (d8.quotient(d8.center()), fam.cyclic(2))):
            g = direct_product(a, b)
            assert len(g.generated_subgroup(g.generators)) == g.size
            assert g.center().members == _center_by_definition(g)
            for sub in g.all_subgroups():
                assert g.is_normal(sub) == _normal_by_definition(g, sub)


class TestDirectProduct:
    def test_coprime_cyclic(self):
        assert is_isomorphic(direct_product(fam.cyclic(2), fam.cyclic(3)),
                             fam.cyclic(6))

    def test_klein(self):
        g = direct_product(fam.cyclic(2), fam.cyclic(2))
        assert g.size == 4
        assert g.exponent() == 2

    def test_s3_x_c2_spectrum(self):
        g = direct_product(fam.symmetric(3), fam.cyclic(2))
        assert spectrum_dict(g) == {1: 1, 2: 7, 3: 2, 6: 2}

    def test_pair_order_is_lcm(self):
        rng = random.Random(7)
        for a, b in ((fam.symmetric(3), fam.cyclic(4)),
                     (fam.dihedral(8), fam.cyclic(6)),
                     (fam.generalized_quaternion(8), fam.symmetric(3))):
            prod = direct_product(a, b)
            for _ in range(100):
                i = rng.randrange(a.size)
                j = rng.randrange(b.size)
                pair_index = i * b.size + j
                assert prod.element_order(pair_index) == math.lcm(
                    a.element_order(i), b.element_order(j))

    def test_cap(self, monkeypatch):
        monkeypatch.setitem(caps.LIMITS, "enumeration", 5000)
        with pytest.raises(CapExceeded):
            direct_product(fam.cyclic(100), fam.cyclic(100))


class TestCenterAndNilpotency:
    def test_abelian_center_is_whole(self):
        g = fam.cyclic(9)
        assert g.center().size == 9

    def test_d8_center(self):
        assert fam.dihedral(8).center().size == 2

    def test_s3_center_trivial(self):
        assert fam.symmetric(3).center().members == (0,)

    def test_p_groups_nilpotent(self):
        for g in (fam.dihedral(8), fam.generalized_quaternion(16),
                  fam.cyclic(27), fam.semidihedral(16)):
            assert g.is_nilpotent()

    def test_s3_not_nilpotent(self):
        assert not fam.symmetric(3).is_nilpotent()

    def test_dicyclic_3_not_nilpotent(self):
        assert not fam.dicyclic(3).is_nilpotent()


class TestIsomorphism:
    def test_cyclic_vs_klein(self):
        assert not is_isomorphic(fam.cyclic(4), fam.elementary_abelian(2, 2))

    def test_c6_decomposition(self):
        assert is_isomorphic(fam.cyclic(6),
                             direct_product(fam.cyclic(2), fam.cyclic(3)))

    def test_d8_vs_q8(self):
        assert not is_isomorphic(fam.dihedral(8), fam.generalized_quaternion(8))

    def test_reflexive_on_catalog(self, entries):
        for e in entries:
            assert is_isomorphic(e.group(), e.group())

    def test_symmetric_pairs(self):
        a, b = fam.dihedral(6), fam.symmetric(3)
        assert is_isomorphic(a, b) and is_isomorphic(b, a)
        c, d = fam.dihedral(16), fam.semidihedral(16)
        assert not is_isomorphic(c, d) and not is_isomorphic(d, c)

    def test_transitive_chain(self):
        a = fam.cyclic(6)
        b = direct_product(fam.cyclic(2), fam.cyclic(3))
        c = direct_product(fam.cyclic(3), fam.cyclic(2))
        assert is_isomorphic(a, b) and is_isomorphic(b, c) and is_isomorphic(a, c)

    def test_iso_implies_equal_spectrum(self, entries):
        groups = [e.group() for e in entries if e.order <= 12]
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                if a.size != b.size:
                    continue
                if is_isomorphic(a, b):
                    assert a.order_spectrum() == b.order_spectrum()

    def test_invariant_under_relabeling(self, entries):
        # conjugating all generators by a random point permutation yields a
        # different realization of the same abstract group
        rng = random.Random(11)
        for e in entries:
            if e.order > 16 or not e.gens:
                continue
            sigma = list(range(e.degree))
            rng.shuffle(sigma)
            inv = [0] * e.degree
            for i, x in enumerate(sigma):
                inv[x] = i
            relabeled = [tuple(sigma[g[inv[i]]] for i in range(e.degree))
                         for g in e.gens]
            twin = Group.from_generators(e.degree, relabeled)
            assert twin.size == e.order
            assert is_isomorphic(e.group(), twin), e.name

    @pytest.mark.parametrize("text_a, text_b, expected", [
        # five generators; the search used to run for minutes on this pair
        ("C(4) x C(2) x Cat(16,12)", "C(4) x Cat(16,12) x C(2)", True),
        ("Q(8) x D(8) x E(2,2)", "E(2,2) x Q(8) x D(8)", True),
        ("E(2,7) x C(2)", "C(2) x E(2,7)", True),
        # equal order spectra, not isomorphic
        ("Cat(16,3) x C(2)", "Cat(16,13) x C(2)", False),
        ("Cat(16,12) x C(9)", "C(9) x Cat(16,4)", False),
        ("E(2,4) x Cat(16,3)", "Cat(16,13) x E(2,4)", False),
    ])
    def test_products(self, entries, text_a, text_b, expected):
        a = realize(parse_expr(text_a), entries)
        b = realize(parse_expr(text_b), entries)
        assert a.order_spectrum() == b.order_spectrum()
        assert is_isomorphic(a, b) is expected
        assert is_isomorphic(b, a) is expected

    def test_equivalence_on_catalog_products(self, entries):
        # every product of two catalog groups up to order 128, in classes
        # of equal order spectrum; isomorphism must partition each class
        atoms = [e for e in entries if e.order > 1]
        classes = {}
        for i, x in enumerate(atoms):
            for y in atoms[i:]:
                if x.order * y.order <= 128:
                    g = direct_product(x.group(), y.group())
                    classes.setdefault(g.order_spectrum(), []).append(g)
        pairs = 0
        for groups in classes.values():
            n = len(groups)
            rel = [[i == j or is_isomorphic(groups[i], groups[j]) for j in range(n)]
                   for i in range(n)]
            pairs += n * (n - 1) // 2
            for i in range(n):
                for j in range(n):
                    assert rel[i][j] == rel[j][i]
                    for k in range(n):
                        assert not (rel[i][j] and rel[j][k]) or rel[i][k]
        assert pairs > 300

    def test_cap(self, monkeypatch):
        monkeypatch.setitem(caps.LIMITS, "iso", 256)
        with pytest.raises(CapExceeded):
            is_isomorphic(fam.cyclic(300), fam.cyclic(300))


class TestSylow:
    """prop2.1-2.2 (d) takes the Sylow subgroups from the lattice by size."""

    @staticmethod
    def sylow(g, pk):
        return [s for s in g.all_subgroups() if s.size == pk]

    def test_s3(self):
        s3 = fam.symmetric(3)
        (syl3,) = self.sylow(s3, 3)
        assert syl3.is_cyclic() and s3.is_normal(syl3)
        syl2 = self.sylow(s3, 2)
        assert len(syl2) == 3 and not any(s3.is_normal(s) for s in syl2)

    def test_c12(self):
        g = fam.cyclic(12)
        (syl,) = self.sylow(g, 4)
        assert syl.is_cyclic() and g.is_normal(syl)


# a Latin square with an identity that is not a group; generating_set()
# gives (1, 2)
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
VALIDATION_FAMILIES = ([fam.dihedral(n) for n in range(4, 65, 2)]
                       + [fam.generalized_quaternion(n) for n in (8, 16, 32, 64)]
                       + [fam.semidihedral(n) for n in (16, 32, 64)])


def _first_triple_failure(rows):
    """Every triple, in order: the first (a, b, c) with (ab)c != a(bc)."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return a, b, c
    return None


def _reported_triple_fails(rows, problems):
    reported = [p for p in problems if p.startswith("associativity fails at")]
    assert len(reported) == 1
    a, b, c = map(int, reported[0].split("(")[1].rstrip(")").split(","))
    return rows[rows[a][b]][c] != rows[a][rows[b][c]]


def _swap_intercalate(rows, rs, cs):
    """Swap the two symbols of the 2x2 Latin subsquare at rows rs, columns
    cs; the table stays a Latin square."""
    (r1, r2), (c1, c2) = rs, cs
    rows[r1][c1], rows[r1][c2] = rows[r1][c2], rows[r1][c1]
    rows[r2][c1], rows[r2][c2] = rows[r2][c2], rows[r2][c1]
    return rows


def _random_intercalate(table, rng):
    """Rows and columns of a 2x2 Latin subsquare away from the identity's
    row and column, so the perturbed table keeps its identity."""
    n = len(table)
    while True:
        r1, c1 = rng.randrange(1, n), rng.randrange(1, n)
        for r2 in rng.sample(range(1, n), n - 1):
            if r2 == r1:
                continue
            c2 = table[r2].index(table[r1][c1])
            if c2 not in (0, c1) and table[r1][c2] == table[r2][c1]:
                return (r1, r2), (c1, c2)


class TestValidation:
    def test_catalog_groups_validate(self, entries):
        for e in entries:
            assert e.group().validate() == []

    def test_broken_table_detected(self):
        rows = [(0, 1, 2), (1, 2, 0), (2, 1, 0)]  # latin violation in a column
        problems = Group.from_table(rows).validate()
        assert problems[:-1] == ["element 1 has no inverse in the element set",
                                 "column 1 is not a permutation",
                                 "column 2 is not a permutation"]
        assert _reported_triple_fails(rows, problems)

    def test_loop_of_order_5_fails_associativity(self):
        assert _reported_triple_fails(LOOP_5, Group.from_table(LOOP_5).validate())

    def test_light_tries_every_generator(self, monkeypatch):
        # C3 x LOOP_5, element (g, l) at 5g + l: (1, 0) associates with
        # everything, so only the loop's generators show the failure
        rows = [[(g1 + g2) % 3 * 5 + LOOP_5[l1][l2] for g2 in range(3) for l2 in range(5)]
                for g1 in range(3) for l1 in range(5)]
        monkeypatch.setattr(Group, "generating_set", lambda self: (5, 1, 2))
        a, b, c = Group.from_table(rows)._associativity_failure()
        assert b != 5 and rows[rows[a][b]][c] != rows[a][rows[b][c]]

    def test_perturbed_xor_table_of_order_256_fails_associativity(self):
        rows = _swap_intercalate([[a ^ b for b in range(256)] for a in range(256)],
                                 (1, 2), (4, 7))
        assert rows[1][4] == rows[2][7] and rows[1][7] == rows[2][4]
        assert _reported_triple_fails(rows, Group.from_table(rows).validate())

    def test_perturbed_xor_table_of_order_1024_fails_associativity(self):
        # above VALIDATION_TABLE a stored table still gets Light's test
        rows = _swap_intercalate([[a ^ b for b in range(1024)] for a in range(1024)],
                                 (1, 2), (4, 7))
        problems = Group.from_table(rows).validate()
        assert problems[:-1] == ["element 1 has no inverse in the element set",
                                 "element 2 has no inverse in the element set"]
        assert _reported_triple_fails(rows, problems)

    @pytest.mark.parametrize("g", [e.group() for e in default_catalog()]
                             + VALIDATION_FAMILIES, ids=lambda g: g.label)
    def test_light_agrees_with_every_triple_on_groups(self, g):
        for h in _with_quotients([g]):
            assert h._associativity_failure() is None, h.label
            assert _first_triple_failure(h._table) is None, h.label

    # even orders have intercalates; at order 4 a swap can give the other
    # group of order 4, so the perturbed tables start at order 6
    @pytest.mark.parametrize("g", [g for g in [e.group() for e in default_catalog()]
                                   + VALIDATION_FAMILIES
                                   if g.size % 2 == 0 and g.size >= 6],
                             ids=lambda g: g.label)
    def test_light_finds_perturbed_tables(self, g):
        g._ensure_table()
        rng = random.Random(g.size)
        for _ in range(3):
            rows = _swap_intercalate([list(r) for r in g._table],
                                     *_random_intercalate(g._table, rng))
            assert _first_triple_failure(rows) is not None
            assert Group.from_table(rows)._associativity_failure() is not None

    @pytest.mark.parametrize("g", [fam.dihedral(512), fam.generalized_quaternion(512),
                                   fam.semidihedral(512), fam.elementary_abelian(2, 8)],
                             ids=lambda g: g.label)
    def test_exhaustive_up_to_order_512(self, g):
        # these orders were sampled before; without a random module no
        # triple can be sampled
        assert not hasattr(groupkernel, "random")
        assert g.validate() == []


def test_order_spectrum_type():
    spec = OrderSpectrum.from_orders([1, 2, 2, 4, 4, 2, 2, 2])
    assert spec.entries == ((1, 1), (2, 5), (4, 2))
    assert spec.total() == 8
    assert spec.exponent() == 4
    assert spec.cyclic_count() == 7


def test_perm_order():
    assert perm_order((1, 2, 0, 4, 3)) == 6
    assert perm_order((0, 1, 2)) == 1


def _cycle_walk_order(p):
    """lcm of the cycle lengths, each cycle walked point by point."""
    seen, order = set(), 1
    for start in range(len(p)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def _from_cycle_lengths(lengths, rng):
    """A permutation of degree sum(lengths) with those cycle lengths, on
    shuffled points."""
    points = list(range(sum(lengths)))
    rng.shuffle(points)
    p, i = list(range(len(points))), 0
    for n in lengths:
        cycle = points[i:i + n]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a] = b
        i += n
    return tuple(p)


class TestPermOrder:
    def test_against_cycle_walk(self):
        # degrees on both sides of 256; uniform permutations mostly have an
        # order above their degree, those from short cycles mostly below it
        rng = random.Random(2310)
        for degree in range(301):
            uniform = list(range(degree))
            rng.shuffle(uniform)
            short = []
            while sum(short) < degree:
                short.append(rng.randint(1, min(8, degree - sum(short))))
            for p in (tuple(uniform), _from_cycle_lengths(short, rng)):
                assert perm_order(p) == _cycle_walk_order(p), p

    @pytest.mark.parametrize("lengths, order", [
        ((2, 3), 6),
        ((3, 4, 5), 60),
        ((1, 5, 7), 35),
        ((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41), 304250263527210),
        ((100, 97, 59), 572300),
        ((128, 127, 2), 16256),
    ], ids=["deg5", "deg12", "deg13", "primes-to-41", "deg256", "deg257"])
    def test_order_above_degree(self, lengths, order):
        # the byte-string powers stop at k = degree; the cycle walk answers
        p = _from_cycle_lengths(lengths, random.Random(sum(lengths)))
        assert order > len(p)
        assert perm_order(p) == order

    def test_identity_and_empty(self):
        for degree in (0, 1, 255, 256, 257):
            assert perm_order(tuple(range(degree))) == 1

    def test_full_cycles(self):
        for degree in (2, 255, 256, 257, 300):
            assert perm_order(tuple(range(1, degree)) + (0,)) == degree


# -- the kernel against references that use only compose and perm_order --------


def _reference_table(g):
    idx = {p: i for i, p in enumerate(g.perms)}
    return [tuple(idx[compose(p, q)] for q in g.perms) for p in g.perms]


def _reference_cyclic_subgroups(g):
    idx = {p: i for i, p in enumerate(g.perms)}
    found = set()
    for a in g.perms:
        members, x = [0], a
        while idx[x] != 0:
            members.append(idx[x])
            x = compose(x, a)
        found.add(tuple(sorted(members)))
    return found


def _reference_subgroups(g):
    """The join-closure of the cyclic subgroups over every pair of subgroups."""
    right = list(zip(*_reference_table(g)))  # right[s][x] = x*s

    def join(elements):
        # generators picked greedily from the elements; each one at least
        # doubles the closure, which grows from what it already holds
        gens, members = [], {0}
        for x in elements:
            if x not in members:
                gens.append(right[x])
                frontier = members | {x}
                members = set(frontier)
                while frontier:
                    frontier = {r[y] for r in gens for y in frontier} - members
                    members |= frontier
        return tuple(sorted(members))

    subs = _reference_cyclic_subgroups(g)
    worklist = list(subs)
    tried = set()
    while worklist:
        fresh = []
        current = list(subs)
        for a in worklist:
            sa = set(a)
            for b in current:
                if sa.issuperset(b) or sa.issubset(b) or (b, a) in tried:
                    continue  # the join is the larger of the two, or known
                tried.add((a, b))
                joined = join(sa.union(b))
                if joined not in subs:
                    subs.add(joined)
                    fresh.append(joined)
        worklist = fresh
    return subs


def _kernel_groups():
    entries = default_catalog()
    groups = [e.group() for e in entries]
    groups += [direct_product(get(entries, 16, 3), fam.cyclic(7)),
               direct_product(fam.dihedral(64), fam.cyclic(2)),
               direct_product(fam.sl23(), fam.cyclic(5))]
    return groups


KERNEL_GROUPS = _kernel_groups()


@pytest.mark.parametrize("g", KERNEL_GROUPS, ids=lambda g: g.label)
class TestKernelAgainstReference:
    def test_table(self, g):
        g._ensure_table()
        assert [tuple(r) for r in g._table] == _reference_table(g)

    def test_cyclic_subgroups(self, g):
        got = g.cyclic_subgroups()
        assert len(got) == len(set(got))
        assert set(got) == _reference_cyclic_subgroups(g)

    def test_all_subgroups(self, g):
        subs = g.all_subgroups()
        got = [s.members for s in subs]
        assert len(got) == len(set(got))
        assert set(got) == _reference_subgroups(g)
        for s in subs:
            assert [x for x in range(g.size) if x in s] == list(s.members)

    def test_element_order(self, g):
        assert [g.element_order(i) for i in range(g.size)] == \
            [perm_order(p) for p in g.perms]

    def test_element_classes(self, g):
        # order, centralizer size and number of square roots, by composing
        # permutations
        perms = g.perms
        squares = [compose(p, p) for p in perms]
        assert g._classes == tuple(
            (perm_order(p),
             sum(compose(p, q) == compose(q, p) for q in perms),
             squares.count(p))
            for p in perms)


def test_table_needs_generators_that_generate():
    c4 = fam.cyclic(4)
    square = c4.op(c4._gen_indices[0], c4._gen_indices[0])
    g = Group(list(c4.perms), gen_indices=(square,))
    with pytest.raises(ValueError, match="reach 2 of 4"):
        g._ensure_table()
