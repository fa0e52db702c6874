import math

import pytest

from hmgroups import families as fam
from hmgroups.groupkernel import is_isomorphic


def spectrum_dict(g):
    return dict(g.order_spectrum().entries)


class TestSizes:
    def test_all_families(self):
        assert fam.cyclic(15).size == 15
        assert fam.dihedral(14).size == 14
        assert fam.generalized_quaternion(32).size == 32
        assert fam.semidihedral(32).size == 32
        assert fam.symmetric(4).size == 24
        assert fam.sl23().size == 24
        assert fam.dicyclic(7).size == 28
        assert fam.elementary_abelian(3, 2).size == 9

    def test_cyclic_trivial(self):
        assert fam.cyclic(1).size == 1


class TestCyclic:
    def test_spectrum(self):
        assert spectrum_dict(fam.cyclic(4)) == {1: 1, 2: 1, 4: 2}

    def test_order_15_generators(self):
        g = fam.cyclic(15)
        assert spectrum_dict(g)[15] == 8  # phi(15) elements of full order

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fam.cyclic(0)


class TestDihedral:
    def test_d8(self):
        assert spectrum_dict(fam.dihedral(8)) == {1: 1, 2: 5, 4: 2}

    def test_d6_is_s3(self):
        assert is_isomorphic(fam.dihedral(6), fam.symmetric(3))

    def test_degenerate_orders(self):
        assert is_isomorphic(fam.dihedral(2), fam.cyclic(2))
        assert is_isomorphic(fam.dihedral(4), fam.elementary_abelian(2, 2))

    def test_rotations_form_cyclic_subgroup(self):
        for two_n in (6, 8, 10, 16, 26):
            n = two_n // 2
            g = fam.dihedral(two_n)
            rot = next(i for i in range(g.size) if g.element_order(i) == n)
            sub = g.subgroup(g.generated_subgroup((rot,)))
            assert sub.size == n and sub.is_cyclic()
            outside = [i for i in range(g.size) if i not in set(sub.members)]
            assert len(outside) == n
            assert all(g.element_order(i) == 2 for i in outside)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            fam.dihedral(7)


class TestQuaternion:
    def test_q8_spectrum(self):
        assert spectrum_dict(fam.generalized_quaternion(8)) == {1: 1, 2: 1, 4: 6}

    def test_unique_involution(self):
        for order in (8, 16, 32, 64):
            g = fam.generalized_quaternion(order)
            assert spectrum_dict(g)[2] == 1

    def test_q16(self):
        g = fam.generalized_quaternion(16)
        assert g.size == 16
        assert g.exponent() == 8

    def test_invalid_orders(self):
        for bad in (4, 12, 24):
            with pytest.raises(ValueError):
                fam.generalized_quaternion(bad)


class TestSemidihedral:
    def test_sd16(self):
        g = fam.semidihedral(16)
        assert g.size == 16
        assert not g.center().is_whole_group()
        assert g.exponent() == 8
        assert spectrum_dict(g) == {1: 1, 2: 5, 4: 6, 8: 4}

    def test_distinct_from_other_maximal_class(self):
        sd = fam.semidihedral(16)
        assert not is_isomorphic(sd, fam.dihedral(16))
        assert not is_isomorphic(sd, fam.generalized_quaternion(16))

    def test_invalid_orders(self):
        for bad in (8, 12, 24):
            with pytest.raises(ValueError):
                fam.semidihedral(bad)


class TestElementaryAbelian:
    def test_rank_3(self):
        g = fam.elementary_abelian(2, 3)
        assert g.size == 8
        assert spectrum_dict(g) == {1: 1, 2: 7}

    def test_three_squared(self):
        assert spectrum_dict(fam.elementary_abelian(3, 2)) == {1: 1, 3: 8}

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            fam.elementary_abelian(4, 2)


class TestSymmetricAndLinear:
    def test_s_n_sizes(self):
        for n in range(1, 6):
            assert fam.symmetric(n).size == math.factorial(n)

    def test_sl23_spectrum(self):
        assert spectrum_dict(fam.sl23()) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


class TestDicyclic:
    def test_order_and_spectrum(self):
        g = fam.dicyclic(3)
        assert g.size == 12
        assert spectrum_dict(g) == {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}

    def test_dic2_is_q8(self):
        assert is_isomorphic(fam.dicyclic(2), fam.generalized_quaternion(8))

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            fam.dicyclic(1)


class TestCyclicSubgroupCountFormulas:
    """Brute-force counts for the maximal-class families; the closed-form
    counts 2^(n-1)+n, 2^(n-2)+n, 3*2^(n-3)+n hold with the trivial
    subgroup included."""

    def test_dihedral(self):
        for n in range(3, 9):
            g = fam.dihedral(2 ** n)
            assert len(g.cyclic_subgroups()) == 2 ** (n - 1) + n

    def test_quaternion(self):
        for n in range(3, 9):
            g = fam.generalized_quaternion(2 ** n)
            assert len(g.cyclic_subgroups()) == 2 ** (n - 2) + n

    def test_semidihedral(self):
        for n in range(4, 9):
            g = fam.semidihedral(2 ** n)
            assert len(g.cyclic_subgroups()) == 3 * 2 ** (n - 3) + n
