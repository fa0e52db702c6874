import random
import tracemalloc

import pytest

from hmgroups import exactmath, families, statistics
from hmgroups.catalog import load_catalog
from hmgroups.exactmath import format_rational
from hmgroups.groupkernel import Group, OrderSpectrum
from hmgroups.statistics import (SL23, CatalogRef, Cyclic, Product, SemiDihedral,
                                 h_m_cyclic_closed, h_m_dihedral_closed)
from hmgroups.verifier import (CHECKS, ScanRow, check_c_convention,
                               check_congruences, check_eq_9, check_lemma_2_1,
                               check_prop_2_1_2_2, check_prop_2_6,
                               check_prop_2_9_2_10, check_theorem_2_2,
                               check_theorem_2_5, check_theorem_2_8, run_checks,
                               scan_integer_hm)


class TestTheorem22:
    def test_passes(self, entries):
        res = check_theorem_2_2(entries)
        assert res.passed, res.witnesses

    def test_smax_1_still_consistent(self, entries):
        # with s_max = 1 the scan range shrinks to n <= p, where the only
        # expected integer is n = p itself
        res = check_theorem_2_2(entries, s_max=1)
        assert res.passed

    def test_population_mentions_catalog(self, entries):
        res = check_theorem_2_2(entries)
        assert "prime-power" in res.population


class TestTheorem25:
    def test_passes_with_caveat(self, entries):
        res = check_theorem_2_5(entries)
        assert res.passed
        assert any("exhaustive" in c for c in res.caveats)
        names = [w[0] for w in res.witnesses]
        assert "C4" in names and "D8" in names

    def test_incomplete_catalog_gets_caveat_not_failure(self, entries):
        partial = [e for e in entries if e.order != 8]
        res = check_theorem_2_5(partial)
        assert res.passed
        assert any("population incomplete" in c for c in res.caveats)

    def test_detects_planted_violation(self, entries):
        # removing C4 from a complete catalog is reported as incompleteness,
        # not a failed check
        partial = [e for e in entries if not (e.order == 4 and e.id == 1)]
        res = check_theorem_2_5(partial)
        assert any("population incomplete" in c for c in res.caveats)


class TestTheorem28:
    def test_passes(self, entries):
        res = check_theorem_2_8(entries)
        assert res.passed, res.witnesses
        assert any("min h_m = 4/3" in w[1] for w in res.witnesses)

    def test_expected_class_list(self, entries):
        res = check_theorem_2_8(entries)
        matched = {w[1].split("-> ")[1] for w in res.witnesses
                   if "<= 2" in w[1]}
        assert matched == {"C2", "C2^2", "C2^3", "C2^4", "C3", "S3", "C4", "D8"}


class TestProp26:
    def test_short_scan(self):
        res = check_prop_2_6(3000)
        assert res.passed
        assert [w for w in res.witnesses if w[0] == "D8"]

    def test_window_and_uniqueness_claims(self):
        res = check_prop_2_6(500)
        integer_hits = [w[0] for w in res.witnesses if "h_m = " in w[1]
                        and "outside" not in w[1]]
        assert integer_hits == ["D8"]

    @staticmethod
    def reference(n_max):
        """The check's dict, from one closed-form h_m per n."""
        witnesses, integer_ns, passed = [], [], True
        for n in range(2, n_max + 1):
            h = h_m_dihedral_closed(n)
            if h.denominator == 1:
                integer_ns.append(n)
                witnesses.append([f"D{2 * n}", f"h_m = {format_rational(h)}"])
            if not 1 < h < 4:
                passed = False
                witnesses.append([f"D{2 * n}", f"h_m = {format_rational(h)} outside (1, 4)"])
        return {"check_id": "prop2.6",
                "population": f"dihedral groups of order 2n for 2 <= n <= {n_max} "
                              f"(closed form)",
                "passed": passed and integer_ns == [4],
                "witnesses": witnesses[:20],
                "caveats": [f"scan bound {n_max} is desk-scale evidence, not a proof "
                            f"for all n"]}

    @pytest.mark.parametrize("n_max", [0, 3, 4, 5, 3000])
    def test_matches_closed_form(self, n_max):
        assert check_prop_2_6(n_max).to_dict() == self.reference(n_max)

    @pytest.mark.parametrize("n_max", [255, 256, 257, 1000])
    def test_matches_closed_form_across_blocks(self, monkeypatch, n_max):
        monkeypatch.setattr(exactmath, "SIEVE_BLOCK", 256)
        assert check_prop_2_6(n_max).to_dict() == self.reference(n_max)

    def test_memory_does_not_grow_with_the_bound(self, monkeypatch):
        block = 1 << 12
        monkeypatch.setattr(exactmath, "SIEVE_BLOCK", block)

        def peak(n_max):
            tracemalloc.start()
            try:
                check_prop_2_6(n_max)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * block) <= 1.5 * peak(block)


class TestProp2910:
    def test_passes(self, entries):
        res = check_prop_2_9_2_10(entries)
        assert res.passed, res.witnesses
        assert any(w[0] == "Dic3" for w in res.witnesses)


class TestLemma21:
    def test_fails_with_documented_witnesses(self, entries):
        # the strong bound is falsified on the catalog; the check reports it
        res = check_lemma_2_1(entries)
        assert not res.passed
        details = dict(res.witnesses)
        assert "S3" in details and "bound violated" in details["S3"]
        assert "C6" in details and "equality at non-prime-power" in details["C6"]

    def test_no_weak_bound_witnesses(self, entries):
        res = check_lemma_2_1(entries)
        assert not any("weak bound violated" in d for _, d in res.witnesses)


class TestEq9:
    def test_passes(self, entries):
        res = check_eq_9(entries)
        assert res.passed
        assert {w[0] for w in res.witnesses} == {"C4", "D8"}


class TestCongruences:
    def test_passes(self, entries):
        res = check_congruences(entries)
        assert res.passed, res.witnesses
        exempt = {w[0] for w in res.witnesses if "maximal class" in w[1]}
        assert exempt == {"D8", "Q8", "D16", "SD16", "Q16"}


class TestCConvention:
    def test_resolves_trivial_included(self):
        res = check_c_convention()
        assert res.passed
        assert any("trivial subgroup included" in c for c in res.caveats)


class TestReferenceGroups:
    """The verifier's reference groups are expression atoms."""

    def test_atom_rule_decides_which_groups_are_built(self, entries, monkeypatch):
        # the ATOMS row holds the check function itself, so patch the row
        row = statistics.ATOMS[SemiDihedral]

        def refuse_16(order):
            if order == 16:
                raise ValueError("SD(n) refused at order 16")
            row.check(order)
        monkeypatch.setitem(statistics.ATOMS, SemiDihedral, row._replace(check=refuse_16))
        res = check_c_convention()
        assert res.passed
        assert ("counts", "D8: 7, Q8: 5, D16: 12, Q16: 8, D32: 21, Q32: 13, ...") \
            in res.witnesses
        res = check_congruences(entries)
        exempt = {w[0] for w in res.witnesses if w[1] == "maximal class, exempt"}
        assert exempt == {"D8", "Q8", "D16", "Q16"}

    def test_congruences_builds_references_once_per_order(self, entries, monkeypatch):
        built = []
        for name in ("dihedral", "generalized_quaternion", "semidihedral"):
            real = getattr(families, name)
            monkeypatch.setattr(families, name,
                                lambda order, real=real: built.append(order) or real(order))
        check_congruences(entries)
        assert sorted(built) == [8, 8, 16, 16, 16]


class TestPropSuite:
    def test_full_suite_passes(self, entries):
        res = check_prop_2_1_2_2(entries, product_cap=256)
        assert res.passed, res.witnesses
        # part (d) runs but finds nothing to flag
        assert any(c.startswith("(d)") for c in res.caveats)

    def test_one_lattice_per_group(self, entries, monkeypatch):
        # part (d) takes the Sylow subgroups from the lattice of (b) and (c)
        calls = []
        real = Group.all_subgroups

        def counting(g):
            calls.append(g)
            return real(g)
        monkeypatch.setattr(Group, "all_subgroups", counting)
        check_prop_2_1_2_2(entries)
        assert len(calls) == len({id(g) for g in calls}) == 42

    def test_one_spectrum_count_per_group(self, entries, monkeypatch):
        # fresh entries, so no group has a spectrum from an earlier test
        fresh = load_catalog("\n".join(e.to_json_line() for e in entries))
        asked = []  # every group asked for its spectrum, kept alive
        inside = []
        counted = []
        real_spectrum = Group.order_spectrum
        real_from_orders = OrderSpectrum.from_orders.__func__

        def order_spectrum(g):
            asked.append(g)
            inside.append(g)
            try:
                return real_spectrum(g)
            finally:
                inside.pop()

        def from_orders(cls, orders):
            if inside:
                counted.append(inside[-1])
            return real_from_orders(cls, orders)
        monkeypatch.setattr(Group, "order_spectrum", order_spectrum)
        monkeypatch.setattr(OrderSpectrum, "from_orders", classmethod(from_orders))
        run_checks(fresh, ["prop2.1-2.2"])
        distinct = {id(g) for g in asked}
        assert len(counted) == len({id(g) for g in counted}) == len(distinct)
        assert len(asked) > len(distinct)


class TestScan:
    def test_default_rows(self, entries):
        rep = scan_integer_hm(entries, cyclic_max=128, dihedral_max=64)
        ints = {(r.label, r.order) for r in rep.rows if r.integer}
        assert ("C4", 4) in ints
        assert ("D8", 8) in ints
        assert ("Dic3", 12) in ints
        assert ("C64", 64) in ints
        assert ("1", 1) in ints

    def test_rows_sorted_and_deterministic(self, entries):
        a = scan_integer_hm(entries, cyclic_max=50, dihedral_max=20)
        b = scan_integer_hm(entries, cyclic_max=50, dihedral_max=20)
        assert [r.label for r in a.rows] == [r.label for r in b.rows]
        orders = [r.order for r in a.rows]
        assert orders == sorted(orders)

    def test_expression_row(self, entries):
        rep = scan_integer_hm(entries, cyclic_max=0, dihedral_max=0,
                              exprs=(Product((SL23(), Cyclic(823543))),))
        row = [r for r in rep.rows if r.source == "expression"][0]
        assert row.h_m == 403368
        assert row.integer

    def test_exhaustiveness_caveat(self, entries):
        rep = scan_integer_hm(entries)
        assert any("exhaustive" in c for c in rep.caveats)

    @staticmethod
    def family_rows(cyclic_max, dihedral_max):
        rows = [ScanRow(f"C{n}", n, h_m_cyclic_closed(n), h_m_cyclic_closed(n).denominator == 1,
                        "cyclic-family", 10 ** 9) for n in range(1, cyclic_max + 1)]
        rows += [ScanRow(f"D{2 * n}", 2 * n, h_m_dihedral_closed(n),
                         h_m_dihedral_closed(n).denominator == 1, "dihedral-family", 10 ** 9)
                 for n in range(2, dihedral_max + 1)]
        return rows

    @pytest.mark.parametrize("cyclic_max", [0, 1, 300])
    @pytest.mark.parametrize("dihedral_max", [0, 1, 2, 300])
    def test_family_rows_match_closed_forms(self, monkeypatch, entries, cyclic_max,
                                            dihedral_max):
        monkeypatch.setattr(exactmath, "SIEVE_BLOCK", 256)  # 300 spans two blocks
        rep = scan_integer_hm(entries, cyclic_max, dihedral_max)
        catalog_rows = [r for r in rep.rows if r.source == "catalog"]
        assert len(catalog_rows) == len(entries)
        want = sorted(catalog_rows + self.family_rows(cyclic_max, dihedral_max),
                      key=ScanRow.sort_key)
        assert rep.rows == want

    @pytest.mark.parametrize("seed", range(8))
    def test_merged_rows_equal_a_global_sort(self, monkeypatch, entries, seed):
        # family rows come out of the sieve in order and only the catalog and
        # expression rows are sorted; expressions of order 48 and 120 fall
        # between family rows, "Cat(16,3) x C(3)" between C48 and D48
        monkeypatch.setattr(exactmath, "SIEVE_BLOCK", 256)
        rng = random.Random(seed)
        shuffled = rng.sample(entries, len(entries))
        exprs = rng.sample([Product((SL23(), Cyclic(5))), Product((Cyclic(5), SL23())),
                            Product((CatalogRef(16, 3), Cyclic(3)))], 3)
        cyclic_max, dihedral_max = rng.randint(0, 600), rng.randint(0, 600)
        rows = scan_integer_hm(shuffled, cyclic_max, dihedral_max, exprs).rows
        assert rows == sorted(rows, key=ScanRow.sort_key)
        family = [r for r in rows if r.source.endswith("-family")]
        assert len(rows) == len(entries) + len(exprs) + len(family)
        assert len(family) == cyclic_max + max(dihedral_max - 1, 0)
        for r in family:
            if r.source == "cyclic-family":
                assert r.h_m == h_m_cyclic_closed(r.order), r.label
            else:
                assert r.h_m == h_m_dihedral_closed(r.order // 2), r.label
            assert r.integer == (r.h_m.denominator == 1), r.label

    def test_json_shape(self, entries):
        doc = scan_integer_hm(entries, cyclic_max=4, dihedral_max=0).to_dict()
        assert set(doc) == {"population", "caveats", "rows"}
        assert all(set(r) == {"label", "order", "h_m", "h_m_approx",
                              "integer", "source"} for r in doc["rows"])


class TestRegistry:
    def test_run_all(self, entries):
        results = run_checks(entries, None, nmax=500)
        assert len(results) == len(CHECKS)
        failed = {r.check_id for r in results if not r.passed}
        assert failed == {"lemma2.1"}

    def test_misspelt_option(self, entries):
        with pytest.raises(TypeError):
            run_checks(entries, ["prop2.6"], nmaxx=5)

    def test_unknown_id(self, entries):
        with pytest.raises(KeyError):
            run_checks(entries, ["nope"])

    def test_selected_subset(self, entries):
        results = run_checks(entries, ["thm2.5", "eq9"])
        assert [r.check_id for r in results] == ["thm2.5", "eq9"]
