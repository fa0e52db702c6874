import pytest

from hmgroups import families as fam
from hmgroups.catalog import (SMALL_GROUP_COUNTS, CatalogFormatError, get,
                              load_catalog, missing_orders, validate_catalog)
from hmgroups.groupkernel import is_isomorphic
from hmgroups.statistics import h_m_of


class TestDefaultCatalog:
    def test_entry_count(self, entries):
        assert len(entries) == 44
        assert len([e for e in entries if e.order <= 16]) == 42

    def test_counts_per_order(self, entries):
        for order, expected in SMALL_GROUP_COUNTS.items():
            assert len([e for e in entries if e.order == order]) == expected
        assert missing_orders(entries) == []

    def test_ids_unique_and_sequential(self, entries):
        by_order = {}
        for e in entries:
            by_order.setdefault(e.order, []).append(e.id)
        for order, ids in by_order.items():
            assert ids == list(range(1, len(ids) + 1))

    def test_every_entry_closes_to_declared_order(self, entries):
        for e in entries:
            assert e.group().size == e.order

    def test_validation_clean(self, entries):
        report = validate_catalog(entries)
        assert report.ok, report.summary()

    def test_prime_orders_are_cyclic(self, entries):
        for e in entries:
            if e.order in (2, 3, 5, 7, 11, 13):
                assert is_isomorphic(e.group(), fam.cyclic(e.order))

    def test_exactly_one_cyclic_per_order(self, entries):
        for order in range(1, 17):
            cyclics = [e for e in entries if e.order == order
                       and e.group().is_cyclic()]
            assert len(cyclics) == 1

    def test_get(self, entries):
        assert h_m_of(get(entries, 12, 1)) == 3
        assert is_isomorphic(get(entries, 8, 3), fam.dihedral(8))
        assert is_isomorphic(get(entries, 7, 1), fam.cyclic(7))

    def test_get_missing(self, entries):
        with pytest.raises(KeyError):
            get(entries, 17, 1)

    def test_spectrum_identical_pairs_distinguished(self, by_name):
        # order-16 triples sharing a spectrum must still be non-isomorphic
        same_spec = [("C4xC4", "Q8xC2"), ("C4xC4", "C4:C4"),
                     ("Q8xC2", "C4:C4"), ("(C2^2):C4", "C4xC2^2"),
                     ("(C2^2):C4", "D8oC4"), ("C4xC2^2", "D8oC4")]
        for a, b in same_spec:
            ga, gb = by_name[a].group(), by_name[b].group()
            assert not is_isomorphic(ga, gb), (a, b)


class TestLoader:
    def test_single_line(self):
        entries = load_catalog(
            '{"order":4,"id":1,"name":"C4","degree":4,"gens":[[1,2,3,0]]}')
        assert len(entries) == 1
        assert entries[0].group().size == 4

    def test_empty_stream(self):
        assert load_catalog("") == []
        assert load_catalog("# hmcat v1\n# just comments\n") == []

    def test_bytes_input(self):
        entries = load_catalog(
            b'{"order":1,"id":1,"name":"1","degree":1,"gens":[]}')
        assert entries[0].order == 1

    def test_malformed_line_reports_line_number(self):
        text = '# header\n{"order":2,"id":1,"name":"C2","degree":2,"gens":[[1,0]]}\nnot json\n'
        with pytest.raises(CatalogFormatError) as err:
            load_catalog(text)
        assert "line 3" in str(err.value)

    def test_missing_key(self):
        with pytest.raises(CatalogFormatError) as err:
            load_catalog('{"order":2,"id":1,"name":"C2","degree":2}')
        assert "gens" in str(err.value)

    def test_duplicate_order_id(self):
        line = '{"order":4,"id":1,"name":"C4","degree":4,"gens":[[1,2,3,0]]}'
        with pytest.raises(CatalogFormatError) as err:
            load_catalog(line + "\n" + line)
        assert "duplicate" in str(err.value)

    def test_wrong_generator_length_is_parse_error(self):
        with pytest.raises(CatalogFormatError):
            load_catalog('{"order":2,"id":1,"name":"C2","degree":2,"gens":[[1,0,2]]}')

    def test_non_bijective_generator_passes_parse(self):
        # parse-level acceptance; validation must flag it
        entries = load_catalog(
            '{"order":2,"id":1,"name":"bad","degree":2,"gens":[[0,0]]}')
        assert len(entries) == 1
        report = validate_catalog(entries)
        assert not report.ok
        assert any("not a permutation" in f for f in report.findings)


class TestValidator:
    def test_closure_size_mismatch_flagged(self):
        entries = load_catalog(
            '{"order":12,"id":1,"name":"liar","degree":3,"gens":[[1,2,0],[1,0,2]]}')
        report = validate_catalog(entries)
        assert not report.ok
        assert any("closure has 6" in f for f in report.findings)

    def test_isomorphic_duplicates_flagged(self):
        text = "\n".join([
            '{"order":4,"id":1,"name":"C4","degree":4,"gens":[[1,2,3,0]]}',
            '{"order":4,"id":2,"name":"C4-again","degree":4,"gens":[[3,0,1,2]]}',
        ])
        report = validate_catalog(load_catalog(text))
        assert not report.ok
        assert any("isomorphic" in f for f in report.findings)

    def test_summary_mentions_count(self, entries):
        assert "44 entries" in validate_catalog(entries).summary()


def test_missing_orders_detection(entries):
    partial = [e for e in entries if e.order != 8]
    assert missing_orders(partial) == [8]


def test_embedded_file_carries_version_header():
    from importlib import resources
    text = resources.files("hmgroups.data").joinpath(
        "small_groups.jsonl").read_text("utf-8")
    assert text.splitlines()[0] == "# hmcat v1"


def test_entry_json_roundtrip(entries):
    for e in entries[:5]:
        line = e.to_json_line()
        (reparsed,) = load_catalog(line)
        assert reparsed == e
