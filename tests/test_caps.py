import pytest

from hmgroups import caps, groupkernel

DEFAULTS = {"enumeration": 4096, "closure": 2_000_000, "table": 4096,
            "subgroups": 200, "iso": 256, "factor_work": 4_000_000}


def test_defaults():
    assert caps.LIMITS == DEFAULTS


def test_groupkernel_raises_the_caps_class():
    assert groupkernel.CapExceeded is caps.CapExceeded


def test_check_passes_at_the_limit():
    caps.check("iso", 256, "G")
    caps.check("enumeration", caps.Huge(12), "G")  # 2^12 = 4096


@pytest.mark.parametrize("name, requested, text", [
    ("iso", 257, "G has order 257, above the iso cap 256"),
    ("table", 10 ** 49, f"G has order {10 ** 49}, above the table cap 4096"),
    ("table", 10 ** 50, "G has order > 10^49, above the table cap 4096"),
    ("closure", caps.Huge(10 ** 9), "G has order > 10^301029995, above the closure "
                                   "cap 2000000"),
    ("enumeration", 4097, "G has order 4097, above the enumeration cap 4096; raise "
                          "the cap or use a coprime product / closed-form expression"),
])
def test_check_refuses(name, requested, text):
    with pytest.raises(caps.CapExceeded) as err:
        caps.check(name, requested, "G")
    assert str(err.value) == text
    assert (err.value.name, err.value.limit, err.value.requested) == (
        name, DEFAULTS[name], requested)


def test_huge_is_compared_by_bit_length():
    with pytest.raises(caps.CapExceeded):
        caps.check("enumeration", caps.Huge(13), "G")  # 2^13 > 4096


def test_power_of_ten_is_below_the_size():
    # the message names 10^k with 10^k < size < 10^(k+2)
    for bits in (166, 332, 333, 4096, 14_000):
        exc = caps.CapExceeded(name="iso", limit=1, requested=caps.Huge(bits),
                               subject="G")
        k = int(str(exc).split("10^")[1].split(",")[0])
        assert 10 ** k < 2 ** bits < 10 ** (k + 2)


def test_bare_message_constructs():
    exc = caps.CapExceeded("refused")
    assert str(exc) == "refused"
    assert exc.name is exc.limit is exc.requested is None


def test_unknown_limit():
    with pytest.raises(KeyError):
        caps.check("memory", 1, "G")
    with pytest.raises(KeyError):
        with caps.override(memory=1):
            pass
    assert caps.LIMITS == DEFAULTS


def test_override_restores_after_a_refusal():
    with pytest.raises(caps.CapExceeded):
        with caps.override(iso=10, table=20):
            assert caps.LIMITS["iso"] == 10 and caps.LIMITS["table"] == 20
            caps.check("iso", 11, "G")
    assert caps.LIMITS == DEFAULTS


def test_closure_refused_while_it_grows(monkeypatch):
    monkeypatch.setitem(caps.LIMITS, "closure", 3)
    with pytest.raises(caps.CapExceeded) as err:
        groupkernel.Group.from_generators(5, [(1, 2, 3, 4, 0)], label="C5")
    assert str(err.value) == ("the partial closure of C5 has order 4, "
                              "above the closure cap 3")
