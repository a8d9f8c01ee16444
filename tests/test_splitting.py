import pytest
from hypothesis import given
from hypothesis import strategies as st

from abelsplit.groups import FiniteAbelianGroup
from abelsplit.splitting import (
    MIXED_SINGULAR,
    NONSINGULAR,
    ORDER_2K_PLUS_1,
    ORDER_K_PLUS_1,
    PURELY_SINGULAR,
    MultiplierSet,
    classify_multipliers,
    make_certificate,
    s87_property_check,
    trivial_certificate,
    verify_splitting,
)

Z = FiniteAbelianGroup.cyclic


def test_multiplier_set_constructors():
    m = MultiplierSet.interval(3)
    assert m.values == (1, 2, 3) and m.kind == "interval"
    e = MultiplierSet.explicit([7, -2, 1])
    assert e.values == (-2, 1, 7) and e.kind == "explicit"
    assert e.residues(5) == (3, 1, 2)
    with pytest.raises(ValueError):
        MultiplierSet.explicit([0, 1])
    with pytest.raises(ValueError):
        MultiplierSet((2, 1), kind="explicit")
    with pytest.raises(ValueError):
        MultiplierSet((2, 3), kind="interval")
    with pytest.raises(ValueError):
        MultiplierSet.interval(0)


def test_verify_valid_examples():
    assert verify_splitting(Z(5), MultiplierSet.interval(2), [(1,), (4,)]).is_valid
    for k in (1, 2, 7, 40):
        assert verify_splitting(Z(k + 1), MultiplierSet.interval(k), [(1,)]).is_valid


def test_verify_collision_example():
    report = verify_splitting(Z(10), MultiplierSet.interval(3), [(1,), (4,), (7,)])
    assert not report.is_valid
    f = report.failure
    assert f.kind == "collision"
    assert f.element == (2,)
    assert f.first == (2, (1,)) and f.second == (3, (4,))


def test_verify_zero_hit():
    report = verify_splitting(Z(10), MultiplierSet.interval(3), [(1,), (5,), (7,)])
    f = report.failure
    assert f.kind == "zero_hit" and f.first == (2, (5,))


def test_verify_count_mismatch():
    report = verify_splitting(Z(10), MultiplierSet.interval(3), [(1,), (4,)])
    assert report.failure.kind == "count_mismatch"


def test_verify_rejects_duplicate_splitters():
    with pytest.raises(ValueError):
        verify_splitting(Z(10), MultiplierSet.interval(3), [(1,), (11,), (7,)])


def test_verify_non_cyclic_group():
    g = FiniteAbelianGroup((2, 3))
    report = verify_splitting(g, MultiplierSet.interval(5), [(1, 1)])
    assert report.is_valid


def test_trivial_group_certificate():
    cert = make_certificate(Z(1), MultiplierSet.interval(5), [])
    assert cert.splitters == ()
    assert cert.classification.tag == PURELY_SINGULAR  # vacuous: no prime divisors


def test_classify_examples():
    assert classify_multipliers(Z(17), MultiplierSet.interval(8)).tag == NONSINGULAR
    c = classify_multipliers(Z(9), MultiplierSet.interval(8))
    assert c.tag == PURELY_SINGULAR and c.witnesses == ((3, 3),)
    c = classify_multipliers(Z(15), MultiplierSet.explicit([1, 3]))
    assert c.tag == MIXED_SINGULAR and c.witnesses == ((3, 3), (5, None))


@given(st.integers(2, 300), st.sets(st.integers(1, 200), min_size=1, max_size=8),
       st.integers(1, 5))
def test_classify_depends_only_on_residues(n, values, shift):
    g = Z(n)
    base = classify_multipliers(g, MultiplierSet.explicit(values))
    translated = classify_multipliers(
        g, MultiplierSet.explicit({v + shift * n for v in values})
    )
    assert base.tag == translated.tag
    assert [(p, w is not None) for p, w in base.witnesses] == [
        (p, w is not None) for p, w in translated.witnesses
    ]


def test_trivial_certificate_examples():
    cert = trivial_certificate(8, ORDER_K_PLUS_1)
    assert cert.group == Z(9)
    assert cert.splitters == ((1,),)
    assert cert.classification.tag == PURELY_SINGULAR

    cert = trivial_certificate(2, ORDER_2K_PLUS_1)
    assert cert.group == Z(5)
    assert cert.splitters == ((1,), (4,))
    assert cert.classification.tag == NONSINGULAR

    cert = trivial_certificate(1, ORDER_K_PLUS_1)
    assert cert.group == Z(2) and cert.splitters == ((1,),)

    with pytest.raises(ValueError):
        trivial_certificate(0)
    with pytest.raises(ValueError):
        trivial_certificate(3, "nonsense")


def test_make_certificate_rejects_non_splitting():
    with pytest.raises(ValueError):
        make_certificate(Z(10), MultiplierSet.interval(3), [(1,), (4,), (7,)])


def test_s87_examples():
    assert s87_property_check(trivial_certificate(8)) is True
    cert = make_certificate(Z(9), MultiplierSet.explicit([1, 2]), [(1,), (3,), (4,), (7,)])
    assert s87_property_check(cert) is True  # multipliers coprime to 3
    with pytest.raises(ValueError):
        s87_property_check(
            make_certificate(Z(15), MultiplierSet.interval(14), [(1,)])
        )
    with pytest.raises(ValueError):
        s87_property_check(trivial_certificate(1))  # order 2: even prime power


def test_counting_condition_of_certificates():
    for k, which in [(5, ORDER_K_PLUS_1), (5, ORDER_2K_PLUS_1), (12, ORDER_2K_PLUS_1)]:
        cert = trivial_certificate(k, which)
        assert len(cert.multipliers) * len(cert.splitters) == cert.group.order - 1
