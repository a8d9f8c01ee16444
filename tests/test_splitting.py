import re
from itertools import product
from math import gcd

import pytest
from helpers import verify_splitting_by_elements
from hypothesis import event, example, given
from hypothesis import strategies as st

from abelsplit.groups import FiniteAbelianGroup
from abelsplit.splitting import (
    MIXED_SINGULAR,
    NONSINGULAR,
    ORDER_2K_PLUS_1,
    ORDER_K_PLUS_1,
    PURELY_SINGULAR,
    MultiplierSet,
    NotASplitting,
    SplittingCertificate,
    canonical_splitters,
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
    with pytest.raises(ValueError, match="nonempty"):
        MultiplierSet(())
    with pytest.raises(ValueError, match="unknown multiplier kind"):
        MultiplierSet((1,), kind="bogus")


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
    m = MultiplierSet.interval(4)
    for check in (verify_splitting, make_certificate):
        with pytest.raises(ValueError, match="^duplicate splitters$"):
            check(Z(9), m, [(1,), (10,)])  # equal only after reduction
        with pytest.raises(ValueError, match="^expected 1 coordinates, got 2$"):
            check(Z(9), m, [(1, 2)])


def test_verify_non_cyclic_group():
    g = FiniteAbelianGroup((2, 3))
    report = verify_splitting(g, MultiplierSet.interval(5), [(1, 1)])
    assert report.is_valid


NON_CYCLIC = [FiniteAbelianGroup(f) for f in ((2, 3), (3, 3), (2, 4))]


@st.composite
def verification_inputs(draw):
    """A group, explicit multipliers and splitters, unreduced.

    Either a known splitting of Z_n, M = {1..k} and S = {u, -u} for a unit u
    and k = (n-1)/2, or S = {u} and k = n-1; or a random M with |M| dividing
    |G| - 1 and |S| mostly the matching count. Both sides use negative
    representatives and values >= |G|; M sometimes holds a multiple of |G|,
    and S sometimes holds 0 or repeats an element up to reduction.
    """
    G = draw(st.one_of(st.integers(2, 60).map(Z), st.sampled_from(NON_CYCLIC)))
    n = G.order
    shift = st.integers(-2, 2)
    if G.is_cyclic and draw(st.integers(0, 3)) == 0:
        u = draw(st.sampled_from([x for x in range(1, n) if gcd(x, n) == 1]))
        k, elements = n - 1, [(u,)]
        if n % 2 and draw(st.booleans()):
            k, elements = (n - 1) // 2, [(u,), (n - u,)]
        values = [r + draw(shift) * n for r in range(1, k + 1)]
    else:
        size_m = draw(st.sampled_from([d for d in range(1, n) if (n - 1) % d == 0]))
        size_s = max(0, (n - 1) // size_m + draw(st.sampled_from([0, 0, 0, 1, -1])))
        pairs = draw(st.sets(st.tuples(st.integers(1, n - 1), shift),
                             min_size=size_m, max_size=size_m))
        values = [r + t * n for r, t in pairs]
        if draw(st.integers(0, 9)) == 0:
            values.append(draw(st.sampled_from([-2, -1, 1, 2])) * n)
        nonzero = list(product(*(range(d) for d in G.factors)))[1:]
        elements = draw(st.permutations(nonzero))[:size_s]
        if elements and draw(st.integers(0, 9)) == 0:
            elements[-1] = G.identity()
        if elements and draw(st.integers(0, 9)) == 0:
            elements[-1] = elements[0]
    splitters = [tuple(c + draw(shift) * d for c, d in zip(e, G.factors)) for e in elements]
    return G, MultiplierSet.explicit(values), splitters


def _fields(report):
    f = report.failure
    if f is None:
        return report.verdict, None
    return report.verdict, f.kind, f.element, f.first, f.second


@given(verification_inputs())
@example((Z(5), MultiplierSet.explicit([6, -3]), [(-4,), (9,)]))  # valid
@example((Z(10), MultiplierSet.explicit([1, 12, -7]), [(1,), (4,), (7,)]))  # collision
@example((Z(10), MultiplierSet.explicit([1, 2, 3]), [(1,), (15,), (-3,)]))  # zero hit
@example((Z(9), MultiplierSet.explicit([9, 1]), [(1,), (2,), (3,), (4,)]))  # m = |G|
@example((Z(10), MultiplierSet.interval(3), [(1,), (4,)]))  # count mismatch
@example((Z(9), MultiplierSet.interval(4), [(1,), (10,)]))  # duplicate after reduction
@example((FiniteAbelianGroup((2, 3)), MultiplierSet.explicit([7, 2, 3, -2, 5]),
          [(-1, 4)]))  # valid
@example((FiniteAbelianGroup((2, 4)), MultiplierSet.explicit([1, -1, 3, 9, 11, 13, 2]),
          [(1, 1)]))  # collision
def test_verify_matches_element_oracle(inputs):
    G, M, splitters = inputs
    try:
        expected = verify_splitting_by_elements(G, M, splitters)
    except ValueError as exc:
        event("ValueError")
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            verify_splitting(G, M, splitters)
        return
    event(expected.failure.kind if expected.failure else expected.verdict)
    assert _fields(verify_splitting(G, M, splitters)) == _fields(expected)


@given(verification_inputs())
@example((Z(5), MultiplierSet.explicit([6, -3]), [(-4,), (9,)]))  # valid
@example((Z(10), MultiplierSet.explicit([1, 12, -7]), [(1,), (4,), (7,)]))  # collision
@example((Z(10), MultiplierSet.explicit([1, 2, 3]), [(1,), (15,), (-3,)]))  # zero hit
@example((Z(10), MultiplierSet.interval(3), [(1,), (4,)]))  # count mismatch
def test_certificate_is_made_exactly_from_splittings(inputs):
    G, M, splitters = inputs
    try:
        S = canonical_splitters(G, splitters)
    except ValueError:
        event("duplicate splitters")
        return
    report = verify_splitting(G, M, splitters)
    event(report.failure.kind if report.failure else report.verdict)
    try:
        cert = SplittingCertificate(G, M, S)
    except NotASplitting as exc:
        assert not report.is_valid
        assert exc.report == report
        assert str(exc) == f"not a splitting of {G}: {report.failure.describe()}"
        return
    assert report.is_valid
    assert cert.splitters is S
    assert cert.classification == classify_multipliers(G, M)


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
