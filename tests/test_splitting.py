import dataclasses
import pickle
import re
from functools import lru_cache
from itertools import product
from math import gcd

import pytest
from helpers import all_splittings_by_subsets, s87_by_residues, verify_splitting_by_elements
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from abelsplit.groups import FiniteAbelianGroup
from abelsplit.search import FOUND, SearchConfig, enumerate_all_splittings, search_splitter
from abelsplit.splitting import (
    MIXED_SINGULAR,
    NONSINGULAR,
    ORDER_2K_PLUS_1,
    ORDER_K_PLUS_1,
    PURELY_SINGULAR,
    MultiplierSet,
    NotASplitting,
    SplittingCertificate,
    _check_products,
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
    e = MultiplierSet((-2, 1, 7))
    assert e.values == (-2, 1, 7) and e.kind == "explicit"
    assert e.residues(5) == (3, 1, 2)
    assert MultiplierSet((-2.0, 7)).values == (-2, 7)  # values are converted to int
    assert type(MultiplierSet((True, 2)).values[0]) is int
    with pytest.raises(ValueError, match="^0 is not a valid multiplier$"):
        MultiplierSet((0, 1))
    with pytest.raises(ValueError, match="^multiplier values must be strictly increasing$"):
        MultiplierSet((2, 1), kind="explicit")
    with pytest.raises(ValueError, match="^multiplier values must be strictly increasing$"):
        MultiplierSet((1, 3, 3))
    with pytest.raises(ValueError, match=r"^interval multiplier set must be exactly \{1\.\.k\}$"):
        MultiplierSet((2, 3), kind="interval")
    with pytest.raises(ValueError, match="^interval bound must be >= 1, got 0$"):
        MultiplierSet.interval(0)
    with pytest.raises(ValueError, match="^multiplier set must be nonempty$"):
        MultiplierSet(())
    with pytest.raises(ValueError, match="^unknown multiplier kind 'bogus'$"):
        MultiplierSet((1,), kind="bogus")
    # the checks run in this order: nonempty, 0, increasing, then the kind
    with pytest.raises(ValueError, match="^0 is not a valid multiplier$"):
        MultiplierSet((2, 0), kind="bogus")
    with pytest.raises(ValueError, match="strictly increasing"):
        MultiplierSet((2, 1), kind="bogus")


def test_multiplier_set_shares_a_tuple_of_ints():
    # an enumeration keeps one tuple per multiplier set, not three
    values = (1, 3, 5)
    M = MultiplierSet(values)
    assert M.values is values and M.residues(6) is values and M.residues(7) is values
    assert M.residues(5) == (1, 3, 0) and M.residues(2) == (1, 1, 1)
    assert MultiplierSet((-1, 3)).residues(9) == (8, 3)
    assert MultiplierSet([1, 3]).values == (1, 3)


def test_multiplier_set_is_slotted_frozen_and_picklable():
    # an enumeration holds one per multiplier set, so no instance dict; the
    # scan pool pickles found certificates, which hold one
    m = MultiplierSet.interval(4)
    assert not hasattr(m, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.values = (1,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.kind = "explicit"
    same = MultiplierSet((1, 2, 3, 4), kind="interval")
    assert m == same and hash(m) == hash(same)
    assert m != MultiplierSet((1, 2, 3, 4)) and len({m, same}) == 1
    for back in (pickle.loads(pickle.dumps(m)), pickle.loads(pickle.dumps(trivial_certificate(4)))):
        back = getattr(back, "multipliers", back)
        assert back == m and hash(back) == hash(m) and back.kind == "interval"


def test_verify_valid_examples():
    assert verify_splitting(Z(5), MultiplierSet.interval(2), [(1,), (4,)]).is_valid
    for k in (1, 2, 7, 40):
        assert verify_splitting(Z(k + 1), MultiplierSet.interval(k), [(1,)]).is_valid


def test_verify_collision_example():
    report = verify_splitting(Z(10), MultiplierSet.interval(3), [(1,), (4,), (7,)])
    assert not report.is_valid
    assert report.kind == "collision"
    assert report.element == (2,)
    assert report.first == (2, (1,)) and report.second == (3, (4,))


def test_verify_zero_hit():
    report = verify_splitting(Z(10), MultiplierSet.interval(3), [(1,), (5,), (7,)])
    assert report.kind == "zero_hit" and report.first == (2, (5,))


def test_verify_count_mismatch():
    report = verify_splitting(Z(10), MultiplierSet.interval(3), [(1,), (4,)])
    assert report.kind == "count_mismatch"


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
    return G, MultiplierSet(tuple(sorted(values))), splitters


def _fields(report):
    return report.is_valid, report.kind, report.element, report.first, report.second


@given(verification_inputs())
@example((Z(5), MultiplierSet((-3, 6)), [(-4,), (9,)]))  # valid
@example((Z(10), MultiplierSet((-7, 1, 12)), [(1,), (4,), (7,)]))  # collision
@example((Z(10), MultiplierSet((1, 2, 3)), [(1,), (15,), (-3,)]))  # zero hit
@example((Z(9), MultiplierSet((1, 9)), [(1,), (2,), (3,), (4,)]))  # m = |G|
@example((Z(10), MultiplierSet.interval(3), [(1,), (4,)]))  # count mismatch
@example((Z(9), MultiplierSet.interval(4), [(1,), (10,)]))  # duplicate after reduction
@example((FiniteAbelianGroup((2, 3)), MultiplierSet((-2, 2, 3, 5, 7)),
          [(-1, 4)]))  # valid
@example((FiniteAbelianGroup((2, 4)), MultiplierSet((-1, 1, 2, 3, 9, 11, 13)),
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
    event(expected.kind or "valid")
    assert _fields(verify_splitting(G, M, splitters)) == _fields(expected)


@given(verification_inputs())
@example((Z(5), MultiplierSet((-3, 6)), [(-4,), (9,)]))  # valid
@example((Z(10), MultiplierSet((-7, 1, 12)), [(1,), (4,), (7,)]))  # collision
@example((Z(10), MultiplierSet((1, 2, 3)), [(1,), (15,), (-3,)]))  # zero hit
@example((Z(10), MultiplierSet.interval(3), [(1,), (4,)]))  # count mismatch
def test_certificate_is_made_exactly_from_splittings(inputs):
    G, M, splitters = inputs
    try:
        S = canonical_splitters(G, splitters)
    except ValueError:
        event("duplicate splitters")
        return
    report = verify_splitting(G, M, splitters)
    event(report.kind or "valid")
    try:
        cert = SplittingCertificate(G, M, S)
    except NotASplitting as exc:
        assert not report.is_valid
        assert exc.report == report
        assert str(exc) == f"not a splitting of {G}: {report.describe()}"
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
    c = classify_multipliers(Z(15), MultiplierSet((1, 3)))
    assert c.tag == MIXED_SINGULAR and c.witnesses == ((3, 3), (5, None))


@given(st.integers(2, 300), st.sets(st.integers(1, 200), min_size=1, max_size=8),
       st.integers(1, 5))
def test_classify_depends_only_on_residues(n, values, shift):
    g = Z(n)
    base = classify_multipliers(g, MultiplierSet(tuple(sorted(values))))
    translated = classify_multipliers(
        g, MultiplierSet(tuple(sorted({v + shift * n for v in values})))
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
    cert = make_certificate(Z(9), MultiplierSet((1, 2)), [(1,), (3,), (4,), (7,)])
    assert s87_property_check(cert) is True  # multipliers coprime to 3
    with pytest.raises(ValueError):
        s87_property_check(
            make_certificate(Z(15), MultiplierSet.interval(14), [(1,)])
        )
    with pytest.raises(ValueError):
        s87_property_check(trivial_certificate(1))  # order 2: even prime power


def test_s87_rejects_non_cyclic_prime_power_order():
    # Z_3 x Z_3 has odd prime-power order 9, and this is one of its splittings
    G = FiniteAbelianGroup((3, 3))
    cert = make_certificate(G, MultiplierSet((1, 2)), [(1, 0), (0, 1), (1, 1), (1, 2)])
    with pytest.raises(ValueError, match=re.escape(str(G))):
        s87_property_check(cert)


def test_s87_product_agrees_with_every_residue():
    checked = negated = 0
    for n in (9, 25, 27):
        p = 5 if n == 25 else 3
        for size in (d for d in range(1, n) if (n - 1) % d == 0):
            for cert in enumerate_all_splittings(n, size):
                assert s87_property_check(cert) is s87_by_residues(cert), (n, cert)
                checked += 1
                if n == 9 and any(v % p == 0 for v in cert.multipliers.values):
                    # v - n has v's residue, so this is still a splitting,
                    # and its multiplier product is negative
                    values = [v - n if v % p == 0 else v for v in cert.multipliers.values]
                    cert = SplittingCertificate(
                        cert.group, MultiplierSet(tuple(sorted(values))), cert.splitters
                    )
                    assert s87_property_check(cert) is s87_by_residues(cert) is True
                    negated += 1
    assert (checked, negated) == (156 + 156_840 + 152_964, 78)
    cert = make_certificate(Z(27), MultiplierSet((-1, 1)), [(s,) for s in range(1, 14)])
    assert s87_property_check(cert) is s87_by_residues(cert) is True


def test_counting_condition_of_certificates():
    for k, which in [(5, ORDER_K_PLUS_1), (5, ORDER_2K_PLUS_1), (12, ORDER_2K_PLUS_1)]:
        cert = trivial_certificate(k, which)
        assert len(cert.multipliers) * len(cert.splitters) == cert.group.order - 1


# -- SplittingCertificate.batch against the one-certificate check ----------------

_SMALL = 21  # every enumeration of an order up to this takes 0.3 s in all


@lru_cache(maxsize=None)
def _enumerated_pairs(n, size):
    return [(c.multipliers.values, tuple(s for (s,) in c.splitters))
            for c in enumerate_all_splittings(n, size)]


@lru_cache(maxsize=None)
def _found_pairs(n, m_vals):
    """The splitter set search_splitter finds for M, and its unit multiples."""
    out = search_splitter(Z(n), MultiplierSet(m_vals), SearchConfig(10_000, None))
    if out.result != FOUND:
        return []
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    return [(m_vals, tuple(sorted(u * s % n for s in out.splitters))) for u in units]


def _mutate(draw, m: list, s: list, n: int) -> None:
    """One drawn mutation of M or S, in place: a residue of either side
    replaced (M by values up to 2n, so multiples of n occur), a splitter
    repeated or replaced by 0, or either side one element too large or too
    small."""
    residue = st.integers(0, n - 1)
    mutation = draw(st.sampled_from(["m", "s", "repeat", "zero", "m_size", "s_size"]))
    if mutation == "m":
        m[draw(st.integers(0, len(m) - 1))] = draw(st.integers(1, 2 * n))
    elif mutation == "m_size":
        if len(m) > 1 and draw(st.booleans()):
            m.pop(draw(st.integers(0, len(m) - 1)))
        else:
            m.append(draw(st.integers(1, 2 * n)))
    elif mutation == "s" and s:
        s[draw(st.integers(0, len(s) - 1))] = draw(residue)
    elif mutation == "repeat" and s:
        s.append(s[draw(st.integers(0, len(s) - 1))])
        if draw(st.booleans()):  # keep the size
            s.pop(draw(st.integers(0, len(s) - 2)))
    elif mutation == "zero" and s:
        s[draw(st.integers(0, len(s) - 1))] = 0
    elif mutation == "s_size":
        if s and draw(st.booleans()):
            s.pop()
        else:
            s.append(draw(residue))


@st.composite
def batch_inputs(draw):
    """Z_n for n <= 40, |M| dividing n-1, the fixed side, and batch items.

    An item is a fixed tuple and its list of covers, M values and S
    residues on their sides. The items hold splittings that
    enumerate_all_splittings yields (orders up to _SMALL) or that
    search_splitter finds for a drawn M, each item's covers drawn among
    those of its fixed tuple; else drawn tuples of the matching sizes. Up
    to two pairs are mutated (see _mutate); a mutated fixed tuple changes
    every pair of its item. An item may be followed by a unit multiple of
    its fixed tuple that shares its list object, as the members of one
    unit orbit do in enumerate_all_splittings.
    """
    n = draw(st.integers(2, 40))
    size = draw(st.sampled_from([d for d in range(1, n) if (n - 1) % d == 0]))
    fix_multipliers = draw(st.booleans())
    if n <= _SMALL:
        pool = _enumerated_pairs(n, size)
    else:
        m_vals = tuple(sorted(draw(st.sets(st.integers(1, n - 1), min_size=size, max_size=size))))
        pool = _found_pairs(n, m_vals)
    by_fixed: dict = {}
    for m, s in pool:
        fixed, cover = (m, s) if fix_multipliers else (s, m)
        by_fixed.setdefault(fixed, []).append(cover)

    def drawn_m():
        return sorted(draw(st.sets(st.integers(1, n - 1), min_size=size, max_size=size)))

    def drawn_s():
        return draw(st.permutations(range(1, n)))[:(n - 1) // size]

    items = []  # [fixed, [cover, ...]], as lists to mutate
    for _ in range(draw(st.integers(1, 4))):
        if by_fixed:
            fixed = draw(st.sampled_from(sorted(by_fixed)))
            covers = draw(st.lists(st.sampled_from(by_fixed[fixed]), min_size=1, max_size=4))
        else:
            fixed = drawn_m() if fix_multipliers else drawn_s()
            covers = [drawn_s() if fix_multipliers else drawn_m()
                      for _ in range(draw(st.integers(1, 4)))]
        items.append([list(fixed), [list(c) for c in covers]])
    for _ in range(draw(st.integers(0, 2))):
        fixed, covers = draw(st.sampled_from(items))
        cover = draw(st.sampled_from(covers))
        _mutate(draw, *((fixed, cover) if fix_multipliers else (cover, fixed)), n)

    def canonical(values, multipliers):
        return tuple(sorted(set(values))) if multipliers else tuple(values)

    out = []
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    for fixed, covers in items:
        covers = [canonical(c, not fix_multipliers) for c in covers]
        out.append((canonical(fixed, fix_multipliers), covers))
        if draw(st.booleans()):
            u = draw(st.sampled_from(units))
            out.append((canonical([u * v % n or n for v in fixed], fix_multipliers), covers))
    return n, fix_multipliers, out


@settings(max_examples=150)
@given(batch_inputs())
@example((27, True, [((1, 2), [(1, 3, 4, 7, 9, 10, 12, 13, 16, 19, 21, 22, 25)]),
                     (tuple(range(1, 14)), [(1, 26)]),
                     ((1, 2), [(1, 3, 4, 7, 9, 10, 12, 13, 16, 19, 21, 22, 0)])]))  # zero hit
@example((9, True, [((1, 2), [(1, 3, 4, 7), (1, 3, 4, 4)])]))  # collision
@example((9, False, [((1, 8), [(1, 2, 3, 4), (1, 2, 3, 6)])]))  # collision, S fixed
@example((9, True, [((1, 2), [(1, 3, 4, 7), (1, 3, 4, 5, 7)]),
                    ((2, 4, 7, 8), [(1, 3)])]))  # count mismatch, every residue reached
@example((1, True, []))  # an empty batch
@example((9, True, [((1, 2), [(1, 3, 4, 7)]), ((1, 2), [(1, 4, 6, 7)])]))  # one M, two items
def test_batch_accepts_exactly_what_the_constructor_accepts(inputs):
    n, fix_multipliers, items = inputs
    G = Z(n)
    accepted, rejected = [], None
    for fixed, covers in items:
        for cover in covers:
            m, s = (fixed, cover) if fix_multipliers else (cover, fixed)
            report = _check_products(G, MultiplierSet(m), tuple((x,) for x in s))
            if not report.is_valid:
                rejected = report
                break
            accepted.append((m, s))
        if rejected:
            break
    event("rejected" if rejected else "accepted")
    try:
        view = SplittingCertificate.batch(G, fix_multipliers, items)
    except NotASplitting as exc:
        # raised, so the batch handed out no certificate at all
        assert rejected is not None and exc.report == rejected
        event(rejected.kind)
        return
    assert rejected is None
    # by multiplier set, ascending, and each set's pairs in batch order
    accepted.sort(key=lambda pair: pair[0])
    assert list(view) == [
        SplittingCertificate(G, MultiplierSet(m), tuple((x,) for x in s)) for m, s in accepted]
    assert all(cert.group is G for cert in view)


@pytest.mark.parametrize("n", [2, 3, 9, 16])
def test_batch_needs_every_nonzero_residue(n):
    # M = {1} and S = the nonzero residues but r, with a repeat in r's place:
    # n-1 products that miss r alone; on either side, each r is rejected
    for r in range(1, n):
        s = tuple(x for x in range(1, n) if x != r) + ((r % (n - 1)) + 1,) * (n > 2)
        for fix_multipliers, item in [(True, ((1,), [s])), (False, (s, [(1,)]))]:
            with pytest.raises(NotASplitting):
                list(SplittingCertificate.batch(Z(n), fix_multipliers, [item]))


def test_batch_shares_fields():
    # M fixed: one MultiplierSet per M and one element tuple per residue
    items = [((1, 2), [(1, 3, 4, 7), (1, 4, 6, 7)]), ((1, 8), [(1, 2, 3, 4)])]
    certs = list(SplittingCertificate.batch(Z(9), True, items))
    assert [(c.multipliers.values, c.splitters) for c in certs] == [
        (m, tuple((x,) for x in s)) for m, covers in items for s in covers]
    assert certs[0].multipliers is certs[1].multipliers
    assert certs[0].splitters[0] is certs[1].splitters[0] is certs[2].splitters[0]
    # S fixed: equal covers in two lists are one MultiplierSet, and a list
    # shared by two fixed tuples gives each the same cover objects
    shared = [(1, 2, 3, 4)]
    items = [((1, 8), shared), ((2, 7), shared), ((4, 5), [(1, 2, 3, 4)])]
    certs = list(SplittingCertificate.batch(Z(9), False, items))
    assert [c.splitters for c in certs] == [((1,), (8,)), ((2,), (7,)), ((4,), (5,))]
    assert certs[0].multipliers is certs[1].multipliers is certs[2].multipliers


def test_certificate_view_reads_like_a_list():
    # a list's len and iteration, no more: each iteration builds the
    # certificates again, equal to the last, and the view does not index
    view = enumerate_all_splittings(9, 4)
    listed = [SplittingCertificate(Z(9), MultiplierSet(m), tuple((x,) for x in s))
              for m, s in all_splittings_by_subsets(9, 4)]
    assert list(view) == list(view) == listed and len(view) == len(listed) == 72
    # |M| = 4 in Z_9 fixes the splitters, so the batch groups the pairs by M
    assert len(view.rows) == 16 and [M.values for M, _ in view.rows] == sorted(
        {c.multipliers.values for c in listed})
    with pytest.raises(TypeError):
        view[0]
    for empty in ([], [((1, 2), [])]):
        nothing = SplittingCertificate.batch(Z(9), True, empty)
        assert len(nothing) == 0 and list(nothing) == [] and nothing.rows == ()


def test_batch_rejects_out_of_range_splitters_and_non_cyclic_groups():
    with pytest.raises(ValueError, match="0..8"):
        list(SplittingCertificate.batch(Z(9), True, [((1, 2), [(1, 3, 4, 16)])]))
    with pytest.raises(ValueError, match="0..8"):
        list(SplittingCertificate.batch(Z(9), False, [((1, 3, 4, 16), [(1, 2)])]))
    with pytest.raises(ValueError, match="cyclic"):
        list(SplittingCertificate.batch(FiniteAbelianGroup((3, 3)), True, []))
