from dataclasses import FrozenInstanceError
from math import gcd

import pytest
import sympy
from helpers import (
    base_p_digits,
    coprime_count_by_enumeration,
    counting_identity_by_valuations,
    counting_witness_by_fractions,
    digit_pattern_by_digits,
    naive_splitting_exists,
    stratify_by_enumeration,
    tw_passed,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from abelsplit import counting, splitting
from abelsplit.counting import (
    KDecomposition,
    abcde_profile,
    check_counting_identity,
    counting_identities,
    counting_witness,
    decompose_k,
    digit_pattern_check,
    stratify,
    tw_disjointness_check,
    unit_coset_intersection_size,
)
from abelsplit.groups import FiniteAbelianGroup, factorize, is_prime
from abelsplit.scan import purely_singular_candidates
from abelsplit.search import enumerate_all_splittings
from abelsplit.splitting import (
    PURELY_SINGULAR,
    MultiplierSet,
    VerificationReport,
    make_certificate,
    trivial_certificate,
)

Z = FiniteAbelianGroup.cyclic
SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]


def test_base_p_digits_examples():
    assert base_p_digits(8, 3) == (2, 2)
    assert base_p_digits(24, 5) == (4, 4)
    assert base_p_digits(1, 7) == (1,)
    assert base_p_digits(0, 7) == ()


@given(st.integers(0, 10**6), st.sampled_from(SMALL_PRIMES))
def test_base_p_digits_reconstruct(k, p):
    digits = base_p_digits(k, p)
    assert sum(b * p**i for i, b in enumerate(digits)) == k
    assert all(0 <= b < p for b in digits)
    assert not digits or digits[-1] != 0


def test_base_p_digits_rejects_composite_base():
    with pytest.raises(ValueError):
        base_p_digits(10, 6)
    with pytest.raises(ValueError, match="nonnegative"):
        base_p_digits(-1, 3)


def test_decompose_examples():
    dec = decompose_k(8, 3, 1)
    assert (dec.beta, dec.d, dec.m_prime) == (1, 2, 1)
    assert dec.residual == 6
    dec = decompose_k(24, 5, 1)
    assert (dec.beta, dec.d, dec.m_prime) == (1, 4, 1)
    dec = decompose_k(5, 11, 1)
    assert (dec.beta, dec.d, dec.m_prime) == (0, 5, 1)
    assert dec.m_prime_divides_m


def test_decompose_builds_a_frozen_dataclass():
    dec = decompose_k(8, 3, 1)
    built = KDecomposition(8, 3, 1, beta=1, d=2, m_prime=1)
    assert dec == built and hash(dec) == hash(built) and repr(dec) == repr(built)
    assert repr(dec) == "KDecomposition(k=8, p=3, m=1, beta=1, d=2, m_prime=1)"
    assert dec != KDecomposition(8, 3, 1, 1, 2, 2)
    with pytest.raises(FrozenInstanceError):
        dec.beta = 0
    assert dec.beta == 1


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose_k(0, 3, 1)
    with pytest.raises(ValueError):
        decompose_k(5, 4, 1)
    with pytest.raises(ValueError):
        decompose_k(5, 3, 6)  # m divisible by p


@given(st.integers(1, 10**5), st.sampled_from(SMALL_PRIMES))
def test_decompose_reconstructs_residual(k, p):
    dec = decompose_k(k, p, 1)
    assert dec.p**dec.beta * dec.d * dec.m_prime == dec.residual
    assert dec.residual % dec.d == 0
    assert dec.m_prime % p != 0


def test_digit_pattern_examples():
    assert digit_pattern_check(decompose_k(8, 3, 1)) is True
    assert digit_pattern_check(decompose_k(24, 5, 1)) is True


def test_digit_pattern_small_sweep():
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 3000):
            assert digit_pattern_check(decompose_k(k, p, 1)), (k, p)


@given(st.integers(1, 10**6), st.sampled_from(SMALL_PRIMES))
def test_digit_pattern_agrees_with_the_digit_tuple(k, p):
    dec = decompose_k(k, p, 1)
    assert digit_pattern_check(dec) is digit_pattern_by_digits(dec) is True


def _hand_built(k, p, beta):
    return KDecomposition(k, p, 1, beta, 1, 1)


@st.composite
def hand_built_decompositions(draw):
    """k from up to eight drawn base-p digits, and any beta up to three past
    k's digit count, so both ways the pattern fails come up often."""
    p = draw(st.sampled_from(SMALL_PRIMES[:6]))
    digits = draw(st.lists(st.integers(0, p - 1), max_size=8))
    beta = draw(st.integers(0, len(digits) + 3))
    return _hand_built(sum(b * p**i for i, b in enumerate(digits)), p, beta)


@given(hand_built_decompositions())
def test_digit_pattern_agrees_on_hand_built_decompositions(dec):
    assert digit_pattern_check(dec) is digit_pattern_by_digits(dec)


def test_digit_pattern_hand_built_shapes():
    cases = [
        ((4, 3, 5), True),  # 4 = (1, 1) in base 3: beta past the digits, all of them agree
        ((5, 3, 5), False),  # 5 = (2, 1): beta past the digits, which disagree
        ((0, 3, 2), True),  # no digits at all
        ((5, 3, 1), False),  # low digits b_0 = 2, b_1 = 1 disagree
        ((8, 3, 0), False),  # 8 = (2, 2): digit beta + 1 equals digit beta
        ((26, 3, 1), False),  # 26 = (2, 2, 2)
        ((26, 3, 2), True),
    ]
    for (k, p, beta), expected in cases:
        dec = _hand_built(k, p, beta)
        assert digit_pattern_check(dec) is digit_pattern_by_digits(dec) is expected, dec


def test_stratify_z9():
    profile = stratify(trivial_certificate(8), 3)
    assert profile.alpha == 2
    assert profile.g_counts == (1, 2, 6)
    assert profile.s_counts == (0, 0, 1)


def test_stratify_z11():
    cert = trivial_certificate(5, "order_2k_plus_1")
    profile = stratify(cert, 11)
    assert profile.g_counts == (1, 10)
    assert profile.s_counts == (0, 2)


def test_stratify_z25():
    profile = stratify(trivial_certificate(24), 5)
    assert profile.g_counts == (1, 4, 20)
    assert profile.s_counts == (0, 0, 1)


def test_stratify_counts_sum():
    cert = trivial_certificate(12, "order_2k_plus_1")
    profile = stratify(cert, 5)
    assert sum(profile.g_counts) == cert.group.order
    assert sum(profile.s_counts) == len(cert.splitters)


def test_stratify_rejects_non_divisor():
    with pytest.raises(ValueError):
        stratify(trivial_certificate(8), 5)
    with pytest.raises(ValueError, match="not prime"):
        stratify(trivial_certificate(8), 9)


def test_stratify_rejects_non_cyclic_group():
    cert = make_certificate(FiniteAbelianGroup((2, 3)), MultiplierSet.interval(5), [(1, 1)])
    with pytest.raises(ValueError):
        stratify(cert, 2)


def test_stratify_matches_closed_form_on_cyclic_groups():
    # the library counts in closed form, the oracle walks every element;
    # S = Z_N minus 0 splits Z_N by M = {1}, so the splitter counts cover
    # every stratum too
    certs = [trivial_certificate(k, which) for k, which in [
        (8, "order_k_plus_1"), (24, "order_k_plus_1"),
        (12, "order_2k_plus_1"), (40, "order_2k_plus_1"),
    ]]
    for n in range(2, 201):
        certs.append(make_certificate(Z(n), MultiplierSet((1,)),
                                      [(s,) for s in range(1, n)]))
    for cert in certs:
        for p, _ in cert.group.order_factorization:
            assert stratify(cert, p) == stratify_by_enumeration(cert, p), (cert.group, p)


def test_counting_witness_worked_instances():
    # Z_25, k = 8: c_0 = 8 - 1 = 7 and |G_2| = 20, so |S_2| = 20/7
    assert counting_witness(8, 25, ((5, 2),)) == (5, 2)
    assert counting_witness(5, 16, ((2, 4),)) == (2, 4)  # |S_4| = 8/3
    # Z_36, k = 5: p = 2 passes; at p = 3, |S_2| = 24/4 = 6 and |S_1| = (8 - 6)/4
    assert counting_witness(5, 36, ((2, 2), (3, 2))) == (3, 1)
    # Z_49, k = 8: |S_2| = 42/7 = 6, |S_1| = (6 - 6)/7 = 0 and |S_0| = 0/8
    assert counting_witness(8, 49, ((7, 2),)) is None
    with pytest.raises(ValueError, match="k must be"):
        counting_witness(0, 25, ((5, 2),))


def test_counting_witness_matches_fraction_oracle():
    # every scan candidate with N <= 200, against the whole system solved
    # in Fractions from walked element and multiplier counts
    checked = refuted = 0
    for k in range(1, 200):
        for c in purely_singular_candidates(k, 199 // k):
            witness = counting_witness(k, c.order, c.smoothness_witness)
            assert witness == counting_witness_by_fractions(k, c.order), (k, c.order)
            checked += 1
            refuted += witness is not None
    assert (checked, refuted) == (314, 83)


def test_counting_witness_refutes_only_orders_without_splittings():
    refuted = 0
    for order in range(2, 41):
        for k in range(1, order):
            if (order - 1) % k == 0 and counting_witness(k, order, factorize(order)):
                assert not naive_splitting_exists(order, k), (order, k)
                refuted += 1
    assert refuted == 18


def test_counting_witness_never_refutes_a_trivial_order():
    for k in range(1, 301):
        for order in (k + 1, 2 * k + 1):
            assert counting_witness(k, order, factorize(order)) is None, (k, order)


def test_counting_identity_worked_instances():
    assert check_counting_identity(trivial_certificate(8), 3, 2) is True
    cert25 = trivial_certificate(24)
    assert check_counting_identity(cert25, 5, 1) is True
    assert check_counting_identity(cert25, 5, 2) is True
    cert11 = trivial_certificate(5, "order_2k_plus_1")
    assert check_counting_identity(cert11, 11, 1) is True


def test_counting_identity_all_strata_all_primes():
    for k, which in [(8, "order_k_plus_1"), (12, "order_2k_plus_1"), (24, "order_k_plus_1")]:
        cert = trivial_certificate(k, which)
        for p, alpha in cert.group.order_factorization:
            for i in range(1, alpha + 1):
                assert check_counting_identity(cert, p, i), (k, which, p, i)


def test_counting_identity_explicit_multipliers():
    cert = make_certificate(Z(9), MultiplierSet((1, 2)), [(1,), (3,), (4,), (7,)])
    for i in (1, 2):
        assert check_counting_identity(cert, 3, i)


def test_counting_identity_agrees_with_per_stratum_valuations():
    # in Z_45, alpha = 2 at p = 3, and the multiplier 27 (or 72, or -18)
    # has 3-valuation 3: above alpha, so it counts in no stratum
    cert45 = trivial_certificate(44)
    certs = [cert45, trivial_certificate(24), trivial_certificate(13, "order_2k_plus_1")]
    for twin in (72, -18):
        values = [twin if v == 27 else v for v in cert45.multipliers.values]
        certs.append(make_certificate(Z(45), MultiplierSet(tuple(sorted(values))), [(1,)]))
    certs.append(make_certificate(Z(9), MultiplierSet((1, 2)), [(1,), (3,), (4,), (7,)]))
    checked = 0
    for cert in certs:
        for p, alpha in cert.group.order_factorization:
            for i in range(1, alpha + 1):
                assert check_counting_identity(cert, p, i) is counting_identity_by_valuations(
                    cert, p, i
                ), (cert.group, cert.multipliers.values, p, i)
                checked += 1
    assert checked == 16


def test_counting_identity_refuses_a_zero_residue(monkeypatch):
    # a verified certificate has no multiplier divisible by the group order,
    # so the check sees one only when verification is bypassed
    monkeypatch.setattr(splitting, "_check_products", lambda *args: VerificationReport())
    cert = splitting.SplittingCertificate(Z(9), MultiplierSet((1, 18)), ((1,), (2,)))
    for check in (check_counting_identity, counting_identity_by_valuations):
        with pytest.raises(ValueError, match="got 0"):
            check(cert, 3, 1)


def test_counting_identities_match_the_per_stratum_check(monkeypatch):
    # a certificate made with verification bypassed fails some identities:
    # in Z_27, M = {1, 3} and S = {1, 9} reach one element of stratum 3, not 18
    certs = [trivial_certificate(k, which)
             for k in range(1, 41) for which in ("order_k_plus_1", "order_2k_plus_1")]
    monkeypatch.setattr(splitting, "_check_products", lambda *args: VerificationReport())
    certs.append(splitting.SplittingCertificate(Z(27), MultiplierSet((1, 3)), ((1,), (9,))))
    failing = 0
    for cert in certs:
        for p, alpha in cert.group.order_factorization:
            profile, holds = counting_identities(cert, p)
            assert profile == stratify(cert, p)
            assert holds == tuple(check_counting_identity(cert, p, i) for i in range(1, alpha + 1))
            failing += not all(holds)
    assert failing == 1
    zero = splitting.SplittingCertificate(Z(9), MultiplierSet((1, 18)), ((1,), (2,)))
    with pytest.raises(ValueError, match="got 0"):
        counting_identities(zero, 3)


def _counted_at_least(values, n, p, alpha):
    """#{v : p**t divides v mod n} for t = 0..alpha, one value at a time."""
    return tuple(sum(1 for v in values if v % n % p**t == 0) for t in range(alpha + 1))


def _assert_every_stratum_holds(profile, at_least):
    for i in range(profile.alpha + 1):
        assert counting._shortfall(profile.g_counts, list(at_least), profile.s_counts, i) == 0, (
            profile, at_least, i)


def test_real_splittings_satisfy_every_stratum_equation():
    # the sieve's equations, stratum 0 included, with the multipliers counted
    for k in range(1, 201):
        for which in ("order_k_plus_1", "order_2k_plus_1"):
            cert = trivial_certificate(k, which)
            for p, alpha in cert.group.order_factorization:
                at_least = _counted_at_least(cert.multipliers.values, cert.group.modulus, p, alpha)
                assert at_least == tuple(k // p**t for t in range(alpha + 1))  # the sieve's
                _assert_every_stratum_holds(stratify(cert, p), at_least)
    # every |M| = 2 splitting of Z_25 and Z_27: the equations read only the
    # counted multipliers and the splitters' profile, so each distinct pair
    # of those is checked once
    for n, p, alpha, total in ((25, 5, 2, 43200), (27, 3, 3, 76464)):
        counted, profiles, systems = {}, {}, set()
        certs = enumerate_all_splittings(n, 2)
        for cert in certs:
            m, s = cert.multipliers.values, cert.splitters
            if m not in counted:
                counted[m] = _counted_at_least(m, n, p, alpha)
            if s not in profiles:
                profiles[s] = stratify(cert, p)
            systems.add((counted[m], profiles[s]))
        assert len(certs) == total
        for at_least, profile in systems:
            _assert_every_stratum_holds(profile, at_least)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 60), st.data())
def test_counting_identities_agree_with_the_oracle_on_random_systems(n, data):
    # verification bypassed, so most strata fail; every one must agree
    values = data.draw(st.sets(st.integers(-3 * n, 3 * n).filter(n.__rmod__), min_size=1,
                               max_size=8))
    splitters = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitting, "_check_products", lambda *args: VerificationReport())
        cert = splitting.SplittingCertificate(
            Z(n), MultiplierSet(tuple(sorted(values))), tuple((s,) for s in sorted(splitters)))
    for p, alpha in cert.group.order_factorization:
        _, holds = counting_identities(cert, p)
        assert holds == tuple(counting_identity_by_valuations(cert, p, i)
                              for i in range(1, alpha + 1)), (n, values, splitters, p)


def test_counting_identity_stratum_range():
    with pytest.raises(ValueError):
        check_counting_identity(trivial_certificate(8), 3, 3)
    with pytest.raises(ValueError):
        check_counting_identity(trivial_certificate(8), 3, 0)


def test_abcde_example_k8():
    profile = abcde_profile(8, 3)
    assert (profile.card_a, profile.card_b, profile.card_c, profile.card_d) == (8, 2, 6, 6)
    assert profile.closed_form_d == 6
    assert profile.hypothesis_met
    assert profile.identity_ab_c and profile.identity_d_c and profile.closed_form_matches


def test_abcde_example_k24():
    profile = abcde_profile(24, 5)
    assert (profile.card_a, profile.card_b, profile.card_c, profile.card_d) == (24, 4, 20, 20)
    assert profile.closed_form_d == 20
    assert profile.hypothesis_met


def test_abcde_inconsistent_parameters_reported_not_asserted():
    # k=20, p=3: k - floor(k/p) = 14 is not divisible by 5, so the beta_1 = 1
    # hypothesis fails and the A = B + C identity genuinely breaks (16 != 17)
    profile = abcde_profile(20, 3, ((5, 1, 1),))
    assert not profile.hypothesis_met
    assert (profile.card_a, profile.card_b, profile.card_c) == (16, 5, 12)
    assert not profile.identity_ab_c


def test_abcde_enumeration_matches_inclusion_exclusion():
    for k, p, data in [
        (100, 3, ((5, 2, 1), (7, 1, 0))),
        (977, 7, ((11, 3, 2),)),
        (50, 2, ()),
        (1000, 2, tuple((q, 1, 1) for q in range(3, 128) if is_prime(q))),
    ]:
        profile = abcde_profile(k, p, data)
        qs = [q for q, _, b in data if b >= 1]
        t = k - k // p
        assert profile.card_a == coprime_count_by_enumeration(k, qs)
        assert profile.card_b == coprime_count_by_enumeration(k // p, qs)
        assert profile.card_c == coprime_count_by_enumeration(t, qs)
        assert profile.card_d == coprime_count_by_enumeration(k, [p] + qs)
        assert profile.card_e == coprime_count_by_enumeration(k, [p] + [q for q, _, _ in data])


def test_abcde_validation():
    with pytest.raises(ValueError):
        abcde_profile(8, 3, ((3, 1, 1),))  # prime not above p
    with pytest.raises(ValueError):
        abcde_profile(8, 3, ((5, 1, 2),))  # beta > alpha
    with pytest.raises(ValueError):
        abcde_profile(8, 4)
    with pytest.raises(ValueError, match="9 is not prime"):
        abcde_profile(8, 3, ((9, 1, 1),))


def test_abcde_identities_hold_whenever_hypothesis_met():
    checked = 0
    for p in (3, 5, 7):
        for k in range(1, 800):
            dec = decompose_k(k, p, 1)
            rest = dec.m_prime
            data = []
            for q in (5, 7, 11, 13):
                if q <= p:
                    continue
                e = 0
                while rest % q == 0:
                    rest //= q
                    e += 1
                if e:
                    data.append((q, e, e))
            if rest != 1:
                continue
            profile = abcde_profile(k, p, tuple(data))
            assert profile.hypothesis_met
            assert profile.identity_ab_c, (k, p, data)
            assert profile.identity_d_c, (k, p, data)
            assert profile.closed_form_matches, (k, p, data)
            checked += 1
    assert checked > 200


def test_unit_coset_size_both_branches():
    # below the full valuation: factor q**b; at it: q**(b-1) * (q-1)
    n = 5**2 * 7**2
    for h, expected in [(5 * 7, 35), (5**2 * 7, 20 * 7), (5 * 7**2, 5 * 42), (1, 1)]:
        assert unit_coset_intersection_size(n, h) == expected


def test_unit_coset_size_matches_enumeration():
    for n, h in [(5**2 * 7**2, 5 * 7), (5**3, 25), (5**2 * 11, 55), (7**2 * 11**2, 7 * 11**2)]:
        units = {r for r in range(1, n) if gcd(r, n) == 1}
        subgroup = range(0, n, n // h)
        formula = unit_coset_intersection_size(n, h)
        for s in sorted(units)[:6]:
            actual = sum(1 for x in subgroup if (s + x) % n in units)
            assert actual == formula, (n, h, s)


def test_unit_coset_size_validation():
    with pytest.raises(ValueError):
        unit_coset_intersection_size(10, 3)


def test_tw_z25():
    report = tw_disjointness_check(trivial_certificate(24))
    assert tw_passed(report)
    assert report.unit_splitters == (1,)
    assert report.w_sizes == (5,)
    assert report.tw_sizes == (20,)
    assert report.card_d == report.card_e == 20
    assert report.unit_count == 20
    assert report.r * report.card_e == report.unit_count


def test_tw_unit_count_is_totient():
    checked = 0
    for k in range(1, 300):
        for which in ("order_k_plus_1", "order_2k_plus_1"):
            cert = trivial_certificate(k, which)
            n = cert.group.modulus
            if n > 300 or gcd(n, 6) != 1 or cert.classification.tag != PURELY_SINGULAR:
                continue
            assert tw_disjointness_check(cert).unit_count == sympy.totient(n), (k, which)
            checked += 1
    assert checked > 50


def test_tw_z49():
    report = tw_disjointness_check(trivial_certificate(48))
    assert tw_passed(report)
    assert report.decomposition.d == 6
    assert report.w_sizes == (7,)
    assert report.tw_sizes == (42,)
    assert report.r * report.tw_sizes[0] == report.unit_count == 42


def test_tw_z25_two_unit_splitters():
    report = tw_disjointness_check(trivial_certificate(12, "order_2k_plus_1"))
    assert tw_passed(report)
    assert report.unit_splitters == (1, 24)
    assert report.tw_sizes == (10, 10)
    assert report.card_d == report.card_e == 10
    assert report.r * report.card_e == report.unit_count == 20


def test_tw_rejects_outside_hypothesis():
    with pytest.raises(ValueError):
        tw_disjointness_check(trivial_certificate(8))  # order 9 shares a factor with 6
    with pytest.raises(ValueError):
        tw_disjointness_check(trivial_certificate(2, "order_2k_plus_1"))  # nonsingular
    cert = make_certificate(Z(25), MultiplierSet(tuple(range(1, 25))), [(1,)])
    with pytest.raises(ValueError):
        tw_disjointness_check(cert)  # explicit multipliers
    with pytest.raises(ValueError):
        tw_disjointness_check(make_certificate(Z(1), MultiplierSet.interval(1), []))  # trivial group
