"""Executable counting checks for purely singular splittings by {1..k}.

Everything here turns one step of the nonexistence argument into an exact
finite computation over a given certificate or parameter set: base-p digit
patterns of k, the decomposition of k - floor(k/p), stratification of a
group by the p-valuation of element orders, the per-stratum counting
identities, the five interval cardinalities A..E, and the packing of
translated unit-splitter cosets inside the unit group. The stratum
equations are written once, in _shortfall: counting_identities evaluates
them on a certificate's counts (check strata), and counting_witness solves
them from (k, N) alone, with no certificate (the scan's counting sieve).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, prod
from operator import mul, sub

from .groups import factorize, is_prime, p_adic_valuation
from .record import Record
from .splitting import INTERVAL, PURELY_SINGULAR, SplittingCertificate


class KDecomposition(Record):
    """k - floor(k/p) written as p**beta * d * m_prime.

    beta is the exact p-valuation of the difference and d its gcd with
    p - 1, so m_prime is determined. m is carried along so callers can ask
    whether m_prime divides it; when it does not, no splitting with these
    parameters can exist, which is reported rather than raised.
    """

    __slots__ = ("k", "p", "m", "beta", "d", "m_prime")

    @property
    def residual(self) -> int:
        return self.k - self.k // self.p

    @property
    def m_prime_divides_m(self) -> bool:
        return self.m % self.m_prime == 0


def decompose_k(k: int, p: int, m: int) -> KDecomposition:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1 or m % p == 0:
        raise ValueError(f"m must be positive and coprime to {p}, got {m}")
    r, beta = k - k // p, 0
    while not r % p:  # k - k // p >= 1, so this ends
        r //= p
        beta += 1
    d = gcd(r, p - 1)  # p**beta is prime to p - 1, so this is gcd(k - k // p, p - 1)
    return KDecomposition(k, p, m, beta, d, r // d)


def digit_pattern_check(dec: KDecomposition) -> bool:
    """Digits b_0..b_beta of k in base p all agree, and the next digit
    differs whenever it exists. Holds for every (k, p); a False is a bug.

    Read off the number: with q = p**(beta + 1) and b = k mod p, the low
    digits agree exactly when k mod q == b * (q - 1) / (p - 1), and digit
    beta + 1 is floor(k / q) mod p. When k has fewer than beta + 1 digits,
    which decompose_k never gives, only the digits k has must agree, so q
    drops to the least power of p above k.
    """
    k, p = dec.k, dec.p
    q = p ** (dec.beta + 1)
    if k < q:
        q = p
        while q <= k:
            q *= p
    b = k % p
    return k % q == b * (q - 1) // (p - 1) and (k < q or k // q % p != b)


class StratificationProfile(Record):
    """Element and splitter counts by exact p-valuation of element order."""

    __slots__ = ("p", "alpha", "g_counts", "s_counts")


def stratum_sizes(order: int, p: int) -> tuple[int, ...]:
    """|G_0|, ..., |G_alpha| for Z_order with order = p**alpha * m, p not dividing m.

    Stratum i holds the elements whose order has p-valuation i. The
    elements of order prime to p form the subgroup of order m, so
    |G_0| = m and |G_i| = m * (p**i - p**(i-1)).
    """
    alpha = p_adic_valuation(order, p)
    m = order // p**alpha
    return (m,) + tuple(m * (p**i - p ** (i - 1)) for i in range(1, alpha + 1))


def stratify(cert: SplittingCertificate, p: int) -> StratificationProfile:
    """Count group elements (by stratum_sizes) and splitters stratum by
    stratum. A group not in cyclic form raises ValueError."""
    G = cert.group
    n = G.modulus
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n % p != 0:
        raise ValueError(f"{p} does not divide the group order {n}")
    g_counts = stratum_sizes(n, p)
    alpha = len(g_counts) - 1
    s_counts = [0] * (alpha + 1)
    for s in cert.splitters:
        s_counts[p_adic_valuation(G.element_order(s), p)] += 1
    return StratificationProfile(p, alpha, g_counts, tuple(s_counts))


def _shortfall(sizes: Sequence[int], at_least: list[int], s_counts: Sequence[int], i: int) -> int:
    """What stratum i lacks: its nonzero elements less the products r*s
    that land in it, so 0 in every stratum of a splitting.

    sizes are |G_0|..|G_alpha|, at_least[t] = #{r in M : p**t divides r}
    for t = 0..alpha, and s_counts are |S_0|..|S_alpha|. A product r*s with
    s in stratum j lands in stratum j - v_p(r) when v_p(r) < j, else in
    stratum 0. So stratum i >= 1 gets

        sum over j >= i of (at_least[j-i] - at_least[j-i+1]) * |S_j|

    of its |G_i| elements, and stratum 0 gets sum over j of
    at_least[j] * |S_j| of its |G_0| - 1 nonzero ones.
    """
    if i:
        return sizes[i] - sum(map(mul, map(sub, at_least, at_least[1:]), s_counts[i:]))
    return sizes[0] - 1 - sum(map(mul, at_least, s_counts))


def counting_witness(
    k: int, order: int, factorization: tuple[tuple[int, int], ...]
) -> tuple[int, int] | None:
    """The first (p, i) at which the stratum equations refute a splitting
    of Z_order by {1..k}, or None when none does.

    Per prime power p**alpha of the factorization, ascending, the unknowns
    are |S_0|..|S_alpha| and at_least[t] = k // p**t. Stratum i's equation
    (_shortfall == 0) holds |S_i| with the coefficient k - k // p, or k
    when i = 0, and no |S_j| with j < i, so the strata are solved top down
    from alpha to 0. A count that is negative or not an integer proves
    that no splitter set exists, and (p, i) names it. None proves nothing.
    k < 1 raises ValueError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for p, alpha in factorization:
        sizes = stratum_sizes(order, p)
        at_least = [k // p**t for t in range(alpha + 1)]
        s_counts, step = [0] * (alpha + 1), k - at_least[1]
        for i in range(alpha, -1, -1):
            rest, coefficient = _shortfall(sizes, at_least, s_counts, i), step if i else k
            if rest < 0 or rest % coefficient:
                return p, i
            s_counts[i] = rest // coefficient
    return None


def counting_identities(
    cert: SplittingCertificate, p: int
) -> tuple[StratificationProfile, tuple[bool, ...]]:
    """stratify(cert, p), and whether stratum i's equation (_shortfall == 0)
    holds for i = 1..alpha, with at_least counted from the multiplier
    values. For t <= alpha, p**t divides v exactly when it divides v mod n,
    so explicit multiplier sets work as well as {1..k}; a value with
    v mod n = 0 raises ValueError, and a verified certificate has none."""
    profile = stratify(cert, p)
    n, values, alpha = cert.group.modulus, cert.multipliers.values, profile.alpha
    if not all(map(n.__rmod__, values)):
        raise ValueError("valuation needs a positive integer, got 0")
    at_least = [len(values)]  # and then #{v : p**t divides v} for t = 1..alpha
    at_least += [list(map((p**t).__rmod__, values)).count(0) for t in range(1, alpha + 1)]
    sizes, s_counts = profile.g_counts, profile.s_counts
    return profile, tuple(not _shortfall(sizes, at_least, s_counts, i) for i in range(1, alpha + 1))


def check_counting_identity(cert: SplittingCertificate, p: int, i: int) -> bool:
    """Whether stratum i's equation holds: counting_identities(cert, p) at
    stratum i, for 1 <= i <= alpha; any other i raises ValueError."""
    profile, holds = counting_identities(cert, p)
    if not 1 <= i <= profile.alpha:
        raise ValueError(f"stratum index {i} outside 1..{profile.alpha}")
    return holds[i - 1]


class AbcdeProfile(Record):
    """Cardinalities of the five interval subsets attached to (k, p, primes).

    abcde_profile's prime_data rows are (q, alpha_q, beta_q): q a prime
    above p, alpha_q its exponent in the coprime part of the group order,
    beta_q its exponent in m_prime (0 when q does not divide m_prime).
    Counting is by inclusion-exclusion over the primes. The two identities
    and the closed form are guaranteed only when hypothesis_met, i.e. when
    k - floor(k/p) factors exactly as p**beta * d * prod(q**beta_q).
    """

    __slots__ = ("k", "p", "card_a", "card_b", "card_c", "card_d", "card_e", "closed_form_d",
                 "hypothesis_met")

    @property
    def identity_ab_c(self) -> bool:
        return self.card_a == self.card_b + self.card_c

    @property
    def identity_d_c(self) -> bool:
        return self.card_d == self.card_c

    @property
    def closed_form_matches(self) -> bool:
        return self.card_d == self.closed_form_d


def _coprime_count(limit: int, primes: list[int]) -> int:
    """#{x in [1, limit] : no q in primes divides x}, by inclusion-exclusion
    over the distinct primes.

    The subsets are walked depth-first in increasing order of their primes,
    and a branch stops once its product exceeds limit, since every term
    below it is 0. So the walk visits only products up to limit, however
    many primes are given.
    """
    ordered = sorted(set(primes))

    def terms(start: int, product: int, sign: int) -> int:
        total = sign * (limit // product)
        for i in range(start, len(ordered)):
            extended = product * ordered[i]
            if extended > limit:
                break
            total += terms(i + 1, extended, -sign)
        return total

    return terms(0, 1, 1)


def abcde_profile(
    k: int, p: int, prime_data: tuple[tuple[int, int, int], ...] = ()
) -> AbcdeProfile:
    dec = decompose_k(k, p, 1)
    data = tuple((int(q), int(a), int(b)) for q, a, b in prime_data)
    previous = p
    for q, a, b in data:
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        if q <= previous:
            raise ValueError("primes must be strictly increasing and exceed p")
        if not 0 <= b <= a or a < 1:
            raise ValueError(f"need 1 <= alpha and 0 <= beta <= alpha for prime {q}")
        previous = q
    m_prime_primes = [(q, b) for q, _, b in data if b >= 1]
    qs = [q for q, _ in m_prime_primes]
    card_a = _coprime_count(k, qs)
    card_b = _coprime_count(k // p, qs)
    card_c = _coprime_count(dec.residual, qs)
    card_d = _coprime_count(k, [p] + qs)
    card_e = _coprime_count(k, [p] + [q for q, _, _ in data])
    closed = p**dec.beta * dec.d * prod(q ** (b - 1) * (q - 1) for q, b in m_prime_primes)
    hypothesis = dec.m_prime == prod(q**b for q, b in m_prime_primes)
    return AbcdeProfile(k, p, card_a, card_b, card_c, card_d, card_e, closed, hypothesis)


def unit_coset_intersection_size(n: int, subgroup_order: int) -> int:
    """|(s + H) ∩ units(Z_n)| for any unit s, H the subgroup of order h | n.

    Exact by CRT: per prime q with q**b exactly dividing h, the coset
    contributes a factor q**b when b < val_q(n) (no member can be divisible
    by q) and q**(b-1) * (q-1) when b = val_q(n) (members run over all
    residues mod q**b).
    """
    if n < 1 or subgroup_order < 1 or n % subgroup_order != 0:
        raise ValueError(f"subgroup order {subgroup_order} must divide {n}")
    size = 1
    for q, b in factorize(subgroup_order):
        if b < p_adic_valuation(n, q):
            size *= q**b
        else:
            size *= q ** (b - 1) * (q - 1)
    return size


class TwReport(Record):
    """Packing of scaled unit-splitter cosets inside the unit group.

    For each unit splitter s_i, w_i is (s_i + H) ∩ units with H the unique
    subgroup of order p**beta * m_prime, and tw_i scales w_i by every
    factor in [1, d]. For a genuine certificate the tw_i are pairwise
    disjoint unit subsets and the chain |TW_i| = |D| = |E| with
    r * |E| = phi(N) is forced to hold with equality throughout.
    """

    __slots__ = ("p", "k", "decomposition", "hypothesis_ok", "unit_splitters", "w_sizes",
                 "w_size_formula", "tw_sizes", "pairwise_disjoint", "within_units", "card_d",
                 "card_e", "unit_count")

    @property
    def r(self) -> int:
        return len(self.unit_splitters)

    @property
    def scaling_consistent(self) -> bool:
        return all(tw == self.decomposition.d * w for tw, w in zip(self.tw_sizes, self.w_sizes))

    @property
    def formula_consistent(self) -> bool:
        return all(w == self.w_size_formula for w in self.w_sizes)

    @property
    def equality_chain(self) -> bool:
        return (
            all(tw == self.card_d for tw in self.tw_sizes)
            and self.card_d == self.card_e
            and self.r * self.card_e == self.unit_count
        )


def tw_disjointness_check(cert: SplittingCertificate) -> TwReport:
    """Run the coset-packing check on a purely singular interval certificate.

    Requires a nontrivial cyclic group of order coprime to 6 and
    multipliers {1..k}; anything else is rejected. p is the smallest prime
    divisor of the order. When m_prime fails to divide m or beta reaches
    alpha the hypothesis cannot be met and the report says so instead of
    raising.
    """
    G = cert.group
    n = G.modulus
    if gcd(n, 6) != 1:
        raise ValueError(f"group order {n} is not coprime to 6")
    if n == 1:
        raise ValueError("the trivial group has no prime divisor")
    if cert.classification.tag != PURELY_SINGULAR:
        raise ValueError("certificate is not purely singular")
    if cert.multipliers.kind != INTERVAL:
        raise ValueError("multiplier set must be an interval {1..k}")
    k = len(cert.multipliers)
    p, alpha = G.order_factorization[0]
    m = n // p**alpha
    dec = decompose_k(k, p, m)
    hypothesis_ok = dec.m_prime_divides_m and dec.beta <= alpha - 1

    units = {r for r in range(1, n) if gcd(r, n) == 1}
    unit_splitters = tuple(s[0] for s in cert.splitters if s[0] in units)
    card_e = _coprime_count(k, [q for q, _ in G.order_factorization])
    if not hypothesis_ok:
        return TwReport(
            p, k, dec, False, unit_splitters,
            (), 0, (), False, False, 0, card_e, len(units),
        )

    subgroup_order = p**dec.beta * dec.m_prime
    subgroup = range(0, n, n // subgroup_order)
    w_sets = [
        frozenset(v for x in subgroup if (v := (s + x) % n) in units)
        for s in unit_splitters
    ]
    scales = range(1, dec.d + 1)
    tw_sets = [frozenset(t * w % n for t in scales for w in ws) for ws in w_sets]

    pairwise = all(
        not (tw_sets[i] & tw_sets[j])
        for i in range(len(tw_sets))
        for j in range(i + 1, len(tw_sets))
    )
    within = all(tw <= units for tw in tw_sets)
    card_d = _coprime_count(k, [p] + [q for q, _ in factorize(dec.m_prime)])
    return TwReport(
        p, k, dec, True, unit_splitters,
        tuple(len(w) for w in w_sets),
        unit_coset_intersection_size(n, subgroup_order),
        tuple(len(tw) for tw in tw_sets),
        pairwise, within, card_d, card_e, len(units),
    )
