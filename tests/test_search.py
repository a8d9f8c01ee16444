import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from helpers import (
    all_splittings_by_subsets,
    candidate_order,
    eager_orbit_rows,
    naive_splitting_exists,
    natural_order_search,
    propagation_refutes_by_orbits,
    rows_by_lowest_bit,
    splits_by_doubling_cycles,
)

from abelsplit import certio, search
from abelsplit.counting import counting_witness
from abelsplit.groups import FiniteAbelianGroup
from abelsplit.scan import (
    INCONCLUSIVE,
    Propagation,
    decide,
    iter_candidates,
    purely_singular_candidates,
)
from abelsplit.search import (
    EXHAUSTED,
    FOUND,
    RESOURCE_LIMIT,
    _TIME_STRIDE,
    BudgetExceeded,
    SearchConfig,
    _Budget,
    _candidate_rows,
    _exact_covers,
    _row_source,
    enumerate_all_splittings,
    propagate,
    search_splitter,
)
from abelsplit.splitting import (
    MultiplierSet,
    canonical_splitters,
    classify_multipliers,
    verify_splitting,
)

Z = FiniteAbelianGroup.cyclic


def run(n, k, **kw):
    return search_splitter(Z(n), MultiplierSet.interval(k), SearchConfig(**kw))


def test_search_examples():
    out = run(5, 2)
    assert out.result == FOUND and out.splitters == (1, 4)
    assert run(10, 3).result == EXHAUSTED
    out = run(9, 8)
    assert out.result == FOUND and out.splitters == (1,)


def test_search_precondition():
    with pytest.raises(ValueError):
        run(10, 4)
    with pytest.raises(ValueError):
        search_splitter(FiniteAbelianGroup((2, 3)), MultiplierSet.interval(5))


def test_default_budgets():
    config = SearchConfig()
    assert config.node_limit == 10**8
    assert config.time_limit_s == 60.0


def test_search_trivial_group():
    out = run(1, 3)
    assert out.result == FOUND and out.splitters == ()


def test_orbit_rows_dirty_cases():
    budget = _Budget(SearchConfig(time_limit_s=None), 0.0)

    def rows(residues, n):  # in natural bits: bit x is residue x
        rows_at = _row_source(n, residues, range(n), budget)
        return dict(row for b in range(1, n) for row in rows_at(b))

    # hits zero: 2*5 = 0 mod 10
    assert 5 not in rows((1, 2, 3), 10)
    # repeats: 1*2 = 5*2 = 2 mod 8
    assert 2 not in rows((1, 5), 8)
    assert rows((1, 2), 5)[1] == 0b00110


def test_found_results_reverify():
    for n, k in [(5, 2), (9, 8), (13, 4), (25, 12), (31, 30), (37, 4)]:
        out = run(n, k)
        if out.result == FOUND:
            assert verify_splitting(
                Z(n), MultiplierSet.interval(k), [(s,) for s in out.splitters]
            ).is_valid


def test_search_is_deterministic():
    a = run(105, 8)
    b = run(105, 8)
    assert a.result == b.result == EXHAUSTED
    assert a.stats.nodes == b.stats.nodes
    assert a.stats.max_depth == b.stats.max_depth


def test_resource_limit_by_nodes():
    out = run(5, 2, node_limit=1)
    assert out.result == RESOURCE_LIMIT
    assert out.splitters is None
    assert out.stats.nodes == 1


def test_oracle_equivalence_up_to_40():
    for n in range(2, 41):
        for k in range(1, n):
            if (n - 1) % k != 0:
                continue
            engine = run(n, k).result
            assert engine in (FOUND, EXHAUSTED)
            assert (engine == FOUND) == naive_splitting_exists(n, k), (n, k)


def test_k_2_is_decided_for_every_odd_order_below_97():
    # the engine does not decide most odd orders from 97 on, so none is asserted
    for n in range(3, 97, 2):
        engine = run(n, 2).result
        assert engine in (FOUND, EXHAUSTED), n
        assert (engine == FOUND) == splits_by_doubling_cycles(n), n


def test_branch_order_keeps_every_scan_verdict():
    """Every candidate of scan(1, 20) gets the same verdict from the search
    with the branch order and 1 fixed in S as from the natural-order search,
    and every splitter set it finds holds 1."""
    decided = 0
    for k in range(1, 21):
        for cand in purely_singular_candidates(k, 2 * k):
            out = run(cand.order, k)
            oracle = natural_order_search(cand.order, k)
            assert out.result == (EXHAUSTED if oracle is None else FOUND), (k, cand.order)
            assert out.result != FOUND or 1 in out.splitters, (k, cand.order)
            decided += 1
    assert decided == 97


def test_explicit_multipliers_agree_with_enumeration():
    """Fixing 1 in S holds for any M: search finds a splitter set, holding 1,
    for exactly the multiplier sets enumerate_all_splittings pairs with one."""
    for n in (9, 13):
        for size in [d for d in range(1, n) if (n - 1) % d == 0]:
            with_splitting = {c.multipliers.values for c in enumerate_all_splittings(n, size)}
            for values in combinations(range(1, n), size):
                mult = MultiplierSet(values)
                out = search_splitter(Z(n), mult)
                assert (out.result == FOUND) == (values in with_splitting), (n, values)
                if out.result == FOUND:
                    assert 1 in out.splitters
                    assert verify_splitting(Z(n), mult, [(s,) for s in out.splitters]).is_valid


def test_deepest_strata_first_node_bound():
    # 1,055,708 nodes in the natural order with no rule fixing 1 in S
    out = run(1771, 30)
    assert out.result == EXHAUSTED
    assert out.stats.nodes <= 2_000


def test_time_limit_holds_during_setup():
    # the bit table of Z_17956 is more than _TIME_STRIDE units of work, so
    # the clock is read once it is built, before the first node
    t0 = time.monotonic()
    out = run(17956, 95, time_limit_s=0.0)
    assert out.result == RESOURCE_LIMIT
    assert out.stats.nodes == 0
    assert out.stats.reason == "time_limit"
    assert time.monotonic() - t0 < 2.0


def test_time_limit_holds_while_building_rows():
    # Z_3001's bit table is less than _TIME_STRIDE units of work, so only
    # the work of the orbit build can pass _TIME_STRIDE and stop the search
    # before the first node
    expired = _Budget(SearchConfig(time_limit_s=0.0), time.monotonic() - 1.0)
    rows_at = _candidate_rows(3001, range(1, 31), expired)
    with pytest.raises(BudgetExceeded, match="time_limit"):
        next(_exact_covers(3001, rows_at, expired))
    assert expired.nodes < _TIME_STRIDE


def test_time_limit_holds_in_the_cover_loop():
    # a node of Z_85849 may test hundreds of rows of 85,849 bits each, so
    # the clock is read by the rows pushed, not by the nodes placed
    t0 = time.monotonic()
    out = run(85849, 294, time_limit_s=2.0)
    assert out.result == RESOURCE_LIMIT
    assert out.stats.reason == "time_limit"
    assert out.stats.nodes > 0
    assert time.monotonic() - t0 < 2.5


@st.composite
def row_source_cases(draw):
    """n, 1..6 residues of 0..n-1 (zeros and repeats allowed) and a bit
    order: residue 0 at bit 0, the others shuffled."""
    n = draw(st.integers(2, 60))
    residues = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    order = [0] + draw(st.permutations(range(1, n)))
    return n, residues, order


@given(row_source_cases())
def test_row_source_matches_eager_rows(case):
    n, residues, order = case
    bit = [0] * n
    for i in range(1, n):
        bit[order[i]] = 1 << i
    eager = eager_orbit_rows(n, residues, bit)
    rows_at = _row_source(n, residues, order, _Budget(SearchConfig(time_limit_s=None), 0.0))
    for b in range(1, n):
        assert list(rows_at(b)) == rows_by_lowest_bit(eager)(b), b


def test_candidate_rows_match_eager_rows():
    """On every candidate of scan(1, 20), the search's rows at each bit are
    the eager rows with that lowest bit, deduplicated by orbit, and only
    s = 1 at the root bit."""
    budget = _Budget(SearchConfig(time_limit_s=None), 0.0)
    checked = 0
    for k in range(1, 21):
        for cand in purely_singular_candidates(k, 2 * k):
            n = cand.order
            residues = MultiplierSet.interval(k).residues(n)
            rest = sorted(range(2, n), key=lambda x: (-gcd(x, n), x))
            bit = [0] * n
            for i, x in enumerate([1] + rest, start=1):
                bit[x] = 1 << i
            seen, expected = set(), []
            for s, mask in eager_orbit_rows(n, residues, bit):
                if mask not in seen and (s == 1 or not mask & 2):
                    seen.add(mask)
                    expected.append((s, mask))
            rows_at = _candidate_rows(n, residues, budget)
            for b in range(1, n):
                assert list(rows_at(b)) == rows_by_lowest_bit(expected)(b), (k, n, b)
            checked += 1
    assert checked == 97


@st.composite
def cover_rows(draw):
    """n and (label, mask) rows over bits 1..n-1: distinct labels, nonempty
    masks, equal masks allowed. A planted partition of the bits, drawn about
    half the time, makes covers common; the rows come in a drawn order."""
    n = draw(st.integers(2, 9))
    masks = []
    if draw(st.booleans()):
        bits = draw(st.permutations(range(1, n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 2), max_size=n - 2))) if n > 2 else []
        masks = [sum(1 << b for b in bits[i:j]) for i, j in zip([0] + cuts, cuts + [n - 1])]
    masks += draw(st.lists(st.integers(1, (1 << (n - 1)) - 1).map(lambda m: m << 1),
                           min_size=0 if masks else 1, max_size=6))
    masks += draw(st.lists(st.sampled_from(masks), max_size=3))
    masks = draw(st.permutations(masks))
    labels = draw(st.lists(st.integers(0, 99), min_size=len(masks), max_size=len(masks),
                           unique=True))
    return n, list(zip(labels, masks))


@given(cover_rows())
# rows 1 and 6 hold the branch bit 2 and the lower bit 1; rows 0 and 5 have equal masks
@example((4, [(0, 0b0010), (1, 0b0110), (2, 0b1100), (3, 0b1000), (4, 0b0100),
              (5, 0b0010), (6, 0b0110)]))
def test_exact_covers_match_brute_force(case):
    n, rows = case
    full = (1 << n) - 2
    expected = Counter()
    for size in range(1, len(rows) + 1):
        for subset in combinations(rows, size):
            union = 0
            for _, mask in subset:
                if union & mask:
                    break
                union |= mask
            else:
                if union == full:
                    expected[tuple(sorted(label for label, _ in subset))] += 1
    budget = _Budget(SearchConfig(time_limit_s=None), 0.0)
    # labels are distinct, so each count in expected is 1
    assert Counter(_exact_covers(n, rows_by_lowest_bit(rows), budget)) == expected


def test_enumerate_examples_n3():
    certs = enumerate_all_splittings(3, 2)
    pairs = {(c.multipliers.values, tuple(s[0] for s in c.splitters)) for c in certs}
    assert ((1, 2), (1,)) in pairs
    assert ((1, 2), (2,)) in pairs


def test_enumerate_examples_n5():
    certs = enumerate_all_splittings(5, 4)
    pairs = {(c.multipliers.values, tuple(s[0] for s in c.splitters)) for c in certs}
    assert ((1, 2, 3, 4), (1,)) in pairs


def test_enumerate_n9_size8_exactly_unit_singletons():
    certs = enumerate_all_splittings(9, 8)
    assert all(c.multipliers.values == tuple(range(1, 9)) for c in certs)
    singletons = {c.splitters for c in certs}
    assert singletons == {((s,),) for s in (1, 2, 4, 5, 7, 8)}


def test_enumerate_output_is_sorted_and_verified():
    certs = enumerate_all_splittings(9, 2)
    keys = [(c.multipliers.values, c.splitters) for c in certs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for c in list(certs)[:10]:
        assert verify_splitting(c.group, c.multipliers, c.splitters).is_valid
    for c in certs:
        assert c.splitters == canonical_splitters(c.group, c.splitters)


def test_enumerate_reverifies_every_cover(monkeypatch):
    # a cover the engine got wrong must not become a certificate
    real = search._exact_covers

    def with_a_non_cover(n, rows_at, budget):
        yield (1, 2, 3, 4)  # 1*2 = 2*1, so M = {1, 2} meets 2 twice
        yield from real(n, rows_at, budget)

    monkeypatch.setattr(search, "_exact_covers", with_a_non_cover)
    with pytest.raises(ValueError, match="not a splitting"):
        enumerate_all_splittings(9, 2)


def test_enumerate_certification_spends_the_budget(monkeypatch):
    # the clock jumps past the deadline once certification starts, after the
    # cover loop has ended, and every later spend reads it: the batch must
    # stop before it returns a view
    real_batch, real_monotonic = search.SplittingCertificate.batch, time.monotonic
    calls = []

    def batch(*args):
        calls.append("started")
        view = real_batch(*args)
        calls.append("returned")
        return view

    monkeypatch.setattr(search.SplittingCertificate, "batch", batch)
    monkeypatch.setattr(search, "_TIME_STRIDE", 1)
    monkeypatch.setattr(search.time, "monotonic",
                        lambda: real_monotonic() + (1e6 if calls else 0.0))
    with pytest.raises(BudgetExceeded, match="time_limit"):
        enumerate_all_splittings(9, 2, SearchConfig(time_limit_s=60.0))
    assert calls == ["started"]


def test_enumerate_sides_agree():
    # every (M, S) of sizes (2, 4) transposes to an (S-as-M, M-as-S) splitting
    # of sizes (4, 2), so the two enumerations must mirror each other exactly
    size_2 = {
        (c.multipliers.values, c.splitters) for c in enumerate_all_splittings(9, 2)
    }
    transposed_4 = {
        (tuple(s[0] for s in c.splitters), tuple((v,) for v in c.multipliers.values))
        for c in enumerate_all_splittings(9, 4)
    }
    assert size_2 == transposed_4


def test_enumerate_shares_multiplier_sets():
    # |M| = 4 in Z_9 enumerates the splitter side; every certificate of one
    # multiplier set still shares one MultiplierSet, those of one splitter
    # set share one splitters tuple; a certificate is slotted, so it keeps no
    # instance dict, and its classification is computed on each read
    certs = enumerate_all_splittings(9, 4)
    assert len(certs) == 72
    assert len({c.multipliers.values for c in certs}) == 16
    assert len({id(c.multipliers) for c in certs}) == 16
    assert len({id(c.splitters) for c in certs}) == len({c.splitters for c in certs})
    assert not any(hasattr(c, "__dict__") for c in certs)
    assert all(c.classification == classify_multipliers(c.group, c.multipliers) for c in certs)


def _pairs(certs):
    return [(c.multipliers.values, tuple(s for (s,) in c.splitters)) for c in certs]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_enumerate_matches_brute_force(n):
    for size in [d for d in range(1, n) if (n - 1) % d == 0]:
        assert _pairs(enumerate_all_splittings(n, size)) == all_splittings_by_subsets(n, size)


@pytest.mark.parametrize("n", [15, 21])
def test_enumerate_off_prime_powers_matches_every_subset(n):
    # the engine on every fixed subset, no orbit shared, and the unit-orbit
    # lemma itself: covers(F) == covers(u*F) for every unit u
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    for size in [d for d in range(2, n - 1) if (n - 1) % d == 0]:
        n_splitters = (n - 1) // size
        fix_multipliers = comb(n - 1, size) <= comb(n - 1, n_splitters)
        covers = {}
        for fixed in combinations(range(1, n), size if fix_multipliers else n_splitters):
            budget = _Budget(SearchConfig(time_limit_s=None), 0.0)
            rows_at = _row_source(n, fixed, range(n), budget)
            covers[fixed] = sorted(_exact_covers(n, rows_at, budget))
        pairs = sorted(
            (fixed, cover) if fix_multipliers else (cover, fixed)
            for fixed, found in covers.items() for cover in found
        )
        assert _pairs(enumerate_all_splittings(n, size)) == pairs, (n, size)
        for fixed, found in covers.items():
            for u in units:
                assert covers[tuple(sorted(u * f % n for f in fixed))] == found, (fixed, u)


def test_enumeration_holds_pairs_not_certificates():
    # the 76,464 certificates of Z_27 with |M| = 2 are built on access from
    # 81 rows; a list of them held 6.5 million bytes
    enumerate_all_splittings(9, 2)  # module-level caches are not the result's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        certs = enumerate_all_splittings(27, 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(certs) == 76464
    assert held < 3_000_000


@pytest.mark.parametrize("size", [2, 13])
def test_enumerate_builds_rows_once_per_unit_orbit(monkeypatch, size):
    # the 325 two-element subsets of 1..26 fall into 23 orbits of the units
    # of Z_27; |M| = 2 fixes the multipliers, |M| = 13 the two splitters
    real, calls = search._row_source, []

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(search, "_row_source", counting)
    certs = enumerate_all_splittings(27, size)
    assert len(calls) == len(set(calls)) == 23
    assert len(certs) == 76464


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_all_splittings(27, 2, SearchConfig(node_limit=10))


def test_enumerate_node_limit_stops_at_the_first_subset(monkeypatch):
    # the first enumerated subset is the first node, so a limit of 1 ends the
    # enumeration before any rows are built for it
    def no_rows(*args):
        raise AssertionError("rows built past the node limit")

    monkeypatch.setattr(search, "_row_source", no_rows)
    with pytest.raises(BudgetExceeded, match="^node_limit$"):
        enumerate_all_splittings(27, 2, SearchConfig(node_limit=1))


@pytest.mark.parametrize("node_limit, time_limit_s", [
    (0, 60.0), (-1, None), (1, -0.5), (1, float("nan")), (1, float("-inf")),
])
def test_search_config_rejects_bad_budgets(node_limit, time_limit_s):
    with pytest.raises(ValueError):
        SearchConfig(node_limit, time_limit_s)


@pytest.mark.parametrize("node_limit, time_limit_s", [
    (True, 60.0), (5.0, 60.0), ("5", None), (5, True), (5, False), (5, Fraction(1, 2)),
])
def test_search_config_refuses_what_a_report_cannot_read_back(node_limit, time_limit_s):
    # a report writes a bool as true, which reads back as no int, and a
    # float node_limit as 5.0; it has no JSON form for a Fraction at all
    with pytest.raises(TypeError, match="^node_limit must be an int and time_limit_s an int, "):
        SearchConfig(node_limit, time_limit_s)


def test_search_config_accepts_its_edges():
    assert SearchConfig(node_limit=1, time_limit_s=None).time_limit_s is None
    assert SearchConfig(node_limit=1, time_limit_s=0.0).node_limit == 1
    assert SearchConfig(time_limit_s=float("inf")).time_limit_s is None  # JSON has no Infinity


def test_enumerate_preconditions():
    with pytest.raises(ValueError):
        enumerate_all_splittings(10, 4)
    with pytest.raises(ValueError):
        enumerate_all_splittings(1, 1)


def test_propagation_refutes_only_what_the_search_exhausts():
    # every survivor of the counting sieve at k <= 60: propagation refutes 52
    # of the 54, each by a certificate that certio's checker and the orbit
    # oracle accept, and the search exhausts each of them; it leaves the
    # (k+1)^2 family members (625, 24) and (2401, 48) to the search
    survivors = [c for c in iter_candidates(1, 60) if not c.trivial
                 and counting_witness(c.k, c.order, c.smoothness_witness) is None]
    left = []
    for c in survivors:
        steps, dead = propagate(c.order, c.k, SearchConfig(), time.monotonic())
        if dead is None:
            left.append((c.order, c.k))
            continue
        assert propagation_refutes_by_orbits(c.k, c.order, steps, dead), (c.order, c.k)
        certio.check_propagation(c.k, c.order, Propagation(steps, dead))
        outcome = search_splitter(Z(c.order), MultiplierSet.interval(c.k))
        assert outcome.result == EXHAUSTED, (c.order, c.k)
    assert len(survivors) == 54 and left == [(625, 24), (2401, 48)]


def test_propagation_spends_the_records_budget():
    # propagation on (2401, 48) probes 97 residues and forces nothing, with
    # work past _TIME_STRIDE, so it reads the clock; a search gets the time
    # that propagation left
    candidate = candidate_order(48, 50)
    with pytest.raises(BudgetExceeded, match="^time_limit$"):
        propagate(2401, 48, SearchConfig(time_limit_s=0), time.monotonic())
    assert propagate(2401, 48, SearchConfig(), time.monotonic()) == ((), None)
    record = decide(candidate, SearchConfig(time_limit_s=0), lambda left: pytest.fail("searched"))
    assert record.verdict == INCONCLUSIVE and record.outcome.result == RESOURCE_LIMIT
    stats = record.outcome.stats
    assert (stats.nodes, stats.rows, stats.reason) == (0, 0, "time_limit")
    given = []
    family = candidate_order(24, 26)  # (625, 24), which propagation leaves to the search
    for config in (SearchConfig(node_limit=7, time_limit_s=60.0),
                   SearchConfig(node_limit=7, time_limit_s=None)):
        decide(family, config, lambda left: given.append(left) or search_splitter(
            Z(625), MultiplierSet.interval(24), left))
    assert [config.node_limit for config in given] == [7, 7]
    assert 59.0 < given[0].time_limit_s <= 60.0 and given[1].time_limit_s is None
