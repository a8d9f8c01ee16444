"""Acceptance suite: one test per release criterion.

Each test prints a single machine-grepable ACCEPTANCE line. The desk-scale
scan is computed once per session (conftest fixture) and shared by the
criteria that consume its certificates.
"""

import hashlib
import os
import time
from contextlib import contextmanager
from math import gcd

from helpers import (
    DESK_SCAN_SHA256,
    factor_with_sieve,
    naive_splitting_exists,
    smallest_prime_factor_sieve,
    tw_passed,
)

from abelsplit import certio
from abelsplit.counting import (
    abcde_profile,
    check_counting_identity,
    decompose_k,
    digit_pattern_check,
    tw_disjointness_check,
)
from abelsplit.groups import FiniteAbelianGroup, is_prime, p_adic_valuation
from abelsplit.scan import check_k_ge_n, check_k_le_n_minus_2, overall_verdict, scan
from abelsplit.search import EXHAUSTED, FOUND, enumerate_all_splittings, search_splitter
from abelsplit.splitting import (
    ORDER_2K_PLUS_1,
    ORDER_K_PLUS_1,
    MultiplierSet,
    make_certificate,
    s87_property_check,
    trivial_certificate,
    verify_splitting,
)
from abelsplit.tiling import (
    LatticeHom,
    export_translates,
    lattice_from_splitting,
    semi_cross,
    verify_lattice_tiling,
)

Z = FiniteAbelianGroup.cyclic


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def _found_certificates(report):
    out = []
    for record in report.records:
        if record.outcome.result == FOUND:
            assert record.certificate is not None
            out.append(record)
    return out


def test_conjecture_scan_desk_scale(desk_scan_run):
    desk_scan, seconds = desk_scan_run
    with criterion("conjecture-scan-desk-scale"):
        assert desk_scan.k_min == 1 and desk_scan.k_max == 30
        assert seconds < 600
        assert desk_scan.totals["CONJECTURE_VIOLATION"] == 0
        assert desk_scan.totals["inconclusive"] == 0
        for record in desk_scan.records:
            k, order = record.candidate.k, record.candidate.order
            if order in (k + 1, 2 * k + 1):
                assert record.outcome.result == FOUND, (k, order)
            else:
                assert record.outcome.result == EXHAUSTED, (k, order)
        assert overall_verdict(desk_scan.totals) == "consistent"


def test_desk_scan_report_is_pinned(desk_scan):
    # The canonical report bytes and node totals of the desk scan. A change
    # to the proof routes, the search order or the node definition must
    # update these together with a format_version bump.
    text = certio.dumps_document(certio.scan_report_to_doc(desk_scan))
    assert hashlib.sha256(text.encode()).hexdigest() == DESK_SCAN_SHA256
    assert sum(r.outcome.stats.nodes for r in desk_scan.records) == 573
    assert max(r.outcome.stats.max_depth for r in desk_scan.records) == 6


def test_named_nonexistence_instances():
    with criterion("named-nonexistence-instances"):
        t0 = time.monotonic()
        out10 = search_splitter(Z(10), MultiplierSet.interval(3))
        assert out10.result == EXHAUSTED
        assert time.monotonic() - t0 < 5.0
        t0 = time.monotonic()
        out105 = search_splitter(Z(105), MultiplierSet.interval(8))
        assert out105.result == EXHAUSTED
        assert time.monotonic() - t0 < 5.0
        assert naive_splitting_exists(10, 3) is False


def test_trivial_certificates_to_1000():
    with criterion("trivial-certificates-k-1000"):
        t0 = time.monotonic()
        for k in range(1, 1001):
            a = trivial_certificate(k, ORDER_K_PLUS_1)
            b = trivial_certificate(k, ORDER_2K_PLUS_1)
            assert a.group.order == k + 1 and a.splitters == ((1,),)
            assert b.group.order == 2 * k + 1 and b.splitters == ((1,), (2 * k,))
        assert time.monotonic() - t0 < 60.0


def test_inequality_cross_checks(desk_scan):
    with criterion("inequality-cross-checks"):
        assert check_k_ge_n(desk_scan) is True
        assert check_k_le_n_minus_2(desk_scan) is True
        for record in desk_scan.records:
            if record.outcome.result == FOUND:
                assert record.candidate.n <= 2, record.candidate


def test_counting_identity_suite(desk_scan):
    with criterion("counting-identity-suite"):
        checked = 0
        for record in _found_certificates(desk_scan):
            cert = record.certificate
            k = record.candidate.k
            for p, alpha in cert.group.order_factorization:
                if p > k:
                    continue
                for i in range(1, alpha + 1):
                    assert check_counting_identity(cert, p, i), (record.candidate, p, i)
                    checked += 1
        assert checked > 0
        # the worked instances, pinned numerically
        cert9 = trivial_certificate(8)
        assert (8 - 8 // 3) * 1 == 6  # stratum-2 identity instance: 6 * 1 = 6
        assert check_counting_identity(cert9, 3, 2)
        cert25 = trivial_certificate(24)
        assert check_counting_identity(cert25, 5, 1)
        assert check_counting_identity(cert25, 5, 2)


def test_abcde_identity_sweep():
    with criterion("abcde-identity-sweep"):
        k_max, p_max, exp_max = 10**4, 97, 3
        t0 = time.monotonic()
        spf = smallest_prime_factor_sieve(k_max)
        primes = [p for p in range(2, p_max + 1) if is_prime(p)]
        instances = 0
        for p in primes:
            for k in range(1, k_max + 1):
                t = k - k // p
                beta = p_adic_valuation(t, p)
                d = gcd(t, p - 1)
                cofactor = t // (p**beta * d)
                fac = factor_with_sieve(cofactor, spf)
                # grid membership: at most two primes, each in (p, 97], exps <= 3
                if len(fac) > 2:
                    continue
                if any(q <= p or q > p_max or b > exp_max for q, b in fac):
                    continue
                profile = abcde_profile(k, p, tuple((q, b, b) for q, b in fac))
                assert profile.hypothesis_met
                assert profile.identity_ab_c, (k, p, fac)
                assert profile.identity_d_c, (k, p, fac)
                assert profile.closed_form_matches, (k, p, fac)
                instances += 1
        assert instances > 10_000
        assert time.monotonic() - t0 < 300.0


def test_digit_pattern_sweep():
    with criterion("digit-pattern-sweep"):
        for p in range(2, 101):
            if not is_prime(p):
                continue
            for k in range(1, 10**5 + 1):
                assert digit_pattern_check(decompose_k(k, p, 1)), (k, p)


def test_tw_packing_instances(desk_scan):
    with criterion("tw-packing-instances"):
        r25 = tw_disjointness_check(trivial_certificate(24))
        assert tw_passed(r25) and r25.tw_sizes == (20,)
        assert r25.r * r25.tw_sizes[0] == r25.unit_count == 20
        r49 = tw_disjointness_check(trivial_certificate(48))
        assert tw_passed(r49) and r49.tw_sizes == (42,)
        assert r49.r * r49.tw_sizes[0] == r49.unit_count == 42
        # every purely singular certificate the scan produced whose order is
        # coprime to 6 must pass as well
        covered = 0
        for record in _found_certificates(desk_scan):
            cert = record.certificate
            if gcd(cert.group.order, 6) != 1:
                continue
            if cert.classification.tag != "purely_singular":
                continue
            assert tw_passed(tw_disjointness_check(cert)), record.candidate
            covered += 1
        assert covered > 0


def test_tiling_round_trip(desk_scan):
    with criterion("tiling-round-trip"):
        for record in _found_certificates(desk_scan):
            cert = record.certificate
            n = len(cert.splitters)
            k = record.candidate.k
            if n > 6:
                continue
            hom, lattice = lattice_from_splitting(cert)
            assert lattice.index == n * k + 1
            shape = semi_cross(n, k)
            assert verify_lattice_tiling(shape, hom).verdict is True

            # single-splitter perturbations that break verification must
            # also fail the tiling check (perturbations that happen to give
            # another valid splitting are skipped)
            order = cert.group.order
            perturbed = 0
            for idx in range(n):
                for delta in range(1, order):
                    weights = [s[0] for s in cert.splitters]
                    weights[idx] = (weights[idx] + delta) % order
                    if weights[idx] == 0 or len(set(weights)) != n:
                        continue
                    if verify_splitting(
                        cert.group, cert.multipliers, [(w,) for w in weights]
                    ).is_valid:
                        continue
                    bad = LatticeHom(order, tuple(sorted(weights)))
                    assert verify_lattice_tiling(shape, bad).verdict is False
                    perturbed += 1
                    break
            # only Z_2 and Z_3 are too small to admit any invalid perturbation
            assert perturbed > 0 or order <= 3

        cert5 = make_certificate(Z(5), MultiplierSet.interval(2), [(1,), (4,)])
        hom5, lattice5 = lattice_from_splitting(cert5)
        translates = export_translates(lattice5, semi_cross(2, 2), [(0, 19), (0, 19)])
        covered = {
            cell
            for _, cells in translates
            for cell in cells
            if all(0 <= c <= 19 for c in cell)
        }
        assert len(covered) == 400  # exact cover of the 20x20 box


def test_coprimality_enumeration_9_27():
    # sha256 over (M, S, classification) of every order-27 certificate, in
    # the order enumerate_all_splittings returns them, size by size
    stream = hashlib.sha256()
    with criterion("coprimality-enumeration-9-27"):
        for order in (9, 27):
            sizes = [d for d in range(1, order) if (order - 1) % d == 0]
            for size in sizes:
                certs = enumerate_all_splittings(order, size)
                assert certs, (order, size)
                for cert in certs:
                    assert s87_property_check(cert), (
                        order, size, cert.multipliers.values, cert.splitters,
                    )
                    if order == 27:
                        c = cert.classification
                        key = (cert.multipliers.values, cert.splitters, c.tag, c.witnesses)
                        stream.update(repr(key).encode() + b"\n")
        assert stream.hexdigest() == (
            "05c0f81fcf9701af21ae597a843107f346ac92fe044a33b3aa87c5494e5559a6"
        )


def test_scan_determinism_serial_vs_parallel():
    with criterion("scan-determinism"):
        serial = scan(1, 12, jobs=1)
        parallel = scan(1, 12, jobs=os.cpu_count() or 2)
        serial_text = certio.dumps_document(certio.scan_report_to_doc(serial))
        parallel_text = certio.dumps_document(certio.scan_report_to_doc(parallel))
        assert serial_text == parallel_text

        # tabular export, millis excluded (wall-clock is diagnostic)
        def strip_millis(report):
            rows = certio.scan_report_table(report).splitlines()
            return [",".join(r.split(",")[:-1]) for r in rows]

        assert strip_millis(serial) == strip_millis(parallel)
