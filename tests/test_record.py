"""The record contract, checked on every frozen record class of the library:
what each gets from abelsplit.record.Record."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from abelsplit.counting import abcde_profile, decompose_k, stratify, tw_disjointness_check
from abelsplit.groups import FiniteAbelianGroup
from abelsplit.record import Record, replace
from abelsplit.scan import CLOSED_FORM, PROPAGATION, CandidateOrder, scan
from abelsplit.search import SearchConfig, search_splitter
from abelsplit.splitting import (
    ORDER_2K_PLUS_1,
    MultiplierSet,
    SingularityClass,
    trivial_certificate,
    verify_splitting,
)
from abelsplit.tiling import (
    ErrorBallShape,
    TilingCertificate,
    lattice_from_splitting,
    verify_lattice_tiling,
)


def _samples():
    """One record of each class, built the way the library builds it, with
    the fields its repr lists, in order."""
    report = scan(1, 8)
    closed = next(r for r in report.records if r.route == CLOSED_FORM)
    propagated = next(r for r in report.records if r.route == PROPAGATION)
    cert = trivial_certificate(4)
    hom, lattice = lattice_from_splitting(trivial_certificate(3, ORDER_2K_PLUS_1))
    failed = verify_splitting(FiniteAbelianGroup.cyclic(10), MultiplierSet.interval(3),
                              [(1,), (4,), (7,)])
    outcome = search_splitter(FiniteAbelianGroup.cyclic(7), MultiplierSet.interval(3))
    group = FiniteAbelianGroup((2, 4))
    assert group.order_factorization == ((2, 3),)  # fills the group's cache
    return [
        (group, ("factors",)),
        (SearchConfig(node_limit=5, time_limit_s=None), ("node_limit", "time_limit_s")),
        (outcome.stats, ("nodes", "max_depth", "elapsed_s", "rows", "reason")),
        (outcome, ("result", "splitters", "stats")),
        (MultiplierSet.interval(3), ("values", "kind")),
        (cert.classification, ("witnesses",)),
        (failed, ("kind", "element", "first", "second")),
        (cert, ("group", "multipliers", "splitters")),
        (CandidateOrder(5, 3, 16, ((2, 4),)), ("k", "n", "order", "smoothness_witness")),
        (closed.outcome, ("splitters",)),
        (propagated.outcome, ("steps", "dead")),
        (propagated, ("candidate", "outcome")),
        (report, ("k_min", "k_max", "n_max", "config", "records", "sieved")),
        (decompose_k(8, 3, 1), ("k", "p", "m", "beta", "d", "m_prime")),
        (stratify(trivial_certificate(8), 3), ("p", "alpha", "g_counts", "s_counts")),
        (abcde_profile(10, 3), ("k", "p", "card_a", "card_b", "card_c", "card_d", "card_e",
                                "closed_form_d", "hypothesis_met")),
        (tw_disjointness_check(trivial_certificate(24)),
         ("p", "k", "decomposition", "hypothesis_ok", "unit_splitters", "w_sizes",
          "w_size_formula", "tw_sizes", "pairwise_disjoint", "within_units", "card_d",
          "card_e", "unit_count")),
        (ErrorBallShape(2, 3), ("dimension", "k_plus", "points")),
        (hom, ("modulus", "weights")),
        (lattice, ("basis",)),
        (verify_lattice_tiling(ErrorBallShape(2, 3), hom), ("verdict",)),
    ]


SAMPLES = _samples()


def test_every_record_class_has_a_sample():
    classes = [type(record) for record, _ in SAMPLES]
    assert len(set(classes)) == len(classes) == 21
    assert set(classes) == set(Record.__subclasses__())


@pytest.mark.parametrize("record, fields", SAMPLES, ids=[type(r).__name__ for r, _ in SAMPLES])
def test_record_contract(record, fields):
    cls = type(record)
    # frozen: no field, and no new attribute, can be set or deleted
    for name in (fields[0], "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
    with pytest.raises(FrozenInstanceError):
        delattr(record, fields[0])
    # slotted: a group's dict holds only its cached order and factorization
    if cls is FiniteAbelianGroup:
        assert set(vars(record)) == {"order", "order_factorization"}
    else:
        assert not hasattr(record, "__dict__")
    # the dataclass repr, over the fields in order
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({shown})"
    # == and hash agree, on a pickled copy and an unchanged replace
    for copy in (pickle.loads(pickle.dumps(record)), replace(record)):
        assert type(copy) is cls and copy is not record
        assert copy == record and not copy != record and hash(copy) == hash(record)
        assert all(getattr(copy, name) == getattr(record, name) for name in fields)
    assert record != tuple(getattr(record, name) for name in fields)
    # the state is the slots, one value each: one too few or too many is refused
    state = record.__getstate__()
    for bad in (state[:-1], state + (None,)):
        with pytest.raises(TypeError, match=cls.__name__):
            cls.__new__(cls).__setstate__(bad)


def test_a_record_built_with_a_field_missing_names_it():
    with pytest.raises(TypeError, match="CandidateOrder.*'smoothness_witness'"):
        CandidateOrder(5, 3, 16)


def test_records_of_two_classes_with_equal_fields_are_unequal():
    # == compares the classes before the fields
    tiling, classification = TilingCertificate(()), SingularityClass(())
    assert tiling.verdict == classification.witnesses
    assert tiling != classification and not tiling == classification
