"""Splittings of finite abelian groups: verification and classification of
splitting certificates, exact-cover splitter search, candidate-order scans,
semi-cross lattice tilings, and executable counting checks."""

from .groups import Element, FiniteAbelianGroup, factorize, is_prime, p_adic_valuation
from .splitting import (
    MultiplierSet,
    NotASplitting,
    SingularityClass,
    SplittingCertificate,
    VerificationReport,
    classify_multipliers,
    make_certificate,
    s87_property_check,
    trivial_certificate,
    verify_splitting,
)
from .search import (
    BudgetExceeded,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    enumerate_all_splittings,
    search_splitter,
)
from .scan import (
    CandidateOrder,
    ScanRecord,
    ScanReport,
    check_k_ge_n,
    check_k_le_n_minus_2,
    purely_singular_candidates,
    scan,
)
from .tiling import (
    ErrorBallShape,
    IntegerLattice,
    LatticeHom,
    TilingCertificate,
    export_translates,
    kernel_lattice,
    lattice_from_splitting,
    semi_cross,
    verify_lattice_tiling,
)
from .counting import (
    AbcdeProfile,
    KDecomposition,
    StratificationProfile,
    TwReport,
    abcde_profile,
    check_counting_identity,
    counting_witness,
    decompose_k,
    digit_pattern_check,
    stratify,
    stratum_sizes,
    tw_disjointness_check,
    unit_coset_intersection_size,
)

__version__ = "0.1.0"
