"""Exact desk-scale combinatorics of growth, covering and progressions
in nilpotent groups.

Everything here is verified by construction: certificates re-check their
own defining inclusions element by element, and every size bound that is
reported has been compared against the actual enumerated set.  All
computations run under an element budget so that runaway enumerations
fail loudly instead of thrashing.
"""
from .approx import (
    ApproxCertificate,
    GrowthRow,
    PartialMap,
    SlicingCover,
    SumsetRow,
    certify,
    doubling_constant,
    greedy_cover_certificate,
    growth_law,
    image_certificate,
    is_centred_triple_hom,
    predicate_slice_certificate,
    slicing_cover,
    sumset_growth_table,
)
from .config import DEFAULT_BUDGET, resolve_budget
from .covering import (
    ChangCover,
    Meter,
    RuzsaCover,
    chang_cover,
    chang_t_bound,
    ruzsa_cover,
    verify_translate_cover,
)
from .errors import (
    BudgetExceeded,
    CertificateError,
    ContainmentError,
    FormatError,
    GrowthLabError,
    NotAbelian,
    NotNilpotent,
    ParentMismatch,
    RecipeError,
    StepDropFailed,
    StepTooLow,
)
from .groups import (
    DirectProduct,
    Element,
    FiniteAbelian,
    Unitriangular,
    commutator,
    conjugate,
    heisenberg,
)
from .gset import (
    GSet,
    GrowthStats,
    growth_stats,
    inverse_set,
    power,
    power_chain,
    product,
    symmetrize,
    translate,
)
from .oracle import (
    CosetProgression,
    OracleResult,
    SandersCover,
    derive_sanders_cover,
    difference_body,
    find_coset_progression,
)
from .pipeline import (
    ChangBranchReport,
    Decomposition,
    Factorization,
    Piece,
    Projection,
    PullbackReport,
    RuzsaBranchReport,
    SectionMap,
    StepReduction,
    abelian_factorization,
    abelianization,
    build_section,
    containment_radius,
    corollary_covers,
    decompose,
    in_cyclic,
    pullback_check,
    step_reduction,
    word_radius_bound,
)
from .progressions import (
    ChainCertificate,
    HullProgression,
    ProgressionSpec,
    chain_bound,
    containment_exponent,
    hall_basis,
    hull_progression,
    ordered_progression,
    term_text,
    verify_chain,
    word_progression,
)
from .recipes import Recipe, generate_example, parse_recipe
from .scenarios import SUITES, Report, Scenario, run_scenario, run_suite
from .subgroups import (
    QuotientView,
    SubgroupHandle,
    check_normal,
    derived_subgroup,
    enumerate_parent,
    normal_closure,
    preimage_subgroup,
    quotient_project,
    span,
    step_of_generated,
)
from .textio import format_group, parse_group

__version__ = "0.1.0"
