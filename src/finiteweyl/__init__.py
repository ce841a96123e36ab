"""Weyl pairs, generalized Pauli operators and the groups behind them.

The package constructs every object exactly where the mathematics allows
it (integer tau exponents for monomial operators, modular arithmetic for
the finite group) and verifies the remaining identities numerically with
stated tolerances.
"""

__version__ = "0.1.0"

from .basis import (
    CartanPartition,
    cartan_partition_prime,
    cartan_partition_prime_power,
    commuting_class_search,
    hs_orthogonality,
    pauli_commutator,
    su4_spread_check,
    tensor_pauli,
    u_ab,
)
from .group import (
    ConjugacyClassReport,
    FormalCombination,
    PdElement,
    pd_centralizer_size,
    pd_character,
    pd_conjugacy_classes,
    pd_irrep,
    pd_irrep_counts,
    pd_is_ambivalent,
    pd_lie_bracket,
    pd_named_subgroups,
)
from .heisenberg import (
    HWElement,
    hw_conjugate,
    hw_lie_check,
    hw_matrix,
)
from .limits import is_prime
from .mub import (
    HadamardMatrix,
    OrthonormalBasis,
    basis_b0a,
    hadamard_h_a,
    mub_family,
    unbiasedness,
)
from .operators import (
    MonomialOperator,
    fourier_matrix,
    monomial_mul,
    polar_su2_ops,
    t_operator,
    v_ra_eigenvector,
    v_ra_matrix,
    weyl_pair,
)
from .phases import PhaseExponent
from .report import Check, VerificationReport
from .suites import run_suite

__all__ = [
    "CartanPartition",
    "Check",
    "ConjugacyClassReport",
    "FormalCombination",
    "HWElement",
    "HadamardMatrix",
    "MonomialOperator",
    "OrthonormalBasis",
    "PdElement",
    "PhaseExponent",
    "VerificationReport",
    "basis_b0a",
    "cartan_partition_prime",
    "cartan_partition_prime_power",
    "commuting_class_search",
    "fourier_matrix",
    "hadamard_h_a",
    "hs_orthogonality",
    "hw_conjugate",
    "hw_lie_check",
    "hw_matrix",
    "is_prime",
    "monomial_mul",
    "mub_family",
    "pauli_commutator",
    "pd_centralizer_size",
    "pd_character",
    "pd_conjugacy_classes",
    "pd_irrep",
    "pd_irrep_counts",
    "pd_is_ambivalent",
    "pd_lie_bracket",
    "pd_named_subgroups",
    "polar_su2_ops",
    "run_suite",
    "su4_spread_check",
    "t_operator",
    "tensor_pauli",
    "u_ab",
    "unbiasedness",
    "v_ra_eigenvector",
    "v_ra_matrix",
    "weyl_pair",
]
