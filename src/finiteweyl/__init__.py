"""Weyl pairs, generalized Pauli operators and the groups behind them.

The package constructs every object exactly where the mathematics allows
it (integer tau exponents for monomial operators, modular arithmetic for
the finite group) and verifies the remaining identities numerically with
stated tolerances.

Importing the package loads none of its modules.  Each public name in
`__all__`, and each module in `_EXPORTS`, is loaded on first access (PEP
562), so `from finiteweyl import pd_named_subgroups` loads `group` and
what it imports, and a CLI request that never touches P_d or the suites
does not pay for them.  `dir()` and `from finiteweyl import *` list every
public name as an eager import would.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines
_EXPORTS = {
    "basis": (
        "CartanPartition",
        "cartan_partition",
        "cartan_partition_prime_power",
        "commuting_class_search",
        "hs_orthogonality",
        "pauli_commutator",
        "su4_spread_check",
        "u_ab",
    ),
    "group": (
        "ConjugacyClassReport",
        "PdElement",
        "pd_centralizer_size",
        "pd_conjugacy_classes",
        "pd_irrep_counts",
        "pd_is_ambivalent",
        "pd_named_subgroups",
    ),
    "heisenberg": ("HWElement", "hw_conjugate", "hw_lie_check", "hw_matrix"),
    "limits": ("is_prime",),
    "mub": (
        "HadamardMatrix",
        "OrthonormalBasis",
        "basis_b0a",
        "hadamard_h_a",
        "mub_family",
        "unbiasedness",
    ),
    "operators": (
        "MonomialOperator",
        "fourier_matrix",
        "monomial_mul",
        "polar_su2_ops",
        "t_operator",
        "v_ra_eigenvector",
        "v_ra_matrix",
        "weyl_pair",
    ),
    "phases": ("PhaseExponent",),
    "report": ("Check", "VerificationReport"),
    "suites": ("run_suite",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
