"""Every size limit of the library: one constant and one check each.

A check raises ValueError with the one line the CLI prints.  It tests the
cheap bound first, a cap before any primality test and e and p before
p**e, so an input far over a cap is rejected before any work.
"""

import math

DEFAULT_BRUTE_FORCE_CAP = 16  # the d^3 elements of P_d; --max-d overrides it
STRUCTURE_TABLE_CAP = 16  # the d^4 label pairs of the structure constants
SEARCH_CAP = 12  # the exhaustive search over the d^2 - 1 labels
TENSOR_SEARCH_CAP = 16  # p^e for the search over the p^2e - 1 tensor labels
MUB_PRIME_CAP = 97  # the p + 1 MUBs, the slope classes of any d, the dense d x d suites


def is_prime(n: int) -> bool:
    """Trial division; the library tests a cap first, so n is small."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def check_dimension(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")


def check_brute_force(d: int, cap: int) -> None:
    check_dimension(d)
    if d > cap:
        raise ValueError(f"d={d} exceeds the brute-force cap {cap}")


def check_structure_table(d: int) -> None:
    check_dimension(d)
    if d > STRUCTURE_TABLE_CAP:
        raise ValueError(f"d={d} exceeds the structure-table cap {STRUCTURE_TABLE_CAP}")


def searchable(d: int) -> bool:
    return d <= SEARCH_CAP


def check_search(d: int) -> None:
    check_dimension(d)
    if not searchable(d):
        raise ValueError(f"d={d} exceeds the search cap {SEARCH_CAP}")


def check_dense(d: int) -> None:
    check_dimension(d)
    if d > MUB_PRIME_CAP:
        raise ValueError(f"d={d} exceeds the cap {MUB_PRIME_CAP}")


def check_prime(p: int) -> None:
    if p > MUB_PRIME_CAP:
        raise ValueError(f"p={p} exceeds the cap {MUB_PRIME_CAP}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def check_partition(dims: tuple[int, ...]) -> int:
    """prod(dims) by the one rule on the dims of a partition, which the CLI and import_exact
    read: (d,) within the search cap or prime within the prime cap, both caps before
    primality, or e >= 2 equal factors p that pass `check_tensor(p, e)`."""
    if len(dims) != 1:
        if len(set(dims)) != 1:
            raise ValueError(f"tensor dims must be e >= 2 equal factors, got {dims}")
        return check_tensor(dims[0], len(dims))
    d = dims[0]
    check_dimension(d)
    if d > max(SEARCH_CAP, MUB_PRIME_CAP):
        raise ValueError(
            f"d={d} exceeds the search cap {SEARCH_CAP} and the prime cap {MUB_PRIME_CAP}"
        )
    if not is_prime(d):
        check_search(d)
    return d


def check_tensor(p: int, e: int) -> int:
    """p^e for a tensor partition: e >= 2, p^e within the cap, p prime."""
    if e < 2:
        raise ValueError(f"tensor exponent must be >= 2, got {e}")
    # p < 2 fails the primality test at once; for p >= 2, p^e is at least 2^e
    # and p, so a huge e or p never builds a huge power
    if p >= 2 and (
        e > TENSOR_SEARCH_CAP.bit_length() or p > TENSOR_SEARCH_CAP or p**e > TENSOR_SEARCH_CAP
    ):
        raise ValueError(f"p^e={p}^{e} exceeds the tensor search cap {TENSOR_SEARCH_CAP}")
    check_prime(p)
    return p**e
