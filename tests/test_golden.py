"""Anti-regression checks against hand-transcribed operator tables."""

from conftest import golden_matrix, load_golden, max_abs
from finiteweyl.basis import TWO_QUBIT_SPREAD, cartan_partition, u_ab


def exponent_table(d: int, a: int, b: int) -> list:
    """Generated tau-exponent table in the golden layout (null for zeros)."""
    mono = u_ab(d, a, b)
    table = [[None] * d for _ in range(d)]
    for k in range(d):
        row = (k - mono.shift) % d
        table[row][k] = (mono.phase.t + 2 * mono.clock * k) % (2 * d)
    return table


def test_qubit_matrices_match_golden_exactly():
    golden = load_golden("pauli_matrices_d2.json")
    for key, entries in golden["matrices"].items():
        a, b = int(key[0]), int(key[1])
        assert exponent_table(2, a, b) == entries
        assert max_abs(u_ab(2, a, b).to_matrix() - golden_matrix(entries, 2)) == 0.0


def test_qutrit_matrices_match_golden_exactly():
    golden = load_golden("pauli_matrices_d3.json")
    assert len(golden["matrices"]) == 9
    for key, entries in golden["matrices"].items():
        a, b = int(key[0]), int(key[1])
        assert exponent_table(3, a, b) == entries
        assert max_abs(u_ab(3, a, b).to_matrix() - golden_matrix(entries, 3)) < 1e-15


def test_seven_dimensional_classes_match_golden():
    golden = load_golden("commuting_classes_d7.json")
    expected = [[tuple(pair) for pair in cls] for cls in golden["classes"]]
    assert cartan_partition(7).classes == expected


def test_two_qubit_spread_matches_golden():
    golden = load_golden("two_qubit_spread.json")
    expected = tuple(tuple(tuple(idx) for idx in cls) for cls in golden["sets"])
    assert TWO_QUBIT_SPREAD == expected
