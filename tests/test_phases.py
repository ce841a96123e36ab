import cmath
import json
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from finiteweyl.phases import PhaseExponent, tau_powers, tau_table
from finiteweyl.serialize import export, import_exact


def test_tau_to_the_d_is_minus_one():
    for d in range(2, 10):
        assert PhaseExponent(d, d).to_complex() == -1 + 0j
        assert PhaseExponent(2 * d, d).is_one


def test_q_powers_are_signs_for_qubits():
    # d = 2 makes q = -1, so q^a = (-1)^a
    for a in range(8):
        p = PhaseExponent.q_power(a, 2)
        assert p.t == (2 * a) % 4
        assert p.to_complex() == (-1 + 0j) ** (a % 2)


def test_canonical_representative():
    assert PhaseExponent(-1, 4).t == 7
    assert PhaseExponent(16, 4).t == 0
    assert 0 <= PhaseExponent(12345, 7).t < 14


def test_dimension_below_two_rejected():
    with pytest.raises(ValueError):
        PhaseExponent(0, 1)


def test_to_complex_values():
    assert PhaseExponent(0, 5).to_complex() == 1 + 0j
    assert PhaseExponent(2, 2).to_complex() == -1 + 0j
    assert PhaseExponent(1, 2).to_complex() == 1j
    assert abs(PhaseExponent(1, 3).to_complex() - cmath.exp(1j * cmath.pi / 3)) < 1e-15


def test_tau_powers_is_to_complex_bit_for_bit():
    # same bits as the scalar route, signed zeros included
    for d in [*range(2, 65), 97, 128, 1000]:
        t = np.arange(2 * d)
        expected = np.array([PhaseExponent(int(x), d).to_complex() for x in t])
        assert tau_powers(t, d).tobytes() == expected.tobytes()
    # quarter turns are exact, and the shape of the table is kept
    got = tau_powers(np.array([[0, 3], [6, 9]]), 6)
    assert got.shape == (2, 2)
    assert got[0, 0] == 1 + 0j and got[0, 1] == 1j
    assert got[1, 0] == -1 + 0j and got[1, 1] == -1j
    # exponents outside 0..2d-1 are reduced mod 2d first
    got = tau_powers([-3, 15, -1], 6)
    expected = np.array([PhaseExponent(t, 6).to_complex() for t in (-3, 15, -1)])
    assert got.tobytes() == expected.tobytes()


def test_tau_table_is_cached_and_read_only():
    for d in (2, 7, 16):
        table = tau_table(d)
        assert tau_table(d) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
        # the lookup hands out a fresh, writable copy
        got = tau_powers(np.arange(2 * d), d)
        assert got.flags.writeable and not np.shares_memory(got, table)
        got[0] = 5
        assert table[0] == 1


@given(st.integers(2, 16).flatmap(lambda d: st.tuples(st.just(d), st.integers(-8 * d, 8 * d))))
def test_phase_exponent_value_semantics(case):
    d, t = case
    p = PhaseExponent(t, d)
    r = t % (2 * d)
    assert (p.t, p.d) == (r, d)
    assert repr(p) == f"PhaseExponent(t={r}, d={d})"
    same = PhaseExponent(t=t - 6 * d, d=d)
    assert same == p and hash(same) == hash(p) == hash((r, d))
    assert p != PhaseExponent(t + 1, d) and p != PhaseExponent(r, d + 1) and p != (r, d)
    with pytest.raises(FrozenInstanceError):
        p.t = 0
    with pytest.raises(FrozenInstanceError):
        del p.t
    assert not hasattr(p, "__dict__")


def test_to_complex_is_multiplicative():
    rng = random.Random(4)
    for _ in range(300):
        d = rng.randrange(2, 40)
        t1, t2 = rng.randrange(2 * d), rng.randrange(2 * d)
        lhs = PhaseExponent(t1 + t2, d).to_complex()
        rhs = PhaseExponent(t1, d).to_complex() * PhaseExponent(t2, d).to_complex()
        assert abs(lhs - rhs) < 1e-14


def test_q_has_order_d():
    for d in range(2, 65):
        assert PhaseExponent.q_power(d, d).is_one
        # and no smaller power works, q being primitive
        assert not any(PhaseExponent.q_power(k, d).is_one for k in range(1, d))


def test_json_round_trip():
    p = PhaseExponent(9, 6)
    text = export(p)
    assert json.loads(text) == {"schema": 1, "type": "phase", "tau_exp": 9, "tau_denominator": 12}
    assert import_exact(text) == p
    with pytest.raises(ValueError, match="tau_denominator must be even, got 13"):
        import_exact(text.replace("12", "13"))
