import pytest

from finiteweyl import limits


@pytest.mark.parametrize(
    "check, args, error",
    [
        (limits.check_prime, (101,), "p=101 exceeds the cap 97"),
        (limits.check_prime, (10**18 + 3,), "p=1000000000000000003 exceeds the cap 97"),
        (limits.check_partition, ((101,),), "d=101 exceeds the search cap 12 and the prime cap 97"),
        (
            limits.check_partition,
            ((10**18 + 3,),),
            "d=1000000000000000003 exceeds the search cap 12 and the prime cap 97",
        ),
        (limits.check_partition, ((6, 6),), r"p\^e=6\^2 exceeds the tensor search cap 16"),
        (limits.check_partition, ((2,) * 5,), r"p\^e=2\^5 exceeds the tensor search cap 16"),
        (limits.check_partition, ((2, 3),), r"equal factors, got \(2, 3\)$"),
        (limits.check_partition, ((),), r"^tensor dims must be e >= 2 equal factors, got \(\)$"),
        (limits.check_tensor, (10**18 + 3, 2), r"p\^e=1000000000000000003\^2 exceeds"),
        (limits.check_tensor, (6, 2), r"p\^e=6\^2 exceeds the tensor search cap 16"),
        (limits.check_tensor, (2, 20000), r"p\^e=2\^20000 exceeds the tensor search cap 16"),
        (limits.check_tensor, (5, 1), "tensor exponent must be >= 2, got 1"),
        (limits.check_dense, (98,), "d=98 exceeds the cap 97"),
        (limits.check_search, (13,), "d=13 exceeds the search cap 12"),
        (limits.check_structure_table, (17,), "d=17 exceeds the structure-table cap 16"),
        (limits.check_brute_force, (17, 16), "d=17 exceeds the brute-force cap 16"),
        (limits.check_brute_force, (1, 16), "dimension must be >= 2, got 1"),
    ],
)
def test_every_cap_is_tested_before_primality(monkeypatch, check, args, error):
    monkeypatch.setattr(limits, "is_prime", lambda n: pytest.fail(f"is_prime({n}) ran"))
    with pytest.raises(ValueError, match=error):
        check(*args)


def test_checks_pass_at_the_caps():
    assert limits.check_tensor(2, 4) == 16
    assert limits.check_tensor(3, 2) == 9
    limits.check_prime(limits.MUB_PRIME_CAP)
    limits.check_dense(limits.MUB_PRIME_CAP)
    limits.check_search(limits.SEARCH_CAP)
    limits.check_structure_table(limits.STRUCTURE_TABLE_CAP)
    limits.check_brute_force(17, 17)
    assert limits.check_partition((limits.MUB_PRIME_CAP,)) == limits.MUB_PRIME_CAP
    assert limits.check_partition((limits.SEARCH_CAP,)) == limits.SEARCH_CAP
    assert limits.check_partition((2,) * 4) == 16
    for dims, error in [((1,), "dimension must be >= 2, got 1"), ((15,), "search cap 12$")]:
        with pytest.raises(ValueError, match=error):
            limits.check_partition(dims)
    with pytest.raises(ValueError, match="p must be prime, got 4"):
        limits.check_partition((4, 4))
    with pytest.raises(ValueError, match="p must be prime, got 4"):
        limits.check_tensor(4, 2)
    with pytest.raises(ValueError, match="p must be prime, got 1"):
        limits.check_tensor(1, 10)
