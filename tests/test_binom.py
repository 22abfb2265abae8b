import math
import time

import pytest

from planarlab.binom import (
    base_p_digits,
    binom_mod_p,
    binom_mod_p_row,
    expansion,
    nonzero_support,
    small_binom_table,
)
from planarlab.errors import BoundExceeded, NotPrime

PRIMES = (3, 5, 7, 11)


def test_examples():
    assert binom_mod_p(6, 2, 5) == 0
    assert binom_mod_p(6, 1, 5) == 1  # 6 mod 5
    assert binom_mod_p(25, 7, 5) == 0


def test_k_out_of_range_is_zero():
    assert binom_mod_p(5, 9, 3) == 0
    assert binom_mod_p(5, -1, 3) == 0


def test_conventions():
    for p in PRIMES:
        assert binom_mod_p(0, 0, p) == 1
        for n in range(40):
            assert binom_mod_p(n, 0, p) == 1
            assert binom_mod_p(n, n, p) == 1


def test_against_math_comb():
    for n in range(201):
        for k in range(n + 1):
            c = math.comb(n, k)
            for p in PRIMES:
                assert binom_mod_p(n, k, p) == c % p


def test_pascal_recurrence_mod_p():
    for p in PRIMES:
        for n in range(1, 300):
            for k in range(1, n + 1):
                assert binom_mod_p(n, k, p) == (
                    binom_mod_p(n - 1, k - 1, p) + binom_mod_p(n - 1, k, p)
                ) % p


def test_k_times_binom_identity():
    # k*C(n,k) = n*C(n-1,k-1) as residues
    for p in PRIMES:
        for n in range(1, 300):
            for k in range(1, n + 1):
                lhs = k * binom_mod_p(n, k, p) % p
                rhs = n * binom_mod_p(n - 1, k - 1, p) % p
                assert lhs == rhs


def test_row_matches_scalar_exhaustively():
    for p in PRIMES:
        for n in range(301):
            row = binom_mod_p_row(n, p)
            assert len(row) == n + 1
            for k in range(n + 1):
                assert int(row[k]) == binom_mod_p(n, k, p)


def test_row_matches_scalar_spot_checks_large():
    rng = __import__("numpy").random.default_rng(79)
    for p in PRIMES:
        for n in rng.integers(300, 2001, size=8).tolist():
            row = binom_mod_p_row(n, p)
            for k in rng.integers(0, n + 1, size=50).tolist():
                assert int(row[k]) == binom_mod_p(n, k, p)


def test_nonzero_support_examples():
    assert nonzero_support(25, 5) == {0, 25}
    assert nonzero_support(26, 5) == {0, 1, 25, 26}
    assert nonzero_support(27, 5) == {0, 1, 2, 25, 26, 27}


def test_nonzero_support_matches_binom():
    for p in (3, 5, 7):
        for n in range(150):
            support = nonzero_support(n, p)
            for k in range(n + 1):
                assert (k in support) == (binom_mod_p(n, k, p) != 0)


def test_nonzero_support_bound():
    with pytest.raises(BoundExceeded):
        nonzero_support(10**6 + 1, 5)
    nonzero_support(10**6 + 1, 5, bound=2 * 10**6)


def test_expansion_bound():
    with pytest.raises(BoundExceeded):
        expansion(10**6 + 1, 5)
    assert expansion(10**6, 5)[0].tolist() == sorted(nonzero_support(10**6, 5))


def test_uncached_readers_leave_expansion_cache_alone():
    expansion.cache_clear()
    nonzero_support(10**6 + 1, 5, bound=2 * 10**6)
    binom_mod_p_row(50, 7)
    assert expansion.cache_info().currsize == 0


def test_base_p_digits_roundtrip():
    for p in PRIMES:
        for n in range(0, 400, 7):
            digits = base_p_digits(n, p)
            assert all(0 <= d < p for d in digits)
            assert sum(d * p**i for i, d in enumerate(digits)) == n
    assert base_p_digits(0, 5) == [0]


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_modulus_not_prime_raises_at_once(p):
    # p = 1 used to loop forever in divmod(n, 1), and p = 4 gave C(5, 2) = 0 mod 4
    calls = [
        (NotPrime, lambda: small_binom_table(p)),
        (NotPrime, lambda: binom_mod_p(5, 2, p)),
        (NotPrime, lambda: binom_mod_p(7, 3, p)),
        (NotPrime, lambda: binom_mod_p(1, 5, p)),
        (NotPrime, lambda: binom_mod_p_row(7, p)),
        (NotPrime, lambda: nonzero_support(7, p)),
        (NotPrime, lambda: expansion(7, p)),
    ]
    if p < 2:
        calls.append((ValueError, lambda: base_p_digits(5, p)))
    for exc, call in calls:
        t0 = time.perf_counter()
        with pytest.raises(exc):
            call()
        assert time.perf_counter() - t0 < 0.1


def test_expansion_matches_pointwise():
    for p in (3, 7):
        for n in (1, 6, 9, 27, 28, 50):
            ks, vals = expansion(n, p)
            assert list(ks) == sorted(nonzero_support(n, p))
            assert ks.tolist() == [k for k in range(n + 1) if binom_mod_p(n, k, p)]
            for k, v in zip(ks.tolist(), vals.tolist()):
                assert v == binom_mod_p(n, k, p) != 0
