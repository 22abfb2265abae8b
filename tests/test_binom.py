import math
import time

import numpy as np
import pytest

from planarlab.binom import (
    DEFAULT_SUPPORT_BOUND,
    MAX_WALK_PRIME,
    _digit_walk,
    base_p_digits,
    binom_mod_p,
    binom_mod_p_row,
    expansion,
    nonzero_support,
)
from planarlab.classify import is_do_monomial_planar
from planarlab.errors import BoundExceeded, NotPrime
from planarlab.field import make_field
from planarlab.polyfun import Poly, delta, predicted_delta_degree, preimage_degrees

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
    rng = np.random.default_rng(79)
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


def test_row_bound():
    t0 = time.process_time()
    with pytest.raises(BoundExceeded):
        binom_mod_p_row(2 * 10**6, 3)
    with pytest.raises(BoundExceeded):
        binom_mod_p_row(5 * 3**14 - 1, 3)
    assert time.process_time() - t0 < 0.1
    assert len(binom_mod_p_row(DEFAULT_SUPPORT_BOUND, 3)) == DEFAULT_SUPPORT_BOUND + 1


def test_walk_refuses_a_modulus_beyond_int64_products():
    assert MAX_WALK_PRIME**2 < 2**63 <= (MAX_WALK_PRIME + 1) ** 2
    huge = 18446744073709551629  # prime, above 2^64
    for p in (huge, 3037000507):  # the first prime above the bound
        with pytest.raises(BoundExceeded):
            binom_mod_p_row(30, p)
        with pytest.raises(BoundExceeded):
            nonzero_support(30, p)
        with pytest.raises(BoundExceeded):
            expansion(30, p)
    assert binom_mod_p(30, 3, huge) == 4060
    p = 3037000493  # the last prime below the bound: products near p^2 stay exact
    n = 60 + 60 * p  # digits (60, 60): C(60, j) runs past p, so residues fill [0, p)
    ks, vals = _digit_walk(n, p)
    assert int(vals.max()) ** 2 > 2**62
    assert vals.tolist() == [binom_mod_p(n, k, p) for k in ks.tolist()]


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
    assert base_p_digits(0, 5, 3) == [0, 0, 0]
    assert base_p_digits(7, 5, 4) == [2, 1, 0, 0]  # padded to width
    assert base_p_digits(7**5 - 1, 7, 2) == [6] * 5  # a short width truncates nothing
    for q in (25, 27, 49):  # any base, not only a prime
        for n in (0, q - 1, q, q**3 + 5, 10**9):
            digits = base_p_digits(n, q, 2)
            assert len(digits) >= 2 and all(0 <= d < q for d in digits)
            assert sum(d * q**i for i, d in enumerate(digits)) == n


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_modulus_not_prime_raises_at_once(p):
    # p = 1 used to loop forever in divmod(n, 1), and p = 4 gave C(5, 2) = 0 mod 4
    calls = [
        (NotPrime, lambda: binom_mod_p(5, 2, p)),
        (NotPrime, lambda: binom_mod_p(7, 3, p)),
        (NotPrime, lambda: binom_mod_p(1, 5, p)),
        (NotPrime, lambda: binom_mod_p_row(7, p)),
        (NotPrime, lambda: nonzero_support(7, p)),
        (NotPrime, lambda: expansion(7, p)),
        (NotPrime, lambda: predicted_delta_degree(5, p)),
        (NotPrime, lambda: preimage_degrees(1, 1, p)),
        (NotPrime, lambda: is_do_monomial_planar(p, 1, 0)),
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


def _comb_mod_p_prefix(n, kmax, p):
    """[math.comb(n, k) % p for k <= kmax <= n] by C(n, k + 1) = C(n, k) *
    (n - k) / (k + 1), with the power of p kept apart from the unit part."""
    out, unit, val = [1], 1, 0
    for k in range(kmax):
        for f, e in ((n - k, 1), (k + 1, -1)):
            while f % p == 0:
                f //= p
                val += e
            unit = unit * pow(f, e, p) % p
        out.append(unit if val == 0 else 0)
    return out


@pytest.mark.parametrize("p", [2003, 9973])
def test_row_matches_math_comb_at_large_p(p):
    rng = np.random.default_rng(p)
    ns = [p - 1, p, p * (p - 1) + 5] + rng.integers(p + 1, 50 * p, size=5).tolist()
    for n in ns:
        kmax = min(n, 3 * p)
        want = _comb_mod_p_prefix(n, kmax, p)
        spots = [k for k in (0, 1, 2, 5, p - 1, p, p + 1, p + 5) if k <= kmax]
        spots += rng.integers(0, kmax + 1, size=4).tolist()
        assert [want[k] for k in spots] == [math.comb(n, k) % p for k in spots]
        if n <= DEFAULT_SUPPORT_BOUND:
            row = binom_mod_p_row(n, p)
            assert np.array_equal(row, row[::-1])  # the top end by symmetry
            got = row[: kmax + 1].tolist()
        else:  # the row is refused (10^8 entries would hold 800 MB); read the walk it scatters
            with pytest.raises(BoundExceeded):
                binom_mod_p_row(n, p)
            ks, vals = _digit_walk(n, p)
            got = [0] * (kmax + 1)
            for k, v in zip(ks.tolist(), vals.tolist()):
                if k <= kmax:
                    got[k] = v
        assert got == want, (n, p)


@pytest.mark.parametrize("n,k,p", [(5, 2, 10007), (5, 2, 1000003), (10**12, 3, 10**18 + 3)])
def test_single_coefficient_at_a_large_prime_needs_no_table(n, k, p):
    t0 = time.process_time()
    assert binom_mod_p(n, k, p) == math.comb(n, k) % p
    assert time.process_time() - t0 < 0.1


def test_digit_steps_past_the_bound_raise_at_once():
    t0 = time.process_time()
    with pytest.raises(BoundExceeded):
        binom_mod_p(10**8, 5 * 10**7, 10**9 + 7)
    assert time.process_time() - t0 < 0.1


def test_difference_over_a_large_prime_field():
    f = Poly.monomial(make_field(9973), 5)
    t0 = time.process_time()
    d = delta(f, 1)
    assert time.process_time() - t0 < 2.0
    assert d.degree() == 4 and d(0) == 1  # (x + 1)^5 - x^5 at x = 0
