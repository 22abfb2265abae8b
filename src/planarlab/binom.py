"""Binomial coefficients modulo a prime via base-p digit domination.

binom(n, k) is nonzero mod p exactly when every base-p digit of k is at most
the corresponding digit of n, in which case it is the product of the per-digit
binomials.  The per-digit table is a (p, p) Pascal triangle computed once per
prime.

`_digit_walk` is the one walk over the digits of n: it enumerates the
dominated k in ascending order together with their residues.  `expansion`
is its cached, size-bounded form for the difference expansions;
`nonzero_support` (with its own bound) and `binom_mod_p_row` read the walk
uncached.  `binom_mod_p` computes a single coefficient digit by digit and
is the reference the tests compare the walk against.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BoundExceeded, NotPrime
from .field import _is_prime

DEFAULT_SUPPORT_BOUND = 10**6


@functools.lru_cache(maxsize=None)
def small_binom_table(p: int) -> np.ndarray:
    """(p, p) table of binom(a, b) mod p for digits a, b < p; 0 where b > a.
    NotPrime unless p is prime, which Lucas's theorem needs."""
    _require_prime(p)
    tab = np.zeros((p, p), dtype=np.int64)
    tab[:, 0] = 1
    for a in range(1, p):
        for b in range(1, a + 1):
            tab[a, b] = (tab[a - 1, b - 1] + tab[a - 1, b]) % p
    tab.setflags(write=False)
    return tab


def _require_prime(p: int) -> None:
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")


def base_p_digits(value: int, p: int) -> list[int]:
    """Base-p expansion, low-to-high; [0] for value 0."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if p < 2:
        raise ValueError(f"base {p} must be at least 2")
    digits = []
    while True:
        value, rem = divmod(value, p)
        digits.append(rem)
        if value == 0:
            return digits


def binom_mod_p(n: int, k: int, p: int) -> int:
    """binom(n, k) mod p; 0 when k > n or k < 0.  NotPrime unless p is prime,
    checked before the early return, which builds no table."""
    _require_prime(p)
    if k < 0 or k > n:
        return 0
    tab = small_binom_table(p)
    result = 1
    while n or k:
        n, a = divmod(n, p)
        k, b = divmod(k, p)
        if b > a:
            return 0
        result = result * int(tab[a, b]) % p
    return result


def binom_mod_p_row(n: int, p: int) -> np.ndarray:
    """The whole residue row [binom(n, 0) mod p, ..., binom(n, n) mod p]."""
    ks, vals = _digit_walk(n, p)
    row = np.zeros(n + 1, dtype=np.int64)
    row[ks] = vals
    return row


def nonzero_support(n: int, p: int, bound: int = DEFAULT_SUPPORT_BOUND) -> set[int]:
    """All k with binom(n, k) not divisible by p: digitwise-dominated k."""
    if n > bound:
        raise BoundExceeded(f"n = {n} exceeds the bound {bound}")
    return set(_digit_walk(n, p)[0].tolist())


@functools.lru_cache(maxsize=4096)
def expansion(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted nonzero support of binom(n, .) mod p with the residues.

    Returns (k values ascending, binom(n, k) mod p) as read-only int64
    arrays; raises BoundExceeded when n exceeds DEFAULT_SUPPORT_BOUND.  The
    cache makes repeated difference expansions of the same exponent cheap.
    """
    if n > DEFAULT_SUPPORT_BOUND:
        raise BoundExceeded(f"n = {n} exceeds the bound {DEFAULT_SUPPORT_BOUND}")
    return _digit_walk(n, p)


def _digit_walk(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit walk behind `expansion`: uncached and unbounded.

    Each digit of k runs over 0..(that digit of n), the higher digit
    outermost, so the k come out ascending.
    """
    tab = small_binom_table(p)
    ks = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=np.int64)
    weight = 1
    for d in base_p_digits(n, p):
        ks = (np.arange(d + 1)[:, None] * weight + ks[None, :]).ravel()
        vals = (tab[d, : d + 1, None] * vals[None, :] % p).ravel()
        weight *= p
    ks.setflags(write=False)
    vals.setflags(write=False)
    return ks, vals
