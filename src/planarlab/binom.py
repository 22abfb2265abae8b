"""Binomial coefficients modulo a prime via base-p digit domination.

binom(n, k) is nonzero mod p exactly when every base-p digit of k is at most
the corresponding digit of n, in which case it is the product of the per-digit
binomials.  Each digit binomial comes from the digits alone (`_digit_binoms`):
C(d, j) = C(d, j - 1) * (d - j + 1) / j mod p, O(m) steps for C(d, 0..m) and
no per-prime table, so the cost follows the digits, not p.  A digit that
would need more than DEFAULT_SUPPORT_BOUND steps raises BoundExceeded.

`_digit_walk` is the one walk over the digits of n: it enumerates the
dominated k in ascending order together with their residues, multiplied in
int64, so it refuses a modulus above MAX_WALK_PRIME.  `expansion` is its
cached, size-bounded form for the difference expansions; `nonzero_support`
(with its own bound) and `binom_mod_p_row` read the walk uncached, and every
one of them refuses an n above its bound before anything is allocated.
`binom_mod_p` computes a single coefficient digit by digit in Python ints,
for any prime, and is the reference the tests compare the walk against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BoundExceeded
from .field import _require_prime, base_p_digits

DEFAULT_SUPPORT_BOUND = 10**6
MAX_WALK_PRIME = 3_037_000_499  # the largest p with p^2 < 2^63: int64 products stay exact


def _digit_binoms(d: int, m: int, p: int) -> list[int]:
    """[C(d, 0), ..., C(d, m)] mod p for a digit d < p of a prime p, each
    from the one before; BoundExceeded when m exceeds DEFAULT_SUPPORT_BOUND."""
    if m > DEFAULT_SUPPORT_BOUND:
        raise BoundExceeded(f"{m} digit steps exceed the bound {DEFAULT_SUPPORT_BOUND}")
    out = [1]
    for j in range(1, m + 1):
        out.append(out[-1] * (d - j + 1) * pow(j, -1, p) % p)
    return out


def binom_mod_p(n: int, k: int, p: int) -> int:
    """binom(n, k) mod p; 0 when k > n or k < 0.  NotPrime unless p is prime,
    checked before the early return.  Each digit pair (a, b) costs
    min(b, a - b) steps; BoundExceeded past DEFAULT_SUPPORT_BOUND."""
    _require_prime(p)
    if k < 0 or k > n:
        return 0
    nd = base_p_digits(n, p)
    pairs = list(zip(nd, base_p_digits(k, p, len(nd))))
    if any(b > a for a, b in pairs):
        return 0
    return math.prod(_digit_binoms(a, min(b, a - b), p)[-1] for a, b in pairs) % p


def binom_mod_p_row(n: int, p: int) -> np.ndarray:
    """The whole residue row [binom(n, 0) mod p, ..., binom(n, n) mod p];
    BoundExceeded when n exceeds DEFAULT_SUPPORT_BOUND."""
    if n > DEFAULT_SUPPORT_BOUND:
        raise BoundExceeded(f"n = {n} exceeds the bound {DEFAULT_SUPPORT_BOUND}")
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
    """The digit walk behind `expansion`: uncached, bounded only per digit.

    Each digit of k runs over 0..(that digit of n), the higher digit
    outermost, so the k come out ascending.  Residues are multiplied in
    int64, exact only while p^2 < 2^63, so a p above MAX_WALK_PRIME raises
    BoundExceeded (binom_mod_p still answers for it).
    """
    _require_prime(p)
    if p > MAX_WALK_PRIME:
        raise BoundExceeded(f"p = {p} exceeds the bound {MAX_WALK_PRIME} of int64 residues")
    ks = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=np.int64)
    weight = 1
    for d in base_p_digits(n, p):
        ks = (np.arange(d + 1)[:, None] * weight + ks[None, :]).ravel()
        vals = (np.array(_digit_binoms(d, d, p))[:, None] * vals[None, :] % p).ravel()
        weight *= p
    ks.setflags(write=False)
    vals.setflags(write=False)
    return ks, vals
