"""Semantic classification of polynomial functions: permutation, additive,
planar, Alltop — plus the quadratic-monomial decomposition and equivalence
transforms.

Everything runs on value tables, never on repeated polynomial evaluation: a
full Alltop verification costs O(q^3) integer table lookups with early exit,
scanned in deterministic order (a ascending, then b, then x) so reported
witnesses are reproducible.  The scans read rows in chunks that start at
about 2^14 entries and double up to 2^20 (`_row_chunks`), so a negative
costs roughly the rows up to its witness and a field with q <= 128 is one
chunk.  An additive positive costs O(terms): a function is additive exactly
when its reduced polynomial is linearized, sum c_i x^(p^i), so that case
needs no table at all, and neither does a reduced polynomial with a nonzero
constant, whose witness is (0, 0).

One table, `_p_power_exponents` = {p^i: i}, gives the exponent classes: its
keys are the linearized exponents, and x^e is the quadratic monomial
x^(p^k + 1) exactly when e - 1 maps to k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polyfun
from .errors import NonAdditiveM, NotAlltop, ZeroScale
from .field import FieldElement, FieldSpec, _require_prime
from .polyfun import Poly

_FIRST_CHUNK_ENTRIES = 1 << 14
_CHUNK_ENTRIES = 1 << 20


def _row_chunks(start: int, stop: int, q: int):
    """Consecutive ascending int32 arrays covering rows [start, stop) of a
    q-wide scan: the first holds about _FIRST_CHUNK_ENTRIES entries, each
    later one twice the rows of the one before, up to _CHUNK_ENTRIES."""
    size = max(1, _FIRST_CHUNK_ENTRIES // q)
    cap = max(1, _CHUNK_ENTRIES // q)
    while start < stop:
        end = min(start + size, stop)
        yield np.arange(start, end, dtype=np.int32)
        start = end
        size = min(2 * size, cap)


def _perm_rows_ok(q: int, rows: np.ndarray) -> np.ndarray:
    """Boolean per row of a (k, q) array: is the row a permutation of [0, q)?"""
    k = rows.shape[0]
    flat = rows.astype(np.int64) + np.arange(k, dtype=np.int64)[:, None] * q
    counts = np.bincount(flat.ravel(), minlength=k * q)
    return counts.reshape(k, q).min(axis=1) == 1


def _first_collision(row) -> tuple[int, int]:
    """First (x, x2) with x < x2 and row[x] == row[x2], scanning x2 upward."""
    seen: dict[int, int] = {}
    for x, v in enumerate(row.tolist()):
        if v in seen:
            return seen[v], x
        seen[v] = x
    raise AssertionError("no collision in a non-permutation row")  # pragma: no cover


def permutation_witness(f: Poly) -> tuple[int, int] | None:
    """None when f permutes the field, else the first colliding pair (x, x2)."""
    t = f.value_table()
    q = f.field.q
    if np.bincount(t, minlength=q).max() == 1:
        return None
    return _first_collision(t)


def is_permutation(f: Poly) -> bool:
    return permutation_witness(f) is None


def additive_witness(f: Poly) -> tuple[int, int] | None:
    """None when f(x+y) = f(x) + f(y) everywhere, else the first bad (x, y).

    The reduced polynomial of a function is unique, and it is additive
    exactly when that polynomial is linearized (only exponents p^i), so
    that case returns at once and every other polynomial has a witness.
    A nonzero constant c makes (0, 0) that witness, the first pair in scan
    order: f(0 + 0) = c differs from f(0) + f(0) = 2c in odd characteristic.
    """
    fld = f.field
    terms = f.reduce().terms
    if 0 in terms:
        return (0, 0)
    if terms.keys() <= _p_power_exponents(fld).keys():
        return None
    q = fld.q
    t = f.value_table()
    enc = fld.encodings
    for xs in _row_chunks(0, q, q):
        lhs = t[fld.add_vec(xs[:, None], enc[None, :])]
        rhs = fld.add_vec(t[xs][:, None], t[None, :])
        bad = lhs != rhs
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return int(xs[i]), int(j)
    return None


def is_additive_function(f: Poly) -> bool:
    return additive_witness(f) is None


def _table_planar_witness(
    fld: FieldSpec, t: np.ndarray, first: int = 1
) -> tuple[int, int, int] | None:
    """Planarity of the function given by table t: every difference row with
    shift a >= first (nonzero) must be a permutation.  Returns the first
    (a, x, x2)."""
    q = fld.q
    for shifts in _row_chunks(first, q, q):
        diff = polyfun._table_delta(fld, t, shifts[:, None])
        ok = _perm_rows_ok(q, diff)
        if not ok.all():
            i = int(np.argmax(~ok))
            x, x2 = _first_collision(diff[i])
            return int(shifts[i]), x, x2
    return None


def planar_witness(f: Poly) -> tuple[int, int, int] | None:
    """None when f is planar, else the first (a, x, x2) with a difference collision."""
    return _table_planar_witness(f.field, f.value_table())


def is_planar(f: Poly) -> bool:
    return planar_witness(f) is None


def alltop_witness(f: Poly) -> tuple[int, int, int, int] | None:
    """None when every difference of f is planar, else the first (a, b, x, x2).

    Works entirely on the value table: the second difference at (a, b) is
    T[x+a+b] - T[x+b] - T[x+a] + T[x].  That row is symmetric in a and b, so
    a failing row (a, b) with b < a also fails as row (b, a), which comes
    first; scanning only b >= a finds the same first witness.
    """
    fld = f.field
    t = f.value_table()
    for a in range(1, fld.q):
        w = _table_planar_witness(fld, polyfun._table_delta(fld, t, a), a)
        if w is not None:
            return (a, *w)
    return None


def is_alltop(f: Poly) -> bool:
    return alltop_witness(f) is None


def is_do_monomial_planar(p: int, r: int, k: int) -> bool:
    """Planarity of x^(p^k + 1) over GF(p^r): r / gcd(r, k) must be odd.

    k = 0 uses gcd(r, 0) = r, so the square is always planar.
    """
    _require_prime(p)
    if p == 2:
        raise ValueError("p must be an odd prime")
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    return (r // math.gcd(r, k)) % 2 == 1


@dataclass(frozen=True)
class DODecomposition:
    """g(x) = alpha * x^(p^k + 1) + additive_part(x) + constant, exactly."""

    k: int
    alpha: FieldElement
    additive_part: Poly
    constant: FieldElement

    def reconstruct(self) -> Poly:
        fld = self.alpha.field
        p = fld.p
        mono = Poly.monomial(fld, p**self.k + 1, self.alpha)
        return mono + self.additive_part + Poly.constant(fld, self.constant)


def _p_power_exponents(fld: FieldSpec) -> dict[int, int]:
    """{p**i: i} for i < r: the reduced exponents of the linearized terms."""
    return {fld.p**i: i for i in range(fld.r)}


def do_decompose(g: Poly) -> DODecomposition | None:
    """Split a reduced polynomial into quadratic-monomial + additive + constant.

    Succeeds exactly when, after removing the constant term and every term
    with a power-of-p exponent, a single term of exponent p^k + 1 remains.
    The shift beta of an underlying alpha*(x+beta)^(p^k+1) is absorbed into
    the additive and constant parts and is not recovered.
    """
    fld = g.field
    deg = g.degree()
    if deg is not None and deg >= fld.q:
        raise ValueError("do_decompose expects a reduced polynomial")
    p_powers = _p_power_exponents(fld)
    terms = g.terms
    const = terms.pop(0, 0)
    additive = {e: terms.pop(e) for e in p_powers if e in terms}
    if len(terms) != 1:
        return None
    (e, alpha_enc), = terms.items()
    k = p_powers.get(e - 1)
    if k is None:
        return None
    return DODecomposition(
        k=k,
        alpha=fld.element(alpha_enc),
        additive_part=Poly(fld, additive),
        constant=fld.element(const),
    )


def apply_equiv_transform(f: Poly, c, s, t, M: Poly, d) -> Poly:
    """c * f(s*x + t) + M(x) + d, reduced; c, s nonzero and M additive."""
    fld = f.field
    c_enc = fld.enc_of(c)
    s_enc = fld.enc_of(s)
    if c_enc == 0 or s_enc == 0:
        raise ZeroScale("transform scales c and s must be nonzero")
    if M.field != fld:
        raise NonAdditiveM("additive part lives in a different field")
    if not is_additive_function(M):
        raise NonAdditiveM(f"{M} is not an additive function")
    g = polyfun.shift_scale(f, s_enc, t) * c_enc
    return (g + M + Poly.constant(fld, d)).reduce()


def alltop_deltas_decompose(f: Poly) -> bool:
    """For an Alltop-type f: does every reduced difference decompose as
    quadratic monomial + additive + constant?  Raises NotAlltop otherwise."""
    w = alltop_witness(f)
    if w is not None:
        raise NotAlltop(
            f"not an Alltop-type function (witness a={w[0]}, b={w[1]}, x={w[2]}, x'={w[3]})"
        )
    fld = f.field
    for a in range(1, fld.q):
        if do_decompose(polyfun.delta(f, a).reduce()) is None:
            return False
    return True
