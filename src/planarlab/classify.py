"""Semantic classification of polynomial functions: permutation, additive,
planar, Alltop — plus the quadratic-monomial decomposition and equivalence
transforms.

Everything runs on value tables, never on repeated polynomial evaluation.
Witnesses are the first violation in a deterministic order (a ascending,
then b, then x), so they are reproducible, whichever route decides.

Cost model.  The table scans are the reference: planarity reads O(q^2)
entries and an Alltop verification O(q^3), with early exit.  They read rows
in chunks that start at one row and double up to 2^20 entries
(`_row_chunks`), so a negative costs the rows up to its witness, and a
positive O(log q) chunks more than one chunk would.  Nearly every negative
fails in the first row and reads that row alone: 0.09 ms at q = 125 and
0.3 ms at q = 2401, against 0.4 and 0.6 ms when a first chunk of about 2^14
entries read 124 and 6 rows (CPU time, 2-core x86).  The certificate
keeps that first batch, since its positives read every point.  An
additive positive costs O(terms): a function is additive exactly when its
reduced polynomial is linearized, sum c_i x^(p^i), so that case needs no
table at all, and neither does a reduced polynomial with a nonzero
constant, whose witness is (0, 0).

Certificates.  The digit degree of f is the largest base-p digit sum of the
exponents of its reduced polynomial: its degree as a polynomial in the
GF(p) coordinates of x.  By Lucas, each difference lowers it, so at digit
degree <= m every (m - 1)-fold difference of f is x -> F(a, ..., x) plus a
constant, with F an m-linear form over GF(p): m = 2 for planarity, which
asks it of every Delta_a f, and m = 3 for the Alltop property, which asks
it of every Delta_a Delta_b f.  Such a difference permutes exactly when its
r x r matrix over GF(p) is invertible.  F is read from the table at the
basis vectors e_i = p^i, 2^m entries per value (`_basis_form`), and scaling
a shift scales the matrix, so one point per line through 0 decides
(`_projective_points`).  One certificate of order m (`_first_singular`)
then decides by a batched elimination mod p (`_singular`) over
(q - 1)/(p - 1) matrices for m = 2 and about ((q - 1)/(p - 1))^2 / 2 for
m = 3, in any odd characteristic: x^2 over GF(2401) in 0.37 ms and x^3
over GF(343) in 0.84 ms against 0.14 s and 0.51 s by scan, and x^3 over
GF(2401) in 0.08 s (CPU time, 2-core x86; 0.36, 0.80 and 79 ms when the
two orders had a certificate each, medians of 5 alternated sessions).

Routes.  Every witness comes from one scan (`_table_planar_witness`,
`_table_alltop_witness`) over a range of shifts [first, stop), and a route
only picks that range (`_witness`) from the core of f (`_core`): its
reduced terms, like terms combined, less those of the mode's free
exponents (`_free_exponents`: affine terms, and for Alltop
Dembowski-Ostrom terms too).  Free exponents have digit sum at most 2, so
f has digit degree at most the mode's m exactly when every core exponent
has, and then the certificate decides.  A pass answers None with no scan.
A failure names the smallest failing shift a, a point of smallest encoding
on its line, and the scan reads the one row a.  Reduction and cancellation
count: over GF(25), x^3 + 4*x^27 + x^6 has the core x^6, since x^27 is x^3
there, so the planar certificate decides it.  A core of one term c * x^e
with digit sum beyond m is decided by homogeneity,
Delta_a x^e(x) = a^e * Delta_1 x^e(x / a), which makes every shift a behave
like a = 1, so the scan reads the one row a = 1: such an f is planar
exactly when that row permutes, and Alltop exactly when Delta_1 f is
planar.  A positive of higher digit degree, such as the Coulter-Matthews
x^((3^k+1)/2) over GF(3^r), then costs O(q) reads for planar and O(q^2)
for Alltop.  Any other core is scanned over [1, q).  `monomial_verdicts`
decides many exponents at once from the same facts.  In every case the
witness is the first violation of the whole scan.

One table, `_p_power_exponents` = {p^i: i}, gives the exponent classes: its
keys are the linearized exponents, and x^e is the quadratic monomial
x^(p^k + 1) exactly when e - 1 maps to k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import polyfun
from .errors import NonAdditiveM, NotAlltop, ZeroScale
from .field import FieldElement, FieldSpec, _require_prime, base_p_digits
from .polyfun import Poly

_FIRST_CHUNK_ENTRIES = 1 << 14  # entries in a certificate's first batch
_CHUNK_ENTRIES = 1 << 20
_BATCH_ENTRIES = 1 << 16  # difference entries per batch in monomial_verdicts
_CERTIFIED_DEGREE = {"planar": 2, "alltop": 3}  # the certificate's order m per mode


def _row_chunks(start: int, stop: int, q: int, size: int = 1):
    """Consecutive ascending int32 arrays covering rows [start, stop) of a
    q-wide scan: the first holds `size` rows, each later one twice the rows
    of the one before, up to _CHUNK_ENTRIES entries."""
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
    Otherwise f(0) = 0, so row x = 0 holds (f(0 + y) = f(y)) and the scan
    starts at x = 1, with the same first witness.
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
    for xs in _row_chunks(1, q, q):
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
    fld: FieldSpec, t: np.ndarray, first: int = 1, stop: int | None = None
) -> tuple[int, int, int] | None:
    """Planarity of the function given by table t: every difference row with
    shift a in [first, stop) (nonzero; stop defaults to q) must be a
    permutation.  Returns the first (a, x, x2)."""
    q = fld.q
    for shifts in _row_chunks(first, q if stop is None else stop, q):
        diff = polyfun._table_delta(fld, t, shifts[:, None])
        ok = _perm_rows_ok(q, diff)
        if not ok.all():
            i = int(np.argmax(~ok))
            x, x2 = _first_collision(diff[i])
            return int(shifts[i]), x, x2
    return None


def _table_alltop_witness(
    fld: FieldSpec, t: np.ndarray, first: int = 1, stop: int | None = None
) -> tuple[int, int, int, int] | None:
    """The Alltop scan of table t over shifts a in [first, stop) (stop
    defaults to q), each against every b >= a: the first (a, b, x, x2).

    The second difference at (a, b) is T[x+a+b] - T[x+b] - T[x+a] + T[x].
    That row is symmetric in a and b, so a failing row (a, b) with b < a
    also fails as row (b, a), which comes first; scanning only b >= a finds
    the same first witness.
    """
    for a in range(first, fld.q if stop is None else stop):
        w = _table_planar_witness(fld, polyfun._table_delta(fld, t, a), a)
        if w is not None:
            return (a, *w)
    return None


def _digits(enc: np.ndarray, fld: FieldSpec) -> np.ndarray:
    """Base-p digits of encodings, as int64 along a new last axis."""
    return enc.astype(np.int64)[..., None] // fld.p ** np.arange(fld.r) % fld.p


@functools.lru_cache(maxsize=64)
def _form_reads(fld: FieldSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, points) for the m-fold difference at the basis vectors e_i
    (the encodings p^i): D(v_1, ..., v_m) = sum over subsets S of the v's of
    (-1)^(m - |S|) T[sum S].  points[s] holds the sum of subset s at every
    m-tuple of basis vectors, an (r,) * m array; both are read-only."""
    r = fld.r
    e = fld.p ** np.arange(r)
    axes = [e.reshape((r,) + (1,) * (m - 1 - i)) for i in range(m)]
    signs, points = [], []
    for chosen in itertools.product((False, True), repeat=m):
        idx = np.zeros((r,) * m, dtype=np.int32)
        for v in itertools.compress(axes, chosen):
            idx = fld.add_vec(idx, v)
        signs.append(-1 if (m - sum(chosen)) % 2 else 1)
        points.append(idx)
    out = np.array(signs, dtype=np.int64), np.stack(points)
    for a in out:
        a.setflags(write=False)
    return out


def _basis_form(fld: FieldSpec, t: np.ndarray, m: int) -> np.ndarray:
    """The m-fold difference of table t at every m-tuple of basis vectors, as
    an (r,) * m + (r,) array of the base-p digits of its value.  When f has
    digit degree at most m, it is GF(p)-multilinear."""
    signs, points = _form_reads(fld, m)
    values = _digits(t[points], fld).reshape(len(signs), -1)
    return (signs @ values % fld.p).reshape((fld.r,) * (m + 1))


def _singular(mats: np.ndarray, p: int) -> np.ndarray:
    """Per matrix of an (n, r, r) array of residues mod p: is it singular?

    Fraction-free elimination on all n at once.  At column c, where the
    diagonal entry is 0, the first row below c with a nonzero entry there is
    added to row c; then each row i below becomes
    piv * row_i - m[i, c] * row_c.  Both steps keep the rank and need no
    inverse mod p.  A column with no pivot zeroes every row below it, so the
    matrix is singular exactly when its last diagonal entry ends up 0.
    """
    m = mats.copy()
    n, r, _ = m.shape
    every = np.arange(n)
    for c in range(r - 1):
        below = m[every, c + (m[:, c:, c] != 0).argmax(axis=1)]
        m[:, c] += below * (m[:, c, c] == 0)[:, None]
        m[:, c + 1 :] = (m[:, c + 1 :] * m[:, c, c, None, None]
                         - m[:, c + 1 :, c, None] * m[:, c, None]) % p
    return m[:, r - 1, r - 1] == 0


@functools.lru_cache(maxsize=64)
def _projective_points(fld: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """The encodings whose leading base-p digit is 1, ascending, and their
    digits: one point per line through 0, each the smallest encoding on its
    line.  Both arrays are read-only."""
    p = fld.p
    pts = np.concatenate([np.arange(p**s, 2 * p**s) for s in range(fld.r)])
    out = pts, _digits(pts, fld)
    for a in out:
        a.setflags(write=False)
    return out


def _first_singular(fld: FieldSpec, t: np.ndarray, m: int) -> int | None:
    """The certificate of order m for a table of digit degree at most m: the
    smallest a != 0 whose difference fails, None when there is none.  For
    m = 2 a fails when Delta_a f is not a permutation, for m = 3 when some
    Delta_a Delta_b f with b != 0 is not.

    That difference is x -> F(a, x), or F(a, b, x), plus a constant, with
    F = `_basis_form`(m) symmetric and GF(p)-multilinear, so it permutes
    exactly when the r x r matrix of F(a, .) or F(a, b, .) is invertible.
    Scaling a or b scales that matrix, so one point per line decides, the
    line's smallest encoding.  Points a are taken in ascending chunks, for
    m = 3 each against every b from the chunk's first on.  The first chunk
    with a singular matrix holds the answer, its first failing row: a pair
    (a, b) with b < a also fails as (b, a), in an earlier row.  A positive
    reads every point, so the first chunk holds about _FIRST_CHUNK_ENTRIES
    matrix entries, not one row.
    """
    p, r = fld.p, fld.r
    pts, digits = _projective_points(fld)
    form = _basis_form(fld, t, m).reshape(r, -1)
    n = len(pts)
    width = n ** (m - 2) * r * r
    for rows in _row_chunks(0, n, width, max(1, _FIRST_CHUNK_ENTRIES // width)):
        mats = digits[rows] @ form % p  # [a, x * r + digit], or [a, (b * r + x) * r + digit]
        if m == 3:
            mats = digits[rows[0] :] @ mats.reshape(len(rows), r, r * r) % p  # [a, b, ...]
        bad = _singular(mats.reshape(-1, r, r), p).reshape(len(rows), -1).any(axis=1)
        if bad.any():
            return int(pts[rows[bad.argmax()]])
    return None


def planar_witness(f: Poly) -> tuple[int, int, int] | None:
    """None when f is planar, else the first (a, x, x2) with a difference collision."""
    return _witness(f, "planar")


def is_planar(f: Poly) -> bool:
    return planar_witness(f) is None


def alltop_witness(f: Poly) -> tuple[int, int, int, int] | None:
    """None when every difference of f is planar, else the first (a, b, x, x2)."""
    return _witness(f, "alltop")


def _witness(f: Poly, mode: str):
    """The mode's witness for f from one scan over the shifts [first, stop)
    its route picks from f's core (module docstring), m being the mode's
    certified order: one row a for a failing certificate at a when every
    core exponent has digit sum <= m, the row a = 1 for any other
    single-term core, [1, q) otherwise."""
    fld = f.field
    t = f.value_table()
    m = _CERTIFIED_DEGREE[mode]
    core = _core(f, _free_exponents(fld, mode))
    first, stop = 1, fld.q
    if max((sum(base_p_digits(e, fld.p)) for e, _ in core), default=0) <= m:
        first = _first_singular(fld, t, m)
        if first is None:
            return None
        stop = first + 1
    elif len(core) == 1:
        stop = 2
    scan = _table_planar_witness if mode == "planar" else _table_alltop_witness
    return scan(fld, t, first, stop)


def is_alltop(f: Poly) -> bool:
    return alltop_witness(f) is None


def monomial_verdicts(fld: FieldSpec, exponents, mode: str) -> np.ndarray:
    """Per exponent e: is x^e planar (mode "planar") or Alltop ("alltop")?

    Homogeneity decides from one difference.  For a != 0,
    Delta_a x^e(x) = a^e * Delta_1 x^e(x / a) and
    Delta_b Delta_a x^e(x) = a^e * (Delta_(b/a) Delta_1 x^e)(x / a), so x^e
    is planar exactly when the row Delta_1 x^e permutes the field, and
    Alltop exactly when Delta_1 x^e is planar.  Rows are built and checked
    in batches of at most _BATCH_ENTRIES entries.  In alltop mode the shift
    b = 1 comes first for every exponent, and only the exponents that pass
    it go on to the other shifts.
    """
    if mode not in ("planar", "alltop"):
        raise ValueError(f"unknown mode {mode!r}")
    exps = np.asarray(exponents, dtype=np.int64)
    q = fld.q
    x = fld.encodings[:, None]

    def delta_one(es):  # column j is the table of Delta_1 x^(es[j])
        return polyfun._table_delta(fld, fld.pow_elemwise(x, es), 1)

    ok = np.ones(len(exps), dtype=bool)
    if mode == "planar":
        step = max(1, _BATCH_ENTRIES // q)
        for lo in range(0, len(exps), step):
            ok[lo : lo + step] = _perm_rows_ok(q, delta_one(exps[lo : lo + step]).T)
        return ok
    edges = [1, *range(2, q, max(1, _BATCH_ENTRIES // q)), q]
    for lo_b, hi_b in zip(edges, edges[1:]):
        shifts = np.arange(lo_b, hi_b, dtype=np.int32)[:, None]
        alive = np.flatnonzero(ok)
        step = max(1, _BATCH_ENTRIES // (len(shifts) * q))
        for lo in range(0, len(alive), step):
            sel = alive[lo : lo + step]
            dd = polyfun._table_delta(fld, delta_one(exps[sel]), shifts)  # [b, x, e]
            rows = dd.transpose(2, 0, 1).reshape(-1, q)
            ok[sel] = _perm_rows_ok(q, rows).reshape(len(sel), -1).all(axis=1)
    return ok


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


@functools.lru_cache(maxsize=64)
def _free_exponents(fld: FieldSpec, mode: str) -> frozenset[int]:
    """Reduced exponents whose terms cannot change the mode's verdict.

    Adding an affine function (exponents 0 and p^i) preserves planarity; in
    alltop mode the Dembowski-Ostrom exponents p^i + p^j, whose first
    differences are affine, are free as well.
    """
    powers = _p_power_exponents(fld).keys()
    free = {0, *powers}
    if mode == "alltop":
        free.update(a + b for a in powers for b in powers)
    return frozenset(free)


def _core(f: Poly, free: frozenset[int]) -> frozenset[tuple[int, int]]:
    """The reduced (exponent, coefficient) terms of f outside the free set.

    Free terms are dropped before `polyfun._combine` sums the rest, so only
    exponents outside the free set that collide after reduction cost a
    field addition.
    """
    q = f.field.q
    reduced = ((polyfun._reduced_exponent(e, q), c) for e, c in f._terms.items())
    core = polyfun._combine(f.field, polyfun._rounds(item for item in reduced
                                                      if item[0] not in free))
    return frozenset(core._terms.items())


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
