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
entries read 124 and 6 rows (CPU time, 2-core x86).  The Alltop certificate
keeps that first batch, since its positives read every pair of points.  An
additive positive costs O(terms): a function is additive exactly when its
reduced polynomial is linearized, sum c_i x^(p^i), so that case needs no
table at all, and neither does a reduced polynomial with a nonzero
constant, whose witness is (0, 0).

Certificates.  Let the digit degree of f be the largest base-p digit sum of
its reduced exponents (`_digit_degree`): its degree as a polynomial in the
GF(p) coordinates of x.  By Lucas, each difference lowers it, so at digit
degree <= 2 every Delta_a f is x -> B(a, x) plus a constant, and at digit
degree <= 3 every Delta_a Delta_b f is x -> D(a, b, x) plus a constant, with
B bilinear and D trilinear over GF(p).  Such a difference permutes exactly
when its r x r matrix over GF(p) is invertible.  B and D are read from the
table at the basis vectors e_i = p^i, 4 and 8 entries per value
(`_basis_form`), and scaling a or b scales the matrix, so one point per
line through 0 decides (`_projective_points`).  A batched elimination mod p
(`_singular`) then decides planarity at digit degree <= 2 from
(q - 1)/(p - 1) matrices, and the Alltop property at digit degree <= 3 from
about ((q - 1)/(p - 1))^2 / 2, in any odd characteristic: x^2 over GF(2401)
in 0.7 ms and x^3 over GF(343) in 1.6 ms against 0.18 s and 0.60 s by scan,
and x^3 over GF(2401) in 0.12 s (CPU time, 2-core x86).

Routes.  Every witness comes from one scan (`_table_planar_witness`,
`_table_alltop_witness`) over a range of shifts [first, stop), and a route
only picks that range (`_witness`).  A passing certificate answers None
with no scan.  A failing one names the smallest failing shift a, a point
of smallest encoding on its line, and the scan reads the one row a.  Let
f be c * x^e plus terms of the mode's free exponents (`_free_exponents`:
affine terms, and for Alltop Dembowski-Ostrom terms too), with e beyond
the certificate's digit degree (`_single_term`).  Homogeneity,
Delta_a x^e(x) = a^e * Delta_1 x^e(x / a), makes every shift a behave like
a = 1, so the scan reads the one row a = 1: such an f is planar exactly
when that row permutes, and Alltop exactly when Delta_1 f is planar.  A
positive of higher digit degree, such as the Coulter-Matthews
x^((3^k+1)/2) over GF(3^r), then costs O(q) reads for planar and O(q^2)
for Alltop.  Any other f of higher digit degree is scanned over [1, q).
`monomial_verdicts` decides many exponents at once from the same facts.
In every case the witness is the first violation of the whole scan.

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

_FIRST_CHUNK_ENTRIES = 1 << 14  # entries in the Alltop certificate's first batch
_CHUNK_ENTRIES = 1 << 20
_BATCH_ENTRIES = 1 << 16  # difference entries per batch in monomial_verdicts
_CERTIFIED_DEGREE = {"planar": 2, "alltop": 3}  # the certificates' digit degrees


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


def _digit_degree(f: Poly) -> int:
    """The largest base-p digit sum of f's reduced exponents, 0 for f = 0:
    the degree of f as a polynomial in the GF(p) coordinates of x."""
    p, q = f.field.p, f.field.q
    return max((sum(base_p_digits(polyfun._reduced_exponent(e, q), p)) for e in f.terms),
               default=0)


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


def _first_singular_shift(fld: FieldSpec, t: np.ndarray) -> int | None:
    """Planar certificate for a table of digit degree at most 2: the smallest
    a != 0 whose difference is not a permutation, None when there is none.

    Delta_a f is x -> B(a, x) plus a constant, with B = `_basis_form`(2)
    bilinear, so it permutes exactly when the r x r matrix of B(a, .) is
    invertible, and B(c * a, .) = c * B(a, .).  One point per line decides
    its line, and that point is the line's smallest encoding.
    """
    pts, digits = _projective_points(fld)
    r = fld.r
    form = _basis_form(fld, t, 2).reshape(r, r * r)
    bad = _singular((digits @ form % fld.p).reshape(-1, r, r), fld.p)
    return int(pts[bad.argmax()]) if bad.any() else None


def planar_witness(f: Poly) -> tuple[int, int, int] | None:
    """None when f is planar, else the first (a, x, x2) with a difference collision."""
    return _witness(f, "planar")


def is_planar(f: Poly) -> bool:
    return planar_witness(f) is None


def _first_singular_pair_shift(fld: FieldSpec, t: np.ndarray) -> int | None:
    """Alltop certificate for a table of digit degree at most 3: the smallest
    a != 0 with some b != 0 whose second difference is not a permutation,
    None when there is none.

    Delta_a Delta_b f is x -> D(a, b, x) plus a constant, with D =
    `_basis_form`(3) symmetric and trilinear, so one point per line of a
    and of b decides.  Points a are taken in ascending chunks against every
    b from the chunk's first on.  The first chunk with a singular pair holds
    the answer, its first failing row: a pair (a, b) with b < a also fails
    as (b, a), in an earlier row.  A positive reads every pair, so the first
    chunk holds about _FIRST_CHUNK_ENTRIES matrix entries, not one row.
    """
    p, r = fld.p, fld.r
    pts, digits = _projective_points(fld)
    form = _basis_form(fld, t, 3).reshape(r, r**3)
    n = len(pts)
    width = n * r * r
    for rows in _row_chunks(0, n, width, max(1, _FIRST_CHUNK_ENTRIES // width)):
        a0 = int(rows[0])
        by_a = (digits[rows] @ form % p).reshape(len(rows), r, r * r)
        mats = digits[a0:] @ by_a % p  # [a, b, x * r + digit]
        bad = _singular(mats.reshape(-1, r, r), p).reshape(len(rows), n - a0)
        if bad.any():
            return int(pts[rows[bad.any(axis=1).argmax()]])
    return None


def alltop_witness(f: Poly) -> tuple[int, int, int, int] | None:
    """None when every difference of f is planar, else the first (a, b, x, x2)."""
    return _witness(f, "alltop")


def _witness(f: Poly, mode: str):
    """The mode's witness for f from one scan over the shifts [first, stop)
    its route picks (module docstring): one row a for a failing certificate
    at a, the row a = 1 for a single-term core, [1, q) otherwise."""
    fld = f.field
    t = f.value_table()
    planar = mode == "planar"
    first, stop = 1, fld.q
    if _digit_degree(f) <= _CERTIFIED_DEGREE[mode]:
        first = (_first_singular_shift if planar else _first_singular_pair_shift)(fld, t)
        if first is None:
            return None
        stop = first + 1
    elif _single_term(f, mode):
        stop = 2
    return (_table_planar_witness if planar else _table_alltop_witness)(fld, t, first, stop)


def is_alltop(f: Poly) -> bool:
    return alltop_witness(f) is None


def _single_term(f: Poly, mode: str) -> bool:
    """Is f one term c * x^e once the mode's free terms are dropped, with e
    beyond the certificate's digit degree (2 for planar, 3 for Alltop)?"""
    core = _core(f, _free_exponents(f.field, mode))
    if len(core) != 1:
        return False
    ((e, _),) = core
    return sum(base_p_digits(e, f.field.p)) > _CERTIFIED_DEGREE[mode]


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

    Free terms are dropped before any coefficients are combined, and only
    exponents that collide after reduction cost a field addition.
    """
    fld = f.field
    core: dict[int, int] = {}
    for e, c in f.terms.items():
        e = polyfun._reduced_exponent(e, fld.q)
        if e not in free:
            prev = core.get(e)
            core[e] = c if prev is None else fld.add(prev, c)
    return frozenset(item for item in core.items() if item[1])


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
