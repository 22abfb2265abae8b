"""Polynomial functions over GF(q): parsing, reduction, evaluation tables,
difference operators, and the monomial degree calculus.

Polynomials are sparse maps exponent -> nonzero coefficient encoding and stay
formal by default: exponents may reach or exceed q until reduce() rewrites
them modulo x^q - x.  Degree statements about difference polynomials concern
the formal degree, which silent reduction would destroy.

A value table is a read-only int32 array of length q, entry e = f(element
with encoding e).  `value_table` reduces the exponents, takes the tables of
all terms c*x^e from one log-domain gather (`FieldSpec.monomial_tables`)
and sums them with add_vec.  `_table_delta` is the one table difference
T[x + a] - T[x], for one shift or a column of shifts; `delta_table`, the
planar and Alltop scans in `classify` and its monomial sweeps call it.

`delta`, `double_delta` and `shift_scale` share `_expand`, which expands
every monomial binomially at once: the k of all terms are concatenated, so
C(n, k) * c is weighted by a^k, by (a + b)^k - a^k - b^k or by
s^(n - k) * t^k in one run of vector kernels, whatever the number of terms.
Like terms are summed in one place, `_combine`, which `+`, `reduce`,
`parse_poly`, `_expand` and `classify._core` share.  It takes blocks of
terms with no exponent twice in a block (one block per expanded term, or,
from `_rounds`, the k-th occurrences of each exponent) and sums the
exponents a block shares with the blocks before it in one add_vec.  Polys
the layer builds from encodings already in range skip the constructor's
per-term checks (`Poly._trusted`).

Text grammar (whitespace ignored, output uses decreasing exponents):

    poly  := term ('+' term)*
    term  := coeff '*' 'x' '^' exp | coeff '*' 'x' | 'x' '^' exp | 'x' | coeff

where coeff is a canonical element encoding in [0, q) and exp a non-negative
decimal integer.
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings

import numpy as np

from . import binom
from .errors import CoefficientOutOfRange, FieldMismatch, PolySyntaxError, ZeroScale
from .field import FieldElement, FieldSpec, _require_prime


class ZeroShiftWarning(UserWarning):
    """Difference operator invoked with shift a = 0."""


_TERM_RE = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")


class Poly:
    """Sparse polynomial over a FieldSpec; immutable once constructed.

    ``terms`` maps exponents to coefficient encodings; zero coefficients are
    never stored, so the zero polynomial has an empty map and degree() None.
    """

    __slots__ = ("field", "_terms")

    def __init__(self, field: FieldSpec, terms=None):
        self.field = field
        clean: dict[int, int] = {}
        if terms:
            for e, c in dict(terms).items():
                if not isinstance(e, (int, np.integer)) or e < 0:
                    raise ValueError(f"exponent {e!r} must be a non-negative integer")
                enc = field.enc_of(c)
                if enc:
                    clean[int(e)] = enc
        self._terms = clean

    @classmethod
    def _trusted(cls, field: FieldSpec, terms: dict[int, int]) -> "Poly":
        """A Poly that keeps `terms` as it is, unchecked: the layer's own
        constructions, whose int exponents are non-negative and whose
        coefficient encodings are nonzero and below q."""
        f = object.__new__(cls)
        f.field = field
        f._terms = terms
        return f

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field)

    @classmethod
    def constant(cls, field: FieldSpec, c) -> "Poly":
        return cls(field, {0: c})

    @classmethod
    def monomial(cls, field: FieldSpec, exp: int, coeff=1) -> "Poly":
        return cls(field, {exp: coeff})

    @classmethod
    def from_coeffs(cls, field: FieldSpec, coeffs) -> "Poly":
        """Dense coefficient sequence, index = exponent."""
        return cls(field, {e: c for e, c in enumerate(coeffs)})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """Copy of the sparse exponent -> coefficient-encoding map."""
        return dict(self._terms)

    def coefficient(self, exp: int) -> FieldElement:
        return self.field.element(self._terms.get(exp, 0))

    def degree(self) -> int | None:
        """Formal degree; None for the zero polynomial (never compare numerically)."""
        return max(self._terms) if self._terms else None

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self._terms == other._terms

    def __repr__(self) -> str:
        return f"Poly[{self.field!r}]({self})"

    def __str__(self) -> str:
        return format_poly(self)

    # -- ring-ish operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")
        return _combine(self.field, [self._terms, other._terms])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __mul__(self, scalar) -> "Poly":
        """Scalar multiple; polynomial-by-polynomial products are out of scope."""
        s = self.field.enc_of(scalar)
        return self._recoefficient(self.field.mul_vec(list(self._terms.values()), s))

    __rmul__ = __mul__

    def __neg__(self) -> "Poly":
        return self._recoefficient(self.field.neg_vec(list(self._terms.values())))

    def _recoefficient(self, coeffs: np.ndarray) -> "Poly":
        """The terms' exponents with new coefficient encodings, in term
        order; zero coefficients drop out."""
        return Poly._trusted(self.field, {e: c for e, c in zip(self._terms, coeffs.tolist()) if c})

    # -- function semantics -------------------------------------------------

    def reduce(self) -> "Poly":
        """Rewrite exponents modulo x^q - x; the induced function is unchanged."""
        q = self.field.q
        pairs = ((_reduced_exponent(e, q), c) for e, c in self._terms.items())
        return _combine(self.field, _rounds(pairs))

    def __call__(self, x) -> FieldElement:
        """f(x) as the field sum of c * x**e over the terms, with 0**0 = 1;
        formal exponents need no reduction, since pow reduces them."""
        f = self.field
        xe = f.enc_of(x)
        acc = 0
        for e, c in self._terms.items():
            acc = f.add(acc, f.mul(c, f.pow(xe, e)))
        return f.element(acc)

    def value_table(self) -> np.ndarray:
        """Read-only int32 array of the values at all q points: the rows of
        `monomial_tables` summed with add_vec.  Exponents are reduced first
        (same function), so formal ones of any size fit its int64 array."""
        f = self.field
        if not self._terms:
            total = np.zeros(f.q, dtype=np.int32)
        else:
            exps = [_reduced_exponent(e, f.q) for e in self._terms]
            total = functools.reduce(
                f.add_vec, f.monomial_tables(exps, list(self._terms.values())))
        total.setflags(write=False)
        return total


def _reduced_exponent(e: int, q: int) -> int:
    """The exponent in [0, q) that x^e equals as a function on GF(q)."""
    return e if e == 0 else (e - 1) % (q - 1) + 1


def parse_poly(text: str, field: FieldSpec) -> Poly:
    """Parse the grammar above; like terms combine, formal degree is preserved."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise PolySyntaxError("empty polynomial text")
    pairs = []
    for part in stripped.split("+"):
        m = _TERM_RE.match(part)
        if m is None:
            raise PolySyntaxError(f"bad term {part!r}")
        if m.group(3) is not None:
            coeff, exp = int(m.group(3)), 0
        else:
            coeff = int(m.group(1)) if m.group(1) is not None else 1
            exp = int(m.group(2)) if m.group(2) is not None else 1
        if coeff >= field.q:
            raise CoefficientOutOfRange(
                f"coefficient {coeff} outside [0, {field.q})"
            )
        pairs.append((exp, coeff))
    return _combine(field, _rounds(pairs))


def format_poly(f: Poly) -> str:
    """Canonical text, terms in decreasing exponent order; '0' for the zero poly."""
    if f.is_zero():
        return "0"
    parts = []
    for e in sorted(f._terms, reverse=True):
        c = f._terms[e]
        if e == 0:
            parts.append(str(c))
        else:
            xs = "x" if e == 1 else f"x^{e}"
            parts.append(xs if c == 1 else f"{c}*{xs}")
    return " + ".join(parts)


def _rounds(pairs) -> list[dict[int, int]]:
    """Split (exponent, coefficient encoding) pairs into blocks for
    `_combine`: block k maps each exponent to its k-th coefficient."""
    blocks: list[dict[int, int]] = []
    seen: dict[int, int] = {}
    for e, c in pairs:
        k = seen.get(e, 0)
        seen[e] = k + 1
        if k == len(blocks):
            blocks.append({})
        blocks[k][e] = c
    return blocks


def _combine(fld: FieldSpec, blocks) -> Poly:
    """Sum blocks of terms, each an exponent -> coefficient-encoding map,
    into a Poly.  The exponents a block shares with the blocks before it
    are summed in one add_vec, since no exponent occurs twice in a block;
    zero coefficients and sums that cancel drop out."""
    acc: dict[int, int] = {}
    for block in blocks:
        shared = acc.keys() & block.keys()
        sums = fld.add_vec([acc[e] for e in shared],
                           [block[e] for e in shared]).tolist() if shared else []
        acc.update(block)
        acc.update(zip(shared, sums))
    if 0 in acc.values():
        acc = {e: c for e, c in acc.items() if c}
    return Poly._trusted(fld, acc)


def delta(f: Poly, a) -> Poly:
    """Formal difference polynomial f(x + a) - f(x).

    Expands each monomial binomially, keeping only the coefficients that are
    nonzero mod p (digit domination); a = 0 is flagged with ZeroShiftWarning
    and yields the zero polynomial.
    """
    fld = f.field
    a_enc = fld.enc_of(a)
    if a_enc == 0:
        warnings.warn(
            "difference with shift a = 0 is the zero polynomial",
            ZeroShiftWarning,
            stacklevel=2,
        )
        return Poly.zero(fld)

    return _expand(f, lambda ks, exps: fld.pow_elemwise(a_enc, ks))


def _expand(f: Poly, weight, first: int = 1) -> Poly:
    """Sum of C(n, k) * weight(k, n - k) * c on x^(n - k) over the terms
    c*x^n of f and the k >= first where C(n, k) is nonzero mod p.

    The k of every term are concatenated, so weight maps arrays of k and
    n - k to an array of encodings once per call, and each term's run of
    distinct exponents is one block of `_combine`."""
    fld = f.field
    ks, exps, bs, cs = [], [], [], []
    for n, c in f._terms.items():
        if n >= first:
            k, b = binom.expansion(n, fld.p)
            ks.append(k[first:])
            exps.append(n - k[first:])
            bs.append(b[first:])
            cs.append(np.full(len(b) - first, c, dtype=np.int32))
    if not ks:
        return Poly._trusted(fld, {})
    ends = list(itertools.accumulate(map(len, ks)))
    k, e = np.concatenate(ks), np.concatenate(exps)
    coeffs = fld.mul_vec(fld.mul_vec(np.concatenate(bs), weight(k, e)), np.concatenate(cs))
    e, coeffs = e.tolist(), coeffs.tolist()
    return _combine(fld, [dict(zip(e[lo:hi], coeffs[lo:hi])) for lo, hi in zip([0, *ends], ends)])


def _table_delta(fld: FieldSpec, t: np.ndarray, a) -> np.ndarray:
    """T[x + a] - T[x] for the value table t: a row of length q for one
    shift a, a (k, q) array for a (k, 1) column of shifts.  A (q, n) array
    of n tables gives (q, n) and (k, q, n)."""
    return fld.sub_vec(t[fld.add_vec(a, fld.encodings)], t)


def delta_table(f: Poly, a) -> np.ndarray:
    """Table form of the difference as a read-only int32 array, in O(q)."""
    fld = f.field
    d = _table_delta(fld, f.value_table(), fld.enc_of(a))
    d.setflags(write=False)
    return d


def double_delta(f: Poly, a, b) -> Poly:
    """Second difference delta(delta(f, a), b), in one expansion per term.

    Since C(n, k) * C(n - k, j) = C(n, m) * C(m, k) with m = k + j, the
    second difference of x^n is the sum over m >= 1 of
    C(n, m) * ((a + b)^m - a^m - b^m) * x^(n - m).  A zero shift takes the
    composition, which warns as delta does and yields zero.
    """
    fld = f.field
    a_enc, b_enc = fld.enc_of(a), fld.enc_of(b)
    if a_enc == 0 or b_enc == 0:
        return delta(delta(f, a), b)
    s_enc = fld.add_vec(a_enc, b_enc)
    return _expand(f, lambda ks, exps: fld.sub_vec(
        fld.sub_vec(fld.pow_elemwise(s_enc, ks), fld.pow_elemwise(a_enc, ks)),
        fld.pow_elemwise(b_enc, ks),
    ))


def shift_scale(f: Poly, s, t) -> Poly:
    """Substitute x -> s*x + t (s nonzero), expanded and combined."""
    fld = f.field
    s_enc = fld.enc_of(s)
    t_enc = fld.enc_of(t)
    if s_enc == 0:
        raise ZeroScale("scale factor s must be nonzero")

    # C(n, k) * s^(n - k) * t^k on x^(n - k), from k = 0 up
    return _expand(f, lambda ks, exps: fld.mul_vec(fld.pow_elemwise(s_enc, exps),
                                                   fld.pow_elemwise(t_enc, ks)), first=0)


def predicted_delta_degree(n: int, p: int) -> int:
    """Degree of the difference of x^n: write n = p^s * m with gcd(m, p) = 1
    and return p^s * (m - 1); zero exactly when n is a power of p."""
    _require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    s = 0
    m = n
    while m % p == 0:
        m //= p
        s += 1
    return p**s * (m - 1)


def preimage_degrees(s: int, l: int, p: int) -> set[int]:
    """All monomial degrees whose difference has degree p^s * l (gcd(l, p) = 1).

    These are the n = p^t * (p^(s-t) * l + 1) for 0 <= t <= s, except that at
    t = s the inner factor l + 1 may be divisible by p, in which case that n
    has a different p-adic shape and its difference degree is not p^s * l.
    """
    _require_prime(p)
    if s < 0:
        raise ValueError("s must be non-negative")
    if l < 1 or l % p == 0:
        raise ValueError("l must be positive and coprime to p")
    out = set()
    for t in range(s + 1):
        m = p ** (s - t) * l + 1
        if m % p:
            out.add(p**t * m)
    return out
