"""Finite fields GF(p^r) of odd characteristic.

An element with polynomial-basis coefficients (c_0, ..., c_{r-1}) over Z_p is
identified by its canonical integer encoding sum(c_i * p**i), so encodings
run over [0, q) with q = p**r.  Encoding 0 is the zero element and encoding 1
the multiplicative identity; encodings below p form the prime subfield, with
the encoding equal to the residue.

The reduction modulus depends only on (p, r): it is the monic irreducible of
degree r over Z_p whose non-leading coefficient vector has the smallest
encoding.  It is found by scanning encodings upward, testing irreducibility
by trial division against every monic polynomial of degree at most r // 2.
A process holds one FieldSpec per (p, r), which make_field (whatever its
max_order) and unpickling return, so fields compare by identity.

Scalar arithmetic works on plain integers.  The ``*_vec`` methods operate on
numpy arrays of encodings (any broadcastable shapes) and are the performance
core used by the classification and search modules.  For r > 1 they are
gathers into four O(q) int32 tables of the smallest-encoding generator g of
GF(q)*, built once per field (see FieldSpec._log_exp): LOG and EXP give
products, powers and inverses, a Zech-logarithm table gives sums,
g**i + g**j = g**(i + Z(j - i)) (Huber, IEEE Trans. IT 36(4), 1990), and NEG
gives negatives.  LOG[0] puts zero operands in index ranges of their own, so
sums, differences and negatives need no masks for zero.  Prime fields add
and multiply residues mod p directly, which costs less per call than the
lookups.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    BudgetExceeded,
    CharTwoUnsupported,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NotPrime,
)

DEFAULT_MAX_ORDER = 10_000
MAX_TABLE_ENTRIES = 1 << 24  # q^2 bound of the O(q^2) tables: q <= 4096
_FIELDS: dict[tuple[int, int], "FieldSpec"] = {}  # (p, r) -> the process's field


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _digits(value: int, p: int, width: int) -> list[int]:
    """Base-p digits of value, low-to-high, padded to width."""
    out = []
    for _ in range(width):
        value, rem = divmod(value, p)
        out.append(rem)
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, coefficients mod p."""
    rem = list(num)
    d = len(den) - 1
    while len(rem) > d:
        lead = rem[-1]
        if lead:
            k = len(rem) - 1 - d
            for i in range(d):
                rem[k + i] = (rem[k + i] - lead * den[i]) % p
        rem.pop()
    return rem


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division of a monic polynomial by all monic factors of degree <= r//2."""
    r = len(poly) - 1
    if r == 1:
        return True
    if poly[0] == 0:
        return False  # divisible by x
    for d in range(1, r // 2 + 1):
        for enc in range(p**d):
            divisor = _digits(enc, p, d) + [1]
            if not any(_poly_rem(poly, divisor, p)):
                return False
    return True


def _canonical_modulus(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)
    for enc in range(p**r):
        cand = _digits(enc, p, r) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {r} over Z_{p}")  # pragma: no cover


def _generator_powers(p: int, r: int, modulus: tuple[int, ...]) -> list[int]:
    """Encodings of g**0, ..., g**(q-2) for the smallest-encoding generator g
    of GF(q)*: each candidate's powers are walked until they return to 1, and
    the first candidate that needs q - 1 steps is a generator.  Candidates in
    the cycle of an earlier candidate lie in a proper subgroup and are skipped."""
    q = p**r
    weights = [p**i for i in range(r)]
    mod = list(modulus)
    seen: set[int] = set()
    for g in range(2, q):
        if g in seen:
            continue
        gd = _digits(g, p, r)
        cur = _digits(1, p, r)
        powers = [1]
        for _ in range(q - 2):
            prod = [0] * (2 * r - 1)
            for i, c in enumerate(cur):
                for j, d in enumerate(gd):
                    prod[i + j] += c * d
            cur = [c % p for c in _poly_rem(prod, mod, p)]
            enc = sum(c * w for c, w in zip(cur, weights))
            if enc == 1:
                break
            powers.append(enc)
        else:
            return powers
        seen.update(powers)
    raise AssertionError(f"GF({q})* has no generator")  # pragma: no cover


@functools.lru_cache(maxsize=None)
def make_field(p: int, r: int = 1, *, max_order: int = DEFAULT_MAX_ORDER) -> "FieldSpec":
    """The process's GF(p^r) with the canonical modulus, whatever max_order.

    Raises CharTwoUnsupported for p = 2, NotPrime for composite p, and
    FieldTooLarge when p**r exceeds max_order.
    """
    if not isinstance(p, int) or not isinstance(r, int):
        raise TypeError("p and r must be integers")
    if p == 2:
        raise CharTwoUnsupported("characteristic 2 is not supported")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if r < 1:
        raise ValueError("extension degree r must be >= 1")
    if p**r > max_order:
        raise FieldTooLarge(f"p**r = {p**r} exceeds the bound {max_order}")
    return _canonical_field(p, r)


def _canonical_field(p: int, r: int) -> "FieldSpec":
    """The one FieldSpec of GF(p^r) in this process; unpickling resolves to it."""
    if (p, r) not in _FIELDS:  # of two racing threads' fields, setdefault keeps one
        _FIELDS.setdefault((p, r), FieldSpec(p, r, _canonical_modulus(p, r)))
    return _FIELDS[p, r]


class FieldSpec:
    """GF(p^r) with element encodings in [0, q); obtain instances via make_field."""

    __slots__ = ("p", "r", "q", "modulus", "_cache")

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus
        self._cache: dict[str, np.ndarray] = {}

    # -- identity ------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"

    def __reduce__(self):
        return _canonical_field, (self.p, self.r)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    # -- elements ------------------------------------------------------

    def enc_of(self, x) -> int:
        """Coerce an element-like value (FieldElement or encoding) to an int encoding."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatch(f"element of {x.field} used in {self}")
            return x.enc
        enc = int(x)
        if not 0 <= enc < self.q:
            raise ValueError(f"encoding {enc} outside [0, {self.q})")
        return enc

    def element(self, x) -> "FieldElement":
        return FieldElement(self, self.enc_of(x))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> list["FieldElement"]:
        """All q elements in increasing encoding order."""
        return [FieldElement(self, e) for e in range(self.q)]

    def __iter__(self):
        return iter(self.elements())

    # -- cached tables ---------------------------------------------------

    @property
    def encodings(self) -> np.ndarray:
        """arange(q) as int32; treat as read-only."""
        tab = self._cache.get("enc")
        if tab is None:
            tab = np.arange(self.q, dtype=np.int32)
            tab.setflags(write=False)
            self._cache["enc"] = tab
        return tab

    @property
    def _log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """(LOG, EXP) for the smallest-encoding generator g of GF(q)*; the same
        pass puts ZECH and NEG in _cache next to them.  With m = q - 1:

        - LOG[a] = k with g**k = a for a != 0, and LOG[0] = 2m.
        - EXP has 4m + 1 entries: EXP[k] = g**(k mod m) for k < 2m and 0 from
          there up, so EXP[LOG[a] + LOG[b]] is a*b even when a or b is 0.
        - NEG[a] = LOG[-a], with NEG[0] = 2m, so EXP[NEG[a]] is -a.
        - ZECH has 4m + 1 entries indexed by d = LOG[b] - LOG[a], negative d
          counted from the end, and EXP[LOG[a] + ZECH[d]] is a + b.  Because
          LOG[0] = 2m, d falls in three disjoint ranges, one per case:
          [-(m-1), m-1] when a, b != 0, where ZECH[d] = LOG[1 + g**d]
          (2m, into EXP's zero tail, when 1 + g**d = 0); [-2m, -m-1] when
          a = 0, where ZECH[d] = d; [m+1, 2m] when b = 0, where ZECH[d] = 0.
          For a = b = 0, d = 0 and LOG[a] + ZECH[0] = 2m + LOG[2] is in the
          zero tail.  The entries at d = m and d = -m are never read.
        """
        log = self._cache.get("log")
        if log is None:
            p, m = self.p, self.q - 1
            powers = np.array(_generator_powers(p, self.r, self.modulus), dtype=np.int32)
            exp = np.zeros(4 * m + 1, dtype=np.int32)
            exp[:m] = powers
            exp[m : 2 * m] = powers
            log = np.empty(self.q, dtype=np.int32)
            log[powers] = np.arange(m, dtype=np.int32)
            log[0] = 2 * m
            neg = np.empty(self.q, dtype=np.int32)
            neg[powers] = (np.arange(m, dtype=np.int32) + m // 2) % m  # -1 = g**(m/2)
            neg[0] = 2 * m
            # 1 + g**d: add 1 to the lowest base-p digit, wrapping p - 1 to 0
            one_plus = powers + 1 - p * (powers % p == p - 1)
            zech = np.zeros(4 * m + 1, dtype=np.int32)  # b = 0, d in [m+1, 2m]: 0
            zech[:m] = log[one_plus]  # d in [0, m-1]
            zech[3 * m + 2 :] = log[one_plus[1:]]  # d in [-(m-1), -1]
            zech[2 * m + 1 : 3 * m + 1] = np.arange(-2 * m, -m, dtype=np.int32)  # a = 0
            for name, tab in (("log", log), ("exp", exp), ("zech", zech), ("neg", neg)):
                tab.setflags(write=False)
                self._cache[name] = tab
        return log, self._cache["exp"]

    @property
    def _frob1(self) -> np.ndarray:
        tab = self._cache.get("frob1")
        if tab is None:
            tab = self.pow_vec(self.encodings, self.p)
            tab.setflags(write=False)
            self._cache["frob1"] = tab
        return tab

    @property
    def trace_table(self) -> np.ndarray:
        """trace_table[e] = tr(element e) as a residue in [0, p)."""
        tab = self._cache.get("trace")
        if tab is None:
            acc = self.encodings.copy()
            conj = self.encodings
            for _ in range(self.r - 1):
                conj = self._frob1[conj]
                acc = self.add_vec(acc, conj)
            if not (acc < self.p).all():  # pragma: no cover - sanity
                raise AssertionError("trace left the prime subfield")
            tab = acc.astype(np.int32)
            tab.setflags(write=False)
            self._cache["trace"] = tab
        return tab

    def _check_square_table(self, name: str) -> None:
        if self.q**2 > MAX_TABLE_ENTRIES:
            raise BudgetExceeded(
                f"{name} of GF({self.q}) has {self.q**2} entries, "
                f"more than the bound {MAX_TABLE_ENTRIES}"
            )

    @property
    def power_table(self) -> np.ndarray:
        """Matrix POW[a, e] = a**e for e in [0, q); built on demand, O(q^2) memory
        (BudgetExceeded when q^2 > MAX_TABLE_ENTRIES).

        Filled column by column from pow_vec, a lookup in the O(q)
        log/antilog tables.  pow_vec and pow_elemwise give the same powers
        for any exponent without this matrix; the difference expansions use
        pow_elemwise.
        """
        tab = self._cache.get("pow")
        if tab is None:
            self._check_square_table("power_table")
            enc = self.encodings
            tab = np.empty((self.q, self.q), dtype=np.int32)
            for e in range(self.q):
                tab[:, e] = self.pow_vec(enc, e)
            tab.setflags(write=False)
            self._cache["pow"] = tab
        return tab

    @property
    def trace_bilinear(self) -> np.ndarray:
        """Matrix TB[b, x] = tr(b * x); built on demand, O(q^2) memory
        (BudgetExceeded when q^2 > MAX_TABLE_ENTRIES)."""
        tab = self._cache.get("tb")
        if tab is None:
            self._check_square_table("trace_bilinear")
            enc = self.encodings
            tab = self.trace_table[self.mul_vec(enc[:, None], enc[None, :])]
            tab.setflags(write=False)
            self._cache["tb"] = tab
        return tab

    # -- vector kernel ---------------------------------------------------

    def add_vec(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        if self.r == 1:
            return (a + b) % self.p
        log, exp = self._log_exp  # also fills _cache["zech"] and _cache["neg"]
        la = log[a]
        return exp[la + self._cache["zech"][log[b] - la]]

    def sub_vec(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        if self.r == 1:
            return (a - b) % self.p
        log, exp = self._log_exp
        la = log[a]
        return exp[la + self._cache["zech"][self._cache["neg"][b] - la]]

    def neg_vec(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int32)
        if self.r == 1:
            return (-a) % self.p
        _, exp = self._log_exp
        return exp[self._cache["neg"][a]]

    def mul_vec(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        if self.r == 1:
            return (a * b) % self.p
        log, exp = self._log_exp
        return exp[log[a] + log[b]]

    def pow_vec(self, base, n: int) -> np.ndarray:
        """base**n elementwise for a single non-negative exponent; 0**0 = 1."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        base = np.asarray(base, dtype=np.int32)
        if n == 0:
            return np.ones(base.shape, dtype=np.int32)
        log, exp = self._log_exp
        k = log[base].astype(np.int64) * (n % (self.q - 1)) % (self.q - 1)
        return np.where(base == 0, 0, exp[k])

    def pow_elemwise(self, base, exps) -> np.ndarray:
        """base[i]**exps[i] elementwise with per-entry exponents; 0**0 = 1."""
        base = np.asarray(base, dtype=np.int32)
        e = np.asarray(exps, dtype=np.int64)
        if (e < 0).any():
            raise ValueError("exponents must be non-negative")
        log, exp = self._log_exp
        k = log[base] * (e % (self.q - 1)) % (self.q - 1)
        return np.where((base == 0) & (e > 0), 0, exp[k])

    # -- scalar kernel (int encodings in, int encodings out) --------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_vec(a, b))

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_vec(a, b))

    def neg(self, a: int) -> int:
        return int(self.neg_vec(a))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_vec(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        log, exp = self._log_exp
        return int(exp[self.q - 1 - log[a]])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return int(n == 0)
        log, exp = self._log_exp
        return int(exp[int(log[a]) * n % (self.q - 1)])

    def frobenius(self, a: int, k: int = 1) -> int:
        """a**(p**k); k reduced mod r since the automorphism has order r."""
        if k < 0:
            raise ValueError("k must be non-negative")
        e = a
        for _ in range(k % self.r):
            e = int(self._frob1[e])
        return e

    def trace(self, a: int) -> int:
        """Sum of the r conjugates, returned as a residue in [0, p)."""
        return int(self.trace_table[a])


class FieldElement:
    """Value type: an element of a FieldSpec, identified by (field, encoding).

    Arithmetic operators validate that both operands share the field; plain
    ints mix in as encodings.
    """

    __slots__ = ("field", "enc")

    def __init__(self, field: FieldSpec, enc: int):
        self.field = field
        self.enc = enc

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Polynomial-basis coefficients, low-to-high."""
        return tuple(_digits(self.enc, self.field.p, self.field.r))

    def __repr__(self) -> str:
        return f"F{self.field.q}({self.enc})"

    def __int__(self) -> int:
        return self.enc

    def __bool__(self) -> bool:
        return self.enc != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.enc == other.enc
        if isinstance(other, int):
            return self.enc == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.r, self.enc))

    def _coerce(self, other) -> int:
        return self.field.enc_of(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.enc, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.enc, self._coerce(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self._coerce(other), self.enc))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.enc, self._coerce(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.enc))

    def __pow__(self, n: int):
        return FieldElement(self.field, self.field.pow(self.enc, n))

    def __truediv__(self, other):
        return FieldElement(
            self.field, self.field.mul(self.enc, self.field.inv(self._coerce(other)))
        )

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.enc))

    def frobenius(self, k: int = 1) -> "FieldElement":
        return FieldElement(self.field, self.field.frobenius(self.enc, k))

    def trace(self) -> int:
        return self.field.trace(self.enc)
