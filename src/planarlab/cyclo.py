"""Exact arithmetic with integer combinations of p-th roots of unity.

A CycVec stores the raw coefficient vector on 1, w, ..., w^(p-1) where
w = exp(2*pi*i/p); nothing is reduced by the relation 1 + w + ... + w^(p-1) = 0,
so equality tests whether the difference vector is constant (the kernel of the
evaluation map on this spanning set is exactly the all-ones line).

The squared magnitude of such a vector expands over the same spanning set with
coefficients given by the cyclic autocorrelation d of the counts; it is a
rational integer precisely when d_1 = ... = d_{p-1}, and then equals
d_0 - d_1.  All verification paths here are integer-exact; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatch, LengthMismatch
from .field import FieldSpec
from .polyfun import Poly


@dataclass(frozen=True)
class CycVec:
    """Integer coefficient vector over the powers of the p-th root of unity."""

    p: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise ValueError(f"expected {self.p} coefficients, got {len(self.counts)}")

    def __sub__(self, other: "CycVec") -> "CycVec":
        if self.p != other.p:
            raise ValueError("mixed root orders")
        return CycVec(self.p, tuple(a - b for a, b in zip(self.counts, other.counts)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycVec):
            return NotImplemented
        if self.p != other.p:
            return False
        diff = {a - b for a, b in zip(self.counts, other.counts)}
        return len(diff) == 1

    def __hash__(self):  # constant-shift classes share a hash
        base = self.counts[-1]
        return hash((self.p, tuple(c - base for c in self.counts)))

    def rotate(self, m: int) -> "CycVec":
        """Multiply by w^m: cyclic shift of the coefficient vector."""
        m %= self.p
        return CycVec(self.p, self.counts[-m:] + self.counts[:-m])


@dataclass(frozen=True)
class MagSqResult:
    """|v|^2 of a CycVec: exact integer when the autocorrelation tail is flat."""

    is_rational_integer: bool
    value: int | None
    autocorrelation: tuple[int, ...]


def char_sum(field: FieldSpec, f: Poly) -> CycVec:
    """Histogram of tr(f(x)) over all x: coefficient j counts x with trace j."""
    if f.field != field:
        raise FieldMismatch("polynomial belongs to a different field")
    traces = field.trace_table[f.value_table()]
    counts = np.bincount(traces, minlength=field.p)
    return CycVec(field.p, tuple(int(c) for c in counts))


def mag_sq(v: CycVec) -> MagSqResult:
    """Squared magnitude via the cyclic autocorrelation d of the coefficients.

    d_m = sum_j c_j * c_{(j+m) mod p}; the value is the rational integer
    d_0 - d_1 exactly when d_1 = ... = d_{p-1}.
    """
    p = v.p
    c = v.counts
    d = tuple(sum(c[j] * c[(j + m) % p] for j in range(p)) for m in range(p))
    tail = set(d[1:])
    if len(tail) == 1:
        return MagSqResult(True, d[0] - d[1], d)
    return MagSqResult(False, None, d)


def phase_inner_counts(e1, e2, p: int) -> CycVec:
    """Counts of the phase differences (e2[x] - e1[x]) mod p of two tables.

    Feeding the result to mag_sq yields q^2 * |<v1|v2>|^2 for the unit
    vectors with entries w^e / sqrt(q).
    """
    a1 = np.asarray(e1, dtype=np.int64)
    a2 = np.asarray(e2, dtype=np.int64)
    if a1.shape != a2.shape or a1.ndim != 1:
        raise LengthMismatch(f"phase tables of shapes {a1.shape} and {a2.shape}")
    if ((a1 < 0) | (a1 >= p) | (a2 < 0) | (a2 >= p)).any():
        raise ValueError("phase exponents must lie in [0, p)")
    counts = np.bincount((a2 - a1) % p, minlength=p)
    return CycVec(p, tuple(int(c) for c in counts))
