"""Construction and bit-exact verification of complete MUB sets.

Vectors are stored as tables of phase exponents in Z_p with an implicit
amplitude 1/sqrt(q) on every entry, so all verification is exact integer
arithmetic.  The planar construction of a planar Pi assigns the vector
indexed (a, b) the exponent table tr(a * Pi(x) + b * x); the Alltop
construction of an Alltop f (characteristic at least 5; x^3 by default)
uses tr(f(x + a) + b * (x + a)).  Together with the standard basis these
give q + 1 bases.  CONSTRUCTIONS names both with their default polynomials.
A set keeps each phase basis in O(q^2) memory (_Form): its reference row,
one constant per vector and the mask of its certified vectors, vector b
being the reference row plus tr(b * x) plus its constant, and the rows of
its uncertified vectors as they are; `MubSet.exponents`, the q^3 exponents
indexed [phase basis, vector, entry], is rendered on demand and not kept.
Sets with q^3 > 2^26 entries (q > 406) raise BudgetExceeded before any
table is built.  Both builders share one kernel (_build), which makes the
form at once: basis a's reference row is its label row (_label_rows),
tr(a * Pi(x)) or tr(f(x + a)), its constants are 0, or tr(a * b) for
Alltop, and every vector is certified.  Exponents from anywhere else, an
import or MubSet.from_exponents, are certified into the form (_certify),
and rows are rendered from it (MubSet._rows), about _VERIFY_CHUNK exponents
at once, folding a sum s in [0, 2p) into [0, p) as min(s, s - p) (_fold).

For two phase vectors the squared inner product times q^2 equals the squared
magnitude of the phase-difference histogram, so unbiasedness is the exact
statement mag_sq = q, orthonormality mag_sq = q^2 on the diagonal and 0 off
it.  Pairs involving the standard basis are unbiased by construction (every
entry has modulus 1/sqrt(q)) and are recorded as such, not recomputed.

Phase bases are certified row by row.  Row b of a basis less tr(b * x),
taken up to a constant, is its normalised row; the largest group of rows
with one normalised row, ties going to the group of the smallest b, are the
basis's certified rows, and that row is its reference.  Both constructions
certify every row (the cubic one with the constants tr(a * b)), and such a
clean basis costs one O(q^2) check against row 0.  Verification reads the
certificate from the form, so it certifies nothing itself.  Between certified
vectors u and v of two bases the autocorrelation is row v - u + s of one
table per pair class: the difference of the bases' reference rows less its
affine part tr(s * x) + c, and whether the two bases are one; a chunk of
basis pairs finds its classes by one sort.  Both constructions have q
classes of q histograms, so a clean set costs O(q^3): 13-16 ms at q = 125
and 0.27-0.30 s at q = 343 (CPU medians, 2-core shared x86).  A q = 125
set builds in 0.2-0.7 ms.  Each uncertified vector,
such as one with a flipped exponent in a corrupted import, takes the
generic kernel against every vector of every basis, one histogram per
vector pair: O(q^3) more per bad vector.  One flipped exponent costs
0.06 s at q = 125 and 0.75 s at q = 343, against 1.2 s and 46 s when its
whole basis took the generic kernel.  Both kernels judge by cyclo's exact
rule.

One driver (_pieces) writes every format: each phase basis's text (json's
list-item opener, label and key, csv's label), json's standard item and
header, and the bodies by one of two renderers.  One-digit json and csv
(p <= 7) go by runs of phase bases, consecutive bases whose labels have one
width: a chunk of a run is rendered from the form in one numpy pass a run
of row heads (_rows_table); other texts (float-json, p >= 11) are joined a
basis at a time (_rows_join).  An import reads every label, then each
one-digit run's digits a block (a piece of a run, _cut) at a time into one
buffer, one reshaped view a run of heads, and certifies each block as it is
read (_bases); other texts are read as digit runs.  An import keeps only
the form, and keeps the set only if its export, rendered piece by piece
from the form, tiles the input byte for byte, else the checked body reader
reads every value and raises every body error; then the labels are checked
against the reference rows (_check_labels).  At q = 125 json and csv export
take 2-4 and 3.5-5 ms and canonical imports 4.5-6 ms, the certificate
included (checked body reader: 0.4 and 0.6 s); at q = 343 a json export
takes 0.08 s and its import 0.10 s (CPU medians, 2-core shared x86).
"""

from __future__ import annotations

import io
import json
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import classify, cyclo
from .errors import (
    BudgetExceeded,
    CharacteristicTooSmall,
    FieldMismatch,
    MislabelledImport,
    NotAlltop,
    NotPlanar,
)
from .field import FieldSpec, make_field
from .polyfun import Poly, parse_poly

_VERIFY_CHUNK = 1 << 18
MAX_PHASE_ENTRIES = 1 << 26  # q^3 bound of a MUB set: q <= 406
_log = logging.getLogger("planarlab")


CONSTRUCTIONS = {"planar": "x^2", "alltop": "x^3"}  # construction -> default polynomial


def _check_size(field: FieldSpec) -> None:
    if field.q**3 > MAX_PHASE_ENTRIES:
        raise BudgetExceeded(
            f"a MUB set over GF({field.q}) has {field.q**3} phase entries, "
            f"more than the bound {MAX_PHASE_ENTRIES}"
        )


def _constructions(field: FieldSpec) -> list[str]:
    """The constructions that exist over field: no Alltop function exists in
    characteristic 3."""
    return [kind for kind in CONSTRUCTIONS if kind == "planar" or field.p >= 5]


def _check_construction(field: FieldSpec, construction: str) -> None:
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}")
    if construction not in _constructions(field):
        raise CharacteristicTooSmall(
            f"the {construction} construction needs characteristic >= 5, got {field.p}"
        )


class _Form(NamedTuple):
    """The phase bases of a set as it keeps them: O(q^2), plus a row for each
    uncertified vector.  Vector b of phase basis k is ref[k] + tr(b * x) +
    const[k, b] when good[k, b] (certified), else the next row of `extra`,
    the uncertified rows in (k, b) order (_certify)."""

    ref: np.ndarray  # (q, q) uint16: each basis's reference row
    const: np.ndarray  # (q, q) uint16: each vector's constant
    good: np.ndarray  # (q, q) bool: the certified vectors
    extra: np.ndarray  # (n, q) uint16: the uncertified vectors' rows


@dataclass(frozen=True, eq=False)
class MubSet:
    """A complete collection: the standard basis plus q phase bases.

    Phase basis k is labelled a[k] (the labels are the q elements of [0, q)
    in some order); `standard` is the position of the standard basis among
    the q + 1 bases.  The set keeps its bases as their _Form, its own copy,
    and renders `exponents` on demand.  Builders and imports make the form;
    from_exponents certifies any (q, q, q) exponent array into one, so no
    array or view a caller holds can reach the set.
    """

    field: FieldSpec
    construction: str  # a key of CONSTRUCTIONS
    poly: Poly
    a: tuple[int, ...]
    _form: _Form = dataclass_field(repr=False)
    standard: int = 0

    def __post_init__(self):
        q = self.field.q
        if sorted(self.a) != list(range(q)):
            raise ValueError(f"the basis labels must be {q} distinct elements of [0, {q})")
        if not 0 <= self.standard <= q:
            raise ValueError(f"the standard basis position must be in [0, {q}]")
        _check_construction(self.field, self.construction)
        if not isinstance(self._form, _Form):
            raise TypeError("a set is made from exponents by MubSet.from_exponents")
        form = _Form(*map(np.array, self._form))  # copies: O(q^2)
        for part in form:
            part.setflags(write=False)
        object.__setattr__(self, "_form", form)

    @classmethod
    def from_exponents(cls, field: FieldSpec, construction: str, poly: Poly, a, exponents,
                       standard: int = 0) -> MubSet:
        """The set whose phase basis k, labelled a[k], has the rows
        exponents[k, b], a (q, q, q) uint16 array of exponents in [0, p).
        The bases are certified (_certify) into the set's form, which is all
        it keeps of the array."""
        q = field.q
        exps = np.asarray(exponents)
        if exps.dtype != np.uint16 or exps.shape != (q, q, q):
            raise ValueError(f"expected {q} phase bases of {q} vectors of length {q}")
        form = _certify(field, (exps[k0:k1] for k0, k1 in _cut([(0, q)], _block_bases(q))))
        return cls(field, construction, poly, a, form, standard)

    @property
    def exponents(self) -> np.ndarray:
        """Entry x of vector b of phase basis k at [k, b, x]: a read-only
        (q, q, q) uint16 array rendered from the form on each call, which the
        set does not keep."""
        exps = self._rows(slice(None))
        exps.setflags(write=False)
        return exps

    def phase_bases(self) -> list[int]:
        """Position of each phase basis among the q + 1 bases."""
        return [k + (k >= self.standard) for k in range(self.field.q)]

    def exponent_matrix(self, k: int) -> np.ndarray:
        """Phase basis k as int64: differences of uint16 entries would wrap."""
        return self._rows(k, np.arange(self.field.q)).astype(np.int64)

    def _rows(self, ks, bs=None, out=None, spare=None) -> np.ndarray:
        """Vector bs of phase basis ks, for index arrays that broadcast to
        some shape, as a uint16 array of that shape plus the q entries, or,
        with bs None, every vector of the bases ks, a slice, as an (n, q, q)
        array; written into out, the folds' s - p into spare, when they are
        given, in their dtype, which may be uint8 when 2p <= 256."""
        ref, const, good, extra = self._form
        p, q = self.field.p, self.field.q
        dt = np.uint16 if out is None else out.dtype
        tb = self.field.trace_bilinear.astype(dt)
        if bs is None:  # basic indexing: views, no gathers
            r, t, c = ref[ks, None], tb, const[ks]
        else:
            r, t, c = ref[ks], tb[bs], const[ks, bs]
        rows = _fold(np.add(r.astype(dt), t, out=out), p, spare)
        if c.any():
            _fold(np.add(rows, c.astype(dt)[..., None], out=rows), p, spare)
        if len(extra):
            if bs is None:
                ks, bs = np.arange(q)[ks, None], np.arange(q)
            bad = ~good[ks, bs]
            if bad.any():
                k, b = np.broadcast_arrays(ks, bs)
                rows[bad] = extra[np.searchsorted(np.flatnonzero(~good), k[bad] * q + b[bad])]
        return rows


def _fold(s: np.ndarray, p: int, spare=None) -> np.ndarray:
    """s mod p, in place, for an unsigned array s with entries in [0, 2p):
    below p, s - p wraps above s and the minimum keeps s.  s - p goes into
    spare, an array of s's shape, when it is given."""
    return np.minimum(s, np.subtract(s, s.dtype.type(p), out=spare), out=s)


def _label_rows(field: FieldSpec, construction: str, poly: Poly) -> np.ndarray:
    """Row a of the uint16 (q, q) result is the reference row of the phase
    basis labelled a, row b = 0 of its construction: tr(a * poly(x)) for
    planar, and tr(poly(x + a)) for alltop."""
    values = poly.value_table()
    if construction == "planar":
        return field.trace_bilinear.astype(np.uint16)[:, values]
    enc = field.encodings
    return field.trace_table[values[field.add_vec(enc[:, None], enc)]].astype(np.uint16)


def _build(field: FieldSpec, construction: str, poly: Poly) -> MubSet:
    """The set of `construction` from poly, made as its form: basis a is
    label row a (_label_rows) plus tr(b * x) in row b, plus the constant
    tr(a * b) for alltop, every vector certified.  Size, characteristic,
    field and poly are checked in that order."""
    _check_size(field)
    _check_construction(field, construction)
    if poly.field != field:
        raise FieldMismatch("generating polynomial belongs to a different field")
    planar = construction == "planar"
    if not (classify.is_planar if planar else classify.is_alltop)(poly):
        raise (NotPlanar if planar else NotAlltop)(f"{poly} is not {construction} over {field!r}")
    q = field.q
    tb = field.trace_bilinear.astype(np.uint16)  # tb[a, b] = tr(a * b)
    form = _Form(_label_rows(field, construction, poly), np.zeros_like(tb) if planar else tb,
                 np.ones((q, q), dtype=bool), np.empty((0, q), dtype=np.uint16))
    return MubSet(field, construction, poly, tuple(range(q)), form)


def build_planar_mubs(field: FieldSpec, pi: Poly) -> MubSet:
    """Bases V_a with exponents tr(a * pi(x) + b * x) for all a, plus standard."""
    return _build(field, "planar", pi)


def build_alltop_mubs(field: FieldSpec, f: Poly | None = None) -> MubSet:
    """Bases with exponents tr(f(x + a) + b * (x + a)) for an Alltop f, x^3
    unless given; needs characteristic >= 5."""
    return _build(field, "alltop", parse_poly(CONSTRUCTIONS["alltop"], field) if f is None else f)


class MubViolation(NamedTuple):
    """A failing vector pair, as the verification kernels emit it."""

    kind: str  # "orthonormality" | "unbiasedness"
    basis_i: int
    vector_i: int
    basis_j: int
    vector_j: int
    expected: int
    is_rational_integer: bool
    value: int | None
    autocorrelation: tuple[int, ...]


STANDARD_NOTE = "standard-basis pairs are unbiased by construction"


@dataclass
class MubVerification:
    q: int
    violations: list[MubViolation] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def num_bases(self) -> int:
        return self.q + 1

    @property
    def pairs_checked(self) -> int:
        """Vector pairs judged: v >= u within each phase basis, all across two."""
        q = self.q
        return q * (q * (q + 1) // 2) + (q * (q - 1) // 2) * q * q

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "q": self.q,
            "bases": self.num_bases,
            "pairs_checked": self.pairs_checked,
            "violations": [
                {"kind": kind, "basis_i": bi, "vector_i": u, "basis_j": bj, "vector_j": v,
                 "expected": want, "is_rational_integer": ok, "value": value,
                 "autocorrelation": d}
                for kind, bi, u, bj, v, want, ok, value, d in self.violations
            ],
            "standard_basis": STANDARD_NOTE,
        }


def _judge(q, d, us, vs, same):
    """(is_int, value, want, bad) for autocorrelations d of vectors u of basis
    i and v of basis j, `same` saying whether i == j (for all, or for each).
    The squared magnitude (cyclo.rational_mag_sq) must be q^2 on the
    within-basis diagonal, 0 off it and q across bases; within a basis only
    v >= u is judged."""
    is_int, value = cyclo.rational_mag_sq(d)
    want = np.where(same, np.where(us == vs, q * q, 0), q)
    bad = (~is_int | (value != want)) & np.where(same, vs >= us, True)
    return is_int, value, want, bad


def _violations(q, d, bi, us, bj, vs):
    """Report rows of the autocorrelations d of vectors us of the bases at
    positions bi and vectors vs of those at bj, arrays that broadcast to d's
    leading shape, in that shape's row-major order."""
    is_int, value, want, bad = _judge(q, d, us, vs, bi == bj)
    cols = [a[bad].tolist() for a in np.broadcast_arrays(bi, us, bj, vs, bad)[:4]]
    cols += [a[bad].tolist() for a in (want, is_int, value, d)]
    new = tuple.__new__  # the namedtuple's own __new__ costs a Python call a row
    return [new(MubViolation, ("orthonormality" if i == j else "unbiasedness",
                               i, u, j, v, w, ok, val if ok else None, tuple(dd)))
            for i, u, j, v, w, ok, val, dd in zip(*cols)]


def _histograms(p, rows_i, rows_j):
    """Autocorrelations, p values each, of the phase-difference histograms
    of rows_j[n] - rows_i[n], for two (n, q) arrays of exponents."""
    # a difference plus p lies in [1, 2p), so uint16 rows do not wrap: count
    # 2p bins per pair, then fold
    keys = (rows_j + p - rows_i) + 2 * p * np.arange(len(rows_i))[:, None]
    counts = np.bincount(keys.ravel(), minlength=len(rows_i) * 2 * p)
    return cyclo.autocorrelation(counts.reshape(-1, 2, p).sum(axis=1))


def _pair_violations(m, ks, us, ls, vs):
    """Report rows of the vector pairs (vector us[n] of phase basis ks[n],
    vector vs[n] of phase basis ls[n]), ks[n] <= ls[n], in that order.

    The generic kernel: one phase-difference histogram per vector pair, O(q)
    each, so O(q^3) for all vector pairs of a basis pair.
    """
    p, q = m.field.p, m.field.q
    idx = np.array(m.phase_bases())
    chunk = max(1, _VERIFY_CHUNK // q)
    out = []
    for n0 in range(0, len(us), chunk):
        k, u, l, v = (a[n0 : n0 + chunk] for a in (ks, us, ls, vs))
        d = _histograms(p, m._rows(k, u), m._rows(l, v))
        out += _violations(q, d, idx[k], u, idx[l], v)
    return out


def _block_bases(q: int) -> int:
    """Phase bases read and certified at once: about _VERIFY_CHUNK exponents."""
    return min(q, max(1, _VERIFY_CHUNK // (q * q)))


def _cut(runs, n: int) -> Iterator[tuple[int, int]]:
    """(c0, c1) of each piece of at most n bases of each run (k0, k1) of
    bases, in order: a block or chunk never spans two runs."""
    for k0, k1 in runs:
        for c0 in range(k0, k1, n):
            yield c0, min(c0 + n, k1)


def _certify(field: FieldSpec, blocks) -> _Form:
    """The _Form of q phase bases given in order as (n, q, q) uint16 blocks,
    at most a block (_block_bases) each, each read as it comes, so a reader may
    reuse one buffer for them all.  ValueError when an exponent is not in
    [0, p).

    Row b is normalised to row b - tr(b * x), taken up to a constant.  The
    certified rows are the largest group of rows that agree after that, ties
    going to the group of the smallest b, and the reference row is their
    normalised row, taken to agree with row 0 at x = 0; vector b's constant
    is its value at 0 less row 0's.  A block is normalised against its rows
    0 at once, and a basis is grouped only when some row disagrees, so a
    clean basis costs O(q^2).
    """
    p, q = field.p, field.q
    neg_tb = p - field.trace_bilinear.astype(np.uint16)  # in [1, p]
    ref, const = np.empty((2, q, q), dtype=np.uint16)
    good = np.ones((q, q), dtype=bool)
    extra, k0 = [np.empty((0, q), dtype=np.uint16)], 0
    buf = np.empty((2, _block_bases(q), q, q), dtype=np.uint16)  # rest, and the folds' s - p
    for block in blocks:
        if block.max() >= p:
            raise ValueError(f"phase exponents must be integers in [0, {p})")
        rest, spare = buf[:, : len(block)]
        _fold(np.add(block, p - block[:, :1], out=rest), p, spare)  # row b less row 0
        _fold(np.add(rest, neg_tb, out=rest), p, spare)  # ... less tr(b x)
        ref[k0 : k0 + len(block)] = block[:, 0]
        const[k0 : k0 + len(block)] = rest[:, :, 0]
        for k in np.flatnonzero(~(rest == rest[:, :, :1]).all(axis=(1, 2))).tolist():
            norm = _fold(rest[k] + (p - rest[k, :, :1]), p)  # ... less its value at 0
            _, first, group, size = np.unique(norm, axis=0, return_index=True,
                                              return_inverse=True, return_counts=True)
            best = np.lexsort((first, -size))[0]  # the largest group, then the smallest b
            ref[k0 + k] = _fold(block[k, 0] + norm[first[best]], p)
            good[k0 + k] = group.ravel() == best
            extra.append(block[k][~good[k0 + k]])
        k0 += len(block)
    return _Form(ref, const, good, np.concatenate(extra))


def _verify_pairs(m, pairs):
    """(report rows, vector pairs histogrammed, pair classes, failing classes)
    of the pairs (k, l) of phase bases k <= l of m, in the given order, read
    from the reference rows and certified rows of m's form.

    A certified row b of basis k is ref[k] + tr(b x) plus a constant.  A
    pair's D = ref[l] - ref[k] is R + tr(s x) + D(0), R vanishing at 0 and at
    the polynomial basis e_i (encoding p^i).  Certified vector v of basis l
    minus certified vector u of basis k is R + tr((v - u + s) x) plus a
    constant, so its autocorrelation is row v - u + s of the table of the
    class (R, k == l).  A chunk of pairs finds its distinct rows (R, k == l)
    by one sort, and each meets the class dict once.  A vector pair with an
    uncertified vector takes a direct histogram; the others are expanded
    only when their class fails.
    """
    fld = m.field
    p, q = fld.p, fld.q
    ref, good = m._form.ref, m._form.good
    tb = fld.trace_bilinear.astype(np.uint16)
    neg_tb = p - tb  # in [1, p]
    powers = p ** np.arange(fld.r)  # the encodings of e_i
    s_of = np.argsort(tb[:, powers] @ powers)  # s from (tr(s e_i))_i read in base p
    ks, ls = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    cls, shift = np.empty_like(ks), np.empty_like(ks)  # each pair's class and s
    classes, tables = {}, []  # key row -> class; class -> table when failing
    step, chunk = max(1, _VERIFY_CHUNK // q), max(1, _VERIFY_CHUNK // (q * q))
    for n0 in range(0, len(ks), step):
        k, l = ks[n0 : n0 + step], ls[n0 : n0 + step]
        d = _fold(ref[l] + (p - ref[k]), p)  # D
        d = _fold(d + (p - d[:, :1]), p)  # D - D(0)
        s = s_of[d[:, powers].astype(np.intp) @ powers]
        rows = np.empty((len(k), q + 1), dtype=np.uint16)
        _fold(np.add(d, neg_tb[s], out=rows[:, :q]), p)  # R
        rows[:, q] = k == l
        _, first, inverse = np.unique(rows.view(np.dtype((np.void, 2 * q + 2))).ravel(),
                                      return_index=True, return_inverse=True)
        known = len(classes)  # classes met in earlier chunks
        of_row = np.array([classes.setdefault(row.tobytes(), len(classes))
                           for row in rows[first]], dtype=np.intp)
        fresh = first[of_row >= known]  # in the order of their class numbers
        cls[n0 : n0 + step], shift[n0 : n0 + step] = of_row[inverse.ravel()], s
        for c0 in range(0, len(fresh), chunk):
            batch = rows[fresh[c0 : c0 + chunk]]
            # a class's table: the autocorrelations of R + tr(t x) for every t
            keys = _fold(batch[:, None, :q] + tb, p).astype(np.intp)
            keys += p * np.arange(len(batch) * q).reshape(-1, q, 1)
            counts = np.bincount(keys.ravel(), minlength=len(batch) * q * p)
            found = cyclo.autocorrelation(counts.reshape(-1, q, p))
            failing = _judge(q, found, 0, fld.encodings, batch[:, q:] == 1)[3].any(axis=1)
            tables += [table if fails else None for table, fails in zip(found, failing)]
    delta = fld.sub_vec(fld.encodings[None, :], fld.encodings[:, None])  # v - u
    idx = m.phase_bases()
    bad = ~good
    clean = good.all(axis=1)
    failing = np.array([table is not None for table in tables], dtype=bool)
    violations, direct = [], 0
    pending = []  # (k, l, us, vs): direct vector pairs of passing classes, judged at once

    def flush():
        if pending:
            k, l, us, vs = zip(*pending)
            sizes = [len(u) for u in us]
            violations.extend(_pair_violations(m, np.repeat(k, sizes), np.concatenate(us),
                                               np.repeat(l, sizes), np.concatenate(vs)))
            pending.clear()

    for n in np.flatnonzero(failing[cls] | ~(clean[ks] & clean[ls])).tolist():
        k, l, table, s_kl = int(ks[n]), int(ls[n]), tables[cls[n]], int(shift[n])
        if clean[k] and clean[l]:
            us = ()
        else:
            hist = bad[k][:, None] | bad[l]  # the pairs with an uncertified vector
            us, vs = np.nonzero(np.triu(hist) if k == l else hist)
            direct += len(us)
            if table is None:
                pending.append((k, l, us, vs))
                continue
        flush()
        for u0 in range(0, q, chunk):
            d = table[fld.add_vec(delta[u0 : u0 + chunk], s_kl)]
            if len(us):
                here = (u0 <= us) & (us < u0 + chunk)
                d[us[here] - u0, vs[here]] = _histograms(p, m._rows(k, us[here]),
                                                         m._rows(l, vs[here]))
            violations += _violations(q, d, idx[k], np.arange(u0, u0 + len(d))[:, None],
                                      idx[l], np.arange(q))
    flush()
    return violations, direct, len(tables), int(failing.sum())


def verify_mub_set(m: MubSet) -> MubVerification:
    """Exact verification: orthonormality within each phase basis and squared
    cross-basis magnitude q for every pair; failures become report content.

    Each phase basis was certified row by row (_certify) when the set was
    made.  Pairs of certified vectors are read from their pair classes'
    tables, O(q^3) for
    the set; each uncertified vector takes one direct histogram against
    every vector of every basis, O(q^3) more.  Logs one INFO line on the
    "planarlab" logger: the bases that pass the translation certificate, the
    uncertified vectors, the vector pairs that took direct histograms and
    the pair classes that fail.
    """
    q = m.field.q
    good = m._form.good
    pairs = np.concatenate([np.arange(q).repeat(2).reshape(-1, 2),  # (k, k), then k < l
                            np.transpose(np.triu_indices(q, 1))])
    violations, direct, classes, failing = _verify_pairs(m, pairs)
    report = MubVerification(q, violations)
    _log.info(
        "verify GF(%d): %d of %d phase bases pass the translation certificate; "
        "%d of %d phase vectors uncertified, %d of %d vector pairs by direct histograms; "
        "%d of %d pair classes fail",
        q, good.all(axis=1).sum(), q, q * q - good.sum(), q * q, direct, report.pairs_checked,
        failing, classes,
    )
    return report


# -- export / import --------------------------------------------------------


def _one_digit(p: int) -> bool:
    """Whether every exponent of an exact export is one digit (p <= 7), giving
    each basis a fixed layout (_Frames); the renderer and the reader route by it."""
    return p <= 10


def _runs(keys: list) -> list[tuple[int, int]]:
    """(i0, i1) of each run of equal keys, keys[i] for i0 <= i < i1."""
    edges = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    return list(zip([0] + edges, edges + [len(keys)]))


def _column(fmt: str, q: int) -> list[str]:
    """The row heads of a basis: json's open its vector list and rows, csv's are b, ","."""
    return ["[["] + [",["] * (q - 1) if fmt != "csv" else [f"{b}," for b in range(q)]


class _Frames(NamedTuple):
    """How json or csv lays out one-digit phase bases (_one_digit), a frame
    a basis: a lead, q rows and json's tail `]}`.  Row b is a pre, head b and
    q entries of a digit and ",", the last "," being "]" or a line end.  The
    label is in the lead in json ("[" or "," opening a list item, `{"a":`,
    the label, `,"vectors":`) and in every pre in csv (the label, ",")."""

    column: list  # (b0, b1, uint8 heads) of each run of rows whose heads have one width
    heads: int  # bytes of all q heads
    json: bool

    @classmethod
    def of(cls, fmt: str, q: int) -> _Frames:
        heads = _column(fmt, q)
        return cls([(b0, b1, np.array(heads[b0:b1], dtype=np.bytes_).view(np.uint8)
                     .reshape(b1 - b0, -1)) for b0, b1 in _runs(list(map(len, heads)))],
                   len("".join(heads)), fmt == "json")

    def runs(self, widths: list[int], standard: int) -> list[tuple[int, int]]:
        """(k0, k1) of each run of phase bases whose labels have one width
        (widths[k]); json's standard basis, before basis `standard`, ends one."""
        return _runs([(w, self.json and k < standard) for k, w in enumerate(widths)])

    def sizes(self, w: int) -> tuple[int, int, int]:
        """(lead, pre, frame) in bytes when the label has w digits."""
        lead, pre = (w + len('[{"a":,"vectors":'), 0) if self.json else (0, w + 1)
        q = self.column[-1][1]
        return lead, pre, lead + q * (pre + 2 * q) + self.heads + len("]}") * self.json

    def rows(self, frames: np.ndarray, lead: int, pre: int) -> Iterator:
        """(b0, b1, heads, rows) of each run of heads: rows is the (n, b1 - b0,
        width) view of those rows in `frames`, the (n, frame) uint8 array."""
        q, at = self.column[-1][1], lead
        for b0, b1, h in self.column:
            w = pre + h.shape[1] + 2 * q
            yield b0, b1, h, frames[:, at : at + (b1 - b0) * w].reshape(len(frames), b1 - b0, w)
            at += (b1 - b0) * w


def _row_chunks(m: MubSet, runs, dtype=np.uint16) -> Iterator[tuple[int, np.ndarray]]:
    """(c0, rows) for each chunk of phase bases (_cut) of each run (k0, k1)
    of bases, at most _VERIFY_CHUNK exponents and an eighth of the bases:
    rows[n] is basis c0 + n, rendered from the form into one buffer of
    `dtype`, which the next chunk reuses."""
    q = m.field.q
    step = max(1, min(_VERIFY_CHUNK // (q * q), q // 8))
    rows, spare = np.empty((2, step, q, q), dtype=dtype)  # one buffer for every chunk
    for c0, c1 in _cut(runs, step):
        yield c0, m._rows(slice(c0, c1), None, rows[: c1 - c0], spare[: c1 - c0])


def _rows_table(m: MubSet, fmt: str, texts: list[str], runs) -> Iterator[tuple]:
    """(c0, chunk) for each chunk of the runs (k0, k1) of phase bases of a
    one-digit set, in each run bases whose texts have one width: the chunk's
    bases as json's list items or csv's lines, basis k framed (_Frames) by
    its text texts[k], one pass a run of row heads.  The chunk's rows are
    rendered from the form (_row_chunks), and each entry's digit and ","
    written at once as the little-endian uint16 e + 48 + 256 * ord(","), the
    text of e being the digit of code e + 48."""
    q = m.field.q
    frames = _Frames.of(fmt, q)
    pair, end = np.uint16(ord("0") + 256 * ord(",")), ord("]" if frames.json else "\n")
    for c0, exps in _row_chunks(m, runs, np.uint8):
        n = len(exps)
        lead, pre, size = frames.sizes(len(str(m.a[c0])))
        text = np.frombuffer("".join(texts[c0 : c0 + n]).encode(), np.uint8).reshape(n, -1)
        table = np.empty((n, size), dtype=np.uint8)
        table[:, :lead] = text[:, :lead]
        for b0, b1, h, rows in frames.rows(table, lead, pre):
            rows[:, :, :pre] = text[:, None, :pre]
            rows[:, :, pre : pre + h.shape[1]] = h
            np.add(exps[:, b0:b1], pair, out=rows[:, :, -2 * q :].view("<u2"))
            rows[:, :, -1] = end
        if frames.json:
            table[:, -2:] = np.frombuffer(b"]}", np.uint8)
        yield c0, table.ravel()


def _rows_join(m: MubSet, fmt: str, texts: list[str], tokens: list[str]) -> Iterator[tuple]:
    """(k, basis) for each phase basis k, its exponents' tokens (tokens[e])
    of mixed widths, rendered from the form a chunk of bases at a time
    (_row_chunks): a (q, q + 2) object array of cells, the basis's text (on
    row 0 in json, which closes the basis with `]}` after its last row, and
    on every row in csv), head b and the q tokens with their separators
    gathered by exponent, and one join."""
    p, q = m.field.p, m.field.q
    json_ = fmt != "csv"
    end, close = ("]", "]}") if json_ else ("\n", "")
    tok = np.array([t + "," for t in tokens] + [t + end for t in tokens], dtype=object)
    last = np.zeros(q, dtype=np.intp)
    last[-1] = p  # token e + p is e at a row's end
    table = np.full((q, q + 2), "", dtype=object)
    table[:, 1] = _column(fmt, q)
    for c0, exps in _row_chunks(m, [(0, q)]):
        for k, rows in enumerate(exps, c0):
            table[: 1 if json_ else q, 0] = texts[k]
            table[:, 2:] = tok[rows + last]
            yield k, ("".join(table.ravel().tolist()) + close).encode()


def _placed(pieces, k: int, item: bytes) -> Iterator:
    """The pieces of the (first basis, piece) pairs, item ahead of the piece
    that begins with basis k."""
    for k0, piece in pieces:
        if k0 == k:
            yield item
        yield piece


def _pieces(m: MubSet, fmt: str) -> Iterator:
    """export_mubs(m, fmt) in pieces, each rendered in its turn: the one
    driver of every format.  It writes each phase basis's text once (json's
    list-item opener, `{"a":`, the label and `,"vectors":`, or float-json's
    `,"entries":`; csv's label and ","), json's standard item at its
    position, and json's header keys after the bases, "lossy" in float-json.
    Bodies go by digit arithmetic (_rows_table) for one-digit json and csv,
    by runs of bases whose texts have one width, json's cut at the standard
    basis, else by the join (_rows_join) of the p exponents' tokens, each
    its decimal or its compact float-json [re, im].  A plain function, so an
    unknown format raises at the call, before any piece is written."""
    p, q = m.field.p, m.field.q
    if fmt not in ("json", "csv", "float-json"):
        raise ValueError(f"unknown export format {fmt!r}")
    if fmt == "csv":
        s, standard = q, ""  # csv does not record the standard basis
        texts = [f"{a}," for a in m.a]
        head, tail = "basis,b," + ",".join(f"x{i}" for i in range(q)) + "\n", ""
    else:
        s, key = m.standard, "vectors" if fmt == "json" else "entries"
        texts = ['%s{"a":%d,"%s":' % ("," if k + (k >= s) else "[", a, key)
                 for k, a in enumerate(m.a)]
        standard = ("," if s else "[") + '{"standard":true}'
        header = {"field": m.field.to_json_dict(), "construction": m.construction,
                  "poly": str(m.poly), **({"lossy": True} if fmt == "float-json" else {})}
        # "bases" sorts first, so the other keys follow the list
        head, tail = '{"bases":', "]," + json.dumps(header, sort_keys=True,
                                                    separators=(",", ":"))[1:] + "\n"
        if s == q:
            tail = standard + tail
    if _one_digit(p) and fmt != "float-json":
        body = _rows_table(m, fmt, texts, _runs([(len(t), k < s) for k, t in enumerate(texts)]))
    else:
        amp = 1.0 / math.sqrt(q)
        tokens = [str(e) if fmt != "float-json" else
                  json.dumps([amp * math.cos(2.0 * math.pi * e / p),
                              amp * math.sin(2.0 * math.pi * e / p)], separators=(",", ":"))
                  for e in range(p)]
        body = _rows_join(m, fmt, texts, tokens)
    return chain([head.encode()], _placed(body, s, standard.encode()),
                 [tail.encode()] if tail else ())


def export_mubs(m: MubSet, fmt: str = "json") -> bytes:
    """Serialize a MubSet: 'json' and 'csv' are exact, 'float-json' is lossy.
    The pieces go into one buffer, whose bytes are returned without a copy."""
    out = io.BytesIO()
    out.writelines(_pieces(m, fmt))
    return out.getvalue()


def _tiles(data: bytes, pieces) -> bool:
    """Whether the pieces, in order, are data byte for byte.  Each is
    compared in place as it is made, so the rendering is never held whole."""
    at = 0
    for piece in pieces:
        if not data.startswith(piece, at):
            return False
        at += len(piece)
    return at == len(data)


def _json_value(value, kind: type, what: str):
    """value when JSON decoded it as `kind`; true and false are not ints here."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _counted(items: list, q: int, what: str) -> list:
    if len(items) != q:
        raise ValueError(f"expected {q} {what}, got {len(items)}")
    return items


def _exponent_array(rows: list[list[int]], p: int, q: int) -> np.ndarray:
    """The q rows of q ints as a (q, q) array when every int lies in [0, p);
    the range is checked on int64, before the uint16 cast could wrap."""
    try:
        exps = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=q * q)
        in_range = 0 <= exps.min() and exps.max() < p
    except OverflowError:  # beyond int64
        in_range = False
    if not in_range:
        raise ValueError(f"phase exponents must be integers in [0, {p})")
    return exps.reshape(q, q)


def _runs_body(chars: np.ndarray, heads: int, out: np.ndarray) -> None:
    """Read into the (q, q) array out the exponents of a basis body, the
    uint8 array chars, as its runs of ASCII digits: q rows of `heads` runs
    and then q exponents.  ValueError when the count of runs is not that or
    a run is longer than three digits.  The first digit of every run is
    read at once, the second and third where runs have them."""
    q = len(out)
    digit = chars - np.uint8(48)  # wraps: every other byte becomes 10 or more
    edges = np.flatnonzero(np.diff(digit < 10, prepend=False, append=False))
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    if len(starts) != q * (q + heads) or lengths.max() > 3:
        raise ValueError("a phase basis body is not the runs of digits of an export")
    values = digit[starts].astype(np.int32)
    for j in (1, 2):
        more = lengths > j
        values[more] = values[more] * 10 + digit[starts[more] + j]
    out[:] = values.reshape(q, q + heads)[:, heads:]


def _body_runs(chars: np.ndarray, spans: list, heads: int, q: int) -> Iterator[np.ndarray]:
    """The exponents of the phase bases whose bodies are chars[start:end],
    (start, end) in spans, read by _runs_body into one buffer, a block of
    bases (_block_bases, _cut) at a time."""
    buf = np.empty((_block_bases(q), q, q), dtype=np.uint16)
    for k0, k1 in _cut([(0, q)], len(buf)):
        for out, (start, end) in zip(buf, spans[k0:k1]):
            _runs_body(chars[start:end], heads, out)
        yield buf[: k1 - k0]


def _body_digits(chars: np.ndarray, frames: _Frames, starts, widths, standard) -> Iterator:
    """The exponents of the one-digit phase bases, basis k's frame starting
    at chars[starts[k]] and its label widths[k] digits wide, a block at a time
    in one buffer: each block is a piece (_cut) of at most _block_bases of a
    run of bases (_Frames.runs), read one reshaped view a run of row heads.
    ValueError when chars ends first.  A byte that is not a digit reads as 10
    or more."""
    q = frames.column[-1][1]
    buf = np.empty((_block_bases(q), q, q), dtype=np.uint16)
    for k0, k1 in _cut(frames.runs(widths, standard), len(buf)):
        lead, pre, size = frames.sizes(widths[k0])
        block = chars[starts[k0] : starts[k0] + (k1 - k0) * size]
        if len(block) < (k1 - k0) * size:
            raise ValueError("the document ends inside a phase basis")
        for b0, b1, _, rows in frames.rows(block.reshape(k1 - k0, size), lead, pre):
            np.subtract(rows[:, :, -2 * q :: 2], np.uint8(48), out=buf[: k1 - k0, b0:b1],
                        casting="unsafe")
        yield buf[: k1 - k0]


def _bases(data: bytes, fld: FieldSpec, fmt: str):
    """(labels, form, standard) of a json or csv document, walked by
    position; csv does not record the standard basis.  ValueError when the
    document is not laid out as an export.

    json: after `{"bases":` each of the q + 1 bases opens with "[" or ",",
    a phase basis then being `{"a":`, its label, `,"vectors":`, q rows (`[[`
    or `,[`, q exponents each followed by `,` or `]`) and `]}`.  csv: after
    the header line each phase basis is q lines, its label, b and q
    exponents each followed by "," or the line end.  The walk reads each
    label where the layout puts it and skips the bodies; then they are read
    a block of bases at a time into one buffer, by position (_body_digits)
    when they are one-digit (_one_digit) and else as runs of digits
    (_body_runs), and each block is certified (_certify) as it is read.
    Only the form is kept.  The caller compares every byte with the
    rendering."""
    p, q = fld.p, fld.q
    chars = np.frombuffer(data, np.uint8)
    frames = _Frames.of(fmt, q) if _one_digit(p) else None
    json_ = fmt == "json"
    if frames is None and not json_:
        line_ends = np.flatnonzero(chars == ord("\n"))
        if len(line_ends) != q * q + 1:  # the header line, then q lines a basis
            raise ValueError("a csv export has q lines a phase basis")
    labels, widths, starts, spans, standard = [], [], [], [], None if json_ else 0
    pos = len(b'{"bases":') if json_ else data.find(b"\n") + 1
    at = len(b'[{"a":') if json_ else 0  # where a label starts in its basis
    for n in range(q + json_):
        if json_ and data.startswith(b'{"standard":true}', pos + 1):
            standard = n
            pos += len(b',{"standard":true}')
            continue
        comma = data.find(b",", pos + at, pos + at + 4)  # a label has at most 3 digits
        if len(labels) == q or comma < 0:
            raise ValueError("a phase basis does not open with its label")
        labels.append(int(data[pos + at : comma]))
        if frames is not None:
            starts.append(pos)
            widths.append(comma - pos - at)
            pos += frames.sizes(widths[-1])[2]
        elif json_:
            body = comma + len(b',"vectors":')
            end = data.find(b"]]", body) + 1  # the last row's "]"
            if not end:
                raise ValueError("a phase basis body does not end")
            spans.append((body, end))
            pos = end + len(b"]}")
        else:
            end = line_ends[len(labels) * q] + 1
            spans.append((pos, end))  # label and b lead each row
            pos = end
    if standard is None or len(labels) < q:
        raise ValueError("a json export has one standard basis and q phase bases")
    blocks = (_body_digits(chars, frames, starts, widths, standard) if frames is not None
              else _body_runs(chars, spans, 0 if json_ else 2, q))
    return tuple(labels), _certify(fld, blocks), standard


def _csv_kind(field: FieldSpec, construction: str | None, poly_text: str | None):
    """A csv set's construction and polynomial, which csv does not record:
    planar unless given, and the construction's default (CONSTRUCTIONS)
    unless poly_text is given.  When neither is given, _check_labels may
    relabel the set as another construction of its default polynomial."""
    construction = construction or "planar"
    _check_construction(field, construction)
    return construction, parse_poly(poly_text or CONSTRUCTIONS[construction], field)


def _json_header(obj: dict, field, construction, poly_text):
    """(field, construction, poly) of the header keys of a json export,
    parsed into obj.  A field other than `field` raises FieldMismatch, a set
    above the size bound BudgetExceeded, and a modulus, construction or
    polynomial other than the canonical modulus, `construction` and
    `poly_text` ValueError."""
    fd = _json_value(obj["field"], dict, "field")
    fld = make_field(_json_value(fd["p"], int, "field p"), _json_value(fd["r"], int, "field r"))
    if field is not None and fld != field:
        raise FieldMismatch(f"the export is over {fld!r}, not {field!r}")
    _check_size(fld)
    if fld.modulus != tuple(_json_value(fd["modulus"], list, "field modulus")):
        raise ValueError("modulus in file does not match the canonical field")
    kind = _json_value(obj["construction"], str, "construction")
    _check_construction(fld, kind)
    if construction is not None and kind != construction:
        raise ValueError(f"the export holds a {kind} set, not a {construction} set")
    poly = parse_poly(_json_value(obj["poly"], str, "poly"), fld)
    if poly_text is not None and parse_poly(poly_text, fld) != poly:
        raise ValueError(f"the export is generated by {poly}, not {poly_text}")
    return fld, kind, poly


def _canonical(data: bytes, fmt: str, fld: FieldSpec, kind: str, poly: Poly) -> MubSet | None:
    """The set of a json or csv document exactly as export_mubs writes the
    set of the header (fld, kind, poly), else None.  The format's walker
    reads the bases, and the set is kept only when its rendering, piece by
    piece, tiles `data` itself."""
    try:
        m = MubSet(fld, kind, poly, *_bases(data, fld, fmt))
    except ValueError:  # a layout, labels or exponents other than an export's
        return None
    return m if _tiles(data, _pieces(m, fmt)) else None


def import_mubs(
    data: bytes | str,
    fmt: str = "json",
    *,
    field: FieldSpec | None = None,
    construction: str | None = None,
    poly_text: str | None = None,
) -> MubSet:
    """Rebuild a MubSet from an exact export (json or csv).

    csv carries no field header, so `field` is required for it; construction
    defaults to planar and the generating polynomial to the construction's
    default in CONSTRUCTIONS when absent (`_csv_kind`), and with neither
    given the set is whichever construction of its default its vectors
    match, among those that exist over the field.  An alltop set below
    characteristic 5 raises CharacteristicTooSmall.  A json file must match
    `field` (FieldMismatch), `construction` and `poly_text` (ValueError)
    when they are given.  A set whose vectors are not those its labels name
    raises MislabelledImport (`_check_labels`).  Values of the wrong type,
    count or shape, basis labels that are not q distinct elements of [0, q)
    and csv rows whose b is not their position in the basis raise
    ValueError; a set above the size bound, BudgetExceeded.

    The header is judged first, once: json's is the text after
    `],"construction":` when that parses with construction, field and poly,
    else the whole document's.  Then bytes exactly as export_mubs writes
    them take the canonical route (_canonical); the checked body reader
    reads any other body and raises every body error.  Logs the route taken
    as one INFO line on the "planarlab" logger.
    """
    # a lone surrogate in a str fails the canonical route, not the import
    raw = data.encode(errors="surrogatepass") if isinstance(data, str) else data
    doc = None  # a json document parsed whole
    if fmt == "json":
        at = raw.rfind(b'],"construction":')
        try:
            header = json.loads(b"{" + raw[at + 2 :]) if at >= 0 else {}
        except (ValueError, RecursionError):  # not the header export_mubs writes
            header = {}
        if not {"construction", "field", "poly"} <= header.keys():
            header = doc = _json_document(data)
        fld, kind, poly = _json_header(header, field, construction, poly_text)
    elif fmt == "csv":
        if field is None:
            raise ValueError("csv import needs the field")
        _check_size(field)
        fld = field
        kind, poly = _csv_kind(field, construction, poly_text)
    else:
        raise ValueError(f"unknown import format {fmt!r}")
    m = _canonical(raw, fmt, fld, kind, poly) if doc is None else None
    route = "canonical"
    if m is None:
        bases = (_csv_checked(data, fld) if fmt == "csv"
                 else _json_checked(_json_document(data) if doc is None else doc, fld))
        m = MubSet.from_exponents(fld, kind, poly, *bases)
        route = "checked"
    m = _check_labels(m, fmt == "csv" and construction is None and poly_text is None)
    _log.info("import %s GF(%d): %s route", fmt, m.field.q, route)
    return m


def _check_labels(m: MubSet, guess: bool) -> MubSet:
    """m when the reference row of each phase basis (its form's) is its
    label's row (_label_rows) up to a constant; with `guess`, m as whichever
    construction over m's field, each of its CONSTRUCTIONS default, its
    vectors match.  Otherwise MislabelledImport names the first phase basis
    that disagrees.  The reference row is that of the basis's largest group
    of agreeing rows, so a few corrupted vectors do not change it."""
    fld = m.field
    ref = m._form.ref
    labels = np.asarray(m.a)
    kinds = [(m.construction, m.poly)]
    if guess:
        kinds += [(kind, parse_poly(CONSTRUCTIONS[kind], fld))
                  for kind in _constructions(fld) if kind != m.construction]
    wrong = []
    for kind, poly in kinds:
        d = _fold(ref + (fld.p - _label_rows(fld, kind, poly)[labels]), fld.p)
        bad = np.flatnonzero((d != d[:, :1]).any(axis=1))
        if not len(bad):
            if kind == m.construction:
                return m
            return replace(m, construction=kind, poly=poly)
        wrong.append(f"phase basis {bad[0]} is not the {kind} basis a = {m.a[bad[0]]} of {poly}")
    raise MislabelledImport("; ".join(wrong))


def _json_document(data) -> dict:
    """A json export parsed whole, for the checked body reader, and for its
    header when that is not where export_mubs puts it."""
    try:
        return _json_value(json.loads(data.decode() if isinstance(data, bytes) else data),
                           dict, "the export")
    except RecursionError:
        raise ValueError("the export is nested too deeply") from None


def _json_checked(obj: dict, fld: FieldSpec):
    """(labels, exponents, standard) of a json export parsed whole (obj):
    the checked body reader, which reads every value of any input and
    raises every body error."""
    bases = _json_value(obj["bases"], list, "bases")
    (std,) = _counted([i for i, b in enumerate(bases)
                       if _json_value(b, dict, "a basis").get("standard")],
                      1, "standard basis")
    q, p = fld.q, fld.p
    phase = _counted(bases[:std] + bases[std + 1 :], q, "phase bases")
    exps = np.empty((q, q, q), dtype=np.uint16)
    for k, b in enumerate(phase):
        rows = _counted(_json_value(b["vectors"], list, "basis vectors"), q, "vectors")
        for row in rows:
            _counted(_json_value(row, list, "a phase vector"), q, "entries in a phase vector")
        kinds = set(map(type, chain.from_iterable(rows)))
        if kinds != {int}:
            names = ", ".join(sorted(t.__name__ for t in kinds - {int}))
            raise ValueError(f"phase exponents must be integers, not {names}")
        exps[k] = _exponent_array(rows, p, q)
    return tuple(_json_value(b["a"], int, "basis a") for b in phase), exps, std


def _csv_checked(data, field: FieldSpec):
    """(labels, exponents) of a csv export: the checked body reader, which
    reads every cell with int() and raises every body error."""
    text = data.decode() if isinstance(data, bytes) else data
    q, p = field.q, field.p
    groups: dict[int, list[list[int]]] = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for a, b, *cells in (ln.split(",") for ln in lines[1:]):
        vecs = groups.setdefault(int(a), [])
        if int(b) != len(vecs):
            raise ValueError(f"row b = {b} of basis {a} is at position {len(vecs)}")
        _counted(cells, q, "entries in a phase vector")
        vecs.append(list(map(int, cells)))
    _counted(list(groups), q, "phase bases")
    exps = np.empty((q, q, q), dtype=np.uint16)
    for k, vecs in enumerate(groups.values()):
        exps[k] = _exponent_array(_counted(vecs, q, "vectors"), p, q)
    return tuple(groups), exps
