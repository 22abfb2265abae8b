"""Construction and bit-exact verification of complete MUB sets.

Vectors are stored as tables of phase exponents in Z_p with an implicit
amplitude 1/sqrt(q) on every entry, so all verification is exact integer
arithmetic.  The planar construction assigns the vector indexed (a, b) the
exponent table tr(a * Pi(x) + b * x); the cubic construction (characteristic
at least 5) uses tr((x + a)^3 + b * (x + a)).  Together with the standard
basis these give q + 1 bases.  A set keeps all q^3 exponents in one
read-only (q, q, q) uint16 array, indexed [phase basis, vector, entry];
sets with q^3 > 2^26 entries (q > 406) raise BudgetExceeded before any
table is built.

For two phase vectors the squared inner product times q^2 equals the squared
magnitude of the phase-difference histogram, so unbiasedness is the exact
statement mag_sq = q, orthonormality mag_sq = q^2 on the diagonal and 0 off
it.  Pairs involving the standard basis are unbiased by construction (every
entry has modulus 1/sqrt(q)) and are recorded as such, not recomputed.

A phase basis passes the translation certificate when every row b differs
from row 0 by tr(b * x) plus a constant mod p; both constructions pass it
(the cubic one with the constant tr(a * b)).  Between two certified bases
the histogram of vectors u and v is a rotation of one that depends only on
v - u, so a basis pair costs O(q^2) and the set O(q^4).  A pair involving an
uncertified basis, such as a corrupted import, takes the generic kernel:
one histogram per vector pair, O(q^3) per basis pair.  Both kernels judge
histograms by cyclo's exact rule and emit the report's rows directly.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent import futures
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from . import classify, cyclo
from .errors import BudgetExceeded, CharacteristicTooSmall, FieldMismatch, NotPlanar
from .field import FieldSpec, make_field
from .polyfun import Poly, parse_poly

_VERIFY_CHUNK = 1 << 18
MAX_PHASE_ENTRIES = 1 << 26  # q^3 bound of a MUB set: q <= 406
_log = logging.getLogger("planarlab")


def _check_size(field: FieldSpec) -> None:
    if field.q**3 > MAX_PHASE_ENTRIES:
        raise BudgetExceeded(
            f"a MUB set over GF({field.q}) has {field.q**3} phase entries, "
            f"more than the bound {MAX_PHASE_ENTRIES}"
        )


@dataclass(frozen=True, eq=False)
class MubSet:
    """A complete collection: the standard basis plus q phase bases.

    exponents[k, b, x] is entry x of vector b in phase basis k, whose label
    is a[k] (the labels are the q elements of [0, q) in some order);
    `standard` is the position of the standard basis among the q + 1 bases.
    """

    field: FieldSpec
    construction: str  # "planar" | "alltop"
    poly: Poly
    a: tuple[int, ...]
    exponents: np.ndarray
    standard: int = 0

    def __post_init__(self):
        q = self.field.q
        exps = self.exponents.view()
        if exps.dtype != np.uint16 or exps.shape != (q, q, q):
            raise ValueError(f"expected {q} phase bases of {q} vectors of length {q}")
        if sorted(self.a) != list(range(q)):
            raise ValueError(f"the basis labels must be {q} distinct elements of [0, {q})")
        if not 0 <= self.standard <= q:
            raise ValueError(f"the standard basis position must be in [0, {q}]")
        exps.setflags(write=False)
        object.__setattr__(self, "exponents", exps)

    def phase_bases(self) -> list[int]:
        """Position of each phase basis among the q + 1 bases."""
        return [k + (k >= self.standard) for k in range(self.field.q)]

    def exponent_matrix(self, k: int) -> np.ndarray:
        """Phase basis k as int64: differences of uint16 entries would wrap."""
        return self.exponents[k].astype(np.int64)


def build_planar_mubs(field: FieldSpec, pi: Poly) -> MubSet:
    """Bases V_a with exponents tr(a * pi(x) + b * x) for all a, plus standard."""
    _check_size(field)
    if pi.field != field:
        raise FieldMismatch("generating polynomial belongs to a different field")
    if not classify.is_planar(pi):
        raise NotPlanar(f"{pi} is not planar over {field!r}")
    q = field.q
    values = pi.value_table()
    tb = field.trace_bilinear  # tb[b, x] = tr(b * x)
    exps = np.empty((q, q, q), dtype=np.uint16)
    for a in range(q):
        ta = field.trace_table[field.mul_vec(np.int32(a), values)]
        exps[a] = (ta[None, :] + tb) % field.p
    return MubSet(field, "planar", pi, tuple(range(q)), exps)


def build_alltop_mubs(field: FieldSpec) -> MubSet:
    """Bases with exponents tr((x+a)^3 + b*(x+a)); needs characteristic >= 5."""
    _check_size(field)
    if field.p < 5:
        raise CharacteristicTooSmall(
            f"cubic phase construction needs characteristic >= 5, got {field.p}"
        )
    q = field.q
    enc = field.encodings
    cube = field.mul_vec(field.mul_vec(enc, enc), enc)
    tr_cube = field.trace_table[cube]
    tb = field.trace_bilinear
    exps = np.empty((q, q, q), dtype=np.uint16)
    for a in range(q):
        shifted = field.add_vec(np.int32(a), enc)
        exps[a] = (tr_cube[shifted][None, :] + tb[:, shifted]) % field.p
    return MubSet(field, "alltop", Poly.monomial(field, 3), tuple(range(q)), exps)


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
                 "autocorrelation": list(d)}
                for kind, bi, u, bj, v, want, ok, value, d in self.violations
            ],
            "standard_basis": STANDARD_NOTE,
        }


def _judge(q, d, us, vs, same):
    """(is_int, value, want, bad) for autocorrelations d of vectors u of basis
    i and v of basis j, `same` saying i == j (a bool or a broadcast array).
    The squared magnitude (cyclo.rational_mag_sq) must be q^2 on the
    within-basis diagonal, 0 off it and q across bases; within a basis only
    v >= u is judged."""
    same = np.asarray(same)
    is_int, value = cyclo.rational_mag_sq(d)
    want = np.where(same, np.where(us == vs, q * q, 0), q)
    bad = (~is_int | (value != want)) & (~same | (vs >= us))
    return is_int, value, want, bad


def _violations(q, d, u0, bi, bj):
    """Report rows of the autocorrelations d[u - u0, v] of vectors u of the
    basis at position bi and v of the one at bj, in (u, v) order."""
    same = bi == bj
    is_int, value, want, bad = _judge(q, d, np.arange(u0, u0 + len(d))[:, None],
                                      np.arange(q)[None, :], same)
    kind = "orthonormality" if same else "unbiasedness"
    i, v = np.nonzero(bad)
    rows = zip((i + u0).tolist(), v.tolist(), want[i, v].tolist(), is_int[i, v].tolist(),
               value[i, v].tolist(), d[i, v].tolist())
    return [MubViolation(kind, bi, u, bj, v, w, ok, val if ok else None, tuple(dd))
            for u, v, w, ok, val, dd in rows]


def _pair_violations(p, q, mat_i, mat_j, bi, bj):
    """Report rows of one basis pair at positions bi <= bj, in (u, v) order.

    The generic kernel: one phase-difference histogram per (u, v), O(q^3).
    """
    out = []
    chunk = max(1, _VERIFY_CHUNK // (q * q))
    for u0 in range(0, q, chunk):
        # a difference plus p lies in [1, 2p): count 2p bins per (u, v), then fold
        keys = mat_j[None, :, :] - mat_i[u0 : u0 + chunk, None, :] + p
        keys += 2 * p * np.arange(len(keys) * q).reshape(-1, q, 1)
        counts = np.bincount(keys.ravel(), minlength=len(keys) * q * 2 * p)
        counts = counts.reshape(-1, q, 2, p).sum(axis=2)
        out += _violations(q, cyclo.autocorrelation(counts), u0, bi, bj)
    return out


def _translation_certified(p, tb, mat):
    """Whether mat[b, x] - mat[0, x] - tr(b * x) mod p is constant along x
    for every row b."""
    rest = (mat - mat[0] - tb) % p
    return bool((rest == rest[:, :1]).all())


def _certified_violations(p, q, keyed_tb, delta, g, idx, batch):
    """Report rows of each basis pair (k, l, _) in batch, both bases certified.

    Vector v of basis l minus vector u of basis k is g_l - g_k + tr(δ x) plus
    a constant, with g the rows 0 and δ = v - u, so its histogram is a
    rotation of the one for (k, l, δ) and has the same autocorrelation.  All
    q histograms of a pair come from one bincount; a pair is expanded to
    (u, v) only when some δ fails.  keyed_tb[δ, x] = tr(δ x) + 2p δ and
    idx[k] is the position of phase basis k.
    """
    n = len(batch)
    shift = np.stack([(g[l] - g[k]) % p for k, l, _ in batch])
    shift += 2 * p * q * np.arange(n)[:, None]
    # a shift plus a trace is below 2p: count 2p bins per histogram, then fold
    keys = (shift[:, None, :] + keyed_tb).ravel()
    counts = np.bincount(keys, minlength=n * q * 2 * p).reshape(n, q, 2, p).sum(axis=2)
    d = cyclo.autocorrelation(counts)
    same = np.array([k == l for k, l, _ in batch])[:, None]
    # row u = 0 of a pair meets every δ = v - 0 once
    *_, bad = _judge(q, d, 0, np.arange(q)[None, :], same)
    failing = bad.any(axis=1)
    out = [[] for _ in batch]
    chunk = max(1, _VERIFY_CHUNK // (q * q))
    for t in np.flatnonzero(failing):
        k, l, _ = batch[t]
        for u0 in range(0, q, chunk):
            out[t] += _violations(q, d[t][delta[u0 : u0 + chunk]], u0, idx[k], idx[l])
    return out


def _verify_pairs(m, pairs):
    """Report rows of the pairs (k, l, certified) of phase bases k <= l of m;
    certified pairs take the certified kernel, the others the generic one."""
    fld = m.field
    p, q = fld.p, fld.q
    delta = fld.sub_vec(fld.encodings[None, :], fld.encodings[:, None])  # v - u
    keyed_tb = fld.trace_bilinear + 2 * p * np.arange(q)[:, None]
    g = m.exponents[:, 0, :].astype(np.int64)
    idx = m.phase_bases()
    fast = [n for n, (*_, certified) in enumerate(pairs) if certified]
    # at most q pairs a batch: no more memory than the generic kernel's q rows
    cap = max(1, min(q, _VERIFY_CHUNK // (q * q)))
    found = {}
    for batch in (fast[s : s + cap] for s in range(0, len(fast), cap)):
        out = _certified_violations(p, q, keyed_tb, delta, g, idx, [pairs[n] for n in batch])
        found.update(zip(batch, out))
    mat = m.exponent_matrix
    violations = []
    for n, (k, l, _) in enumerate(pairs):
        violations += found[n] if n in found else _pair_violations(p, q, mat(k), mat(l),
                                                                    idx[k], idx[l])
    return violations


def verify_mub_set(m: MubSet, workers: int = 1) -> MubVerification:
    """Exact verification: orthonormality within each phase basis and squared
    cross-basis magnitude q for every pair; failures become report content.

    Pairs of bases that pass the translation certificate take the O(q^2)
    per-pair kernel, every other pair the generic one.  At most one worker
    process per CPU is started; logs one INFO line on the "planarlab" logger.
    """
    p, q = m.field.p, m.field.q
    tb = m.field.trace_bilinear
    certified = {k for k in range(q) if _translation_certified(p, tb, m.exponent_matrix(k))}
    pairs = [(k, k) for k in range(q)] + [(k, l) for k in range(q) for l in range(k + 1, q)]
    pairs = [(k, l, k in certified and l in certified) for k, l in pairs]
    n_fast = sum(fast for *_, fast in pairs)
    _log.info(
        "verify GF(%d): %d of %d phase bases pass the translation certificate; "
        "%d basis pairs by the certified kernel, %d by the generic kernel",
        q, len(certified), q, n_fast, len(pairs) - n_fast,
    )

    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or len(pairs) < 2 * workers:
        return MubVerification(q, _verify_pairs(m, pairs))
    bounds = [len(pairs) * w // workers for w in range(workers + 1)]
    chunks = [pairs[bounds[w] : bounds[w + 1]] for w in range(workers)]
    violations = []
    with futures.ProcessPoolExecutor(max_workers=workers) as ex:
        jobs = [ex.submit(_verify_pairs, m, ch) for ch in chunks if ch]
        for job in jobs:
            violations.extend(job.result())
    return MubVerification(q, violations)


# -- export / import --------------------------------------------------------


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _header(m: MubSet) -> dict:
    return {
        "field": m.field.to_json_dict(),
        "construction": m.construction,
        "poly": str(m.poly),
    }


def export_mubs(m: MubSet, fmt: str = "json") -> bytes:
    """Serialize a MubSet: 'json' and 'csv' are exact, 'float-json' is lossy.

    Each exponent goes through a p-entry table: its decimal text for csv,
    its [re, im] pair for float-json.
    """
    p = m.field.p
    rows = m.exponents.tolist()
    if fmt == "json":
        bases = [{"a": a, "vectors": vecs} for a, vecs in zip(m.a, rows)]
        bases.insert(m.standard, {"standard": True})
        return _json_bytes({**_header(m), "bases": bases})
    if fmt == "csv":
        text = [str(e) for e in range(p)]
        lines = ["basis,b," + ",".join(f"x{i}" for i in range(m.field.q))]
        for a, vecs in zip(m.a, rows):
            for b, row in enumerate(vecs):
                lines.append(f"{a},{b}," + ",".join([text[e] for e in row]))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "float-json":
        amp = 1.0 / math.sqrt(m.field.q)
        phase = [
            [amp * math.cos(2.0 * math.pi * e / p), amp * math.sin(2.0 * math.pi * e / p)]
            for e in range(p)
        ]
        bases = [
            {"a": a, "entries": [[phase[e] for e in row] for row in vecs]}
            for a, vecs in zip(m.a, rows)
        ]
        bases.insert(m.standard, {"standard": True})
        return _json_bytes({**_header(m), "lossy": True, "bases": bases})
    raise ValueError(f"unknown export format {fmt!r}")


def _json_value(value, kind: type, what: str):
    """value when JSON decoded it as `kind`; true and false are not ints here."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _counted(items: list, q: int, what: str) -> list:
    if len(items) != q:
        raise ValueError(f"expected {q} {what}, got {len(items)}")
    return items


def _exponent_row(row, p: int, q: int) -> list[int]:
    """The row when it holds q ints in [0, p); this guards the uint16 cast."""
    _counted(_json_value(row, list, "a phase vector"), q, "entries in a phase vector")
    if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= p:
        raise ValueError(f"phase exponents must be integers in [0, {p})")
    return row


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
    and generating polynomial default to the planar square when absent.  A
    json file must match `field` (FieldMismatch) and `construction`
    (ValueError) when they are given.  Values of the wrong type, count or
    shape, basis labels that are not q distinct elements of [0, q) and csv
    rows whose b is not their position in the basis raise ValueError; a set
    above the size bound, BudgetExceeded.
    """
    text = data.decode() if isinstance(data, bytes) else data
    if fmt == "json":
        obj = _json_value(json.loads(text), dict, "the export")
        fd = _json_value(obj["field"], dict, "field")
        fld = make_field(_json_value(fd["p"], int, "field p"),
                         _json_value(fd["r"], int, "field r"))
        if field is not None and fld != field:
            raise FieldMismatch(f"the export is over {fld!r}, not {field!r}")
        _check_size(fld)
        if fld.modulus != tuple(_json_value(fd["modulus"], list, "field modulus")):
            raise ValueError("modulus in file does not match the canonical field")
        kind = _json_value(obj["construction"], str, "construction")
        if construction is not None and kind != construction:
            raise ValueError(f"the export holds a {kind} set, not a {construction} set")
        bases = _json_value(obj["bases"], list, "bases")
        (std,) = _counted([i for i, b in enumerate(bases)
                           if _json_value(b, dict, "a basis").get("standard")],
                          1, "standard basis")
        q, p = fld.q, fld.p
        phase = _counted(bases[:std] + bases[std + 1 :], q, "phase bases")
        rows = []
        for b in phase:
            vectors = _json_value(b["vectors"], list, "basis vectors")
            rows.append([_exponent_row(r, p, q) for r in _counted(vectors, q, "vectors")])
        return MubSet(
            field=fld,
            construction=kind,
            poly=parse_poly(_json_value(obj["poly"], str, "poly"), fld),
            a=tuple(_json_value(b["a"], int, "basis a") for b in phase),
            exponents=np.array(rows, dtype=np.uint16),
            standard=std,
        )
    if fmt == "csv":
        if field is None:
            raise ValueError("csv import needs the field")
        _check_size(field)
        q, p = field.q, field.p
        groups: dict[int, list[list[int]]] = {}
        lines = [ln for ln in text.splitlines() if ln.strip()]
        for a, b, *cells in (ln.split(",") for ln in lines[1:]):
            vecs = groups.setdefault(int(a), [])
            if int(b) != len(vecs):
                raise ValueError(f"row b = {b} of basis {a} is at position {len(vecs)}")
            vecs.append(_exponent_row(list(map(int, cells)), p, q))
        _counted(list(groups), q, "phase bases")
        rows = [_counted(vecs, q, "vectors") for vecs in groups.values()]
        construction = construction or "planar"
        poly_text = poly_text or ("x^3" if construction == "alltop" else "x^2")
        return MubSet(
            field=field,
            construction=construction,
            poly=parse_poly(poly_text, field),
            a=tuple(groups),
            exponents=np.array(rows, dtype=np.uint16),
        )
    raise ValueError(f"unknown import format {fmt!r}")
