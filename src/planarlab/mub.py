"""Construction and bit-exact verification of complete MUB sets.

Vectors are stored as tables of phase exponents in Z_p with an implicit
amplitude 1/sqrt(q) on every entry, so all verification is exact integer
arithmetic.  The planar construction assigns the vector indexed (a, b) the
exponent table tr(a * Pi(x) + b * x); the cubic construction (characteristic
at least 5) uses tr((x + a)^3 + b * (x + a)).  Together with the standard
basis these give q + 1 bases.

For two phase vectors the squared inner product times q^2 equals the squared
magnitude of the phase-difference histogram, so unbiasedness is the exact
statement mag_sq = q, orthonormality mag_sq = q^2 on the diagonal and 0 off
it.  Pairs involving the standard basis are unbiased by construction (every
entry has modulus 1/sqrt(q)) and are recorded as such, not recomputed.
"""

from __future__ import annotations

import json
import math
from concurrent import futures
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import classify
from .errors import CharacteristicTooSmall, FieldMismatch, NotPlanar
from .field import FieldSpec, make_field
from .polyfun import Poly, parse_poly

_VERIFY_CHUNK = 1 << 18


@dataclass(frozen=True)
class PhaseVector:
    """Length-q table of phase exponents mod p with implicit 1/sqrt(q) amplitude."""

    field: FieldSpec
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != self.field.q:
            raise ValueError("phase table length must equal the field order")


@dataclass(frozen=True)
class StandardBasis:
    """Marker for the standard basis."""


@dataclass(frozen=True)
class PhaseBasis:
    """The q phase vectors of one basis, indexed by the b encoding."""

    a: int
    vectors: tuple[PhaseVector, ...]


@dataclass
class MubSet:
    """A complete collection: the standard basis plus q phase bases."""

    field: FieldSpec
    construction: str  # "planar" | "alltop"
    poly: Poly
    bases: list

    def phase_bases(self) -> list[tuple[int, PhaseBasis]]:
        return [(i, b) for i, b in enumerate(self.bases) if isinstance(b, PhaseBasis)]

    def exponent_matrix(self, basis: PhaseBasis) -> np.ndarray:
        return np.array([v.exponents for v in basis.vectors], dtype=np.int64)


def _phase_bases_from_matrix(field: FieldSpec, a: int, mat: np.ndarray) -> PhaseBasis:
    vectors = tuple(
        PhaseVector(field, tuple(int(e) for e in row)) for row in mat
    )
    return PhaseBasis(a=a, vectors=vectors)


def build_planar_mubs(field: FieldSpec, pi: Poly) -> MubSet:
    """Bases V_a with exponents tr(a * pi(x) + b * x) for all a, plus standard."""
    if pi.field != field:
        raise FieldMismatch("generating polynomial belongs to a different field")
    if not classify.is_planar(pi):
        raise NotPlanar(f"{pi} is not planar over {field!r}")
    p = field.p
    values = pi.value_table().values
    tb = field.trace_bilinear  # tb[b, x] = tr(b * x)
    bases: list = [StandardBasis()]
    for a in range(field.q):
        ta = field.trace_table[field.mul_vec(np.int32(a), values)]
        mat = (ta[None, :] + tb) % p
        bases.append(_phase_bases_from_matrix(field, a, mat))
    return MubSet(field=field, construction="planar", poly=pi, bases=bases)


def build_alltop_mubs(field: FieldSpec) -> MubSet:
    """Bases with exponents tr((x+a)^3 + b*(x+a)); needs characteristic >= 5."""
    if field.p < 5:
        raise CharacteristicTooSmall(
            f"cubic phase construction needs characteristic >= 5, got {field.p}"
        )
    p = field.p
    enc = field.encodings
    cube = field.mul_vec(field.mul_vec(enc, enc), enc)
    tr_cube = field.trace_table[cube]
    tb = field.trace_bilinear
    bases: list = [StandardBasis()]
    for a in range(field.q):
        shifted = field.add_vec(np.int32(a), enc)
        mat = (tr_cube[shifted][None, :] + tb[:, shifted]) % p
        bases.append(_phase_bases_from_matrix(field, a, mat))
    return MubSet(
        field=field, construction="alltop", poly=Poly.monomial(field, 3), bases=bases
    )


@dataclass(frozen=True)
class MubViolation:
    kind: str  # "orthonormality" | "unbiasedness"
    basis_i: int
    vector_i: int
    basis_j: int
    vector_j: int
    expected: int
    is_rational_integer: bool
    value: int | None
    autocorrelation: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "basis_i": self.basis_i,
            "vector_i": self.vector_i,
            "basis_j": self.basis_j,
            "vector_j": self.vector_j,
            "expected": self.expected,
            "is_rational_integer": self.is_rational_integer,
            "value": self.value,
            "autocorrelation": list(self.autocorrelation),
        }


@dataclass
class MubVerification:
    passed: bool
    q: int
    num_bases: int
    pairs_checked: int
    violations: list[MubViolation] = dataclass_field(default_factory=list)
    standard_note: str = "standard-basis pairs are unbiased by construction"

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "q": self.q,
            "bases": self.num_bases,
            "pairs_checked": self.pairs_checked,
            "violations": [v.to_json_dict() for v in self.violations],
            "standard_basis": self.standard_note,
        }


def _pair_violations(p, q, mat_i, mat_j, same, expected):
    """Violation tuples for one basis pair, rows scanned in (u, v) order.

    mag_sq of the phase-difference histogram must equal `expected`
    (q^2 on the within-basis diagonal, 0 off it, q across bases).
    """
    out = []
    chunk = max(1, _VERIFY_CHUNK // (q * q))
    for u0 in range(0, q, chunk):
        u1 = min(u0 + chunk, q)
        diff = (mat_j[None, :, :] - mat_i[u0:u1, None, :]) % p
        counts = np.stack([(diff == j).sum(axis=-1) for j in range(p)], axis=-1)
        d = np.stack(
            [(counts * np.roll(counts, -m, axis=-1)).sum(axis=-1) for m in range(p)],
            axis=-1,
        )
        is_int = (d[..., 1:] == d[..., 1:2]).all(axis=-1)
        value = d[..., 0] - d[..., 1]
        if same:
            us = np.arange(u0, u1)[:, None]
            vs = np.arange(q)[None, :]
            want = np.where(us == vs, q * q, 0)
            relevant = vs >= us
        else:
            want = np.full((u1 - u0, q), expected)
            relevant = np.ones((u1 - u0, q), dtype=bool)
        bad = relevant & (~is_int | (value != want))
        for i, v in np.argwhere(bad):
            u = u0 + int(i)
            out.append(
                (
                    u,
                    int(v),
                    int(want[i, v]),
                    bool(is_int[i, v]),
                    int(value[i, v]) if is_int[i, v] else None,
                    tuple(int(x) for x in d[i, v]),
                )
            )
    return out


def _verify_pairs(args):
    p, q, mats, pairs = args
    violations = []
    for bi, bj, same in pairs:
        expected = q * q if same else q
        for u, v, want, is_int, value, d in _pair_violations(
            p, q, mats[bi], mats[bj], same, expected
        ):
            kind = "orthonormality" if same else "unbiasedness"
            violations.append((kind, bi, u, bj, v, want, is_int, value, d))
    return violations


def verify_mub_set(m: MubSet, workers: int = 1) -> MubVerification:
    """Exact verification: orthonormality within each phase basis and squared
    cross-basis magnitude q for every pair; failures become report content."""
    fld = m.field
    q = fld.q
    if len(m.bases) != q + 1:
        raise ValueError(f"expected {q + 1} bases, got {len(m.bases)}")
    standards = [b for b in m.bases if isinstance(b, StandardBasis)]
    if len(standards) != 1:
        raise ValueError("expected exactly one standard basis")
    phase = m.phase_bases()
    for _, b in phase:
        if len(b.vectors) != q:
            raise ValueError("every phase basis must hold exactly q vectors")

    mats = {i: m.exponent_matrix(b) for i, b in phase}
    idx = [i for i, _ in phase]
    pair_list = [(i, i, True) for i in idx]
    pair_list += [(i, j, False) for n, i in enumerate(idx) for j in idx[n + 1 :]]

    if workers <= 1 or len(pair_list) < 2 * workers:
        raw = _verify_pairs((fld.p, q, mats, pair_list))
    else:
        bounds = [len(pair_list) * w // workers for w in range(workers + 1)]
        chunks = [pair_list[bounds[w] : bounds[w + 1]] for w in range(workers)]
        raw = []
        with futures.ProcessPoolExecutor(max_workers=workers) as ex:
            jobs = [ex.submit(_verify_pairs, (fld.p, q, mats, ch)) for ch in chunks if ch]
            for job in jobs:
                raw.extend(job.result())

    violations = [
        MubViolation(
            kind=kind,
            basis_i=bi,
            vector_i=u,
            basis_j=bj,
            vector_j=v,
            expected=want,
            is_rational_integer=is_int,
            value=value,
            autocorrelation=d,
        )
        for kind, bi, u, bj, v, want, is_int, value, d in raw
    ]
    n_within = len(idx) * (q * (q + 1) // 2)
    n_cross = (len(idx) * (len(idx) - 1) // 2) * q * q
    return MubVerification(
        passed=not violations,
        q=q,
        num_bases=len(m.bases),
        pairs_checked=n_within + n_cross,
        violations=violations,
    )


# -- export / import --------------------------------------------------------


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def export_mubs(m: MubSet, fmt: str = "json") -> bytes:
    """Serialize a MubSet: 'json' and 'csv' are exact, 'float-json' is lossy."""
    if fmt == "json":
        bases = []
        for b in m.bases:
            if isinstance(b, StandardBasis):
                bases.append({"standard": True})
            else:
                bases.append(
                    {"a": b.a, "vectors": [list(v.exponents) for v in b.vectors]}
                )
        return _json_bytes(
            {
                "field": m.field.to_json_dict(),
                "construction": m.construction,
                "poly": str(m.poly),
                "bases": bases,
            }
        )
    if fmt == "csv":
        q = m.field.q
        lines = ["basis,b," + ",".join(f"x{i}" for i in range(q))]
        for b in m.bases:
            if isinstance(b, StandardBasis):
                continue
            for bi, v in enumerate(b.vectors):
                lines.append(f"{b.a},{bi}," + ",".join(str(e) for e in v.exponents))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "float-json":
        p = m.field.p
        amp = 1.0 / math.sqrt(m.field.q)
        bases = []
        for b in m.bases:
            if isinstance(b, StandardBasis):
                bases.append({"standard": True})
                continue
            entries = [
                [
                    [
                        amp * math.cos(2.0 * math.pi * e / p),
                        amp * math.sin(2.0 * math.pi * e / p),
                    ]
                    for e in v.exponents
                ]
                for v in b.vectors
            ]
            bases.append({"a": b.a, "entries": entries})
        return _json_bytes(
            {
                "field": m.field.to_json_dict(),
                "construction": m.construction,
                "poly": str(m.poly),
                "lossy": True,
                "bases": bases,
            }
        )
    raise ValueError(f"unknown export format {fmt!r}")


def _json_value(value, kind: type, what: str):
    """value when JSON decoded it as `kind`; true and false are not ints here."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _exponent_row(row, p: int) -> tuple[int, ...]:
    exps = tuple(_json_value(row, list, "a phase vector"))
    if exps and (set(map(type, exps)) != {int} or min(exps) < 0 or max(exps) >= p):
        raise ValueError(f"phase exponents must be integers in [0, {p})")
    return exps


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
    and generating polynomial default to the planar square when absent.
    Values of the wrong type or shape raise ValueError.
    """
    text = data.decode() if isinstance(data, bytes) else data
    if fmt == "json":
        obj = _json_value(json.loads(text), dict, "the export")
        fd = _json_value(obj["field"], dict, "field")
        fld = make_field(_json_value(fd["p"], int, "field p"),
                         _json_value(fd["r"], int, "field r"))
        if fld.modulus != tuple(_json_value(fd["modulus"], list, "field modulus")):
            raise ValueError("modulus in file does not match the canonical field")
        bases: list = []
        for b in _json_value(obj["bases"], list, "bases"):
            if _json_value(b, dict, "a basis").get("standard"):
                bases.append(StandardBasis())
            else:
                a = _json_value(b["a"], int, "basis a")
                rows = _json_value(b["vectors"], list, "basis vectors")
                vectors = tuple(PhaseVector(fld, _exponent_row(r, fld.p)) for r in rows)
                bases.append(PhaseBasis(a=a, vectors=vectors))
        return MubSet(
            field=fld,
            construction=_json_value(obj["construction"], str, "construction"),
            poly=parse_poly(_json_value(obj["poly"], str, "poly"), fld),
            bases=bases,
        )
    if fmt == "csv":
        if field is None:
            raise ValueError("csv import needs the field")
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows = [ln.split(",") for ln in lines[1:]]
        groups: dict[int, list[tuple[int, ...]]] = {}
        order: list[int] = []
        for row in rows:
            a = int(row[0])
            if a not in groups:
                groups[a] = []
                order.append(a)
            groups[a].append(_exponent_row([int(e) for e in row[2:]], field.p))
        bases = [StandardBasis()]
        for a in order:
            vectors = tuple(PhaseVector(field, exps) for exps in groups[a])
            bases.append(PhaseBasis(a=a, vectors=vectors))
        construction = construction or "planar"
        poly_text = poly_text or ("x^3" if construction == "alltop" else "x^2")
        return MubSet(
            field=field,
            construction=construction,
            poly=parse_poly(poly_text, field),
            bases=bases,
        )
    raise ValueError(f"unknown import format {fmt!r}")
