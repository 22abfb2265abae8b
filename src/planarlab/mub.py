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
the autocorrelation of vectors u and v is row v - u + s of one table per
pair class: the difference of the bases' rows 0 less its affine part
tr(s * x) + c, and whether the two bases are one.  Both constructions have
q classes of q histograms, so a set costs O(q^3): 0.08 s at q = 125 and
1.5 s at q = 343 (CPU time, 2-core x86).  A pair with an uncertified basis,
such as a corrupted import, takes the generic kernel: one histogram per
vector pair, O(q^3) per basis pair.  Both kernels judge by cyclo's exact rule.

An export renders 2p tokens once, each exponent's text followed by "," or
by the row end, and has two renderers.  When every token has the same byte
width (exact json and csv with p <= 7) a phase basis is one uint8 table:
the row heads NUL-padded to one width, then the tokens gathered by
exponent, the padding dropped at the end.  Tokens of mixed widths
(float-json, exact exports with p >= 11) are gathered into an object array
of cells and joined, which measured faster for them.  At q = 125 json
export takes about 0.015 s and csv 0.02 s, against 0.05 s each by the
join (CPU time, 2-core x86).

An import takes the canonical route first: the body of an exact export is
cut into its q phase bases, and each basis's runs of ASCII digits are read
with numpy, its label and q^2 exponents at once.  The set is kept only if
export_mubs renders it back to the input byte for byte, so an accepted
import is exact by construction.  Any other input goes to the checked
parser, which reads every value and raises every import error.  At q = 125
the canonical route takes about 0.04 s (json) and 0.05 s (csv), its
re-render included, against 0.33 and 0.45 s through the checked parser.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field as dataclass_field
from itertools import chain, groupby
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
        if self.construction not in ("planar", "alltop"):
            raise ValueError(f"unknown construction {self.construction!r}")
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
                 "autocorrelation": d}
                for kind, bi, u, bj, v, want, ok, value, d in self.violations
            ],
            "standard_basis": STANDARD_NOTE,
        }


def _judge(q, d, us, vs, same: bool):
    """(is_int, value, want, bad) for autocorrelations d of vectors u of basis
    i and v of basis j, `same` saying i == j.  The squared magnitude
    (cyclo.rational_mag_sq) must be q^2 on the within-basis diagonal, 0 off
    it and q across bases; within a basis only v >= u is judged."""
    is_int, value = cyclo.rational_mag_sq(d)
    want = np.where(us == vs, q * q, 0) if same else np.full_like(value, q)
    bad = ~is_int | (value != want)
    return is_int, value, want, (bad & (vs >= us) if same else bad)


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


def _verify_pairs(m, pairs):
    """Report rows of the pairs (k, l, certified) of phase bases k <= l of m.

    With g the rows 0, a certified pair's D = g_l - g_k is R + tr(s x) + D(0),
    R vanishing at 0 and at the polynomial basis e_i (encoding p^i).  Vector v
    of basis l minus vector u of basis k is R + tr((v - u + s) x) plus a
    constant, so its autocorrelation is row v - u + s of the table of the
    class (R, k == l).  A pair is expanded to (u, v) only when its class fails.
    """
    fld = m.field
    p, q = fld.p, fld.q
    tb = fld.trace_bilinear
    powers = p ** np.arange(fld.r)  # the encodings of e_i
    s_of = np.argsort(tb[:, powers] @ powers)  # s from (tr(s e_i))_i read in base p
    g = m.exponents[:, 0, :].astype(np.int64)
    chunk = max(1, _VERIFY_CHUNK // (q * q))
    fast = sorted((k, l, n) for n, (k, l, certified) in enumerate(pairs) if certified)
    classes, tables, of_pair = {}, [], {}  # key -> class; class -> table when failing
    for k, group in groupby(fast, key=lambda pair: pair[0]):
        group = list(group)
        d = (g[[l for _, l, _ in group]] - g[k]) % p
        s = s_of[((d[:, powers] - d[:, :1]) % p) @ powers]
        fresh = []  # (R, k == l) of classes first met here
        for (_, l, n), res, s_kl in zip(group, (d - d[:, :1] - tb[s]) % p, s.tolist()):
            key = (res.tobytes(), k == l)
            if key not in classes:
                classes[key] = len(classes)
                fresh.append((res, k == l))
            of_pair[n] = classes[key], s_kl
        for c0 in range(0, len(fresh), chunk):
            batch = fresh[c0 : c0 + chunk]
            # a class's table: the autocorrelations of R + tr(t x) for every t
            keys = (np.stack([res for res, _ in batch])[:, None, :] + tb) % p
            keys += p * np.arange(len(batch) * q).reshape(-1, q, 1)
            counts = np.bincount(keys.ravel(), minlength=len(batch) * q * p)
            for table, (_, same) in zip(cyclo.autocorrelation(counts.reshape(-1, q, p)), batch):
                tables.append(table if _judge(q, table, 0, fld.encodings, same)[3].any() else None)
    delta = fld.sub_vec(fld.encodings[None, :], fld.encodings[:, None])  # v - u
    idx = m.phase_bases()
    violations = []
    for n, (k, l, certified) in enumerate(pairs):
        if not certified:
            violations += _pair_violations(p, q, m.exponent_matrix(k), m.exponent_matrix(l),
                                           idx[k], idx[l])
        elif (table := tables[of_pair[n][0]]) is not None:
            for u0 in range(0, q, chunk):
                rows = fld.add_vec(delta[u0 : u0 + chunk], of_pair[n][1])
                violations += _violations(q, table[rows], u0, idx[k], idx[l])
    return violations


def verify_mub_set(m: MubSet, workers: int = 1) -> MubVerification:
    """Exact verification: orthonormality within each phase basis and squared
    cross-basis magnitude q for every pair; failures become report content.

    Certified basis pairs are read from their pair classes' tables, all
    others take the generic kernel, in this process: `workers` is accepted
    and ignored.  Logs one INFO line on the "planarlab" logger.
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
    return MubVerification(q, _verify_pairs(m, pairs))


# -- export / import --------------------------------------------------------


def _rows_text(m: MubSet, texts: list[str], end: str, heads: list[list[str]]) -> list[bytes]:
    """Each phase basis of m as text: row b of basis k is heads[k][b], then
    texts[e] of each entry e, followed by "," or, on the last one, by `end`.

    The 2p tokens are rendered once; token e + p is e at a row's end.  When
    they all have one width the bases are byte tables, else joins of cells.
    """
    p, q = m.field.p, m.field.q
    tokens = [t + "," for t in texts] + [t + end for t in texts]
    last = np.zeros(q, dtype=np.intp)
    last[-1] = p
    cells = (m.exponents[k] + last for k in range(q))
    render = _rows_table if len({len(t) for t in tokens}) == 1 else _rows_join
    return render(tokens, heads, cells)


def _rows_table(tokens: list[str], heads: list[list[str]], cells) -> list[bytes]:
    """Bases from tokens of one width: each is a uint8 table whose row b holds
    head b, NUL-padded to the widest head, and the tokens gathered by cells
    row b.  The padding is dropped at the end; exports are ASCII and never
    hold a NUL."""
    tok = np.array(tokens, dtype=np.bytes_)
    out = []
    for rows, idx in zip(heads, cells):
        head = np.array(rows, dtype=np.bytes_)
        q, w = len(rows), head.itemsize
        table = np.empty((q, w + q * tok.itemsize), dtype=np.uint8)
        table[:, :w] = head.view(np.uint8).reshape(q, w)
        table[:, w:] = tok[idx].view(np.uint8).reshape(q, -1)
        out.append(table.tobytes().replace(b"\0", b""))
    return out


def _rows_join(tokens: list[str], heads: list[list[str]], cells) -> list[bytes]:
    """Bases from tokens of mixed widths: each is a (q, q + 1) object array
    of cells, head b then the tokens gathered by cells row b, and one join."""
    tok = np.array(tokens, dtype=object)
    q = len(heads)
    table = np.empty((q, q + 1), dtype=object)
    out = []
    for rows, idx in zip(heads, cells):
        table[:, 0] = rows
        table[:, 1:] = tok[idx]
        out.append("".join(table.ravel().tolist()).encode())
    return out


def _json_sets(m: MubSet, key: str, bodies: list[bytes], **extra) -> bytes:
    """The json document: basis k as {"a": a[k], key: [bodies[k]]}, the
    standard basis at its position, then the header, all keys sorted."""
    bases = [[b'{"a":%d,"%s":[' % (a, key.encode()), body, b"]}"] for a, body in zip(m.a, bodies)]
    bases.insert(m.standard, [b'{"standard":true}'])
    header = {"field": m.field.to_json_dict(), "construction": m.construction,
              "poly": str(m.poly), **extra}
    # "bases" sorts before every header key; one join, so the bodies are copied once
    parts = [b'{"bases":[', *chain.from_iterable(basis + [b","] for basis in bases)]
    parts[-1] = b"],"  # the comma after the last basis closes the list
    parts.append(json.dumps(header, sort_keys=True, separators=(",", ":"))[1:].encode() + b"\n")
    return b"".join(parts)


def export_mubs(m: MubSet, fmt: str = "json") -> bytes:
    """Serialize a MubSet: 'json' and 'csv' are exact, 'float-json' is lossy.

    Each of the p exponents is rendered once: its decimal text for json and
    csv, its compact [re, im] pair for float-json.
    """
    p, q = m.field.p, m.field.q
    digits = [str(e) for e in range(p)]
    if fmt == "csv":
        heads = [[f"{a},{b}," for b in range(q)] for a in m.a]
        header = "basis,b," + ",".join(f"x{i}" for i in range(q)) + "\n"
        return b"".join([header.encode(), *_rows_text(m, digits, "\n", heads)])
    row_heads = [["["] + [",["] * (q - 1)] * q
    if fmt == "json":
        return _json_sets(m, "vectors", _rows_text(m, digits, "]", row_heads))
    if fmt == "float-json":
        amp = 1.0 / math.sqrt(q)
        pairs = [
            json.dumps([amp * math.cos(2.0 * math.pi * e / p),
                        amp * math.sin(2.0 * math.pi * e / p)], separators=(",", ":"))
            for e in range(p)
        ]
        return _json_sets(m, "entries", _rows_text(m, pairs, "]", row_heads), lossy=True)
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


def _digit_runs(chars: np.ndarray) -> np.ndarray | None:
    """The values of the runs of ASCII digits in the uint8 array chars, in
    order, or None when a run is longer than three digits.  The first digit
    of every run is read at once, the second and third where runs have them."""
    digit = chars - np.uint8(48)  # wraps: every other byte becomes 10 or more
    edges = np.flatnonzero(np.diff(digit < 10, prepend=False, append=False))
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    if lengths.size and lengths.max() > 3:
        return None
    values = digit[starts].astype(np.int32)
    for j in (1, 2):
        more = lengths > j
        values[more] = values[more] * 10 + digit[starts[more] + j]
    return values


def _read_bases(chars: np.ndarray, bounds: list[int], field: FieldSpec, lead: int, heads: int):
    """(labels, exponents) of the q phase bases chars[bounds[k]:bounds[k + 1]],
    or None when they do not hold exponents in [0, p) in the expected shape.

    A basis is `lead` digit runs, then q rows of `heads` runs and q exponents;
    its first run is its label.  Only one basis is tokenised at a time.
    """
    p, q = field.p, field.q
    labels = []
    exps = np.empty((q, q, q), dtype=np.uint16)
    for k in range(q):
        runs = _digit_runs(chars[bounds[k] : bounds[k + 1]])
        if runs is None or len(runs) != lead + q * (q + heads):
            return None
        rows = runs[lead:].reshape(q, q + heads)[:, heads:]
        if rows.max() >= p:
            return None
        labels.append(int(runs[0]))
        exps[k] = rows
    return tuple(labels), exps


def _csv_kind(field: FieldSpec, construction: str | None, poly_text: str | None):
    """A csv set's construction and polynomial: the planar square unless given."""
    construction = construction or "planar"
    poly = parse_poly(poly_text or ("x^3" if construction == "alltop" else "x^2"), field)
    return construction, poly


def _canonical_json(data: bytes, field, construction, poly_text) -> MubSet | None:
    """The set of a json document exactly as export_mubs writes it, else None.

    The header after `],"construction":` is read with json; the body of each
    phase basis, from its `{"a":` to the next, is read as digit runs: its label,
    then its q^2 exponents.  Only a set that exports to `data` itself is kept.
    """
    at = data.rfind(b'],"construction":')
    if at < 0:
        return None
    header = json.loads(b"{" + data[at + 2 :])
    fd = header["field"]
    fld = make_field(_json_value(fd["p"], int, "field p"), _json_value(fd["r"], int, "field r"))
    kind = _json_value(header["construction"], str, "construction")
    poly = parse_poly(header["poly"], fld)
    if (field is not None and field != fld or construction not in (None, kind)
            or poly_text is not None and parse_poly(poly_text, fld) != poly):
        return None
    _check_size(fld)
    q = fld.q
    starts = []
    at_a = data.find(b'{"a":', 0, at)
    while at_a >= 0 and len(starts) <= q:
        starts.append(at_a)
        at_a = data.find(b'{"a":', at_a + 1, at)
    standard = data.find(b'{"standard":true}', 0, at)
    if len(starts) != q or standard < 0:
        return None
    bases = _read_bases(np.frombuffer(data, np.uint8), starts + [at], fld, 1, 0)
    if bases is None:
        return None
    m = MubSet(fld, kind, poly, *bases, sum(s < standard for s in starts))
    return m if export_mubs(m, "json") == data else None


def _canonical_csv(data: bytes, field, construction, poly_text) -> MubSet | None:
    """The set of a csv document exactly as export_mubs writes it, else None.

    After the header line each phase basis is q lines, read as digit runs:
    label, position b and q exponents per line.  Only a set that exports to
    `data` itself is kept.
    """
    if field is None:
        return None
    _check_size(field)
    q = field.q
    kind, poly = _csv_kind(field, construction, poly_text)
    chars = np.frombuffer(data, np.uint8)
    line_ends = np.flatnonzero(chars == ord("\n"))
    if len(line_ends) != q * q + 1:
        return None
    # the header line, then q lines a basis
    bases = _read_bases(chars, (line_ends[::q] + 1).tolist(), field, 0, 2)
    if bases is None:
        return None
    m = MubSet(field, kind, poly, *bases)
    return m if export_mubs(m, "csv") == data else None


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
    json file must match `field` (FieldMismatch), `construction` and
    `poly_text` (ValueError) when they are given.  Values of the wrong type,
    count or shape, basis labels that are not q distinct elements of [0, q)
    and csv rows whose b is not their position in the basis raise ValueError;
    a set above the size bound, BudgetExceeded.

    Bytes exactly as export_mubs writes them take the canonical route, which
    keeps a set only when it re-exports to the input; everything else, and
    every error, comes from the checked parser.  Logs the route taken as one
    INFO line on the "planarlab" logger.
    """
    m = None
    canonical = {"json": _canonical_json, "csv": _canonical_csv}.get(fmt)
    if canonical is not None:
        try:
            raw = data.encode() if isinstance(data, str) else data
            m = canonical(raw, field, construction, poly_text)
        except Exception:  # not a canonical export: the checked parser says why
            m = None
    route = "canonical"
    if m is None:
        m = _import_checked(data, fmt, field, construction, poly_text)
        route = "checked"
    _log.info("import %s GF(%d): %s route", fmt, m.field.q, route)
    return m


def _import_checked(data, fmt, field, construction, poly_text) -> MubSet:
    """The checked parser behind import_mubs: it reads every value of any
    input and raises every import error."""
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
        poly = parse_poly(_json_value(obj["poly"], str, "poly"), fld)
        if poly_text is not None and parse_poly(poly_text, fld) != poly:
            raise ValueError(f"the export is generated by {poly}, not {poly_text}")
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
        return MubSet(
            field=fld,
            construction=kind,
            poly=poly,
            a=tuple(_json_value(b["a"], int, "basis a") for b in phase),
            exponents=exps,
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
            _counted(cells, q, "entries in a phase vector")
            vecs.append(list(map(int, cells)))
        _counted(list(groups), q, "phase bases")
        exps = np.empty((q, q, q), dtype=np.uint16)
        for k, vecs in enumerate(groups.values()):
            exps[k] = _exponent_array(_counted(vecs, q, "vectors"), p, q)
        construction, poly = _csv_kind(field, construction, poly_text)
        return MubSet(
            field=field,
            construction=construction,
            poly=poly,
            a=tuple(groups),
            exponents=exps,
        )
    raise ValueError(f"unknown import format {fmt!r}")
