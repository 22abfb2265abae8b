"""Exhaustive enumeration campaigns over candidate polynomial families.

Families are finite and enumerated in a fixed deterministic order (coefficient
vectors lexicographically by encoding, monomials by ascending degree), so a
report's hit list is reproducible.  Every campaign runs in the calling
process; the report keeps hit indices and texts, and builds hit polynomials
only when they are read.

Each family is decided from an exact invariance, never by more
classifications than it needs:

- all-reduced: one candidate per core, the reduced terms left after the
  affine terms (and, for Alltop, the Dembowski-Ostrom terms) are dropped,
  which cannot change the verdict; scanned as arrays of base-q digits
  (`_scan_digits`).
- monomials and do-monomials: one exponent per Frobenius coset, since
  x^(pe) = (x^e)^p and Frobenius is an additive bijection, decided by
  homogeneity from the one row Delta_1 x^e (`classify.monomial_verdicts`).
- shifted-cubics: f(x + t) is planar or Alltop exactly when f is, so the
  verdict on x^3 decides every candidate.

`_scan`, which classifies one candidate per core, is the per-candidate
reference for all of them.  The candidate budget counts every candidate;
the table-operation budget prices the work of each route (`_route`).
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import binom, classify, polyfun
from .errors import BudgetExceeded, CharacteristicTooSmall
from .field import FieldSpec, base_p_digits
from .polyfun import Poly

FAMILY_KINDS = ("monomials", "all-reduced", "shifted-cubics", "do-monomials")
MODES = ("planar", "alltop")

_log = logging.getLogger("planarlab")

DEFAULT_CANDIDATE_BUDGET = 10_000_000
TABLE_OPS_PER_CANDIDATE = 1000  # ops ceiling = candidate budget * this
_CHUNK_CANDIDATES = 1 << 16  # indices per digit array in _scan_digits


@dataclass(frozen=True)
class FamilySpec:
    """A finite candidate family with a precomputable cardinality."""

    kind: str
    max_degree: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "all-reduced":
            if self.max_degree is None or self.max_degree < 0:
                raise ValueError("all-reduced needs a non-negative max_degree")
        elif self.max_degree is not None:
            raise ValueError(f"max_degree only applies to all-reduced, not {self.kind}")

    def size(self, field: FieldSpec) -> int:
        if self.kind == "monomials":
            return field.q - 2  # degrees 2 .. q-1
        if self.kind == "all-reduced":
            return field.q ** (self.max_degree + 1)
        if self.kind == "shifted-cubics":
            return field.q
        return field.r  # do-monomials: one per k in [0, r)

    def candidate(self, field: FieldSpec, idx: int) -> Poly:
        """The idx-th candidate in enumeration order."""
        if self.kind == "all-reduced":
            # coefficient vector (c_0, ..., c_D) ascending lexicographically,
            # so c_0 is the most significant digit of idx in base q; only the
            # digits idx has are read, so q**(D+1) is never built
            if idx < 0 or len(digits := base_p_digits(idx, field.q)) > self.max_degree + 1:
                raise IndexError(f"candidate index {idx} out of range")
            return Poly._trusted(field, {self.max_degree - j: c for j, c in enumerate(digits) if c})
        if not 0 <= idx < self.size(field):
            raise IndexError(f"candidate index {idx} out of range")
        if self.kind == "monomials":
            return Poly._trusted(field, {2 + idx: 1})
        if self.kind == "shifted-cubics":
            return polyfun.shift_scale(Poly._trusted(field, {3: 1}), 1, idx)
        return Poly._trusted(field, {field.p**idx + 1: 1})

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "all-reduced":
            out["max_degree"] = self.max_degree
        return out


@dataclass
class SearchReport:
    """Outcome of one enumeration campaign; hits in enumeration order."""

    field: FieldSpec
    family: FamilySpec
    mode: str
    tested: int
    hit_indices: list[int]
    hit_texts: list[str]
    elapsed_ms: int

    @functools.cached_property
    def hit_polys(self) -> list[Poly]:
        """The hits as polynomials over `field`, built when first read."""
        return [self.family.candidate(self.field, i) for i in self.hit_indices]

    def to_json_dict(self, canonical: bool = False) -> dict:
        out = {
            "field": self.field.to_json_dict(),
            "family": self.family.to_json_dict(),
            "mode": self.mode,
            "tested": self.tested,
            "hits": list(self.hit_texts),
        }
        if not canonical:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def _scan(field, family, mode, start, stop):
    """Hit indices and texts in [start, stop) and the number of classifier
    calls.

    Candidates with equal cores differ by free terms, so only the first
    candidate of each core is classified and the rest reuse its verdict.
    """
    predicate = classify.is_planar if mode == "planar" else classify.is_alltop
    free = classify._free_exponents(field, mode)
    verdicts: dict[frozenset, bool] = {}
    hit_indices, hit_texts = [], []
    for idx in range(start, stop):
        f = family.candidate(field, idx)
        key = classify._core(f, free)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = predicate(f)
        if verdict:
            hit_indices.append(idx)
            hit_texts.append(str(f))
    return hit_indices, hit_texts, len(verdicts)


def _scan_digits(field, family, mode, start, stop):
    """`_scan` for the all-reduced family, on arrays of base-q digits.

    Each chunk of indices becomes a (D + 1, n) digit array whose row j holds
    c_(D-j).  Rows whose reduced exponents collide outside the free set are
    summed with `add_vec`, and the merged rows, read as base-q digits, give
    each candidate one int64 key that is equal exactly when the cores are.
    One member of each key not seen in an earlier chunk is classified.

    A chunk's hit texts are rendered at once as one byte table: row i is
    "\\n" followed by, for each j, entry digits[j, i] of column j's token
    table, whose entry c is " + " + str(c * x^(D-j)) padded with NUL bytes
    to the column's width, and empty for c = 0.  Its bytes, without the
    padding and without the " + " after each "\\n", split into the texts.
    """
    predicate = classify.is_planar if mode == "planar" else classify.is_alltop
    q, D = field.q, family.max_degree
    free = classify._free_exponents(field, mode)
    core_rows: dict[int, list[int]] = {}
    for e in range(D + 1):
        red = polyfun._reduced_exponent(e, q)
        if red not in free:
            core_rows.setdefault(red, []).append(D - e)
    tokens = [
        np.array([b""] + [f" + {Poly._trusted(field, {D - j: c})}".encode() for c in range(1, q)])
        for j in range(D + 1)
    ]
    verdicts: dict[int, bool] = {}
    hit_indices, hit_texts = [], []
    for lo in range(start, stop, _CHUNK_CANDIDATES):
        rest = np.arange(lo, min(lo + _CHUNK_CANDIDATES, stop), dtype=np.int64)
        digits = np.empty((D + 1, len(rest)), dtype=np.int32)
        for j in range(D + 1):  # c_D is the least significant digit
            rest, digits[j] = np.divmod(rest, q)
        key = np.zeros(digits.shape[1], dtype=np.int64)
        for rows in core_rows.values():
            merged = digits[rows[0]]
            for j in rows[1:]:
                merged = field.add_vec(merged, digits[j])
            key = key * q + merged
        keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        keys = keys.tolist()
        for k, i in zip(keys, first.tolist()):
            if k not in verdicts:
                verdicts[k] = predicate(family.candidate(field, lo + i))
        hit = np.fromiter((verdicts[k] for k in keys), bool, len(keys))[inverse]
        rows = digits[:, hit]
        newlines = np.full(rows.shape[1], b"\n")
        table = np.rec.fromarrays([newlines, *(t[c] for t, c in zip(tokens, rows))])
        text = table.tobytes().replace(b"\0", b"").replace(b"\n + ", b"\n").decode()
        hit_indices += (np.flatnonzero(hit) + lo).tolist()
        hit_texts += text.split("\n")[1:]
    if hit_indices[:1] == [0]:
        hit_texts[0] = "0"  # the zero polynomial, the one row without a token
    return hit_indices, hit_texts, len(verdicts)


def _frobenius_cosets(field: FieldSpec, exps: np.ndarray) -> np.ndarray:
    """The smallest member of each exponent's cyclotomic coset
    {e, p*e, p^2*e, ...}, each product taken as a reduced exponent."""
    rep = cur = exps
    for _ in range(field.r - 1):
        cur = (cur * field.p - 1) % (field.q - 1) + 1
        rep = np.minimum(rep, cur)
    return rep


def _scan_monomials(field, family, mode, cosets, inverse):
    """`_scan` for the monomials and do-monomials families: one verdict per
    Frobenius coset of the candidates' exponents (`_route`), by
    `classify.monomial_verdicts`; the count is of cosets."""
    hit = classify.monomial_verdicts(field, cosets, mode)[inverse]
    hit_indices = np.flatnonzero(hit).tolist()
    return hit_indices, [str(family.candidate(field, i)) for i in hit_indices], len(cosets)


def _scan_shifted_cubics(field, family, mode):
    """`_scan` for the shifted cubics: x^3 is classified once and its verdict
    holds for every (x + t)^3.  Hit texts come from the coefficient columns
    C(3, k) * t^(3 - k), all t at once: `monomial_tables` row k."""
    predicate = classify.is_planar if mode == "planar" else classify.is_alltop
    if not predicate(Poly._trusted(field, {3: 1})):
        return [], [], 1
    ks, bs = binom.expansion(3, field.p)
    coeffs = field.monomial_tables(3 - ks, bs).T.tolist()
    ks = ks.tolist()
    texts = [str(Poly._trusted(field, {k: c for k, c in zip(ks, row) if c})) for row in coeffs]
    return list(range(field.q)), texts, 1


def _route(field, family, mode, n):
    """The table operations that deciding the family's n candidates may cost
    at most, and the call that decides them, which returns the hit indices,
    the hit texts and the number of cores classified.

    A full scan costs q^2 reads planar and q^3 Alltop: each all-reduced
    candidate is priced as one, and the shifted cubics as the one of x^3.
    A monomial coset costs its row Delta_1 x^e of q reads planar, or that
    row's (q - 1, q) second differences Alltop (`classify.monomial_verdicts`).
    The cosets are found here, once, and handed to the sweep."""
    q = field.q
    per_scan = q ** (2 if mode == "planar" else 3)
    if family.kind == "all-reduced":
        return n * per_scan, functools.partial(_scan_digits, field, family, mode, 0, n)
    if family.kind == "shifted-cubics":
        return per_scan, functools.partial(_scan_shifted_cubics, field, family, mode)
    idx = np.arange(n, dtype=np.int64)
    exps = idx + 2 if family.kind == "monomials" else field.p**idx + 1
    cosets, inverse = np.unique(_frobenius_cosets(field, exps), return_inverse=True)
    per_coset = q if mode == "planar" else q * (q - 1)
    sweep = functools.partial(_scan_monomials, field, family, mode, cosets, inverse)
    return len(cosets) * per_coset, sweep


def run_search(
    field: FieldSpec,
    family: FamilySpec,
    mode: str,
    *,
    budget: int | None = None,
) -> SearchReport:
    """Decide every candidate in the family; hits are the mode positives.

    Each family takes its route from the module docstring: all-reduced
    classifies one candidate per core (see `classify._core`), the monomial
    families one exponent per Frobenius coset, and shifted-cubics x^3 alone.
    BudgetExceeded is raised when the family cardinality exceeds the
    candidate budget, or when the route's worst-case table operations
    (`_route`) exceed 1000x that budget — with the defaults, 10^7 candidates
    and 10^10 table operations: q^2 per planar all-reduced candidate and q^3
    per Alltop one; for the monomial families q per planar Frobenius coset
    and q(q - 1) per Alltop one; for shifted-cubics one candidate's q^2 or
    q^3.  Logs one INFO line on the "planarlab" logger with the number of
    candidates, of cores classified and of hits; the cores are the distinct
    cores for all-reduced, the Frobenius cosets for the monomial families,
    and 1 for shifted-cubics.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    cand_budget = DEFAULT_CANDIDATE_BUDGET if budget is None else budget
    if family.kind == "all-reduced" and family.max_degree >= cand_budget.bit_length():
        # q**(D + 1) > 2**(D + 1) > cand_budget, a number not worth building
        raise BudgetExceeded(
            f"{field.q}**{family.max_degree + 1} candidates exceed the budget {cand_budget}"
        )
    n = family.size(field)
    if n > cand_budget:
        raise BudgetExceeded(f"{n} candidates exceed the budget {cand_budget}")

    t0 = time.perf_counter()
    estimate, decide = _route(field, family, mode, n)
    ops_budget = cand_budget * TABLE_OPS_PER_CANDIDATE
    if estimate > ops_budget:
        raise BudgetExceeded(f"estimated {estimate} table operations exceed {ops_budget}")
    indices, texts, classified = decide()
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    label = family.kind
    if family.max_degree is not None:
        label += f" (max degree {family.max_degree})"
    _log.info(
        "search %r %s, %s: %d candidates, cores classified: %d, hits: %d",
        field, label, mode, n, classified, len(indices),
    )
    return SearchReport(
        field=field,
        family=family,
        mode=mode,
        tested=n,
        hit_indices=indices,
        hit_texts=texts,
        elapsed_ms=elapsed_ms,
    )


def verify_char3_no_alltop(
    field: FieldSpec, family: FamilySpec
) -> tuple[bool, SearchReport]:
    """True when an Alltop search over a characteristic-3 field finds nothing.

    Over GF(3) with the all-reduced family of degree <= 2 this is a complete
    statement: the 27 reduced polynomials exhaust all functions on the field.
    """
    if field.p != 3:
        raise ValueError("this check is about characteristic-3 fields")
    report = run_search(field, family, "alltop")
    return (not report.hit_indices, report)


@dataclass
class DeltaDegreeReport:
    field: FieldSpec
    pairs_checked: int
    mismatches: list[tuple[int, int, int | None, int]] = dataclass_field(
        default_factory=list
    )  # (n, a, got, expected)


def _monomial_delta_degrees(field: FieldSpec, n: int, shifts: np.ndarray) -> np.ndarray:
    """deg delta(x^n, a) for each shift a, -1 where the difference is zero.

    delta(x^n, a) has the coefficient C(n, k) * a^k on x^(n-k) for each k >= 1
    in the binomial support mod p; all shifts are one pow_elemwise array.
    """
    ks, bs = binom.expansion(n, field.p)
    ks, bs = ks[1:], bs[1:]  # k = 0 reproduces x^n, which cancels
    coeffs = field.mul_vec(bs.astype(np.int32), field.pow_elemwise(shifts[:, None], ks))
    nonzero = coeffs != 0
    # ks ascend, so the first nonzero column has the largest exponent n - k
    return np.where(nonzero.any(axis=1), n - ks[nonzero.argmax(axis=1)], -1)


def verify_monomial_delta_degrees(field: FieldSpec) -> tuple[bool, DeltaDegreeReport]:
    """Check deg delta(x^n, a) against the predicted p^s*(m-1) for every
    n in [1, q-1] and every nonzero a."""
    report = DeltaDegreeReport(field=field, pairs_checked=0)
    shifts = field.encodings[1:]
    for n in range(1, field.q):
        expected = polyfun.predicted_delta_degree(n, field.p)
        got = _monomial_delta_degrees(field, n, shifts)
        report.pairs_checked += len(shifts)
        for i in np.flatnonzero(got != expected).tolist():
            d = int(got[i])
            report.mismatches.append((n, int(shifts[i]), None if d < 0 else d, expected))
    return (not report.mismatches, report)


@dataclass
class CubicScopeReport:
    """Alltop hits of a family checked for cubic structure.

    A hit violates when some reduced difference fails the quadratic-monomial
    + additive + constant decomposition, or when the hit minus its additive
    and constant parts does not have degree exactly 3.  Violations are
    reported, never suppressed.
    """

    search: SearchReport
    hits_checked: int
    violations: list[tuple[str, list[str]]] = dataclass_field(default_factory=list)


def _stripped_degree(f: Poly) -> int | None:
    """Degree of reduce(f) after removing the constant and power-of-p terms."""
    core = classify._core(f, classify._free_exponents(f.field, "planar"))
    return max((e for e, _ in core), default=None)


def verify_alltop_hits_cubic(
    field: FieldSpec, family: FamilySpec
) -> tuple[bool, CubicScopeReport]:
    """Search the family for Alltop hits and check each for cubic structure."""
    if field.p < 5:
        raise CharacteristicTooSmall("scope check applies to characteristic >= 5")
    report = run_search(field, family, "alltop")
    scope = CubicScopeReport(search=report, hits_checked=len(report.hit_polys))
    for text, f in zip(report.hit_texts, report.hit_polys):
        issues = []
        if not classify.alltop_deltas_decompose(f):
            issues.append("difference-decomposition")
        if _stripped_degree(f) != 3:
            issues.append("cubic-core-degree")
        if issues:
            scope.violations.append((text, issues))
    return (not scope.violations, scope)
