import logging
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from planarlab import classify, polyfun, search
from planarlab.cli import main
from planarlab.classify import is_alltop
from planarlab.errors import BudgetExceeded, CharacteristicTooSmall
from planarlab.field import _is_prime, make_field
from planarlab.polyfun import Poly, delta
from planarlab.search import (
    FamilySpec,
    run_search,
    verify_alltop_hits_cubic,
    verify_char3_no_alltop,
    verify_monomial_delta_degrees,
)


def brute_force_planar(field, f):
    """Definitional check with plain dict/set machinery."""
    table = [f(x).enc for x in range(field.q)]
    for a in range(1, field.q):
        seen = set()
        for x in range(field.q):
            seen.add(field.sub(table[field.add(x, a)], table[x]))
        if len(seen) != field.q:
            return False
    return True


def brute_force_alltop(field, f):
    table = [f(x).enc for x in range(field.q)]
    for a in range(1, field.q):
        diff = [field.sub(table[field.add(x, a)], table[x]) for x in range(field.q)]
        for b in range(1, field.q):
            seen = set()
            for x in range(field.q):
                seen.add(field.sub(diff[field.add(x, b)], diff[x]))
            if len(seen) != field.q:
                return False
    return True


# ---------------------------------------------------------------------------
# family enumeration
# ---------------------------------------------------------------------------

def test_family_sizes():
    f9 = make_field(3, 2)
    assert FamilySpec("monomials").size(f9) == 7
    assert FamilySpec("all-reduced", 2).size(make_field(3)) == 27
    assert FamilySpec("all-reduced", 4).size(make_field(5)) == 3125
    assert FamilySpec("shifted-cubics").size(f9) == 9
    assert FamilySpec("do-monomials").size(make_field(3, 3)) == 3


def test_family_validation():
    with pytest.raises(ValueError):
        FamilySpec("everything")
    with pytest.raises(ValueError):
        FamilySpec("all-reduced")
    with pytest.raises(ValueError):
        FamilySpec("monomials", 3)


def test_candidate_enumeration_order():
    f5 = make_field(5)
    fam = FamilySpec("monomials")
    assert [str(fam.candidate(f5, i)) for i in range(3)] == ["x^2", "x^3", "x^4"]
    fam = FamilySpec("all-reduced", 1)
    # coefficient vectors (c_0, c_1) ascending lexicographically
    assert str(fam.candidate(f5, 0)) == "0"
    assert str(fam.candidate(f5, 1)) == "x"
    assert str(fam.candidate(f5, 5)) == "1"
    assert str(fam.candidate(f5, 6)) == "x + 1"
    fam = FamilySpec("shifted-cubics")
    assert str(fam.candidate(f5, 0)) == "x^3"
    assert str(fam.candidate(f5, 2)) == "x^3 + x^2 + 2*x + 3"  # (x+2)^3
    fam = FamilySpec("do-monomials")
    f27 = make_field(3, 3)
    assert [str(fam.candidate(f27, k)) for k in range(3)] == ["x^2", "x^4", "x^10"]
    with pytest.raises(IndexError):
        fam.candidate(f27, 3)


def test_all_reduced_candidate_reads_only_the_digits_it_needs():
    field = make_field(3)
    fam = FamilySpec("all-reduced", 2 * 10**4)
    t0 = time.perf_counter()
    assert str(fam.candidate(field, 5)) == "2*x^20000 + x^19999"
    assert time.perf_counter() - t0 < 0.1
    small = FamilySpec("all-reduced", 2)
    assert str(small.candidate(field, 26)) == "2*x^2 + 2*x + 2"
    for idx in (-1, 27):
        with pytest.raises(IndexError):
            small.candidate(field, idx)
    with pytest.raises(IndexError):
        fam.candidate(field, -1)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def test_monomial_searches_over_gf5():
    f5 = make_field(5)
    planar = run_search(f5, FamilySpec("monomials"), "planar")
    assert planar.hit_texts == ["x^2"]
    assert planar.tested == 3
    alltop = run_search(f5, FamilySpec("monomials"), "alltop")
    assert alltop.hit_texts == ["x^3"]


def test_monomial_search_gf9_alltop_empty():
    rep = run_search(make_field(3, 2), FamilySpec("monomials"), "alltop")
    assert rep.tested == 7 and rep.hit_texts == []


def test_gf25_monomial_planar_hits_include_frobenius_twist():
    f25 = make_field(5, 2)
    rep = run_search(f25, FamilySpec("monomials"), "planar")
    assert rep.hit_texts == ["x^2", "x^10"]
    # oracle: definitional bijection check, independent implementation
    assert brute_force_planar(f25, Poly.monomial(f25, 10))
    assert not brute_force_planar(f25, Poly.monomial(f25, 6))


def test_gf25_monomial_alltop_hits():
    f25 = make_field(5, 2)
    rep = run_search(f25, FamilySpec("monomials"), "alltop")
    assert rep.hit_texts == ["x^3", "x^15"]
    assert brute_force_alltop(f25, Poly.monomial(f25, 15))


def test_do_monomial_family_search():
    f25 = make_field(5, 2)
    rep = run_search(f25, FamilySpec("do-monomials"), "planar")
    assert rep.hit_texts == ["x^2"]  # x^6 fails the odd-quotient criterion


def test_shifted_cubics_all_alltop_over_gf7():
    rep = run_search(make_field(7), FamilySpec("shifted-cubics"), "alltop")
    assert rep.tested == 7 and len(rep.hit_texts) == 7


def test_hits_match_public_predicate_sample():
    f5 = make_field(5)
    fam = FamilySpec("all-reduced", 3)
    rep = run_search(f5, fam, "alltop")
    hit_set = set(rep.hit_indices)
    rng = np.random.default_rng(73)
    sample = rng.choice(rep.tested, size=max(1, rep.tested // 100), replace=False)
    for idx in sorted(int(i) for i in sample):
        assert (idx in hit_set) == is_alltop(fam.candidate(f5, idx))


DIFFERENTIAL_CAMPAIGNS = [
    (3, 1, "all-reduced", 4),
    (5, 1, "all-reduced", 3),
    (7, 1, "all-reduced", 3),
    (3, 2, "all-reduced", 2),
    (5, 2, "all-reduced", 1),
    (7, 2, "monomials", None),
    (7, 2, "shifted-cubics", None),
    *((p, r, kind, None) for p, r in [(3, 5), (5, 3)]
      for kind in ("monomials", "do-monomials", "shifted-cubics")),
]


@pytest.mark.parametrize("mode", ["planar", "alltop"])
@pytest.mark.parametrize("p, r, kind, max_deg", DIFFERENTIAL_CAMPAIGNS)
def test_hits_equal_predicate_on_every_candidate(p, r, kind, max_deg, mode):
    """The verdicts run_search reuses across a core match the classifier
    called on each candidate by itself."""
    fld = make_field(p, r)
    fam = FamilySpec(kind, max_deg)
    predicate = classify.is_planar if mode == "planar" else classify.is_alltop
    rep = run_search(fld, fam, mode)
    candidates = [fam.candidate(fld, idx) for idx in range(rep.tested)]
    expected = [idx for idx, f in enumerate(candidates) if predicate(f)]
    assert rep.hit_indices == expected
    assert rep.hit_polys == [candidates[idx] for idx in expected]
    assert rep.hit_texts == [str(candidates[idx]) for idx in expected]


DIGIT_SCAN_CASES = [
    *((p, r, max_deg, 0, None) for p, r, kind, max_deg in DIFFERENTIAL_CAMPAIGNS
      if kind == "all-reduced"),
    (5, 1, 6, 0, None),  # x^5 = x is free, x^6 = x^2 merges outside the free set
    (3, 1, 6, 0, None),  # x^2, x^4 and x^6 merge; x^3 and x^5 merge into x
    (3, 2, 9, 123_456_789, 20_000),  # x^9 = x, a free exponent
    (3, 2, 10, 123_456_789, 20_000),  # x^10 = x^2, merged by the Zech add_vec
]


@pytest.mark.parametrize("mode", ["planar", "alltop"])
@pytest.mark.parametrize("p, r, max_deg, start, length", DIGIT_SCAN_CASES)
def test_digit_scan_matches_per_candidate_scan(p, r, max_deg, start, length, mode):
    field = make_field(p, r)
    fam = FamilySpec("all-reduced", max_deg)
    stop = fam.size(field) if length is None else start + length
    assert search._scan_digits(field, fam, mode, start, stop) == search._scan(
        field, fam, mode, start, stop
    )


@pytest.mark.parametrize("mode", ["planar", "alltop"])
def test_digit_scan_carries_verdicts_across_chunks(monkeypatch, mode):
    field = make_field(5)
    fam = FamilySpec("all-reduced", 5)
    want = search._scan(field, fam, mode, 1000, 9000)
    name = "is_planar" if mode == "planar" else "is_alltop"
    original = getattr(classify, name)
    calls = []
    monkeypatch.setattr(classify, name, lambda f: calls.append(f) or original(f))
    monkeypatch.setattr(search, "_CHUNK_CANDIDATES", 997)
    assert search._scan_digits(field, fam, mode, 1000, 9000) == want
    assert len(calls) == want[2]  # no class is classified in two chunks


@pytest.mark.parametrize("p, r, max_deg", [
    (3, 2, 2), (5, 1, 3), (3, 1, 4), (11, 1, 3),
    (7, 2, 2),  # tokens from x^2 to 48*x^2, over two chunks
])
def test_digit_scan_texts_are_format_poly(monkeypatch, p, r, max_deg):
    # with every candidate a hit, each text (the zero polynomial's too) is
    # checked against str() of the candidate
    monkeypatch.setattr(classify, "is_planar", lambda f: True)
    field = make_field(p, r)
    fam = FamilySpec("all-reduced", max_deg)
    n = fam.size(field)
    indices, texts, _ = search._scan_digits(field, fam, "planar", 0, n)
    assert indices == list(range(n))
    assert texts == [str(fam.candidate(field, i)) for i in range(n)]
    assert texts[0] == "0"
    assert not any("\0" in t or "\n" in t for t in texts)


def test_digit_scan_renders_chunks_without_hits(monkeypatch):
    # over GF(5), deg <= 3, the planar candidates are c2*x^2 + c1*x + c0 with
    # c2 != 0, at the indices divisible by 5 and not by 25: in chunks of 3,
    # [6, 9) has no hit between [3, 6) and [9, 12)
    field = make_field(5)
    fam = FamilySpec("all-reduced", 3)
    want = search._scan(field, fam, "planar", 0, 625)
    monkeypatch.setattr(search, "_CHUNK_CANDIDATES", 3)
    got = search._scan_digits(field, fam, "planar", 0, 625)
    assert got == want
    assert got[0][:3] == [5, 10, 15]


def test_digit_scan_memory_is_bounded_by_the_chunk():
    # the GF(11) deg <= 5 Alltop census of acceptance criterion 13: the
    # digits of its 1 771 561 candidates take 43 MB as one int32 array
    field = make_field(11)
    fam = FamilySpec("all-reduced", 5)
    tracemalloc.start()
    try:
        _, _, classified = search._scan_digits(field, fam, "alltop", 0, fam.size(field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classified == 11**3
    assert peak < 32 * 2**20


def test_digit_scan_text_buffers_are_bounded_by_the_chunk():
    # the GF(49) deg <= 2 planar census keeps 115 248 hit texts, about
    # 12.5 MB with their indices; its chunks' byte tables add about 5 MB
    # at the peak (17.4 MB measured), one table for all hits about 11 MB
    field = make_field(7, 2)
    fam = FamilySpec("all-reduced", 2)
    tracemalloc.start()
    try:
        indices, _, _ = search._scan_digits(field, fam, "planar", 0, fam.size(field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(indices) == 115_248
    assert peak < 20 * 2**20


@pytest.mark.parametrize("mode, cores", [("planar", 125), ("alltop", 25)])
def test_one_classification_per_core(monkeypatch, caplog, mode, cores):
    # over GF(5), deg <= 5: x^5 = x and the constant are free in both modes,
    # x^2 only in alltop mode, so the cores range over x^2..x^4 or x^3..x^4
    name = "is_planar" if mode == "planar" else "is_alltop"
    original = getattr(classify, name)
    calls = []
    monkeypatch.setattr(classify, name, lambda f: calls.append(f) or original(f))
    with caplog.at_level(logging.INFO, logger="planarlab"):
        rep = run_search(make_field(5), FamilySpec("all-reduced", 5), mode)
    assert len(calls) == cores
    assert rep.tested == 15625
    line = (
        f"search GF(5) all-reduced (max degree 5), {mode}: 15625 candidates, "
        f"cores classified: {cores}, hits: {len(rep.hit_indices)}"
    )
    assert [r.getMessage() for r in caplog.records] == [line]
    # --workers is accepted and ignored: one process classifies each core once
    args = ["search", "--p", "5", "--family", "all-reduced", "--max-deg", "5",
            "--mode", mode, "--canonical"]
    result = CliRunner().invoke(main, ["-v", *args, "--workers", "2"])
    assert result.exit_code == 0, result.output
    assert result.stderr == f"INFO planarlab: {line}\n"
    assert len(calls) == 2 * cores
    assert CliRunner().invoke(main, [*args, "--workers", "abc"]).exit_code == 2


# every field of odd characteristic with q <= 49
SMALL_FIELDS = [(p, r) for p in range(3, 50) if _is_prime(p) for r in range(1, 5) if p**r <= 49]


@pytest.mark.parametrize("kind", ["monomials", "do-monomials", "shifted-cubics"])
@pytest.mark.parametrize("p, r", SMALL_FIELDS)
def test_sweeps_equal_the_per_candidate_scan(p, r, kind):
    field = make_field(p, r)
    fam = FamilySpec(kind)
    for mode in ("planar", "alltop"):
        rep = run_search(field, fam, mode)
        want = search._scan(field, fam, mode, 0, rep.tested)[:2]
        assert (rep.hit_indices, rep.hit_texts) == want


@pytest.mark.parametrize("p, r", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 4), (7, 3), (3, 7)])
def test_frobenius_cosets_are_the_smallest_orbit_members(p, r):
    field = make_field(p, r)
    exps = np.arange(1, field.q, dtype=np.int64)
    want = []
    for e in exps.tolist():
        orbit = [e]
        for _ in range(r - 1):
            orbit.append(polyfun._reduced_exponent(orbit[-1] * p, field.q))
        want.append(min(orbit))
    assert search._frobenius_cosets(field, exps).tolist() == want


@pytest.mark.parametrize("kind, mode, exponents, cosets", [
    # GF(9): exponents 2..8 fall into the cosets {2, 6}, {1, 3}, {4},
    # {5, 7} and {8}, each classified by its smallest member
    ("monomials", "planar", list(range(2, 9)), [1, 2, 4, 5, 8]),
    ("monomials", "alltop", list(range(2, 9)), [1, 2, 4, 5, 8]),
    # x^2 and x^4 = x^(3 + 1) are their own cosets
    ("do-monomials", "planar", [2, 4], [2, 4]),
])
def test_monomial_sweeps_classify_one_exponent_per_coset(
        monkeypatch, caplog, kind, mode, exponents, cosets):
    field = make_field(3, 2)
    original = classify.monomial_verdicts
    calls = []
    monkeypatch.setattr(classify, "monomial_verdicts",
                        lambda fld, exps, m: calls.append(exps.tolist()) or original(fld, exps, m))
    with caplog.at_level(logging.INFO, logger="planarlab"):
        rep = run_search(field, FamilySpec(kind), mode)
    assert calls == [cosets]
    assert rep.tested == len(exponents)
    assert [r.getMessage() for r in caplog.records] == [
        f"search GF(3^2) {kind}, {mode}: {len(exponents)} candidates, "
        f"cores classified: {len(cosets)}, hits: {len(rep.hit_indices)}"
    ]


@pytest.mark.parametrize("kind, max_deg, mode", [
    ("all-reduced", 2, "planar"), ("monomials", None, "planar"),
    ("do-monomials", None, "planar"), ("shifted-cubics", None, "alltop"),
])
def test_searches_build_no_checked_polys(monkeypatch, kind, max_deg, mode):
    # candidates and hit texts are built from encodings already in range,
    # so they skip Poly.__init__'s per-term checks
    fld = make_field(7)
    fam = FamilySpec(kind, max_deg)
    rep = run_search(fld, fam, mode)
    expected = rep.to_json_dict(canonical=True), [str(f) for f in rep.hit_polys]
    assert expected[0]["hits"]

    def refused(self, *args):
        raise AssertionError("checked Poly construction")

    monkeypatch.setattr(Poly, "__init__", refused)
    rep = run_search(fld, fam, mode)
    assert (rep.to_json_dict(canonical=True), [str(f) for f in rep.hit_polys]) == expected


@pytest.mark.parametrize("p, mode, hits", [(7, "alltop", 7), (7, "planar", 0), (3, "alltop", 0)])
def test_shifted_cubics_classify_x3_once(monkeypatch, caplog, p, mode, hits):
    name = "is_planar" if mode == "planar" else "is_alltop"
    original = getattr(classify, name)
    calls = []
    monkeypatch.setattr(classify, name, lambda f: calls.append(str(f)) or original(f))
    with caplog.at_level(logging.INFO, logger="planarlab"):
        rep = run_search(make_field(p), FamilySpec("shifted-cubics"), mode)
    assert calls == ["x^3"]
    assert len(rep.hit_indices) == hits
    assert caplog.records[-1].getMessage().endswith(f"cores classified: 1, hits: {hits}")


def test_alltop_monomial_sweep_memory_is_bounded_by_the_batch(monkeypatch):
    # every difference row is accepted, so no exponent exits early and the
    # whole (cosets, q - 1, q) second-difference volume of GF(3^5), 11 MB as
    # one int32 array, passes through the batches
    field = make_field(3, 5)
    entries = []

    def accept(q, rows):
        entries.append(rows.size)
        return np.ones(rows.shape[0], dtype=bool)

    monkeypatch.setattr(classify, "_perm_rows_ok", accept)
    tracemalloc.start()
    try:
        rep = run_search(field, FamilySpec("monomials"), "alltop")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.tested == len(rep.hit_indices) == 241
    assert max(entries) <= classify._BATCH_ENTRIES
    assert sum(entries) > 2**21
    assert peak < 3 * 2**20


def test_worker_hits_share_the_callers_field():
    field = make_field(5, 2)
    rep = run_search(field, FamilySpec("all-reduced", 2), "planar")
    assert len(rep.hit_polys) == 15000
    assert all(f.field is field for f in rep.hit_polys)


def test_report_json_shape():
    f5 = make_field(5)
    rep = run_search(f5, FamilySpec("monomials"), "planar")
    obj = rep.to_json_dict()
    assert set(obj) == {"field", "family", "mode", "tested", "hits", "elapsed_ms"}
    assert set(rep.to_json_dict(canonical=True)) == {
        "field", "family", "mode", "tested", "hits",
    }
    assert obj["hits"] == ["x^2"]


def test_budget_guards():
    f343 = make_field(7, 3)
    with pytest.raises(BudgetExceeded):
        run_search(f343, FamilySpec("all-reduced", 4), "planar")  # 343^5 candidates
    with pytest.raises(BudgetExceeded):
        run_search(f343, FamilySpec("monomials"), "planar", budget=100)
    with pytest.raises(BudgetExceeded, match="^estimated 35852453280 table operations"):
        # 833 Frobenius cosets * 6561 * 6560 table ops > 10^10 by default
        run_search(make_field(3, 8), FamilySpec("monomials"), "alltop")
    # sweeps priced by their cosets, not as a full scan of every candidate
    assert run_search(f343, FamilySpec("monomials"), "alltop").hit_texts == [
        "x^3", "x^21", "x^147"]
    assert run_search(make_field(3, 7), FamilySpec("monomials"), "planar").tested == 2185


def test_huge_max_degree_exceeds_budget_at_once():
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"3\*\*1000000001 candidates"):
        run_search(make_field(3), FamilySpec("all-reduced", 10**9), "planar")
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("p,r,max_deg", [(3, 1, 0), (3, 1, 2), (5, 1, 1), (3, 2, 1)])
def test_all_reduced_budget_boundary_is_exact(p, r, max_deg):
    field = make_field(p, r)
    family = FamilySpec("all-reduced", max_deg)
    n = field.q ** (max_deg + 1)
    assert run_search(field, family, "planar", budget=n).tested == n
    with pytest.raises(BudgetExceeded, match=f"^{n} candidates"):
        run_search(field, family, "planar", budget=n - 1)


def _frobenius_coset_count(p, r, exps):
    q = p**r
    return len({min(polyfun._reduced_exponent(e * p**k, q) for k in range(r)) for e in exps})


@pytest.mark.parametrize("p, r, kind, mode", [
    (1009, 1, "monomials", "planar"),
    (7, 2, "monomials", "alltop"),
    (3, 4, "do-monomials", "alltop"),
    (37, 1, "shifted-cubics", "alltop"),
    (1009, 1, "shifted-cubics", "planar"),
])
def test_route_budget_boundary_is_exact(p, r, kind, mode):
    # a monomial sweep costs q reads per planar Frobenius coset and q(q - 1)
    # per Alltop one; the shifted cubics cost one scan of x^3
    field, family = make_field(p, r), FamilySpec(kind)
    q, n = field.q, family.size(field)
    if kind == "shifted-cubics":
        estimate = q ** (2 if mode == "planar" else 3)
    else:
        exps = range(2, q) if kind == "monomials" else [p**k + 1 for k in range(r)]
        estimate = _frobenius_coset_count(p, r, exps) * (q if mode == "planar" else q * (q - 1))
    budget = -(-estimate // search.TABLE_OPS_PER_CANDIDATE)
    assert budget > n  # so the table operations bind, not the candidates
    assert run_search(field, family, mode, budget=budget).tested == n
    with pytest.raises(BudgetExceeded, match=f"^estimated {estimate} table operations"):
        run_search(field, family, mode, budget=budget - 1)


def test_invalid_mode():
    with pytest.raises(ValueError):
        run_search(make_field(5), FamilySpec("monomials"), "bijective")


# ---------------------------------------------------------------------------
# theorem-scale verifications
# ---------------------------------------------------------------------------

def test_char3_verification_examples():
    ok, rep = verify_char3_no_alltop(make_field(3), FamilySpec("all-reduced", 2))
    assert ok and rep.tested == 27 and not rep.hit_texts
    ok, rep = verify_char3_no_alltop(make_field(3, 2), FamilySpec("monomials"))
    assert ok and rep.tested == 7
    ok, rep = verify_char3_no_alltop(make_field(3, 3), FamilySpec("monomials"))
    assert ok and rep.tested == 25
    with pytest.raises(ValueError):
        verify_char3_no_alltop(make_field(5), FamilySpec("monomials"))


def test_monomial_delta_degree_verification():
    ok, rep = verify_monomial_delta_degrees(make_field(7))
    assert ok and rep.pairs_checked == 6 * 6 and not rep.mismatches
    ok, rep = verify_monomial_delta_degrees(make_field(5, 2))
    assert ok and rep.pairs_checked == 24 * 24


@pytest.mark.parametrize("p, r", [(7, 1), (5, 2), (3, 3)])
def test_batched_delta_degrees_match_delta(p, r):
    field = make_field(p, r)
    shifts = field.encodings[1:]
    for n in range(1, field.q):
        got = search._monomial_delta_degrees(field, n, shifts).tolist()
        assert got == [delta(Poly.monomial(field, n), a).degree() for a in range(1, field.q)]


def test_delta_degree_mismatch_rows(monkeypatch):
    """A wrong prediction for one n reports one row per shift, a ascending."""
    field = make_field(5, 2)
    predicted = polyfun.predicted_delta_degree
    monkeypatch.setattr(polyfun, "predicted_delta_degree",
                        lambda n, p: predicted(n, p) + (n == 7))
    ok, rep = verify_monomial_delta_degrees(field)
    want = predicted(7, 5) + 1
    assert not ok and rep.pairs_checked == 24 * 24
    assert rep.mismatches == [(7, a, delta(Poly.monomial(field, 7), a).degree(), want)
                              for a in range(1, 25)]
    assert all(type(v) is int for row in rep.mismatches for v in row)


def test_cubic_scope_shifted_cubics_gf7():
    ok, rep = verify_alltop_hits_cubic(make_field(7), FamilySpec("shifted-cubics"))
    assert ok
    assert rep.hits_checked == 7 and not rep.violations


def test_cubic_scope_gf5_low_degree_family_is_vacuous():
    # degree <= 2 candidates contain no cubics, hence no Alltop functions
    ok, rep = verify_alltop_hits_cubic(make_field(5), FamilySpec("all-reduced", 2))
    assert ok and rep.hits_checked == 0


def test_cubic_scope_reports_frobenius_twist_over_gf25():
    ok, rep = verify_alltop_hits_cubic(make_field(5, 2), FamilySpec("monomials"))
    assert not ok
    assert rep.search.hit_texts == ["x^3", "x^15"]
    assert rep.violations == [
        ("x^15", ["difference-decomposition", "cubic-core-degree"])
    ]


def test_cubic_scope_needs_char_at_least_5():
    with pytest.raises(CharacteristicTooSmall):
        verify_alltop_hits_cubic(make_field(3), FamilySpec("monomials"))
