import logging

import numpy as np
import pytest

from planarlab import classify
from planarlab.classify import is_alltop
from planarlab.errors import BudgetExceeded, CharacteristicTooSmall
from planarlab.field import make_field
from planarlab.polyfun import Poly
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
    assert [r.getMessage() for r in caplog.records] == [
        f"search GF(5) all-reduced (max degree 5), {mode}: 15625 candidates, "
        f"cores classified: {cores}, hits: {len(rep.hit_indices)}"
    ]


def test_parallel_equals_serial():
    f5 = make_field(5)
    fam = FamilySpec("all-reduced", 3)
    serial = run_search(f5, fam, "alltop", workers=1)
    parallel = run_search(f5, fam, "alltop", workers=3)
    assert serial.hit_indices == parallel.hit_indices
    assert serial.hit_texts == parallel.hit_texts
    assert serial.to_json_dict(canonical=True) == parallel.to_json_dict(canonical=True)


def test_worker_hits_share_the_callers_field():
    field = make_field(5, 2)
    rep = run_search(field, FamilySpec("all-reduced", 2), "planar", workers=2)
    assert len(rep.hit_polys) == 15000
    assert all(f.field is field for f in rep.hit_polys)


def test_parallel_caps_workers_at_the_machine(inline_pool):
    f5 = make_field(5)
    fam = FamilySpec("all-reduced", 3)
    serial = run_search(f5, fam, "alltop", workers=1)
    parallel = run_search(f5, fam, "alltop", workers=64)
    assert serial.to_json_dict(canonical=True) == parallel.to_json_dict(canonical=True)
    assert inline_pool == [2]


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
    with pytest.raises(BudgetExceeded):
        # 341 candidates * 343^3 table ops > 10^10 under the default budget
        run_search(f343, FamilySpec("monomials"), "alltop")


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
