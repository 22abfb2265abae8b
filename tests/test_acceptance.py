"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and holding its stated runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from planarlab.binom import binom_mod_p, binom_mod_p_row, nonzero_support
from planarlab.classify import (
    alltop_deltas_decompose,
    apply_equiv_transform,
    is_alltop,
    is_do_monomial_planar,
    is_planar,
)
from planarlab.cyclo import char_sum, mag_sq
from planarlab.field import make_field
from planarlab.mub import build_alltop_mubs, build_planar_mubs, verify_mub_set
from planarlab.polyfun import Poly, delta, predicted_delta_degree, shift_scale
from planarlab.search import (
    FamilySpec,
    run_search,
    verify_char3_no_alltop,
    verify_monomial_delta_degrees,
)

ROOT = Path(__file__).resolve().parents[1]

# every field the suite exercises, orders up to 343
TEST_FIELDS_SMALL = [
    (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
    (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (7, 3),
]


@contextmanager
def criterion(num, description, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    within = elapsed < budget_s
    print(f"{'PASS' if within else 'FAIL'} criterion {num}: {description} "
          f"({elapsed:.2f}s / budget {budget_s}s)")
    assert within, f"criterion {num} exceeded its {budget_s}s runtime budget"


def test_criterion_01_square_is_planar():
    with criterion(1, "x^2 planar on all small test fields", 1.0):
        for p, r in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                     (3, 2), (5, 2), (3, 3), (7, 2)]:
            field = make_field(p, r)
            assert is_planar(Poly.monomial(field, 2)), (p, r)


def test_criterion_02_quadratic_monomial_criterion():
    with criterion(2, "x^(p^k+1) planarity matches the odd-quotient rule", 10.0):
        for p in (3, 5, 7):
            for r in range(1, 5):
                if p**r > 2401:
                    continue
                field = make_field(p, r)
                for k in range(r):
                    mono = Poly.monomial(field, p**k + 1)
                    assert is_planar(mono) == is_do_monomial_planar(p, r, k), (p, r, k)


def test_criterion_03_shifted_cubics_are_alltop():
    with criterion(3, "(x+b)^3 Alltop for every b, characteristic >= 5", 30.0):
        for p, r in [(5, 1), (7, 1), (11, 1), (5, 2), (7, 2)]:
            field = make_field(p, r)
            cubic = Poly.monomial(field, 3)
            for b in range(field.q):
                assert is_alltop(shift_scale(cubic, 1, b)), (p, r, b)


def test_criterion_04_char3_has_no_alltop():
    with criterion(4, "no Alltop functions in characteristic 3", 5.0):
        ok, rep = verify_char3_no_alltop(make_field(3), FamilySpec("all-reduced", 2))
        assert ok and rep.tested == 27
        ok, rep = verify_char3_no_alltop(make_field(3, 2), FamilySpec("monomials"))
        assert ok and rep.tested == 7
        ok, rep = verify_char3_no_alltop(make_field(3, 3), FamilySpec("monomials"))
        assert ok and rep.tested == 25


def test_criterion_05_gf5_exhaustive_census():
    with criterion(5, "GF(5) census: Alltop = {c4 = 0, c3 != 0}, count 500", 10.0):
        field = make_field(5)
        fam = FamilySpec("all-reduced", 4)
        rep = run_search(field, fam, "alltop")
        assert rep.tested == 3125

        # structural characterization, derived from the enumeration order
        expected = set()
        for idx in range(3125):
            coeffs = [(idx // 5**j) % 5 for j in range(4, -1, -1)]  # (c_0, ..., c_4)
            if coeffs[4] == 0 and coeffs[3] != 0:
                expected.add(idx)
        assert set(rep.hit_indices) == expected
        assert len(rep.hit_indices) == 500

        p_powers = {1}  # 5^i below q = 5
        for f in rep.hit_polys:
            assert alltop_deltas_decompose(f)
            core = {e for e in f.reduce().terms if e != 0 and e not in p_powers}
            assert max(core) == 3


def test_criterion_12_gf7_exhaustive_census():
    with criterion(12, "GF(7) deg<=5 Alltop census hits exactly the cubics", 10.0):
        field = make_field(7)
        fam = FamilySpec("all-reduced", 5)
        rep = run_search(field, fam, "alltop")
        assert rep.tested == 7**6

        # c_3 != 0 and c_4 = c_5 = 0, read off the enumeration order; x^2 is
        # a Dembowski-Ostrom term and x, 1 are affine, so they range freely
        expected = []
        for idx in range(7**6):
            coeffs = [(idx // 7**j) % 7 for j in range(5, -1, -1)]  # (c_0, ..., c_5)
            if coeffs[3] != 0 and coeffs[4] == 0 and coeffs[5] == 0:
                expected.append(idx)
        assert rep.hit_indices == expected
        assert len(expected) == 2058

        # the classifier itself, outside the search, on a hit and on the
        # same hit plus a quartic term
        hit = rep.hit_polys[-1]
        assert str(hit) == "6*x^3 + 6*x^2 + 6*x + 6" and is_alltop(hit)
        assert not is_alltop(hit + Poly.monomial(field, 4))


def test_criterion_06_mub_sets_verify_exactly():
    with criterion(6, "complete MUB sets verify exactly (planar and cubic)", 60.0):
        for p, r in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (5, 3)]:
            field = make_field(p, r)
            m = build_planar_mubs(field, Poly.monomial(field, 2))
            assert m.exponents.shape == (field.q,) * 3
            rep = verify_mub_set(m)
            assert rep.num_bases == field.q + 1
            assert rep.passed and not rep.violations, ("planar", p, r)
        for p, r in [(5, 1), (7, 1), (5, 2), (7, 2)]:
            field = make_field(p, r)
            m = build_alltop_mubs(field)
            assert m.exponents.shape == (field.q,) * 3
            rep = verify_mub_set(m)
            assert rep.num_bases == field.q + 1
            assert rep.passed and not rep.violations, ("alltop", p, r)


def test_criterion_07_character_sum_magnitudes():
    with criterion(7, "character sums: q for planar, 0 for additive, q^2 for zero", 5.0):
        # planar cases from criteria 1-2
        for p, r in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                     (3, 2), (5, 2), (3, 3), (7, 2)]:
            field = make_field(p, r)
            res = mag_sq(char_sum(field, Poly.monomial(field, 2)))
            assert res.is_rational_integer and res.value == field.q, (p, r)
        for p in (3, 5, 7):
            for r in range(1, 5):
                if p**r > 2401:
                    continue
                field = make_field(p, r)
                for k in range(r):
                    if is_do_monomial_planar(p, r, k):
                        res = mag_sq(char_sum(field, Poly.monomial(field, p**k + 1)))
                        assert res.is_rational_integer and res.value == field.q

        # nonzero additive functions whose trace composition is nonzero
        for p, r in [(5, 1), (7, 1), (3, 2), (5, 2)]:
            field = make_field(p, r)
            candidates = [Poly.monomial(field, 1), Poly.monomial(field, 1, 2)]
            if r > 1:
                candidates.append(Poly.monomial(field, field.p))
            for f in candidates:
                res = mag_sq(char_sum(field, f))
                assert res.is_rational_integer and res.value == 0, (p, r, str(f))

        # the zero function
        for p, r in [(5, 1), (7, 1), (5, 2)]:
            field = make_field(p, r)
            res = mag_sq(char_sum(field, Poly.zero(field)))
            assert res.value == field.q**2


def test_criterion_08_monomial_delta_degrees():
    with criterion(8, "difference degrees match p^s(m-1) on all fields up to 343", 60.0):
        for p, r in TEST_FIELDS_SMALL:
            field = make_field(p, r)
            ok, rep = verify_monomial_delta_degrees(field)
            assert ok, (p, r, rep.mismatches[:3])
            assert rep.pairs_checked == (field.q - 1) ** 2
            # the pure-power rows are the constant cases
            for s in range(1, r + 1):
                n = p**s
                if n < field.q:
                    assert predicted_delta_degree(n, p) == 0
                    assert delta(Poly.monomial(field, n), 1).degree() == 0


def test_criterion_09_binomial_lemmas():
    with criterion(9, "Lucas arithmetic vs big-integer oracle, n,k <= 2000", 10.0):
        primes = (3, 5, 7, 11)
        # exact big-int Pascal triangle as the independent oracle
        row = [1]
        for n in range(0, 2001):
            if n:
                row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
            for p in primes:
                oracle = np.array([v % p for v in row], dtype=np.int64)
                ours = binom_mod_p_row(n, p)
                assert np.array_equal(ours, oracle), (n, p)

        # scalar entry point agrees with the rows it summarizes
        rng = np.random.default_rng(83)
        for p in primes:
            for n in range(0, 501, 7):
                r = binom_mod_p_row(n, p)
                for k in range(n + 1):
                    assert binom_mod_p(n, k, p) == int(r[k])
            for _ in range(300):
                n = int(rng.integers(0, 2001))
                k = int(rng.integers(0, n + 1))
                assert binom_mod_p(n, k, p) == int(binom_mod_p_row(n, p)[k])

        # k*C(n,k) = n*C(n-1,k-1) as residues, full range, vectorized
        for p in primes:
            prev = binom_mod_p_row(0, p)
            for n in range(1, 2001):
                cur = binom_mod_p_row(n, p)
                ks = np.arange(1, n + 1, dtype=np.int64)
                lhs = ks * cur[1:] % p
                rhs = n * prev % p
                assert np.array_equal(lhs, rhs), (n, p)
                prev = cur

        # support patterns around prime powers
        for p in (5, 7):
            for s in range(5):
                ps = p**s
                assert nonzero_support(ps, p) == {0, ps}
                assert nonzero_support(ps + 1, p) == {0, 1, ps, ps + 1}
                assert nonzero_support(ps + 2, p) == {0, 1, 2, ps, ps + 1, ps + 2}


def test_criterion_10_transform_invariance():
    with criterion(10, "100 seeded random transforms preserve planarity", 10.0):
        for p, r in [(3, 2), (5, 2)]:
            field = make_field(p, r)
            square = Poly.monomial(field, 2)
            rng = np.random.default_rng(20250809)
            p_power_exps = []
            e = 1
            while e < field.q:
                p_power_exps.append(e)
                e *= field.p
            for _ in range(100):
                c = int(rng.integers(1, field.q))
                s = int(rng.integers(1, field.q))
                t = int(rng.integers(0, field.q))
                d = int(rng.integers(0, field.q))
                M = Poly(field, {e: int(rng.integers(0, field.q)) for e in p_power_exps})
                out = apply_equiv_transform(square, c, s, t, M, d)
                assert is_planar(out), (p, r, c, s, t, d, str(M))


def _cli(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "planarlab", *args],
        env=env,
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_11_cli_determinism():
    with criterion(11, "canonical CLI runs byte-identical for any worker count", 120.0):
        commands = [
            # criterion 4 campaigns
            ["search", "--p", "3", "--r", "1", "--family", "all-reduced",
             "--max-deg", "2", "--mode", "alltop", "--canonical"],
            ["search", "--p", "3", "--r", "2", "--family", "monomials",
             "--mode", "alltop", "--canonical"],
            ["search", "--p", "3", "--r", "3", "--family", "monomials",
             "--mode", "alltop", "--canonical"],
            # criterion 5 census
            ["search", "--p", "5", "--r", "1", "--family", "all-reduced",
             "--max-deg", "4", "--mode", "alltop", "--canonical"],
            # criterion 6 verifications
            ["mubs", "--p", "5", "--r", "2", "--construction", "planar",
             "--action", "verify", "--canonical"],
            ["mubs", "--p", "5", "--r", "2", "--construction", "alltop",
             "--action", "verify", "--canonical"],
        ]
        for cmd in commands:
            outputs = [
                _cli(*cmd, "--workers", "1"),
                _cli(*cmd, "--workers", "1"),
                _cli(*cmd, "--workers", "2"),
            ]
            assert outputs[0] == outputs[1] == outputs[2], cmd
            json.loads(outputs[0])
