"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and holding its stated runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import logging
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
from planarlab.field import _is_prime, make_field
from planarlab.mub import (
    MubSet,
    _pair_violations,
    build_alltop_mubs,
    build_planar_mubs,
    export_mubs,
    import_mubs,
    verify_mub_set,
)
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


def test_criterion_13_gf11_exhaustive_census(caplog):
    with criterion(13, "GF(11) deg<=5 Alltop census hits exactly the cubics", 10.0):
        field = make_field(11)
        with caplog.at_level(logging.INFO, logger="planarlab"):
            rep = run_search(field, FamilySpec("all-reduced", 5), "alltop")
        assert rep.tested == 11**6
        # x^2 is a Dembowski-Ostrom term and x, 1 are affine: the classes are
        # the 11^3 choices of (c_3, c_4, c_5)
        assert "cores classified: 1331, hits: 13310" in caplog.records[-1].getMessage()

        # c_3 != 0 and c_4 = c_5 = 0: c_5 is the last base-11 digit of the
        # index, c_4 the one before and c_3 the one before that
        idx = np.arange(11**6)
        expected = np.flatnonzero((idx % 121 == 0) & (idx // 121 % 11 != 0))
        assert rep.hit_indices == expected.tolist()
        assert len(expected) == 13_310
        assert rep.hit_texts[0] == "x^3"
        assert rep.hit_texts[-1] == "10*x^3 + 10*x^2 + 10*x + 10"
        assert all(is_alltop(rep.hit_polys[i]) for i in (0, 5000, -1))


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


def test_criterion_14_gf343_mub_sets_verify_exactly():
    with criterion(14, "GF(343) Alltop and planar x^2 MUB sets verify exactly", 30.0):
        field = make_field(7, 3)
        for m in (build_alltop_mubs(field), build_planar_mubs(field, Poly.monomial(field, 2))):
            rep = verify_mub_set(m)
            assert rep.num_bases == 344
            assert rep.passed and not rep.violations, m.construction


# Alltop verdicts of x^(Q+2) and x^(2Q+1) over GF(Q^2), Q = p^k, by field
# (p, r): pinned from the table scan `_table_alltop_witness`, not from the rule.
FROBENIUS_CUBIC_ALLTOP = {
    (5, 2): False, (7, 2): True, (11, 2): False,
    (13, 2): True, (19, 2): True, (5, 4): True,
}


def test_criterion_15_low_degree_certificates_at_scale():
    """The odd-quotient rule on every odd field up to 10^4, x^3 Alltop up to
    GF(2401), and the x^(Q+2) family.

    Let Q = p^k with p >= 5 and work over GF(Q^2).  For f = x^(Q+2) = x^Q * x^2
    and ab != 0, Delta_a Delta_b f is x -> D(a, b, x) plus a constant, where
    D(a, b, x) = 2[(a^Q b + a b^Q) x + ab x^Q] polarizes the one Frobenius
    slot and the two plain ones.  A nonzero root x means
    x^(Q-1) = -(a^(Q-1) + b^(Q-1)).  The maps y -> y^(Q-1) take GF(Q^2)* onto
    the elements of norm y^(Q+1) = 1, so f fails to be Alltop exactly when
    u + v + w = 0 for some u, v, w of norm 1, that is u + v = -1 after
    dividing by -w.  Then v^Q = 1/v and u^Q = 1/u give
    (1 + u)(1 + 1/u) = 1, so u^2 + u + 1 = 0: u is a primitive cube root of
    unity of norm 1, which exists iff 3 | Q + 1.  Conversely such a u gives
    v = u^2, also of norm 1.  Hence x^(Q+2) is Alltop iff Q = 1 (mod 3), and
    so is its Frobenius twin (x^(Q+2))^Q = x^(2Q+1), since y -> y^Q is an
    additive bijection.
    """
    with criterion(15, "odd-quotient rule to q <= 10^4, x^3 to GF(2401), x^(Q+2) family",
                   10.0):
        fields = [(p, r) for p in range(3, 10**4, 2) if _is_prime(p)
                  for r in range(1, 9) if p**r <= 10**4]
        assert len(fields) == 1267
        for p, r in fields:
            field = make_field(p, r)
            for k in range(r):
                mono = Poly.monomial(field, p**k + 1)
                assert is_planar(mono) == is_do_monomial_planar(p, r, k), (p, r, k)
        for p, r in [(7, 3), (5, 4), (7, 4)]:
            assert is_alltop(Poly.monomial(make_field(p, r), 3)), (p, r)
        for (p, r), alltop in FROBENIUS_CUBIC_ALLTOP.items():
            field = make_field(p, r)
            Q = p ** (r // 2)
            assert alltop == (Q % 3 == 1), (p, r)
            for e in (Q + 2, 2 * Q + 1):
                assert is_alltop(Poly.monomial(field, e)) == alltop, (p, r, e)


def test_criterion_16_gf343_exports_round_trip_at_scale(caplog):
    # GF(343) is the largest field within MAX_PHASE_ENTRIES whose exponents
    # are single digits, so its exact exports render as byte tables
    with criterion(16, "GF(343) planar set round-trips exactly through json and csv", 20.0):
        field = make_field(7, 3)
        m = build_planar_mubs(field, Poly.monomial(field, 2))
        caplog.set_level(logging.INFO, logger="planarlab")
        for fmt in ("json", "csv"):
            data = export_mubs(m, fmt)
            back = import_mubs(data, fmt, field=field)
            assert np.array_equal(back.exponents, m.exponents), fmt
            assert export_mubs(back, fmt) == data, fmt
            del data, back
        assert [r.getMessage() for r in caplog.records] == [
            "import json GF(343): canonical route",
            "import csv GF(343): canonical route",
        ]


def _flipped(m, cells):
    exps = m.exponents.copy()
    for k, b, x, step in cells:
        exps[k, b, x] = (int(exps[k, b, x]) + step) % m.field.p
    return MubSet.from_exponents(m.field, m.construction, m.poly, m.a, exps, m.standard)


def _generic_violations(m, pairs):
    """The generic kernel's report rows over every vector pair of `pairs`."""
    q = m.field.q
    out = []
    for k, l in pairs:
        us, vs = np.nonzero(np.tri(q, dtype=bool).T if k == l else np.ones((q, q), bool))
        out += _pair_violations(m, np.full_like(us, k), us, np.full_like(vs, l), vs)
    return out


def test_criterion_17_corrupted_sets_verify_by_rows():
    # the budget times the verifications; the generic kernel checks their
    # reports afterwards
    planar = build_planar_mubs(make_field(5, 3), Poly.monomial(make_field(5, 3), 2))
    bad_rows = ([(100, 17, 3, 1)], [(100, 0, 3, 1), (100, 40, 7, 2), (100, 77, 0, 4)])
    with criterion(17, "corrupted GF(125) and GF(343) sets verify row by row", 10.0):
        reports = [verify_mub_set(_flipped(planar, cells)) for cells in bad_rows]
        alltop = verify_mub_set(_flipped(build_alltop_mubs(make_field(7, 3)), [(200, 17, 5, 3)]))
    q = 125
    pairs = [(k, k) for k in range(q)] + [(k, l) for k in range(q) for l in range(k + 1, q)]
    touching = [(k, l) for k, l in pairs if 100 in (k, l)]  # report order
    for cells, rep in zip(bad_rows, reports):
        assert rep.violations == _generic_violations(_flipped(planar, cells), touching), cells
        # each bad vector fails against every vector but itself
        n = len(cells)
        assert len(rep.violations) == n * (q * q - 1) - n * (n - 1) // 2
    q = 343
    assert len(alltop.violations) == q * q - 1
    assert all((201, 17) in ((v.basis_i, v.vector_i), (v.basis_j, v.vector_j))
               for v in alltop.violations)


ORACLE_PRIME_BOUND = 600


def test_criterion_18_prime_field_monomial_sweeps():
    """Over GF(p) every planar function is quadratic (Gluck 1990,
    Ronyai-Szonyi 1989, Hiramine 1989), so the planar monomial sweep hits x^2
    alone.  Every Alltop function has planar differences, hence quadratic
    ones, so it is cubic, and the Alltop sweep hits x^3 alone, except at
    p = 3, where x^3 = x.  Checked for every prime p <= ORACLE_PRIME_BOUND,
    a bound whose sweeps take about 1.4 s on a 2-core x86 machine, well
    inside the budget.
    """
    with criterion(18, f"GF(p) monomial sweeps hit x^2 and x^3 alone, p <= {ORACLE_PRIME_BOUND}",
                   5.0):
        primes = [p for p in range(3, ORACLE_PRIME_BOUND + 1) if _is_prime(p)]
        assert len(primes) == 108
        for p in primes:
            field = make_field(p)
            planar = run_search(field, FamilySpec("monomials"), "planar")
            assert planar.hit_texts == ["x^2"], p
            alltop = run_search(field, FamilySpec("monomials"), "alltop")
            assert alltop.hit_texts == ([] if p == 3 else ["x^3"]), p


# the exponents e of every Alltop monomial x^e, 2 <= e <= q - 1, over each
# field with p >= 5, r >= 2 and q <= 2500
ALLTOP_MONOMIAL_ATLAS = {
    (5, 2): [3, 15],
    (5, 3): [3, 15, 75],
    (5, 4): [3, 15, 27, 51, 75, 135, 255, 375],
    (7, 2): [3, 9, 15, 21],
    (7, 3): [3, 21, 147],
    (7, 4): [3, 21, 51, 99, 147, 357, 693, 1029],
    (11, 2): [3, 33],
    (11, 3): [3, 33, 363],
    (13, 2): [3, 15, 27, 39],
    (13, 3): [3, 39, 507],
    (17, 2): [3, 51],
    (19, 2): [3, 21, 39, 57],
    (23, 2): [3, 69],
    (29, 2): [3, 87],
    (31, 2): [3, 33, 63, 93],
    (37, 2): [3, 39, 75, 111],
    (41, 2): [3, 123],
    (43, 2): [3, 45, 87, 129],
    (47, 2): [3, 141],
}


def test_criterion_19_alltop_monomial_atlas():
    """Every Alltop monomial over the fields with p >= 5, r >= 2 and
    q <= 2500 lies in the Frobenius orbit of x^3, or, over GF(Q^2) with
    Q = 1 (mod 3), in that of x^(Q+2), and each of those orbits is all hit.

    The x^(Q+2) family is the one of Hall, Rao and Gagola (IEEE Trans.
    Commun., 2013), Alltop functions that are not EA-equivalent to x^3;
    criterion 15 proves the condition Q = 1 (mod 3).  What the sweeps add is
    that no other monomial is Alltop on these fields: none for r = 3, and
    none besides the two orbits for r = 2 and 4.  The sweeps take about
    2.2 s on a 2-core x86 machine.
    """
    with criterion(19, "Alltop monomials over GF(p^r), p >= 5, r >= 2, q <= 2500", 10.0):
        fields = [(p, r) for p in range(5, 50) if _is_prime(p)
                  for r in range(2, 5) if p**r <= 2500]
        assert fields == list(ALLTOP_MONOMIAL_ATLAS)
        for (p, r), exps in ALLTOP_MONOMIAL_ATLAS.items():
            field = make_field(p, r)
            report = run_search(field, FamilySpec("monomials"), "alltop")
            assert report.hit_texts == [f"x^{e}" for e in exps], (p, r)
            Q = p ** (r // 2)
            leaders = [3, Q + 2] if r % 2 == 0 and Q % 3 == 1 else [3]
            orbits = {e * p**k % (field.q - 1) for e in leaders for k in range(r)}
            assert set(exps) == orbits, (p, r)
