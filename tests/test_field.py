import pickle
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_neg, gf_pow_mod, gf_rem, gf_sub

from planarlab import field as field_module
from planarlab.errors import (
    BudgetExceeded,
    CharTwoUnsupported,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NotPrime,
)
from planarlab.field import MAX_TABLE_ENTRIES, FieldElement, make_field


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def sympy_irreducible(coeffs_low_to_high, p):
    x = sympy.Symbol("x")
    expr = sum(c * x**i for i, c in enumerate(coeffs_low_to_high))
    return sympy.Poly(expr, x, modulus=p).is_irreducible


def linear_trial_division_irreducible(coeffs_low_to_high, p):
    """Oracle for degree-2 candidates: irreducible iff no root in Z_p."""
    def at(v):
        return sum(c * v**i for i, c in enumerate(coeffs_low_to_high)) % p
    return all(at(v) != 0 for v in range(p))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_prime_field_construction():
    f = make_field(5, 1)
    assert f.q == 5
    assert f.modulus == (0, 1)  # the polynomial x


def test_gf9_canonical_modulus_is_smallest_irreducible():
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1
    # oracle: x^2 (encoding 0) is reducible, x^2 + 1 (encoding 1) is not
    assert not linear_trial_division_irreducible([0, 0, 1], 3)
    assert linear_trial_division_irreducible([1, 0, 1], 3)


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)])
def test_canonical_modulus_minimality(p, r):
    f = make_field(p, r)
    low = list(f.modulus[:-1])
    enc = sum(c * p**i for i, c in enumerate(low))
    assert sympy_irreducible(list(f.modulus), p)
    for smaller in range(enc):
        digits = []
        t = smaller
        for _ in range(r):
            digits.append(t % p)
            t //= p
        assert not sympy_irreducible(digits + [1], p)


def test_characteristic_two_rejected():
    with pytest.raises(CharTwoUnsupported):
        make_field(2, 3)


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(9, 1)


def test_order_bound():
    with pytest.raises(FieldTooLarge):
        make_field(3, 9)  # 19683 > 10^4
    f = make_field(3, 9, max_order=20000)
    assert f.q == 19683


def test_same_parameters_same_field():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(3, 2) == make_field(3, 2)
    assert make_field(5, 2) is make_field(5, 2, max_order=25)
    assert make_field(3, 9, max_order=20000) is make_field(3, 9, max_order=19683)


def test_racing_threads_get_one_field(monkeypatch):
    monkeypatch.setattr(field_module, "_FIELDS", {})
    start = threading.Barrier(8)

    def build(_):
        start.wait(timeout=60)
        return field_module._canonical_field(3, 8)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(build, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 8 and all(f is got[0] for f in got)


def test_field_json_shape():
    assert make_field(3, 2).to_json_dict() == {"p": 3, "r": 2, "modulus": [1, 0, 1]}


def test_fieldspec_pickles_to_equal_field():
    f = make_field(5, 2)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.q == 25
    assert g.mul(7, 7) == f.mul(7, 7)
    assert g is f
    big = make_field(3, 9, max_order=20000)
    assert pickle.loads(pickle.dumps(big)) is big


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------

def test_prime_field_add():
    f = make_field(5)
    assert (f.element(3) + f.element(4)).enc == 2


def test_gf9_root_square_is_minus_one():
    f = make_field(3, 2)
    alpha = f.element(3)  # coefficient vector (0, 1): the modulus root
    # oracle: alpha^2 = -1 mod x^2 + 1, and -1 has encoding 2
    assert (alpha * alpha).enc == 2


def test_neg_zero():
    f = make_field(5)
    assert (-f.zero).enc == 0


def test_inverses():
    f = make_field(5)
    assert f.inv(2) == 3  # 2*3 = 6 = 1
    assert f.inv(1) == 1
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_pow_examples():
    assert make_field(5).pow(2, 4) == 1
    assert make_field(7).pow(3, 0) == 1
    f9 = make_field(3, 2)
    for x in range(9):
        assert f9.pow(x, 9) == x
    assert f9.pow(0, 0) == 1


def test_frobenius_examples():
    f9 = make_field(3, 2)
    alpha = f9.element(3)
    assert alpha.frobenius(1) == alpha**3
    for f in (make_field(5), f9, make_field(5, 2)):
        for a in range(f.q):
            assert f.frobenius(a, f.r) == a
    f5 = make_field(5)
    for a in range(5):
        assert f5.frobenius(a, 1) == a


def test_trace_examples():
    assert make_field(5).trace(3) == 3
    f9 = make_field(3, 2)
    assert f9.trace(1) == 2  # r copies of 1: 2 mod 3
    # oracle: direct conjugate sum alpha + alpha^3
    alpha = f9.element(3)
    assert (alpha + alpha**3).enc == 0
    assert f9.trace(3) == 0


def test_enumerate():
    assert [e.enc for e in make_field(3).elements()] == [0, 1, 2]
    f9 = make_field(3, 2)
    assert [e.enc for e in f9.elements()] == list(range(9))
    assert make_field(5).elements()[4].enc == 4


# ---------------------------------------------------------------------------
# field axioms and automorphism properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,r", [(3, 2), (5, 1), (5, 2), (7, 1)])
def test_field_axioms_exhaustive(p, r):
    f = make_field(p, r)
    q = f.q
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, q - 1) == 1


def test_field_axioms_gf121_pairs_exhaustive_triples_sampled():
    f = make_field(11, 2)
    enc = f.encodings
    # every pair, vectorized: commutativity and subtraction consistency
    assert np.array_equal(f.add_vec(enc[:, None], enc[None, :]),
                          f.add_vec(enc[None, :], enc[:, None]))
    assert np.array_equal(f.mul_vec(enc[:, None], enc[None, :]),
                          f.mul_vec(enc[None, :], enc[:, None]))
    assert np.array_equal(f.sub_vec(enc[:, None], enc[None, :]),
                          f.add_vec(enc[:, None], f.neg_vec(enc)[None, :]))
    rng = np.random.default_rng(20260809)
    trips = rng.integers(0, f.q, size=(400, 3))
    for a, b, c in trips.tolist():
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (7, 1)])
def test_trace_properties(p, r):
    f = make_field(p, r)
    q = f.q
    fibers = [0] * p
    for a in range(q):
        fibers[f.trace(a)] += 1
        assert f.trace(f.pow(a, p)) == f.trace(a)
        for b in range(q):
            assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % p
    assert fibers == [q // p] * p  # surjective with equal fibers


@pytest.mark.parametrize("p,r,k", [(3, 2, 1), (5, 2, 1), (3, 3, 2)])
def test_frobenius_is_automorphism(p, r, k):
    f = make_field(p, r)
    for a in range(f.q):
        for b in range(f.q):
            assert f.frobenius(f.add(a, b), k) == f.add(f.frobenius(a, k), f.frobenius(b, k))
            assert f.frobenius(f.mul(a, b), k) == f.mul(f.frobenius(a, k), f.frobenius(b, k))


# ---------------------------------------------------------------------------
# vector kernel against scalar kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,r", [(5, 1), (3, 3), (7, 2)])
def test_vector_ops_match_scalar(p, r):
    f = make_field(p, r)
    rng = np.random.default_rng(7)
    a = rng.integers(0, f.q, size=200).astype(np.int32)
    b = rng.integers(0, f.q, size=200).astype(np.int32)
    assert all(int(v) == f.add(x, y) for v, x, y in zip(f.add_vec(a, b), a.tolist(), b.tolist()))
    assert all(int(v) == f.sub(x, y) for v, x, y in zip(f.sub_vec(a, b), a.tolist(), b.tolist()))
    assert all(int(v) == f.mul(x, y) for v, x, y in zip(f.mul_vec(a, b), a.tolist(), b.tolist()))
    assert all(int(v) == f.neg(x) for v, x in zip(f.neg_vec(a), a.tolist()))
    assert all(int(v) == f.pow(x, 5) for v, x in zip(f.pow_vec(a, 5), a.tolist()))
    exps = rng.integers(0, 50, size=200)
    got = f.pow_elemwise(a, exps)
    assert all(int(v) == f.pow(x, int(e)) for v, x, e in zip(got, a.tolist(), exps))


def test_square_tables_are_size_guarded():
    assert 4096**2 <= MAX_TABLE_ENTRIES < 4097**2
    big = make_field(3, 8)  # q = 6561
    for name in ("trace_bilinear", "power_table"):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            getattr(big, name)
        assert time.perf_counter() - t0 < 0.1, name
    assert not {"tb", "pow"} & set(big._cache)
    f = make_field(7, 4)  # q = 2401, the largest benchmark field
    assert f.trace_bilinear.shape == f.power_table.shape == (2401, 2401)
    assert f.trace_bilinear[5, 9] == f.trace(f.mul(5, 9))
    assert f.power_table[5, 9] == f.pow(5, 9)


# ---------------------------------------------------------------------------
# kernel against polynomial arithmetic modulo the canonical modulus
# ---------------------------------------------------------------------------

def check_against_galoistools(f, a, b, base, exps):
    """add_vec, sub_vec and mul_vec on the pairs (a, b), neg_vec on a,
    pow_elemwise on (base, exps) and inv on the nonzero a, each against
    sympy's dense GF(p)[x] arithmetic."""
    p, r = f.p, f.r
    modulus = list(f.modulus)[::-1]  # galoistools lists coefficients high-to-low

    def to_gf(enc):
        digits = [(enc // p**i) % p for i in range(r)]
        while digits and digits[-1] == 0:
            digits.pop()
        return digits[::-1]

    def from_gf(poly):
        enc = 0
        for c in poly:
            enc = enc * p + c
        return enc

    def mul(x, y):
        return from_gf(gf_rem(gf_mul(to_gf(x), to_gf(y), p, ZZ), modulus, p, ZZ))

    def power(x, e):
        return from_gf(gf_pow_mod(to_gf(x), e, modulus, p, ZZ))

    a, b, base, exps = (np.asarray(v).tolist() for v in (a, b, base, exps))
    assert f.add_vec(a, b).tolist() == [
        from_gf(gf_add(to_gf(x), to_gf(y), p, ZZ)) for x, y in zip(a, b)]
    assert f.sub_vec(a, b).tolist() == [
        from_gf(gf_sub(to_gf(x), to_gf(y), p, ZZ)) for x, y in zip(a, b)]
    assert f.neg_vec(a).tolist() == [from_gf(gf_neg(to_gf(x), p, ZZ)) for x in a]
    assert f.mul_vec(a, b).tolist() == [mul(x, y) for x, y in zip(a, b)]
    assert f.pow_elemwise(base, exps).tolist() == [power(x, e) for x, e in zip(base, exps)]
    assert all(mul(x, f.inv(x)) == 1 for x in a if x)


@pytest.mark.parametrize(
    "p,r",
    [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3), (7, 2), (3, 4),
     (113, 1), (11, 2), (5, 3)],
)
def test_kernel_matches_galoistools_all_pairs(p, r):
    f = make_field(p, r)
    q = f.q
    a, b = np.divmod(np.arange(q * q), q)
    # every base, with 0**0, exponents q - 1 and q, and exponents well past q
    exps = [0, 1, 2, 3, q - 2, q - 1, q, q + 1, 2 * q + 5, q * q + 3]
    base, e = np.meshgrid(np.arange(q), exps)
    check_against_galoistools(f, a, b, base.ravel(), e.ravel())


@pytest.mark.parametrize("p,r", [(7, 3), (3, 7), (7, 4), (97, 2)])
def test_kernel_matches_galoistools_sampled(p, r):
    f = make_field(p, r)
    rng = np.random.default_rng(20261018 + f.q)
    a, b = rng.integers(0, f.q, size=(2, 2000))
    a[:4] = 0
    exps = rng.integers(0, 3 * f.q, size=2000)
    exps[:2] = 0  # 0**0 = 1 and 0**e = 0 for e > 0 both occur
    check_against_galoistools(f, a, b, a, exps)


SMALL_FIELDS = [(p, r) for p in sympy.primerange(3, 126) for r in range(1, 5) if p**r <= 125]


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_addition_zero_edges_exhaustive(p, r):
    # the log-domain kernel sends 0 and sums equal to 0 through their own
    # index ranges of its tables; -x is negated digit by digit here
    f = make_field(p, r)
    enc = f.encodings
    zero = np.zeros_like(enc)
    minus = sum((-(enc // p**i) % p) * p**i for i in range(r))
    assert f.add_vec(0, 0) == 0 and f.neg_vec(0) == 0
    assert np.array_equal(f.add_vec(zero, enc), enc)
    assert np.array_equal(f.add_vec(enc, zero), enc)
    assert not f.add_vec(enc, minus).any()
    assert not f.sub_vec(enc, enc).any()
    assert np.array_equal(f.sub_vec(enc, zero), enc)
    assert np.array_equal(f.sub_vec(zero, enc), minus)
    assert np.array_equal(f.neg_vec(enc), minus)


# ---------------------------------------------------------------------------
# element type hygiene
# ---------------------------------------------------------------------------

def test_cross_field_arithmetic_rejected():
    a = make_field(5).element(2)
    b = make_field(7).element(2)
    with pytest.raises(FieldMismatch):
        _ = a + b
    with pytest.raises(FieldMismatch):
        _ = a * b


def test_element_encoding_range_checked():
    f = make_field(5)
    with pytest.raises(ValueError):
        f.element(5)
    with pytest.raises(ValueError):
        f.element(-1)


def test_element_misc():
    f = make_field(3, 2)
    a = f.element(4)
    assert a.coeffs == (1, 1)
    assert int(a) == 4
    assert a == 4 and a != 5
    assert (a / a).enc == 1
    assert isinstance(a.inverse(), FieldElement)
    assert repr(a) == "F9(4)"
