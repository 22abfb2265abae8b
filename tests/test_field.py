import functools
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
from planarlab.field import MAX_TABLE_ENTRIES, FieldElement, FieldSpec, make_field
from planarlab.polyfun import Poly


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



def test_is_prime_matches_sympy():
    # Miller-Rabin to 13 bases: every n in a dense range, Carmichael numbers
    # whose factors all exceed the bases, strong pseudoprimes to the first 1
    # to 12 prime bases, and primes far beyond trial division
    assert [n for n in range(-3, 20_000) if field_module._is_prime(n)] == list(
        sympy.primerange(0, 20_000))
    for n in [1152271, 56052361, 118901521, 2047, 1373653, 3215031751, 341550071728321,
              3825123056546413051, 318665857834031151167461]:
        assert not field_module._is_prime(n) and not sympy.isprime(n)
    t0 = time.perf_counter()
    for n in [10**18 + 3, 2**61 - 1, 2**89 - 1, 10**18 + 4, (2**61 - 1) ** 2]:
        assert field_module._is_prime(n) == sympy.isprime(n)
    assert time.perf_counter() - t0 < 0.1


def test_prime_field_generator_is_the_smallest_primitive_root():
    # prime fields take the one table walk; against sympy's smallest primitive root
    for p in sympy.primerange(3, 2000):
        g = sympy.ntheory.primitive_root(p)
        assert field_module._generator_powers(p, 1, (0, 1)) == [
            pow(g, i, p) for i in range(p - 1)], p


EXTENSION_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (13, 2), (3, 5),
                    (7, 3), (3, 8)]


@pytest.mark.parametrize("p,r", EXTENSION_FIELDS, ids=[f"GF({p}^{r})" for p, r in EXTENSION_FIELDS])
def test_extension_field_generator_is_the_smallest_of_full_order(p, r):
    # g is the smallest encoding whose order, by sympy's polynomial powers
    # modulo the canonical modulus, is q - 1; its powers are the walk's
    f = make_field(p, r)
    q, modulus = f.q, list(f.modulus)[::-1]  # galoistools lists coefficients high-to-low
    primes = sympy.primefactors(q - 1)

    def power(enc, e):
        digits = [int(c, 36) for c in np.base_repr(enc, p)]
        return functools.reduce(lambda acc, c: acc * p + c,
                                gf_pow_mod(digits, e, modulus, p, ZZ), 0)

    g = next(e for e in range(2, q) if all(power(e, (q - 1) // ell) != 1 for ell in primes))
    powers = field_module._generator_powers(p, r, f.modulus)
    assert powers[1] == g and len(powers) == q - 1
    ks = (0, 2, q // 3, q - 2)
    assert [powers[k] for k in ks] == [power(g, k) for k in ks]


def test_order_bound():
    with pytest.raises(FieldTooLarge):
        make_field(3, 9)  # 19683 > 10^4
    f = make_field(3, 9, max_order=20000)
    assert f.q == 19683


def test_huge_parameters_fail_before_any_work():
    t0 = time.perf_counter()
    with pytest.raises(FieldTooLarge, match=r"3\*\*1000000000 exceeds"):
        make_field(3, 10**9)  # p**r is never built
    with pytest.raises(FieldTooLarge):
        make_field(10**18 + 3)  # prime; no trial division up to 10**9
    with pytest.raises(FieldTooLarge):
        make_field(10**18 + 4)  # composite above the bound reports the bound too
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(NotPrime):
        make_field(9, max_order=9)
    with pytest.raises(FieldTooLarge):
        make_field(9, max_order=8)
    assert make_field(7, max_order=7).q == 7


def test_order_bound_is_exact():
    for max_order in [3**k + d for k in range(1, 8) for d in (-1, 0, 1)]:
        for r in range(1, max_order.bit_length() + 3):
            if 3**r <= max_order:
                assert make_field(3, r, max_order=max_order).q == 3**r
            else:
                with pytest.raises(FieldTooLarge):
                    make_field(3, r, max_order=max_order)


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


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (3, 4), (5, 3), (7, 4)])
def test_trace_table_is_sum_of_conjugates(p, r):
    f = make_field(p, r)
    for a in range(f.q):
        conjugates = [f.pow(a, p**i) for i in range(r)]
        assert f.trace_table[a] == functools.reduce(f.add, conjugates)


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


@pytest.mark.parametrize("name,key", [("encodings", "enc"), ("trace_table", "trace"), ("power_table", "pow"),
                                      ("trace_bilinear", "tb")])
def test_cached_tables_are_read_only_and_built_once(name, key):
    prop = FieldSpec.__dict__[name]
    assert isinstance(prop, property) and prop.fget is not None
    f = FieldSpec(5, 2, make_field(5, 2).modulus)  # not the canonical field: empty cache
    assert key not in f._cache
    tab = getattr(f, name)
    assert f._cache[key] is tab and getattr(f, name) is tab
    assert not tab.flags.writeable
    with pytest.raises(ValueError):
        tab[0] = 1
    assert np.array_equal(tab, getattr(make_field(5, 2), name))


@pytest.mark.parametrize("p,r", [(7, 1), (5, 2), (3, 3)])
def test_log_tables_are_built_with_the_field_and_read_only(p, r):
    f = FieldSpec(p, r, make_field(p, r).modulus)
    assert not f._cache
    for name in ("_log", "_exp", "_zech", "_neg"):
        tab = getattr(f, name)
        assert not tab.flags.writeable, name
        with pytest.raises(ValueError):
            tab[0] = 1
    enc = f.encodings
    assert np.array_equal(f._exp[f._log[enc]], enc)  # LOG[0] = 2m lands in the zero tail
    assert np.array_equal(f.add_vec(enc, f.neg_vec(enc)), np.zeros(f.q, dtype=np.int32))


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


@pytest.mark.parametrize("value", [2.9, np.float64(3.0), "3"], ids=repr)
def test_encodings_must_be_integers(value):
    """Floats and strings are not encodings: nothing truncates or parses them,
    whether as an element, a coefficient or an operand."""
    f = make_field(5, 2)
    with pytest.raises(TypeError):
        f.element(value)
    with pytest.raises(TypeError):
        Poly(f, {2: value})
    with pytest.raises(TypeError):
        f.element(3) + value
    for enc in (3, np.int32(3), np.int64(3), np.array(3)):
        assert f.element(enc) == f.element(3) and Poly(f, {2: enc}) == Poly(f, {2: 3})


def test_element_misc():
    f = make_field(3, 2)
    a = f.element(4)
    assert a.coeffs == (1, 1)
    for g in (make_field(3, 3), make_field(5, 2)):  # coeffs are the r base-p digits
        for e in g:
            assert len(e.coeffs) == g.r and all(0 <= c < g.p for c in e.coeffs)
            assert sum(c * g.p**i for i, c in enumerate(e.coeffs)) == e.enc
    assert int(a) == 4
    assert a == 4 and a != 5
    assert (a / a).enc == 1
    assert isinstance(a.inverse(), FieldElement)
    assert repr(a) == "F9(4)"


def test_element_hash_agrees_with_equality():
    """Elements and the ints they equal are one key in a dict or a set, and
    elements of different fields with one encoding stay distinct."""
    f, g = make_field(5, 2), make_field(7, 2)
    assert f.element(3) == 3 and hash(f.element(3)) == hash(3)
    assert {3: "v"}[f.element(3)] == "v"
    assert {f.element(3): "v"}[3] == "v"
    assert f.element(3) in {3} and 3 in {f.element(3)}
    assert len({3, f.element(3), f.element(3)}) == 1
    assert f.element(3) != g.element(3)
    assert len({f.element(3), g.element(3)}) == 2
    assert {e: e.enc for e in f}.keys() == set(range(f.q))