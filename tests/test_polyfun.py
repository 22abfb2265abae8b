import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planarlab import binom
from planarlab.errors import (
    BoundExceeded,
    CoefficientOutOfRange,
    FieldMismatch,
    PolySyntaxError,
    ZeroScale,
)
from planarlab.field import make_field
from planarlab.polyfun import (
    Poly,
    ZeroShiftWarning,
    delta,
    delta_table,
    double_delta,
    parse_poly,
    predicted_delta_degree,
    preimage_degrees,
    shift_scale,
)


def random_poly(field, rng, max_exp=None, n_terms=4):
    max_exp = max_exp if max_exp is not None else 3 * field.q
    exps = rng.integers(0, max_exp + 1, size=n_terms)
    coeffs = rng.integers(0, field.q, size=n_terms)
    terms = {}
    for e, c in zip(exps.tolist(), coeffs.tolist()):
        terms[e] = field.add(terms.get(e, 0), c)
    return Poly(field, terms)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def test_parse_examples():
    f5 = make_field(5)
    assert parse_poly("x^3", f5).terms == {3: 1}
    assert parse_poly("2*x^2 + 4", f5).terms == {2: 2, 0: 4}
    assert parse_poly("x^5 + x^5", f5).terms == {5: 2}


def test_parse_whitespace_and_unit_coeff():
    f5 = make_field(5)
    assert parse_poly("  2*x^2+4 ", f5).terms == {2: 2, 0: 4}
    assert parse_poly("1*x", f5).terms == {1: 1}
    assert parse_poly("x", f5).terms == {1: 1}
    assert parse_poly("0", f5).is_zero()
    assert parse_poly("0*x^3 + 1", f5).terms == {0: 1}


@pytest.mark.parametrize("bad", ["", "x^", "2**x", "x^-1", "y", "3*", "x^2 - 1", "+x"])
def test_parse_syntax_errors(bad):
    with pytest.raises(PolySyntaxError):
        parse_poly(bad, make_field(5))


def test_parse_coefficient_range():
    with pytest.raises(CoefficientOutOfRange):
        parse_poly("5*x", make_field(5))
    # encoding 8 is legal over GF(9)
    assert parse_poly("8*x", make_field(3, 2)).terms == {1: 8}


def test_format_roundtrip():
    f9 = make_field(3, 2)
    rng = np.random.default_rng(3)
    for _ in range(40):
        f = random_poly(f9, rng)
        assert parse_poly(str(f), f9) == f
    assert str(Poly.zero(f9)) == "0"
    assert str(parse_poly("3*x^2+x+2", f9)) == "3*x^2 + x + 2"


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_examples():
    f5 = make_field(5)
    assert parse_poly("x^5", f5).reduce().terms == {1: 1}
    x9 = parse_poly("x^9", f5)
    assert x9.reduce().terms == {1: 1}
    # oracle: same induced function
    assert np.array_equal(x9.value_table(), x9.reduce().value_table())
    assert parse_poly("x^3", f5).reduce().terms == {3: 1}


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2), (7, 1)])
def test_reduce_preserves_function(p, r):
    field = make_field(p, r)
    rng = np.random.default_rng(11)
    for _ in range(30):
        f = random_poly(field, rng)
        g = f.reduce()
        assert g.degree() is None or g.degree() < field.q
        assert np.array_equal(f.value_table(), g.value_table())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    f5 = make_field(5)
    assert parse_poly("x^2", f5)(3).enc == 4
    assert Poly.zero(f5)(2).enc == 0
    f7 = make_field(7)
    # oracle: 2^3 + 2 = 10 = 3 mod 7
    assert parse_poly("x^3 + x", f7)(2).enc == 3


def test_eval_matches_naive_power_sum():
    # x**e by e repeated multiplications, not field.pow, so the oracle is
    # independent of the power sum in __call__
    field = make_field(3, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = random_poly(field, rng)
        for x in range(field.q):
            naive = 0
            for e, c in f.terms.items():
                xe = 1
                for _ in range(e):
                    xe = field.mul(xe, x)
                naive = field.add(naive, field.mul(c, xe))
            assert f(x).enc == naive


def test_value_table_matches_eval():
    # value_table reduces exponents and runs on pow_vec, so it is an oracle
    # for the scalar power sum of __call__, which does neither
    for field, seed in ((make_field(5, 2), 6), (make_field(3, 2), 5)):
        q = field.q
        rng = np.random.default_rng(seed)
        pool = [random_poly(field, rng) for _ in range(10)]
        pool += [
            Poly(field, {0: 4, q - 1: 1, q: 2, 2 * q - 1: 3}),  # formal exponents >= q
            Poly.monomial(field, 5 * q + 7, 2),
            Poly(field, {0: 1, q - 1: q - 1}),  # at x = 0 only the constant counts
            Poly.constant(field, 7),
            Poly.zero(field),
        ]
        for f in pool:
            t = f.value_table()
            assert len(t) == q
            for x in range(q):
                assert t[x] == f(x).enc


def test_tables_are_read_only_int32():
    field = make_field(7, 2)
    f = parse_poly("3*x^5 + x^2 + 4", field)
    for t in (f.value_table(), delta_table(f, 3), Poly.zero(field).value_table()):
        assert t.dtype == np.int32 and t.shape == (field.q,)
        with pytest.raises(ValueError):
            t[0] = 1


def test_eval_field_mismatch():
    f5, f7 = make_field(5), make_field(7)
    with pytest.raises(FieldMismatch):
        parse_poly("x^2", f5)(f7.element(2))


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def test_delta_examples():
    f5 = make_field(5)
    assert delta(parse_poly("x^2", f5), 1).terms == {1: 2, 0: 1}
    assert delta(parse_poly("x^3", f5), 1).terms == {2: 3, 1: 3, 0: 1}


def test_delta_of_p_power_monomial_is_constant():
    f25 = make_field(5, 2)
    mono = Poly.monomial(f25, 5)
    for a in range(1, 25):
        d = delta(mono, a)
        assert d.degree() == 0
        assert d.terms == {0: f25.pow(a, 5)}


def test_delta_zero_shift_flagged():
    f5 = make_field(5)
    with pytest.warns(ZeroShiftWarning):
        d = delta(parse_poly("x^2", f5), 0)
    assert d.is_zero()


def test_delta_formal_vs_table_form():
    field = make_field(3, 2)
    rng = np.random.default_rng(17)
    for _ in range(15):
        f = random_poly(field, rng)
        t = f.value_table()
        for a in range(1, field.q):
            formal = delta(f, a).value_table()
            table = delta_table(f, a)
            assert np.array_equal(formal, table)
            for e in range(field.q):
                assert table[e] == field.sub(int(t[field.add(e, a)]), int(t[e]))


def test_delta_additive_in_f():
    field = make_field(5)
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = random_poly(field, rng)
        g = random_poly(field, rng)
        for a in range(1, field.q):
            assert delta(f + g, a) == delta(f, a) + delta(g, a)


def test_huge_exponent_refused_before_expansion():
    # 7^12 - 1 would expand to 7^12 binomial terms; the bound refuses it.
    f = Poly.monomial(make_field(7), 7**12 - 1)
    with pytest.raises(BoundExceeded):
        delta(f, 1)
    with pytest.raises(BoundExceeded):
        shift_scale(f, 1, 1)
    with pytest.raises(BoundExceeded):
        double_delta(f, 1, 2)


def test_double_delta_examples():
    f5 = make_field(5)
    sq = parse_poly("x^2", f5)
    for a in range(1, 5):
        for b in range(1, 5):
            dd = double_delta(sq, a, b)
            assert dd.terms == {0: f5.mul(2, f5.mul(a, b))}
    f7 = make_field(7)
    dd = double_delta(parse_poly("x^3", f7), 1, 1)
    assert dd.terms == {1: 6, 0: 6}
    # oracle: value-table differencing T[x+2] - 2T[x+1] + T[x]
    t = parse_poly("x^3", f7).value_table()
    for x in range(7):
        expect = f7.add(
            f7.sub(f7.sub(int(t[f7.add(x, 2)]), int(t[f7.add(x, 1)])),
                   int(t[f7.add(x, 1)])),
            int(t[x]),
        )
        assert dd(x).enc == expect


@pytest.mark.parametrize("p,r", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (5, 3), (3, 6),
                                 (7, 4), (11, 2)])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_double_delta_matches_composition_and_table_oracle(p, r, data):
    field = make_field(p, r)
    q = field.q
    f = Poly(field, data.draw(st.dictionaries(st.integers(0, 3 * q), st.integers(1, q - 1),
                                              max_size=5)))
    a = data.draw(st.integers(1, q - 1))
    b = data.draw(st.one_of(st.integers(1, q - 1), st.just(a), st.just(field.neg(a))))
    dd = double_delta(f, a, b)
    assert dd == delta(delta(f, a), b)
    if q <= 125:
        # T[x+a+b] - T[x+a] - T[x+b] + T[x], with no binomial in sight
        t, xs = f.value_table(), field.encodings
        ta, tb = t[field.add_vec(xs, a)], t[field.add_vec(xs, b)]
        tab = t[field.add_vec(xs, field.add(a, b))]
        expect = field.add_vec(field.sub_vec(field.sub_vec(tab, ta), tb), t)
        assert np.array_equal(dd.value_table(), expect)


@pytest.mark.parametrize("a,b,warned", [(0, 3, 1), (3, 0, 1), (0, 0, 2)])
def test_double_delta_zero_shift_warns_per_zero(a, b, warned):
    f = parse_poly("x^4 + 2*x^3 + x", make_field(5))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dd = double_delta(f, a, b)
    assert dd.is_zero()
    assert [w.category for w in caught] == [ZeroShiftWarning] * warned


def test_double_delta_refuses_foreign_shift():
    f = parse_poly("x^3", make_field(5, 2))
    other = make_field(5).element(1)
    with pytest.raises(FieldMismatch):
        double_delta(f, other, 1)
    with pytest.raises(FieldMismatch):
        double_delta(f, 1, other)


def test_large_double_delta_is_one_expansion_per_term():
    # the composition expands each of the 3124 terms of the first
    # difference of x^3124 again
    f = Poly.monomial(make_field(5), 3124)
    binom.expansion.cache_clear()
    t0 = time.process_time()
    dd = double_delta(f, 1, 2)
    assert time.process_time() - t0 < 0.5
    assert len(dd.terms) == 2343


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3)])
def test_char3_double_delta_fixed_point(p, r):
    field = make_field(p, r)
    rng = np.random.default_rng(29)
    for _ in range(25):
        f = random_poly(field, rng)
        dd = double_delta(f, 1, 1)
        assert dd(0) == dd(1)


def test_shift_scale_examples():
    f5 = make_field(5)
    cubic = parse_poly("x^3", f5)
    shifted = shift_scale(cubic, 1, 2)
    # (x+2)^3 = x^3 + 6x^2 + 12x + 8 = x^3 + x^2 + 2x + 3 mod 5
    assert shifted.terms == {3: 1, 2: 1, 1: 2, 0: 3}
    f = parse_poly("2*x^4 + x + 3", f5)
    assert shift_scale(f, 1, 0) == f
    assert shift_scale(parse_poly("x^2", f5), 2, 0).terms == {2: 4}
    with pytest.raises(ZeroScale):
        shift_scale(f, 0, 1)


def test_shift_scale_pointwise():
    field = make_field(3, 2)
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = random_poly(field, rng, max_exp=field.q - 1)
        s = int(rng.integers(1, field.q))
        t = int(rng.integers(0, field.q))
        g = shift_scale(f, s, t)
        for x in range(field.q):
            inner = field.add(field.mul(s, x), t)
            assert g(x) == f(inner)


# ---------------------------------------------------------------------------
# monomial degree calculus
# ---------------------------------------------------------------------------

def test_predicted_delta_degree_examples():
    assert predicted_delta_degree(3, 5) == 2
    assert predicted_delta_degree(25, 5) == 0
    # oracle: actual difference degree over GF(25)
    f25 = make_field(5, 2)
    assert delta(Poly.monomial(f25, 6), 1).degree() == 5
    assert predicted_delta_degree(6, 5) == 5


def test_predicted_delta_degree_zero_iff_p_power():
    for p in (3, 5, 7):
        powers = {p**s for s in range(8)}
        for n in range(1, 400):
            assert (predicted_delta_degree(n, p) == 0) == (n in powers)
    with pytest.raises(ValueError):
        predicted_delta_degree(0, 5)


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3)])
def test_monomial_delta_degree_matches_prediction(p, r):
    field = make_field(p, r)
    for n in range(1, field.q):
        expected = predicted_delta_degree(n, p)
        for a in range(1, field.q):
            assert delta(Poly.monomial(field, n), a).degree() == expected


def test_preimage_degrees_examples():
    assert preimage_degrees(0, 2, 5) == {3}
    assert preimage_degrees(1, 1, 5) == {6, 10}
    assert preimage_degrees(2, 1, 3) == {10, 12, 18}
    with pytest.raises(ValueError):
        preimage_degrees(1, 5, 5)  # l must be coprime to p


@pytest.mark.parametrize("p,q", [(5, 25), (3, 27)])
def test_preimage_degrees_inverse_scan(p, q):
    # n is a preimage of degree p^s*l exactly when the prediction says so
    for s in range(3):
        for l in (1, 2, 4):
            if l % p == 0:
                continue
            target = p**s * l
            preimages = preimage_degrees(s, l, p)
            for n in range(1, q + 1):
                assert (n in preimages) == (predicted_delta_degree(n, p) == target)


# ---------------------------------------------------------------------------
# misc poly behavior
# ---------------------------------------------------------------------------

def test_degree_sentinel():
    f5 = make_field(5)
    assert Poly.zero(f5).degree() is None
    assert Poly.constant(f5, 2).degree() == 0
    assert parse_poly("x^7", f5).degree() == 7  # formal, not reduced


def test_poly_ops_validate_field():
    a = parse_poly("x", make_field(5))
    b = parse_poly("x", make_field(7))
    with pytest.raises(FieldMismatch):
        _ = a + b
    with pytest.raises(FieldMismatch):
        _ = a - b


def test_scalar_multiple_and_negation():
    f5 = make_field(5)
    f = parse_poly("x^2 + 3", f5)
    assert (f * 2).terms == {2: 2, 0: 1}
    assert (-f).terms == {2: 4, 0: 2}
    assert (f * 0).is_zero()


# ---------------------------------------------------------------------------
# like terms against a per-term oracle
# ---------------------------------------------------------------------------

def _per_term(pairs, op, start=()):
    """Fold (exponent, coefficient) pairs into the terms `start` one at a
    time with the scalar op (field.add or field.sub); zero sums dropped."""
    acc = dict(start)
    for e, c in pairs:
        acc[e] = op(acc.get(e, 0), c)
    return {e: c for e, c in acc.items() if c}


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3)])
def test_like_terms_match_per_term_oracle(p, r):
    field = make_field(p, r)
    q = field.q
    # few exponents, so they repeat, some >= q, so they collide after reduction
    pool = [0, 1, 2, p, q - 2, q - 1, q, q + 1, 2 * q - 1, 3 * q]
    rng = np.random.default_rng(q)

    def pairs(n):
        exps = rng.choice(pool, size=n).tolist()
        return list(zip(exps, rng.integers(0, q, size=n).tolist()))

    for _ in range(80):
        f = Poly(field, _per_term(pairs(6), field.add))
        g = Poly(field, _per_term(pairs(6), field.add))
        for h in (g, f, -f, f * 2):  # h = f and h = -f cancel every term
            assert (f + h).terms == _per_term(h.terms.items(), field.add, f.terms)
            assert (f - h).terms == _per_term(h.terms.items(), field.sub, f.terms)
        reduced = [(e if e == 0 else (e - 1) % (q - 1) + 1, c) for e, c in f.terms.items()]
        assert f.reduce().terms == _per_term(reduced, field.add)
        # a term and its reduced twin with the negated coefficient cancel
        e = int(rng.choice(pool[1:]))
        c = int(rng.integers(1, q))
        twin = Poly(field, {e: c, e + (q - 1): field.neg(c)})
        assert twin.reduce().is_zero() and not twin.is_zero()
        terms = pairs(8) + [(e, c), (e, field.neg(c))]
        text = " + ".join(f"{c}*x^{e}" for e, c in terms)
        assert parse_poly(text, field).terms == _per_term(terms, field.add)
