import hashlib
import time
import warnings
from collections import Counter

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
from planarlab.field import FieldSpec, make_field
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
    # value_table reduces exponents and sums the rows of one log-domain
    # gather (monomial_tables), so it is an oracle for the scalar power sum
    # of __call__, which does neither
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


@pytest.mark.parametrize("p,r", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (11, 2),
                                 (5, 3)])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_value_table_matches_eval_at_every_point(p, r, data):
    # up to 6 terms, formal exponents up to 3q and one past int64, whose
    # reduction must come before any int64 array
    field = make_field(p, r)
    q = field.q
    huge = data.draw(st.integers(2**63, 2**70))
    exps = st.one_of(st.integers(0, 3 * q), st.just(huge))
    f = Poly(field, data.draw(st.dictionaries(exps, st.integers(0, q - 1), max_size=6)))
    c = data.draw(st.integers(1, q - 1))
    for g in (f, Poly.constant(field, c), Poly.zero(field)):
        t = g.value_table()
        assert t.dtype == np.int32 and t.shape == (q,)
        assert t.tolist() == [g(x).enc for x in range(q)]


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


def _per_monomial(op, f, *args):
    """The per-term oracle for an expansion: op on each monomial of f, the
    results folded one coefficient at a time."""
    fld = f.field
    pairs = [item for e, c in f.terms.items()
             for item in op(Poly(fld, {e: c}), *args).terms.items()]
    return _per_term(pairs, fld.add)


def _cancelling(op, args, f):
    """f with its last coefficient chosen so that one exponent shared by the
    expansions of its terms sums to zero, and that exponent; None when the
    expansions share none."""
    fld = f.field
    *rest, (n, _) = f.terms.items()
    unit = op(Poly(fld, {n: 1}), *args).terms
    others = _per_monomial(op, Poly(fld, dict(rest)), *args)
    shared = sorted(unit.keys() & others.keys())
    if not shared:
        return None
    j = shared[len(shared) // 2]
    c = fld.mul(fld.neg(others[j]), fld.inv(unit[j]))
    return Poly(fld, {**dict(rest), n: c}), j


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (7, 2), (5, 3)])
def test_expansions_match_per_term_folds(p, r):
    # the expansions of 2-4 terms share exponents, which _combine sums
    # a block at a time
    field = make_field(p, r)
    q = field.q
    rng = np.random.default_rng(7 * q)
    cancelled = 0
    for _ in range(25):
        size = int(rng.integers(2, 5))
        exps = rng.choice(np.arange(1, 2 * q), size=size, replace=False).tolist()
        f = Poly(field, dict(zip(exps, rng.integers(1, q, size=size).tolist())))
        a, b, s = rng.integers(1, q, size=3).tolist()
        t = int(rng.integers(0, q))
        for op, *args in ((delta, a), (double_delta, a, b), (shift_scale, s, t)):
            assert op(f, *args).terms == _per_monomial(op, f, *args)
            found = _cancelling(op, args, f)
            if found is not None:
                g, j = found
                out = op(g, *args).terms
                assert j not in out
                assert out == _per_monomial(op, g, *args)
                cancelled += 1
    assert cancelled >= 50


def test_expansion_texts_match_the_pinned_corpus():
    # str() of delta, double_delta and shift_scale of 1-4 terms over eight
    # fields, pinned by the digest of the per-term expansion code
    out = []
    for p, r in ((3, 1), (7, 1), (3, 2), (5, 2), (7, 2), (5, 3), (3, 5), (7, 4)):
        field = make_field(p, r)
        q = field.q
        rng = np.random.default_rng(q)
        for size in (1, 2, 3, 4) * 3:
            exps = rng.choice(3 * q + 1, size=size, replace=False).tolist()
            f = Poly(field, dict(zip(exps, rng.integers(1, q, size=size).tolist())))
            a, b, s = rng.integers(1, q, size=3).tolist()
            t = int(rng.integers(0, q))
            out += [str(delta(f, a)), str(double_delta(f, a, b)), str(shift_scale(f, s, t))]
    text = "\n".join(out).encode()
    assert len(text) == 783784 + len(out) - 1
    assert hashlib.sha256(text).hexdigest()[:32] == "c1fdf224c2ea24593e2ad08386cf56c9"


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of FieldSpec kernel calls, nested ones included."""
    calls = Counter()
    for name in ("add_vec", "neg_vec", "mul_vec", "pow_vec", "pow_elemwise", "monomial_tables",
                 "add", "neg", "mul", "pow"):
        def counted(self, *args, _kernel=getattr(FieldSpec, name), _name=name):
            calls[_name] += 1
            return _kernel(self, *args)
        monkeypatch.setattr(FieldSpec, name, counted)
    return calls


def test_polynomial_layer_makes_no_per_term_kernel_calls(kernel_calls):
    field = make_field(7, 4)
    f = parse_poly("5*x^2400 + 3*x^2399 + 2*x^1000 + x^818 + 7*x^5 + 11", field)
    kernel_calls.clear()
    f.value_table()
    assert kernel_calls == {"monomial_tables": 1, "add_vec": 5}

    g = parse_poly("3*x^40 + 2*x^30 + x^25", field)
    for op, args in ((shift_scale, (3, 5)), (double_delta, (3, 5)), (delta, (3,))):
        kernel_calls.clear()
        op(g, *args)
        assert not kernel_calls.keys() & {"add", "mul", "pow", "neg"}
        # at most one add_vec per term after the first, to sum like terms
        limit = 3 if op is double_delta else 2  # and (a + b) once
        assert 1 <= kernel_calls["add_vec"] <= limit
        assert kernel_calls["pow_elemwise"] == {shift_scale: 2, double_delta: 3, delta: 1}[op]

    negated = {40: field.neg(3), 30: field.neg(2), 25: field.neg(1)}
    tripled = {40: field.mul(3, 3), 30: field.mul(2, 3), 25: 3}
    kernel_calls.clear()
    assert (-g).terms == negated and (g * 3).terms == tripled
    assert kernel_calls == {"neg_vec": 1, "mul_vec": 1}
