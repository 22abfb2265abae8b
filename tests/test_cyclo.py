import cmath

import numpy as np
import pytest

from planarlab.cyclo import (
    CycVec,
    autocorrelation,
    char_sum,
    mag_sq,
    phase_inner_counts,
    rational_mag_sq,
)
from planarlab.errors import FieldMismatch, LengthMismatch
from planarlab.field import make_field
from planarlab.mub import build_planar_mubs
from planarlab.polyfun import Poly, parse_poly


def float_mag_sq(counts):
    p = len(counts)
    z = sum(c * cmath.exp(2j * cmath.pi * j / p) for j, c in enumerate(counts))
    return abs(z) ** 2


# ---------------------------------------------------------------------------
# character sums
# ---------------------------------------------------------------------------

def test_char_sum_examples():
    f5 = make_field(5)
    assert char_sum(f5, Poly.zero(f5)).counts == (5, 0, 0, 0, 0)
    assert char_sum(f5, parse_poly("x", f5)).counts == (1, 1, 1, 1, 1)
    assert char_sum(f5, parse_poly("x^2", f5)).counts == (1, 2, 0, 0, 2)


def test_char_sum_total_is_q():
    for p, r in [(3, 2), (5, 2), (7, 1)]:
        field = make_field(p, r)
        rng = np.random.default_rng(59)
        for _ in range(10):
            f = Poly(field, {int(rng.integers(0, field.q)): int(rng.integers(0, field.q))
                             for _ in range(3)})
            assert sum(char_sum(field, f).counts) == field.q


def test_char_sum_field_mismatch():
    with pytest.raises(FieldMismatch):
        char_sum(make_field(5), parse_poly("x", make_field(7)))


# ---------------------------------------------------------------------------
# exact squared magnitude
# ---------------------------------------------------------------------------

def test_mag_sq_examples():
    res = mag_sq(CycVec(5, (1, 2, 0, 0, 2)))
    assert res.is_rational_integer and res.value == 5
    assert res.autocorrelation == (9, 4, 4, 4, 4)
    res = mag_sq(CycVec(5, (5, 0, 0, 0, 0)))
    assert res.is_rational_integer and res.value == 25
    res = mag_sq(CycVec(7, (1,) * 7))
    assert res.is_rational_integer and res.value == 0


def test_mag_sq_non_integer_case():
    res = mag_sq(CycVec(5, (2, 1, 0, 0, 0)))
    assert not res.is_rational_integer and res.value is None


def test_mag_sq_rotation_invariance():
    rng = np.random.default_rng(61)
    for p in (3, 5, 7):
        for _ in range(20):
            v = CycVec(p, tuple(int(c) for c in rng.integers(0, 30, size=p)))
            base = mag_sq(v)
            for m in range(p):
                rotated = mag_sq(v.rotate(m))
                assert rotated.autocorrelation == base.autocorrelation


def test_mag_sq_autocorrelation_symmetry_and_sign():
    rng = np.random.default_rng(67)
    for p in (3, 5, 11):
        for _ in range(20):
            v = CycVec(p, tuple(int(c) for c in rng.integers(-10, 30, size=p)))
            res = mag_sq(v)
            d = res.autocorrelation
            for m in range(1, p):
                assert d[m] == d[p - m]
            if res.is_rational_integer:
                assert res.value >= 0


def test_mag_sq_float_cross_check():
    rng = np.random.default_rng(71)
    for p in (3, 5, 7, 11):
        for _ in range(30):
            counts = tuple(int(c) for c in rng.integers(0, 40, size=p))
            res = mag_sq(CycVec(p, counts))
            if res.is_rational_integer:
                approx = float_mag_sq(counts)
                scale = max(1.0, abs(approx))
                assert abs(approx - res.value) / scale < 1e-6


def test_stacked_autocorrelations_match_the_sums():
    rng = np.random.default_rng(73)
    for p in (3, 5, 7):
        counts = rng.integers(0, 40, size=(3, 4, p))
        counts[0, 0] = [9] + [5] * (p - 1)  # flat tail: a rational integer
        d = autocorrelation(counts)
        is_int, value = rational_mag_sq(d)
        for i in range(3):
            for k in range(4):
                c = counts[i, k].tolist()
                want = [sum(c[j] * c[(j + m) % p] for j in range(p)) for m in range(p)]
                assert d[i, k].tolist() == want
                assert is_int[i, k] == (len(set(want[1:])) == 1)
                assert value[i, k] == want[0] - want[1]
        assert is_int[0, 0]


def test_planar_char_sums_have_magnitude_q():
    for p, r in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        field = make_field(p, r)
        res = mag_sq(char_sum(field, Poly.monomial(field, 2)))
        assert res.is_rational_integer and res.value == field.q


# ---------------------------------------------------------------------------
# phase tables
# ---------------------------------------------------------------------------

def test_phase_inner_counts_same_vector():
    e = [0, 1, 2, 3, 4]
    v = phase_inner_counts(e, e, 5)
    assert v.counts == (5, 0, 0, 0, 0)
    assert mag_sq(v).value == 25


def test_phase_inner_counts_linear_difference_orthogonal():
    f5 = make_field(5)
    zero = [0] * 5
    for b in range(1, 5):
        line = [f5.trace(f5.mul(b, x)) for x in range(5)]
        v = phase_inner_counts(zero, line, 5)
        assert v.counts == (1, 1, 1, 1, 1)
        assert mag_sq(v).value == 0


def test_phase_inner_counts_across_planar_bases():
    f5 = make_field(5)
    m = build_planar_mubs(f5, parse_poly("x^2", f5))
    exps = m.exponents
    b1 = exps[0, 0]  # basis a = 0, vector b = 0
    b2 = exps[1, 3]  # basis a = 1, vector b = 3
    v = phase_inner_counts(b1, b2, 5)
    assert mag_sq(v).value == 5  # |<v1|v2>|^2 = 1/5 after the q^2 scale


def test_phase_inner_counts_validation():
    with pytest.raises(LengthMismatch):
        phase_inner_counts([0, 1], [0, 1, 2], 5)
    with pytest.raises(ValueError):
        phase_inner_counts([0, 9], [0, 1], 5)


# ---------------------------------------------------------------------------
# CycVec equality semantics
# ---------------------------------------------------------------------------

def test_cycvec_equality_is_up_to_constant_shift():
    assert CycVec(5, (1, 2, 0, 0, 2)) == CycVec(5, (2, 3, 1, 1, 3))
    assert CycVec(5, (1, 2, 0, 0, 2)) != CycVec(5, (1, 2, 0, 2, 0))
    assert CycVec(3, (1, 1, 1)) == CycVec(3, (0, 0, 0))


def test_cycvec_validation():
    with pytest.raises(ValueError):
        CycVec(5, (1, 2, 3))
