import functools
import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from planarlab import classify, polyfun
from planarlab.classify import (
    DODecomposition,
    additive_witness,
    alltop_deltas_decompose,
    alltop_witness,
    apply_equiv_transform,
    do_decompose,
    is_additive_function,
    is_alltop,
    is_do_monomial_planar,
    is_permutation,
    is_planar,
    permutation_witness,
    planar_witness,
)
from planarlab.errors import NonAdditiveM, NotAlltop, ZeroScale
from planarlab.field import _is_prime, base_p_digits, make_field
from planarlab.polyfun import Poly, delta, parse_poly, shift_scale


def random_additive(field, rng):
    terms = {}
    e = 1
    while e < field.q:
        terms[e] = int(rng.integers(0, field.q))
        e *= field.p
    return Poly(field, terms)


# ---------------------------------------------------------------------------
# permutation
# ---------------------------------------------------------------------------

def test_permutation_examples():
    assert is_permutation(parse_poly("x", make_field(7)))
    assert not is_permutation(parse_poly("x^2", make_field(5)))
    assert is_permutation(parse_poly("x^3", make_field(5)))
    assert not is_permutation(parse_poly("x^3", make_field(7)))


@pytest.mark.parametrize("p,r", [(7, 1), (3, 2), (5, 2)])
def test_monomial_permutation_gcd_oracle(p, r):
    field = make_field(p, r)
    for n in range(1, field.q):
        expected = math.gcd(n, field.q - 1) == 1
        assert is_permutation(Poly.monomial(field, n)) == expected


def test_permutation_witness_is_first_collision():
    f5 = make_field(5)
    w = permutation_witness(parse_poly("x^2", f5))
    # squares: 0,1,4,4,1 -> first repeat at x2=3 matching x=2
    assert w == (2, 3)
    assert permutation_witness(parse_poly("x", f5)) is None


# ---------------------------------------------------------------------------
# additive
# ---------------------------------------------------------------------------

def test_additive_examples():
    f9 = make_field(3, 2)
    assert is_additive_function(Poly.monomial(f9, 3))  # x^p
    assert not is_additive_function(parse_poly("x^2", make_field(5)))
    assert is_additive_function(parse_poly("2*x + x^3", f9))


def test_additive_exhaustive_pair_oracle():
    f9 = make_field(3, 2)
    f = parse_poly("2*x + x^3", f9)
    for x in range(9):
        for y in range(9):
            assert f(f9.add(x, y)) == f(x) + f(y)


def test_additive_witness():
    f5 = make_field(5)
    assert additive_witness(parse_poly("x", f5)) is None
    w = additive_witness(parse_poly("x^2 + 1", f5))
    assert w is not None
    f = parse_poly("x^2 + 1", f5)
    x, y = w
    assert f(f5.add(x, y)) != f(x) + f(y)


def test_syntactic_additive_matches_semantic_for_reduced():
    field = make_field(3, 2)
    p_powers = {1, 3}
    rng = np.random.default_rng(41)
    for _ in range(60):
        n_terms = int(rng.integers(1, 4))
        terms = {
            int(rng.integers(0, field.q)): int(rng.integers(0, field.q))
            for _ in range(n_terms)
        }
        f = Poly(field, terms)
        syntactic = all(e in p_powers for e in f.terms) and 0 not in f.terms
        assert is_additive_function(f) == syntactic


# ---------------------------------------------------------------------------
# planar
# ---------------------------------------------------------------------------

def test_planar_examples():
    assert is_planar(parse_poly("x^2", make_field(5)))
    assert not is_planar(parse_poly("x^4", make_field(5)))
    for p, r in [(3, 2), (5, 1), (5, 2), (7, 1)]:
        field = make_field(p, r)
        assert not is_planar(Poly.monomial(field, p))  # Frobenius: constant differences


def test_planar_witness_x4_over_gf5():
    # difference at a=1 sends both 1 and 2 to 0
    w = planar_witness(parse_poly("x^4", make_field(5)))
    assert w == (1, 1, 2)


# ---------------------------------------------------------------------------
# alltop
# ---------------------------------------------------------------------------

def test_alltop_examples():
    assert is_alltop(parse_poly("x^3", make_field(5)))
    f7 = make_field(7)
    for b in range(7):
        shifted = shift_scale(Poly.monomial(f7, 3), 1, b)
        assert is_alltop(shifted)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3)])
def test_no_alltop_monomials_in_char3(p, r):
    field = make_field(p, r)
    for n in range(2, field.q):
        assert not is_alltop(Poly.monomial(field, n))


def test_quadratics_are_not_alltop():
    f5 = make_field(5)
    assert not is_alltop(parse_poly("x^2", f5))
    w = alltop_witness(parse_poly("x^2", f5))
    assert w is not None and w[0] == 1  # the very first difference is linear


# ---------------------------------------------------------------------------
# quadratic-monomial planarity criterion
# ---------------------------------------------------------------------------

def test_do_monomial_examples():
    assert is_do_monomial_planar(5, 1, 0)
    assert is_do_monomial_planar(3, 3, 1)       # 3/gcd(3,1) = 3 odd
    assert not is_do_monomial_planar(3, 2, 1)   # 2/gcd(2,1) = 2 even
    # oracles: direct planarity of x^4
    assert is_planar(Poly.monomial(make_field(3, 3), 4))
    assert not is_planar(Poly.monomial(make_field(3, 2), 4))


def test_do_monomial_criterion_matches_is_planar_small():
    for p, r in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]:
        field = make_field(p, r)
        for k in range(r):
            mono = Poly.monomial(field, p**k + 1)
            assert is_planar(mono) == is_do_monomial_planar(p, r, k)


def test_do_monomial_validation():
    with pytest.raises(ValueError):
        is_do_monomial_planar(2, 3, 1)
    with pytest.raises(ValueError):
        is_do_monomial_planar(5, 0, 0)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_do_decompose_examples():
    f5 = make_field(5)
    assert do_decompose(parse_poly("2*x^3 + x + 4", f5)) is None  # 3 is not p^k + 1
    d = do_decompose(parse_poly("3*x^2 + 2*x + 1", f5))
    assert d is not None
    assert d.k == 0 and d.alpha.enc == 3
    assert d.additive_part.terms == {1: 2}
    assert d.constant.enc == 1


def test_do_decompose_of_shifted_cubic_differences():
    f7 = make_field(7)
    for beta in range(7):
        f = shift_scale(Poly.monomial(f7, 3), 1, beta)
        for a in range(1, 7):
            d = do_decompose(delta(f, a).reduce())
            assert d is not None
            assert d.k == 0
            assert d.alpha.enc == f7.mul(3, a)


def test_do_decompose_roundtrip():
    field = make_field(5, 2)
    rng = np.random.default_rng(43)
    for _ in range(40):
        k = int(rng.integers(0, 2))
        alpha = int(rng.integers(1, field.q))
        g = Poly.monomial(field, field.p**k + 1, alpha) + random_additive(field, rng)
        g = g + Poly.constant(field, int(rng.integers(0, field.q)))
        d = do_decompose(g)
        assert isinstance(d, DODecomposition)
        assert d.k == k and d.alpha.enc == alpha
        assert d.reconstruct() == g


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 2)])
def test_do_decompose_reads_k_of_every_exponent(p, r):
    field = make_field(p, r)
    rng = np.random.default_rng(field.q)
    k_of = {p**k + 1: k for k in range(r)}
    for e in range(field.q):
        c = int(rng.integers(1, field.q))
        M = random_additive(field, rng)
        d = int(rng.integers(0, field.q))
        g = Poly.monomial(field, e, c) + M + Poly.constant(field, d)
        dec = do_decompose(g)
        if e in k_of:  # e - 1 = p^k
            assert dec == DODecomposition(k_of[e], field.element(c), M, field.element(d))
        else:  # x^e is a constant, a p-power merged into M, or not quadratic
            assert dec is None, (e, str(g))


def test_do_decompose_requires_reduced():
    f5 = make_field(5)
    with pytest.raises(ValueError):
        do_decompose(parse_poly("x^7", f5))


def test_do_decompose_rejects_multiple_core_terms():
    f25 = make_field(5, 2)
    g = parse_poly("x^2 + x^6", f25)  # two quadratic-monomial exponents
    assert do_decompose(g) is None


# ---------------------------------------------------------------------------
# equivalence transforms
# ---------------------------------------------------------------------------

def test_transform_identity():
    f5 = make_field(5)
    f = parse_poly("x^2 + 2*x + 1", f5)
    out = apply_equiv_transform(f, 1, 1, 0, Poly.zero(f5), 0)
    assert out == f.reduce()


def test_transform_shift_expansion():
    f5 = make_field(5)
    for beta in range(5):
        out = apply_equiv_transform(parse_poly("x^2", f5), 1, 1, beta, Poly.zero(f5), 0)
        expect = {2: 1}
        if f5.mul(2, beta):
            expect[1] = f5.mul(2, beta)
        if f5.mul(beta, beta):
            expect[0] = f5.mul(beta, beta)
        assert out.terms == expect


def test_transform_validation():
    f5 = make_field(5)
    f = parse_poly("x^2", f5)
    with pytest.raises(ZeroScale):
        apply_equiv_transform(f, 0, 1, 0, Poly.zero(f5), 0)
    with pytest.raises(ZeroScale):
        apply_equiv_transform(f, 1, 0, 0, Poly.zero(f5), 0)
    with pytest.raises(NonAdditiveM):
        apply_equiv_transform(f, 1, 1, 0, parse_poly("x^2", f5), 0)
    with pytest.raises(NonAdditiveM, match="different field"):
        apply_equiv_transform(f, 1, 1, 0, Poly.monomial(make_field(7), 1), 0)


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2)])
def test_transform_preserves_planarity(p, r):
    field = make_field(p, r)
    rng = np.random.default_rng(47)
    square = Poly.monomial(field, 2)
    for _ in range(25):
        c = int(rng.integers(1, field.q))
        s = int(rng.integers(1, field.q))
        t = int(rng.integers(0, field.q))
        d = int(rng.integers(0, field.q))
        out = apply_equiv_transform(square, c, s, t, random_additive(field, rng), d)
        assert is_planar(out)


def test_alltop_invariant_under_shift_additive_constant():
    f7 = make_field(7)
    rng = np.random.default_rng(53)
    for base_text, expected in [("x^3", True), ("x^2", False), ("x^4", False)]:
        base = parse_poly(base_text, f7)
        for _ in range(6):
            t = int(rng.integers(0, 7))
            d = int(rng.integers(0, 7))
            g = shift_scale(base, 1, t) + random_additive(f7, rng) + Poly.constant(f7, d)
            assert is_alltop(g) == expected


# ---------------------------------------------------------------------------
# cubic-structure check for Alltop functions
# ---------------------------------------------------------------------------

def test_alltop_deltas_decompose_examples():
    assert alltop_deltas_decompose(parse_poly("x^3", make_field(5)))
    f7 = make_field(7)
    for b in range(7):
        g = shift_scale(Poly.monomial(f7, 3), 1, b) + parse_poly("2*x + 3", f7)
        assert alltop_deltas_decompose(g)


def test_alltop_deltas_decompose_requires_alltop():
    with pytest.raises(NotAlltop):
        alltop_deltas_decompose(parse_poly("x^2", make_field(5)))


def test_frobenius_twisted_cubic_is_alltop_but_outside_decomposition():
    # x^15 = (x^3)^5 over GF(25): differences are Frobenius twists of planar
    # quadratics, so it is Alltop, but they are not quadratic-monomial shaped.
    f25 = make_field(5, 2)
    f = Poly.monomial(f25, 15)
    assert is_alltop(f)
    assert not alltop_deltas_decompose(f)


# ---------------------------------------------------------------------------
# witnesses against literal loops over their definitions
# ---------------------------------------------------------------------------

def _values(f):
    return [f(x).enc for x in range(f.field.q)]


def _difference(field, row, a):
    """x -> row[x + a] - row[x], one scalar field op per entry."""
    return [field.sub(row[field.add(x, a)], row[x]) for x in range(field.q)]


def _collision_oracle(row):
    for x2 in range(len(row)):
        for x in range(x2):
            if row[x] == row[x2]:
                return x, x2
    return None


@functools.cache
def _scalar_tables(field):
    """Sums and products of all pairs, one scalar field op each."""
    q = field.q
    return ([[field.add(x, y) for y in range(q)] for x in range(q)],
            [[field.mul(x, y) for y in range(q)] for x in range(q)])


@functools.cache
def _power_row(field, e):
    """x^e for every x, by e scalar products."""
    _, mul = _scalar_tables(field)
    row = [1] * field.q
    for _ in range(e):
        row = [mul[v][x] for x, v in enumerate(row)]
    return row


def _literal_values(f):
    """f(x) for every x as a sum of c * x^e, through the scalar tables."""
    field = f.field
    add, mul = _scalar_tables(field)
    out = [0] * field.q
    for e, c in f.terms.items():
        out = [add[acc][mul[c][v]] for acc, v in zip(out, _power_row(field, e))]
    return out


def _additive_oracle(field, t):
    add, _ = _scalar_tables(field)
    for x in range(field.q):
        for y in range(field.q):
            if t[add[x][y]] != add[t[x]][t[y]]:
                return x, y
    return None


def _planar_oracle(field, t):
    for a in range(1, field.q):
        w = _collision_oracle(_difference(field, t, a))
        if w is not None:
            return (a, *w)
    return None


def _alltop_oracle(field, t):
    for a in range(1, field.q):
        w = _planar_oracle(field, _difference(field, t, a))
        if w is not None:
            return (a, *w)
    return None


def _seeded_polys(field, rng, n):
    out = []
    for _ in range(n):
        exps = rng.integers(0, field.q, size=3).tolist()
        out.append(Poly(field, {e: int(rng.integers(0, field.q)) for e in exps}))
    return out


def _witnesses_against_oracles(p, r):
    """Every reduced polynomial over GF(5); elsewhere the monomials, additive
    maps with and without a constant, (x^p - x)^2 and seeded polynomials.
    Returns the witnesses found, by check."""
    field = make_field(p, r)
    q = field.q
    if q == 5:
        pool = [Poly.from_coeffs(field, cs) for cs in itertools.product(range(q), repeat=q)]
    else:
        rng = np.random.default_rng(q)
        pool = [Poly.monomial(field, n) for n in range(q)]
        for d in range(5):
            pool.append(random_additive(field, rng) + Poly.constant(field, d))
        # constant along GF(p), so over GF(p^r) its first additivity witness is x = p
        pool.append(Poly(field, {2 * p: 1, p + 1: p - 2, 2: 1}))
        pool += _seeded_polys(field, rng, 60)
    checks = [
        ("permutation", permutation_witness, _collision_oracle),
        ("additive", additive_witness, lambda t: _additive_oracle(field, t)),
        ("planar", planar_witness, lambda t: _planar_oracle(field, t)),
    ]
    found = {name: [] for name, _, _ in checks}
    for f in pool:
        t = _values(f)
        for name, fast, oracle in checks:
            w = fast(f)
            assert w == oracle(t), (name, str(f))
            found[name].append(w)
    for name, ws in found.items():
        assert None in ws and any(w is not None for w in ws), name
    return found


def _alltop_witnesses_against_oracle(p, r):
    """A few polynomials per field: no function over GF(9) is Alltop."""
    field = make_field(p, r)
    cubic = Poly.monomial(field, 3)
    pool = [cubic, shift_scale(cubic, 2, 1) + parse_poly("x^2 + x + 1", field),
            Poly.monomial(field, 2), Poly.monomial(field, 4)]
    pool += _seeded_polys(field, np.random.default_rng(field.q), 8)
    found = []
    for f in pool:
        w = alltop_witness(f)
        assert w == _alltop_oracle(field, _values(f)), str(f)
        found.append(w)
    assert (None in found) == (p != 3)
    assert any(w is not None for w in found)
    return found


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2)])
def test_witnesses_match_literal_loops(p, r):
    _witnesses_against_oracles(p, r)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2)])
def test_alltop_witness_matches_literal_loop(p, r):
    _alltop_witnesses_against_oracle(p, r)


def _rows_read(monkeypatch):
    """Returns a list that collects, for each call of `_row_chunks`, the row
    counts of the chunks its caller read."""
    scans = []
    chunks = classify._row_chunks

    def recorded(*args):
        scans.append([])
        for rows in chunks(*args):
            scans[-1].append(len(rows))
            yield rows

    monkeypatch.setattr(classify, "_row_chunks", recorded)
    return scans


def _one_row_then_four(monkeypatch, q):
    """Scan chunks of 1, 2, 4, 4, ... rows, every polynomial taking the scan
    over [1, q) rather than a certificate or the row a = 1; returns
    `_rows_read`'s list.  No core exponent has digit sum <= -1, so the
    certificates are off, and an empty core is not one term."""
    monkeypatch.setattr(classify, "_CERTIFIED_DEGREE", {"planar": -1, "alltop": -1})
    monkeypatch.setattr(classify, "_core", lambda f, free: frozenset())
    monkeypatch.setattr(classify, "_CHUNK_ENTRIES", 4 * q)
    return _rows_read(monkeypatch)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2)])
def test_witnesses_match_literal_loops_across_chunks(monkeypatch, p, r):
    scans = _one_row_then_four(monkeypatch, p**r)
    found = _witnesses_against_oracles(p, r)
    assert max(map(max, scans)) <= 4 and max(map(len, scans)) >= 3
    # the first chunk is row x = 1 for additivity and shift a = 1 for planarity;
    # over GF(p), f(x + 1) = f(x) + f(1) makes f additive, so only r > 1 has
    # an additivity witness past row 1
    assert any(w is not None and w[0] >= 2 for w in found["additive"]) == (r > 1)
    assert any(w is not None and w[0] >= 2 for w in found["planar"])


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2)])
def test_alltop_witness_matches_literal_loop_across_chunks(monkeypatch, p, r):
    scans = _one_row_then_four(monkeypatch, p**r)
    _alltop_witnesses_against_oracle(p, r)
    # only an Alltop function scans every row; over GF(9) there is none
    assert max(map(max, scans)) <= 4 and (max(map(len, scans)) >= 3) == (p != 3)


@pytest.mark.parametrize("q", [2, 3, 5, 49, 127, 128, 129, 2401, 3**9])
def test_row_chunks_cover_rows_in_order(q):
    """A scan's first chunk is one row, and the Alltop certificate's is the
    batch it passes; each later chunk doubles up to the cap."""
    cap = max(1, classify._CHUNK_ENTRIES // q)
    batch = max(1, classify._FIRST_CHUNK_ENTRIES // q)
    for first, chunks in [(1, classify._row_chunks(1, q, q)),
                          (batch, classify._row_chunks(1, q, q, batch))]:
        chunks = list(chunks)
        rows = np.concatenate(chunks)
        assert np.array_equal(rows, np.arange(1, q))
        assert all(c.dtype == np.int32 for c in chunks)
        sizes = [len(c) for c in chunks]
        assert sizes[0] == min(q - 1, first)
        assert all(b == min(2 * a, cap) for a, b in zip(sizes, sizes[1:-1]))
        assert sizes[-1] <= (min(2 * sizes[-2], cap) if len(sizes) > 1 else first)


@pytest.mark.parametrize("p,r,mode,text,witness", [
    (5, 3, "planar", "114*x^81 + 118*x^60 + 30*x^55", (1, 1, 3)),
    (5, 3, "alltop", "41*x^35 + 79*x^14", (1, 1, 1, 11)),
    (5, 3, "additive", "30*x^85 + 102*x^81 + 117*x^24", (1, 1)),
    (7, 4, "planar", "100*x^228 + 319*x^151", (1, 1, 2)),
    (7, 4, "alltop", "1025*x^2250 + 1353*x^1844", (1, 1, 1, 2)),
    (7, 4, "additive", "1304*x^1227 + 1834*x^162", (1, 1)),
])
def test_a_first_row_negative_reads_one_row(monkeypatch, p, r, mode, text, witness):
    """Sparse polynomials of high digit degree, scanned over every shift:
    the witness is in the first row, and that row is all the scan reads."""
    field = make_field(p, r)
    f = parse_poly(text, field)
    scans = _rows_read(monkeypatch)
    assert getattr(classify, f"{mode}_witness")(f) == witness
    assert scans == [[1]]


@pytest.mark.parametrize("r", [4, 5])
def test_a_scanned_positive_reads_every_row_in_doubling_chunks(monkeypatch, r):
    """The Coulter-Matthews x^14, planar over GF(3^4) and GF(3^5), shifted
    and with affine terms added: no certificate or single row decides, so
    the scan reads [1, q), in O(log q) chunks as the cap exceeds q here."""
    field = make_field(3, r)
    f = shift_scale(Poly.monomial(field, 14), 2, 1) + parse_poly("x^3 + 2*x + 1", field)
    sums = _core_digit_sums(f, "planar")
    assert max(sums) > 2 and len(sums) > 1
    scans = _rows_read(monkeypatch)
    assert planar_witness(f) is None
    (sizes,) = scans
    assert sum(sizes) == field.q - 1 and len(sizes) == (field.q - 1).bit_length()


@pytest.mark.parametrize("p,r,batches", [(5, 3, [31]), (7, 3, [31, 26])])
def test_the_alltop_certificate_starts_with_a_batch(monkeypatch, p, r, batches):
    """x^3 is Alltop, so its certificate reads every point a: in a first
    batch of about _FIRST_CHUNK_ENTRIES matrix entries, then doubling."""
    field = make_field(p, r)
    scans = _rows_read(monkeypatch)
    assert alltop_witness(Poly.monomial(field, 3)) is None
    assert scans == [batches]


def test_the_planar_certificate_reads_its_points_in_batches(monkeypatch):
    """x^2 is planar, so its certificate reads every point a, r^2 matrix
    entries each: in one batch over every field with r <= 6, and over
    GF(3^7) in a first batch of _FIRST_CHUNK_ENTRIES // 49 = 334 of its
    1093 points, then doubling."""
    scans = _rows_read(monkeypatch)
    for p, r, batches in [(3, 6, [364]), (7, 4, [400]), (5, 3, [31]), (3, 7, [334, 668, 91])]:
        scans.clear()
        assert planar_witness(Poly.monomial(make_field(p, r), 2)) is None
        assert scans == [batches], (p, r)


@st.composite
def _sparse_polys(draw, field):
    """One to four terms of any reduced exponent, a constant included or not."""
    exps = draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=4, unique=True))
    return Poly(field, {e: draw(st.integers(1, field.q - 1)) for e in exps})


def _one_chunk(start, stop, q, size=1):
    yield np.arange(start, stop, dtype=np.int32)


@pytest.mark.parametrize("p,r", [(5, 3), (7, 3), (3, 6), (7, 4)])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_doubling_scans_match_one_chunk(p, r, data):
    """Every mode's witness from chunks that start at one row equals the one
    from a single chunk over the whole range, and for q <= 125 the literal
    loop's."""
    field = make_field(p, r)
    oracles = {"planar": _planar_oracle, "alltop": _alltop_oracle,
               "additive": _additive_oracle}
    for mode, oracle in oracles.items():
        f = data.draw(_sparse_polys(field))
        witness = getattr(classify, f"{mode}_witness")
        w = witness(f)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(classify, "_row_chunks", _one_chunk)
            assert witness(f) == w, (mode, str(f))
        if field.q <= 125:
            assert w == oracle(field, _literal_values(f)), (mode, str(f))


# ---------------------------------------------------------------------------
# additivity certificate: linearized polynomials need no value table
# ---------------------------------------------------------------------------

def _p_powers(field):
    return [field.p**i for i in range(field.r)]


def _linearized(field):
    """Every polynomial sum c_i x^(p^i) over the field, the zero one first."""
    exps = _p_powers(field)
    for cs in itertools.product(range(field.q), repeat=len(exps)):
        yield Poly(field, dict(zip(exps, cs)))


def _no_value_table(monkeypatch):
    def refuse(self):
        raise AssertionError(f"value table built for {self}")

    monkeypatch.setattr(Poly, "value_table", refuse)


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3)])
def test_linearized_polynomials_are_certified_without_a_table(monkeypatch, p, r):
    field = make_field(p, r)
    polys = list(_linearized(field))
    assert len(polys) == field.q**r
    # oracle values first: they must not come from value_table
    expected = [_additive_oracle(field, _literal_values(f)) for f in polys]
    assert set(expected) == {None}
    _no_value_table(monkeypatch)
    assert [additive_witness(f) for f in polys] == expected


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3)])
def test_linearized_plus_constant_matches_oracle(monkeypatch, p, r):
    field = make_field(p, r)
    rng = np.random.default_rng(field.q + 1)
    polys = [f + Poly.constant(field, int(rng.integers(1, field.q)))
             for f in _linearized(field)]
    # a constant is the witness (0, 0) whatever the other terms are
    polys += [g + Poly.monomial(field, 2, 1 + i % (field.q - 1))
              for i, g in enumerate(polys[:40])]
    expected = [_additive_oracle(field, _literal_values(g)) for g in polys]
    assert set(expected) == {(0, 0)}
    _no_value_table(monkeypatch)
    assert [additive_witness(g) for g in polys] == expected


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3)])
def test_formal_exponents_reducing_onto_p_powers(monkeypatch, p, r):
    field = make_field(p, r)
    q = field.q
    formal = [Poly.monomial(field, q), Poly.monomial(field, q * p)]
    for i, e in enumerate(_p_powers(field)):
        formal.append(Poly(field, {e + (q - 1): 2, e + 2 * (q - 1): 1 + i}))
        formal.append(Poly(field, {e + (q - 1): 1, e: field.neg(1)}))  # cancels to 0
    formal.append(Poly(field, {q: 1, 1: 1, p + (q - 1): 2}))
    expected = [_additive_oracle(field, _literal_values(f)) for f in formal]
    assert set(expected) == {None}
    assert Poly.zero(field) in [f.reduce() for f in formal]
    with monkeypatch.context() as m:
        _no_value_table(m)
        assert [additive_witness(f) for f in formal] == expected
    # one more formal term that does not reduce onto a p-power breaks it
    for f in formal:
        g = f + Poly.monomial(field, 2 + (q - 1))
        assert additive_witness(g) == _additive_oracle(field, _literal_values(g)) is not None


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2)])
def test_non_linearized_polynomials_take_the_scan(p, r):
    field = make_field(p, r)
    p_powers = set(_p_powers(field))
    rng = np.random.default_rng(7 * field.q)
    seen = 0
    while seen < 40:
        exps = rng.integers(0, 3 * field.q, size=int(rng.integers(1, 4))).tolist()
        f = Poly(field, {e: int(rng.integers(1, field.q)) for e in exps})
        if f.reduce().terms.keys() <= p_powers:
            continue
        seen += 1
        w = additive_witness(f)
        assert w is not None
        assert w == _additive_oracle(field, _literal_values(f)), str(f)


# ---------------------------------------------------------------------------
# digit-degree certificates against the table scans
# ---------------------------------------------------------------------------

def _exponents(field, degree):
    """Every reduced exponent of base-p digit sum 1 to `degree`, ascending."""
    powers = [field.p**i for i in range(field.r)]
    out = set(powers)
    for _ in range(degree - 1):
        out |= {e + f for e in out for f in powers if e + f < field.q}
    return sorted(out)


@st.composite
def _low_degree_polys(draw, field, degree):
    """Sums of up to four terms of digit degree at most `degree`, a constant
    included or not, and now and then a shifted and scaled copy."""
    exps = draw(st.lists(st.sampled_from(_exponents(field, degree)), min_size=1, max_size=4))
    coeffs = st.integers(1, field.q - 1)
    f = Poly(field, {e: draw(coeffs) for e in exps})
    f = f + Poly.constant(field, draw(st.integers(0, field.q - 1)))
    if draw(st.booleans()):
        f = shift_scale(f, draw(coeffs), draw(st.integers(0, field.q - 1)))
    return f


def _routes(monkeypatch, name):
    """Record the shift range (first, stop) of every call of classify.<name>,
    the scan."""
    calls = []
    scan = getattr(classify, name)

    def recorded(fld, t, first=1, stop=None):
        calls.append((first, fld.q if stop is None else stop))
        return scan(fld, t, first, stop)

    monkeypatch.setattr(classify, name, recorded)
    return scan, calls


# every field of odd characteristic with q <= 625, and those with q <= 125
PLANAR_FIELDS = [(p, r) for p in range(3, 626) if _is_prime(p)
                 for r in range(1, 7) if p**r <= 625]
ALLTOP_FIELDS = [(p, r) for p, r in PLANAR_FIELDS if p**r <= 125]


@pytest.mark.parametrize("p,r", PLANAR_FIELDS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_planar_certificate_matches_the_scan(p, r, data):
    field = make_field(p, r)
    f = data.draw(_low_degree_polys(field, 2))
    assert max(_core_digit_sums(f, "planar"), default=0) <= 2
    with pytest.MonkeyPatch.context() as m:
        scan, calls = _routes(m, "_table_planar_witness")
        w = planar_witness(f)
    assert w == scan(field, f.value_table()), str(f)
    # the certificate decides: no scan for a planar f, else one of the row a
    assert calls == ([] if w is None else [(w[0], w[0] + 1)])


@pytest.mark.parametrize("p,r", ALLTOP_FIELDS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_alltop_certificate_matches_the_scan(p, r, data):
    field = make_field(p, r)
    f = data.draw(_low_degree_polys(field, 3))
    assert max(_core_digit_sums(f, "alltop"), default=0) <= 3
    with pytest.MonkeyPatch.context() as m:
        scan, calls = _routes(m, "_table_alltop_witness")
        w = alltop_witness(f)
    assert w == scan(field, f.value_table()), str(f)
    assert calls == ([] if w is None else [(w[0], w[0] + 1)])


@pytest.mark.parametrize("p,r", [(p, r) for p, r in PLANAR_FIELDS if r > 1])
def test_do_monomials_and_sums_match_the_scan(p, r):
    """x^(p^k + 1) for every k, planar or not by the odd-quotient rule, with
    additive and constant terms added."""
    field = make_field(p, r)
    scan = classify._table_planar_witness
    for k in range(r):
        f = Poly.monomial(field, p**k + 1, 1 + k) + random_additive(
            field, np.random.default_rng(k)) + Poly.constant(field, k)
        w = planar_witness(f)
        assert (w is None) == is_do_monomial_planar(p, r, k)
        assert w == scan(field, f.value_table()), str(f)


@pytest.mark.parametrize("p,r", [(p, r) for p, r in ALLTOP_FIELDS if r > 1 or p <= 13])
def test_cubic_monomials_and_shifted_cubics_match_the_scan(p, r):
    """Every monomial of digit sum 3, and (2x + 1)^3 plus a DO term."""
    field = make_field(p, r)
    scan = classify._table_alltop_witness
    cubic = shift_scale(Poly.monomial(field, 3), 2, 1) + Poly.monomial(field, p + 1)
    polys = [cubic] + [Poly.monomial(field, e) for e in _exponents(field, 3)
                       if sum(base_p_digits(e, p)) == 3]
    for f in polys:
        assert alltop_witness(f) == scan(field, f.value_table()), str(f)


@pytest.mark.parametrize("text,p,r,witness", [
    ("x^4 + x^2", 3, 2, (3, 0, 3)),
    ("6*x^4 + x^2", 3, 2, (4, 2, 3)),
    ("2*x^6 + x^2", 5, 2, (7, 2, 5)),
    ("5*x^4 + x^2", 3, 3, (3, 0, 9)),
])
def test_planar_first_failing_shift_above_one(text, p, r, witness):
    field = make_field(p, r)
    f = parse_poly(text, field)
    scan = classify._table_planar_witness
    assert planar_witness(f) == scan(field, f.value_table()) == witness
    # the scan reads the shifts [first, stop) and no others
    a = witness[0]
    assert scan(field, f.value_table(), 1, a) is None
    assert scan(field, f.value_table(), a, a + 1) == witness


@pytest.mark.parametrize("text,p,r,witness", [
    ("5*x^11 + x^3", 5, 2, (6, 7, 3, 5)),
    ("6*x^11 + x^3", 5, 2, (6, 6, 1, 5)),
    ("7*x^7 + x^3", 5, 2, (5, 8, 1, 5)),
])
def test_alltop_first_failing_shift_above_one(text, p, r, witness):
    field = make_field(p, r)
    f = parse_poly(text, field)
    scan = classify._table_alltop_witness
    assert alltop_witness(f) == scan(field, f.value_table()) == witness
    a = witness[0]
    assert scan(field, f.value_table(), 1, a) is None
    assert scan(field, f.value_table(), a, a + 1) == witness


def test_alltop_certificate_early_exit_across_chunks(monkeypatch):
    """Points a in chunks of one row: the certificate of either order stops
    at the first chunk with a singular matrix and still names the scan's
    first a.  Over GF(3^7) the planar one takes several chunks by default
    too (test_the_planar_certificate_reads_its_points_in_batches)."""
    monkeypatch.setattr(classify, "_FIRST_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(classify, "_CHUNK_ENTRIES", 1)
    for text, p, r in [("5*x^11 + x^3", 5, 2), ("x^3", 5, 2), ("x^9 + x^3", 7, 2),
                       ("x^4 + x^2", 3, 2), ("x^3", 5, 3)]:
        field = make_field(p, r)
        f = parse_poly(text, field)
        assert alltop_witness(f) == classify._table_alltop_witness(field, f.value_table())
    for text, p, r, witness in [
        ("x^2", 3, 7, None), ("x^2 + 57*x^82", 3, 7, (12, 76, 81)),  # a DO sum
        ("x^4 + x^2", 3, 2, (3, 0, 3)), ("6*x^4 + x^2", 3, 2, (4, 2, 3)),
        ("2*x^6 + x^2", 5, 2, (7, 2, 5)), ("5*x^4 + x^2", 3, 3, (3, 0, 9)),
    ]:
        field = make_field(p, r)
        f = parse_poly(text, field)
        assert max(_core_digit_sums(f, "planar"), default=0) <= 2
        assert planar_witness(f) == classify._table_planar_witness(
            field, f.value_table()) == witness, text


def test_alltop_certificate_gf343_cubic():
    field = make_field(7, 3)
    f = Poly.monomial(field, 3)
    assert alltop_witness(f) is None
    assert classify._table_alltop_witness(field, f.value_table()) is None


def _refuse_the_certificate(monkeypatch):
    def refuse(fld, t, m):
        raise AssertionError("certificate used out of its scope")

    monkeypatch.setattr(classify, "_first_singular", refuse)


@pytest.mark.parametrize("text,p,r", [
    ("x^4", 5, 1), ("x^3 + x^2", 7, 1), ("x^5 + 3*x", 3, 2), ("x^8", 3, 2),
    ("x^12 + x^2", 5, 2), ("2*x^24 + x^6", 5, 2),
])
def test_out_of_scope_takes_the_planar_scan(monkeypatch, text, p, r):
    field = make_field(p, r)
    f = parse_poly(text, field)
    sums = _core_digit_sums(f, "planar")
    assert max(sums) > 2
    _refuse_the_certificate(monkeypatch)
    scan, calls = _routes(monkeypatch, "_table_planar_witness")
    assert planar_witness(f) == scan(field, f.value_table())
    # a single-term core is scanned at a = 1 alone, anything else over [1, q)
    single = text in ("x^4", "x^5 + 3*x", "x^8")
    assert (len(sums) == 1) == single
    assert calls == [(1, 2 if single else field.q)]


@pytest.mark.parametrize("text,p,r,mode,witness", [
    # x^27 is x^3 over GF(25) and the x^3 terms cancel: the core is x^6 alone
    ("x^3 + 4*x^27 + x^6", 5, 2, "planar", (1, 0, 5)),
    # x^28 is x^4 over GF(25) and cancels, leaving x^3
    ("x^3 + x^4 + 4*x^28", 5, 2, "alltop", None),
    # x^80 is x^8 over GF(25) and cancels; x^6 = x^(1 + 5) is a free DO term
    ("x^80 + 4*x^8 + x^6 + x^3", 5, 2, "alltop", None),
])
def test_a_core_lowered_by_reduction_takes_the_certificate(monkeypatch, text, p, r, mode,
                                                           witness):
    """Formal terms of digit sum beyond m that reduce or cancel away leave a
    core the certificate covers: it decides, and the witness is the scan's."""
    field = make_field(p, r)
    f = parse_poly(text, field)
    m = classify._CERTIFIED_DEGREE[mode]
    assert max(sum(base_p_digits(e, p)) for e in f.terms) > m
    assert max(_core_digit_sums(f, mode), default=0) <= m
    scan, calls = _routes(monkeypatch, f"_table_{mode}_witness")
    assert getattr(classify, f"{mode}_witness")(f) == scan(field, f.value_table()) == witness
    assert calls == ([] if witness is None else [(witness[0], witness[0] + 1)])


@pytest.mark.parametrize("text,p,r", [
    ("x^4", 5, 1), ("x^5 + x^3", 7, 1), ("x^8", 3, 2), ("x^16 + x^3", 5, 2),
])
def test_out_of_scope_takes_the_alltop_scan(monkeypatch, text, p, r):
    field = make_field(p, r)
    f = parse_poly(text, field)
    sums = _core_digit_sums(f, "alltop")
    assert max(sums) > 3
    _refuse_the_certificate(monkeypatch)
    scan, calls = _routes(monkeypatch, "_table_alltop_witness")
    assert alltop_witness(f) == scan(field, f.value_table())
    single = text in ("x^4", "x^8")
    assert (len(sums) == 1) == single
    assert calls == [(1, 2 if single else field.q)]


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_singular_matches_the_determinant(p):
    """Random matrices mod p, low-rank products among them and matrices with
    zero leading entries, against sympy's integer determinant."""
    rng = np.random.default_rng(p)
    for r in range(1, 6):
        mats = [rng.integers(0, p, size=(r, r)) for _ in range(30)]
        for k in range(r):
            mats.append(rng.integers(0, p, size=(r, k)) @ rng.integers(0, p, size=(k, r)) % p)
        for m in mats[:10]:
            m[: r // 2 + 1, 0] = 0
            mats.append(np.roll(m, 1, axis=0))
        mats = np.array(mats, dtype=np.int64)
        want = [sympy.Matrix(m.tolist()).det() % p == 0 for m in mats]
        assert classify._singular(mats, p).tolist() == want, (p, r)
        assert any(want) and not all(want)


def _core_digit_sums(f, mode=None):
    """The base-p digit sums of the exponents of f's core in the mode, sorted;
    with no mode, of every reduced term, like terms combined."""
    free = frozenset() if mode is None else classify._free_exponents(f.field, mode)
    return sorted(sum(base_p_digits(e, f.field.p)) for e, _ in classify._core(f, free))


@pytest.mark.parametrize("text,p,r,degree", [
    ("0", 5, 1, 0), ("3", 5, 1, 0), ("x^5", 5, 1, 1), ("x^25 + x", 5, 1, 1),
    ("x^2 + x^6", 5, 2, 2), ("x^7", 5, 2, 3), ("x^24", 5, 2, 8), ("x^13", 3, 3, 3),
    # x^27 is x^3 over GF(25), and 1 + 4 = 0
    ("x^3 + 4*x^27 + x^6", 5, 2, 2),
])
def test_digit_degree_reads_reduced_exponents(text, p, r, degree):
    """The digit degree of f, the largest digit sum of its reduced
    polynomial's exponents, from the core with nothing left out."""
    f = parse_poly(text, make_field(p, r))
    assert max(_core_digit_sums(f), default=0) == degree


@pytest.mark.parametrize("text,p,r,planar,alltop", [
    ("0", 5, 1, [], []), ("3", 5, 1, [], []), ("x^5", 5, 1, [], []),
    ("x^25 + x", 5, 1, [], []), ("x^2 + x^6", 5, 2, [2, 2], []), ("x^7", 5, 2, [3], [3]),
    ("x^24", 5, 2, [8], [8]), ("x^13", 3, 3, [3], [3]),
    # reduced, then like terms combined: x^27 is x^3 here, and 1 + 4 = 0
    ("x^3 + 4*x^27 + x^6", 5, 2, [2], []), ("x^3 + x^27 + x^6", 5, 2, [2, 3], [3]),
    ("x^29 + x^10", 5, 2, [2], []),  # x^29 is x^5, free, and x^10 = x^(5 + 5)
])
def test_core_digit_sums_read_reduced_combined_exponents(text, p, r, planar, alltop):
    f = parse_poly(text, make_field(p, r))
    assert _core_digit_sums(f, "planar") == planar
    assert _core_digit_sums(f, "alltop") == alltop


# ---------------------------------------------------------------------------
# monomials by homogeneity, and single-term cores
# ---------------------------------------------------------------------------

# every field of odd characteristic with q <= 49
SMALL_FIELDS = [(p, r) for p, r in PLANAR_FIELDS if p**r <= 49]


@pytest.mark.parametrize("mode", ["planar", "alltop"])
@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_monomial_verdicts_match_the_classifiers(p, r, mode):
    field = make_field(p, r)
    predicate = is_planar if mode == "planar" else is_alltop
    exps = np.arange(field.q)
    want = [predicate(Poly.monomial(field, int(e))) for e in exps]
    assert classify.monomial_verdicts(field, exps, mode).tolist() == want
    # formal exponents are the same functions as their reductions
    formal = exps[1:] + (field.q - 1) * np.arange(1, field.q)
    assert classify.monomial_verdicts(field, formal, mode).tolist() == want[1:]
    # x^2 is planar; x^3 is Alltop exactly in characteristic >= 5
    assert any(want) == (mode == "planar" or p > 3)


@pytest.mark.parametrize("mode", ["planar", "alltop"])
@pytest.mark.parametrize("p,r", [(5, 2), (7, 2), (3, 3)])
def test_monomial_verdicts_across_batches(monkeypatch, p, r, mode):
    """Batches of one difference row each give the same verdicts."""
    field = make_field(p, r)
    exps = np.arange(1, field.q)
    want = classify.monomial_verdicts(field, exps, mode)
    rows_per_batch = []
    perm_rows_ok = classify._perm_rows_ok

    def recorded(q, rows):
        rows_per_batch.append(rows.shape[0])
        return perm_rows_ok(q, rows)

    monkeypatch.setattr(classify, "_BATCH_ENTRIES", 1)
    monkeypatch.setattr(classify, "_perm_rows_ok", recorded)
    assert np.array_equal(classify.monomial_verdicts(field, exps, mode), want)
    assert set(rows_per_batch) == {1}
    # planar reads one row per exponent; alltop every shift b only for the
    # exponents that pass b = 1
    if mode == "planar":
        assert len(rows_per_batch) == len(exps)
    else:
        assert len(rows_per_batch) < len(exps) * (field.q - 1)


def test_monomial_verdicts_reject_an_unknown_mode():
    with pytest.raises(ValueError):
        classify.monomial_verdicts(make_field(5), [2, 3], "bijective")


@st.composite
def _single_term_polys(draw, field, mode):
    """c * x^e beyond the certificate's digit degree, e reduced or formal,
    plus up to three terms of the mode's free exponents."""
    bound = 2 if mode == "planar" else 3
    exps = [e for e in range(1, field.q) if sum(base_p_digits(e, field.p)) > bound]
    coeffs = st.integers(1, field.q - 1)
    terms = {draw(st.sampled_from(exps)) + (field.q - 1) * draw(st.integers(0, 2)): draw(coeffs)}
    for e in draw(st.lists(st.sampled_from(sorted(classify._free_exponents(field, mode))),
                           max_size=3)):
        terms[e] = draw(coeffs)
    return Poly(field, terms)


# every field of odd characteristic with 3 < q <= 729
SINGLE_TERM_FIELDS = [(p, r) for p in range(3, 730) if _is_prime(p)
                      for r in range(1, 7) if 3 < p**r <= 729]


@pytest.mark.parametrize("p,r", SINGLE_TERM_FIELDS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_single_term_route_matches_the_scan(p, r, data):
    field = make_field(p, r)
    for mode, witness, name in [("planar", planar_witness, "_table_planar_witness"),
                                ("alltop", alltop_witness, "_table_alltop_witness")]:
        f = data.draw(_single_term_polys(field, mode))
        (digit_sum,) = _core_digit_sums(f, mode)
        assert digit_sum > classify._CERTIFIED_DEGREE[mode]
        with pytest.MonkeyPatch.context() as m:
            scan, calls = _routes(m, name)
            w = witness(f)
        assert w == scan(field, f.value_table()), (mode, str(f))
        # one scan of the row a = 1 decides, and a negative fails there
        assert calls == [(1, 2)] and (w is None or w[0] == 1)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_coulter_matthews_monomials_take_one_row(monkeypatch, r):
    """x^((3^k + 1)/2) over GF(3^r), k odd in [3, 2r), is planar exactly when
    gcd(k, r) = 1 (Coulter-Matthews 1997), scaled and with affine terms
    added.  One scan of the row a = 1 decides each, except k = 2r - 1: that
    exponent reduces to 2 * 3^(r - 1), a Frobenius twin of x^2, which the
    certificate decides with no scan."""
    field = make_field(3, r)
    scan, calls = _routes(monkeypatch, "_table_planar_witness")
    free = Poly(field, {1: 2, 3**(r - 1): 1, 0: 5 % field.q})
    planar = []
    for k in range(3, 2 * r, 2):
        e = polyfun._reduced_exponent((3**k + 1) // 2, field.q)
        f = Poly.monomial(field, e, 2) + free
        calls.clear()
        w = planar_witness(f)
        assert w == scan(field, f.value_table()), (k, e)
        assert calls == ([] if k == 2 * r - 1 else [(1, 2)])
        if w is None:
            planar.append(k)
    assert planar == [k for k in range(3, 2 * r, 2) if math.gcd(k, r) == 1]
