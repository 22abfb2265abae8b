import dataclasses
import gc
import hashlib
import json
import logging
import math
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planarlab import mub
from planarlab.classify import is_planar
from planarlab.cyclo import mag_sq, phase_inner_counts
from planarlab.errors import (
    BudgetExceeded,
    CharacteristicTooSmall,
    FieldMismatch,
    MislabelledImport,
    NotAlltop,
    NotPlanar,
    PolySyntaxError,
)
from planarlab.field import make_field
from planarlab.mub import (
    MAX_PHASE_ENTRIES,
    MubSet,
    _canonical,
    _csv_checked,
    _csv_kind,
    _json_checked,
    _json_header,
    _pair_violations,
    _verify_pairs,
    build_alltop_mubs,
    build_planar_mubs,
    export_mubs,
    import_mubs,
    verify_mub_set,
)
from planarlab.polyfun import Poly, parse_poly


def planar_set(p, r=1, pi_text="x^2"):
    field = make_field(p, r)
    return build_planar_mubs(field, parse_poly(pi_text, field))


def remade(m, exps, **changes):
    """The set of the exponent array exps, made by the public constructor,
    with m's construction, polynomial, labels and standard position unless
    `changes` replaces them."""
    header = {"construction": m.construction, "poly": m.poly, "a": m.a,
              "standard": m.standard, **changes}
    return MubSet.from_exponents(m.field, exponents=exps, **header)


def corrupt(m, k=0, b=0, x=0):
    """Copy with the phase exponent [k, b, x] perturbed."""
    exps = m.exponents.copy()
    exps[k, b, x] = (exps[k, b, x] + 1) % m.field.p
    return remade(m, exps)


def unchecked_planar_set(p, r, pi_text):
    """The planar construction from any polynomial, planar or not."""
    field = make_field(p, r)
    pi = parse_poly(pi_text, field)
    ta = field.trace_table[field.mul_vec(field.encodings[:, None], pi.value_table()[None, :])]
    exps = (ta[:, None, :] + field.trace_bilinear[None, :, :]) % field.p
    return MubSet.from_exponents(field, "planar", pi, tuple(range(field.q)),
                                 exps.astype(np.uint16))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_planar_build_examples():
    m = planar_set(5)
    assert m.exponents.shape == (5, 5, 5) and m.exponents.dtype == np.uint16
    assert m.standard == 0
    assert m.a == tuple(range(5))
    m3 = planar_set(3)
    assert m3.exponents.shape == (3, 3, 3)
    rep = verify_mub_set(m3)
    assert rep.passed and rep.num_bases == 4


def test_planar_build_rejects_non_planar():
    with pytest.raises(NotPlanar):
        planar_set(5, pi_text="x^3")


def test_planar_build_rejects_foreign_polynomial():
    with pytest.raises(FieldMismatch):
        build_planar_mubs(make_field(5), parse_poly("x^2", make_field(7)))


def test_planar_exponents_definition():
    m = planar_set(5)
    field = m.field
    pi = m.poly
    exps = m.exponents
    for k, a in enumerate(m.a):
        for b in range(5):
            for x in range(5):
                want = field.trace(field.add(field.mul(a, pi(x).enc), field.mul(b, x)))
                assert exps[k, b, x] == want


def test_alltop_build_examples():
    m = build_alltop_mubs(make_field(5))
    assert m.exponents.shape == (5, 5, 5) and m.standard == 0
    with pytest.raises(CharacteristicTooSmall):
        build_alltop_mubs(make_field(3))
    m25 = build_alltop_mubs(make_field(5, 2))
    assert m25.exponents.shape == (25, 25, 25)
    assert verify_mub_set(m25).num_bases == 26


def test_alltop_exponents_definition():
    field = make_field(7)
    m = build_alltop_mubs(field)
    exps = m.exponents
    for k, a in enumerate(m.a):
        for b in range(7):
            for x in range(7):
                y = field.add(x, a)
                want = field.trace(field.add(field.pow(y, 3), field.mul(b, y)))
                assert exps[k, b, x] == want


# x^4 = x^(3+1) and x^10 = x^(9+1) are planar over GF(27); GF(257) has an
# exponent, 256, that a uint8 table would wrap to 0
ORACLE_SETS = [("planar", 3, 3, "x^2"), ("planar", 3, 3, "x^4"), ("planar", 3, 3, "x^10"),
               ("planar", 5, 2, "x^2"), ("planar", 7, 2, "x^2"), ("planar", 11, 1, "x^2"),
               ("planar", 257, 1, "x^2"), ("alltop", 5, 2, "x^3"), ("alltop", 7, 2, "x^3"),
               ("alltop", 11, 1, "x^3"), ("alltop", 7, 2, "x^9")]


@pytest.mark.parametrize("construction, p, r, pi_text", ORACLE_SETS,
                         ids=[f"{c}-{pi}-{p**r}" for c, p, r, pi in ORACLE_SETS])
def test_builders_match_the_scalar_formula(construction, p, r, pi_text):
    field = make_field(p, r)
    pi = parse_poly(pi_text, field)
    m = build_planar_mubs(field, pi) if construction == "planar" else build_alltop_mubs(field, pi)
    exps = m.exponents
    assert exps.dtype == np.uint16 and not exps.flags.writeable
    assert exps.max() == p - 1
    q, mul, add = field.q, field.mul, field.add
    for a, b, x in np.random.default_rng(q).integers(0, q, (300, 3)).tolist():
        if construction == "planar":
            want = field.trace(add(mul(a, pi(x).enc), mul(b, x)))
        else:
            y = add(x, a)
            want = field.trace(add(pi(y).enc, mul(b, y)))
        assert exps[a, b, x] == want, (a, b, x)


@pytest.mark.parametrize("p, f_text", [(7, "x^9"), (13, "x^15")])
def test_alltop_sets_of_x_q_plus_2(p, f_text):
    """x^(Q+2) over GF(Q^2) is Alltop for Q = 7 and 13: its set verifies and
    round-trips through json and csv with its labels checked."""
    field = make_field(p, 2)
    f = parse_poly(f_text, field)
    m = build_alltop_mubs(field, f)
    assert (m.construction, m.poly) == ("alltop", f)
    assert verify_mub_set(m).passed
    _same_set(import_mubs(export_mubs(m, "json"), "json"), m)
    _same_set(import_mubs(export_mubs(m, "csv"), "csv", field=field, construction="alltop",
                          poly_text=f_text), m)


def test_alltop_builder_refuses_other_functions():
    field = make_field(7)
    with pytest.raises(NotAlltop, match="x\\^2 is not alltop"):
        build_alltop_mubs(field, parse_poly("x^2", field))
    with pytest.raises(FieldMismatch):
        build_alltop_mubs(field, parse_poly("x^3", make_field(5)))
    with pytest.raises(CharacteristicTooSmall):  # the characteristic is checked first
        build_alltop_mubs(make_field(3), parse_poly("x^3", make_field(5)))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_passes_gf7_both_constructions():
    rep = verify_mub_set(planar_set(7))
    assert rep.passed and rep.num_bases == 8 and not rep.violations
    rep = verify_mub_set(build_alltop_mubs(make_field(7)))
    assert rep.passed


def test_verify_passes_for_other_planar_generators():
    # any planar generator works, not just the square
    f27 = make_field(3, 3)
    m = build_planar_mubs(f27, Poly.monomial(f27, 4))  # x^(3^1 + 1), planar
    assert m.exponents.shape == (27, 27, 27)
    rep = verify_mub_set(m)
    assert rep.passed and rep.num_bases == 28
    f25 = make_field(5, 2)
    m = build_planar_mubs(f25, Poly.monomial(f25, 10))  # Frobenius twist of x^2
    assert verify_mub_set(m).passed


def test_verify_flags_corrupted_set():
    m = corrupt(planar_set(5))
    rep = verify_mub_set(m)
    assert not rep.passed
    assert rep.violations
    involved = {(v.basis_i, v.vector_i) for v in rep.violations}
    involved |= {(v.basis_j, v.vector_j) for v in rep.violations}
    assert (1, 0) in involved  # the perturbed vector is identified


def test_verify_structural_validation():
    # the shape and the standard position are checked when the set is made
    m = planar_set(5)
    with pytest.raises(ValueError):
        remade(m, m.exponents[:-1], a=m.a[:-1])
    with pytest.raises(ValueError):
        remade(m, m.exponents[:, :-1])
    with pytest.raises(ValueError):
        dataclasses.replace(m, a=m.a[:-1])
    with pytest.raises(ValueError):
        remade(m, m.exponents.astype(np.int64))
    for standard in (-1, 6):
        with pytest.raises(ValueError):
            dataclasses.replace(m, standard=standard)


def test_exponents_are_read_only():
    m = planar_set(5)
    with pytest.raises(ValueError):
        m.exponents[0, 0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.standard = 1
    m2 = remade(m, m.exponents.copy())
    with pytest.raises(ValueError):
        m2.exponents[0, 0, 0] = 1
    with pytest.raises(TypeError):  # the public constructor is the one way in
        dataclasses.replace(m, exponents=m.exponents.copy())
    with pytest.raises(TypeError, match="MubSet.from_exponents"):
        MubSet(m.field, m.construction, m.poly, m.a, m.exponents.copy())


def _form_bytes(m):
    return [part.tobytes() for part in m._form]


@pytest.mark.parametrize("at, value", [((1, 2, 3), None), ((0, 0, 0), 99)])
def test_the_callers_array_cannot_change_a_set(at, value):
    """The set keeps only the form it certified, so no in-range or
    out-of-range write reaches it: through the caller's array, a view taken
    before the caller froze it (the earlier loophole), a view of a larger
    array, or an `exponents` result made writable again."""
    m = planar_set(5)
    e = m.exponents.copy()
    early = e[:]
    e.setflags(write=False)
    s = remade(m, e)
    whole = np.empty((6, 5, 5), dtype=np.uint16)
    whole[1:] = m.exponents
    view = whole[1:]
    v = remade(m, view)
    kept = _form_bytes(m)
    got = m.exponents
    got.setflags(write=True)  # it owns its memory, so numpy allows this
    for handle in (early, view, got):
        handle[at] = (handle[at] + 1) % 5 if value is None else value
    assert e[at] == early[at] != m.exponents[at]
    for t in (s, v, m):
        assert _form_bytes(t) == kept
        assert np.array_equal(t.exponents, planar_set(5).exponents)
        assert verify_mub_set(t).passed
    assert export_mubs(v, "json") == export_mubs(s, "json") == export_mubs(planar_set(5), "json")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("alltop", [False, True])
def test_an_import_and_its_verify_certify_the_set_once(fmt, alltop):
    """The bases are certified once per set, as the import reads them: the
    label check and verify_mub_set read the set's form, also for a csv
    relabelled alltop."""
    fld = make_field(5, 2)
    m = build_alltop_mubs(fld) if alltop else planar_set(5, 2)
    data = export_mubs(m, fmt)
    with mock.patch.object(mub, "_certify", wraps=mub._certify) as spy:
        back = import_mubs(data, fmt, **({"field": fld} if fmt == "csv" else {}))
        assert verify_mub_set(back).passed
        assert verify_mub_set(back).passed
    _same_set(back, m)
    assert spy.call_count == 1


def all_pairs(q):
    """Every basis pair k <= l in report order: the diagonal pairs first."""
    return [(k, k) for k in range(q)] + [(k, l) for k in range(q) for l in range(k + 1, q)]


def generic_violations(m, pairs=None):
    """The report's violations from the generic kernel over every vector pair
    (v >= u within a basis) of every basis pair (or of `pairs`), as tuples
    in report order."""
    q = m.field.q
    out = []
    for k, l in pairs or all_pairs(q):
        us, vs = np.nonzero(np.tri(q, dtype=bool).T if k == l else np.ones((q, q), bool))
        out += _pair_violations(m, np.full_like(us, k), us, np.full_like(vs, l), vs)
    return out


def report_violations(m):
    return verify_mub_set(m).violations


def uncertified(m):
    """The phase bases with an uncertified row."""
    return np.flatnonzero(~m._form.good.all(axis=1)).tolist()


# sha256 of each compact canonical report, made by the report objects that
# wrapped the kernel's tuples in dataclasses
NON_PLANAR_REPORTS = [
    (5, 1, "x^3", "7a6cc849bde61b74e9428d90d3eba799755da7cb3977e5628c3053f8a2396b29"),
    (5, 1, "x^4+x", "42166b43fdb1ebff269230eebe0e417f7d0e4010519e1663c605eec557bf905e"),
    (3, 2, "x^3", "3ba0bc692158d78e85a9c71659a58920a275551bf770e2792d1acfd1dfc47deb"),
    (3, 2, "x^4+x", "f003fc3420a0a22f2b289d0f022dac31af530096dae83b3f25bff6fcf5427e7c"),
    (5, 2, "x^3", "1c988cfe2b1ab5970637b23d23b651b2618b84fa40a7bd0633725f61da829196"),
    (5, 2, "x^4+x", "1c3c75738447cc607faebb28399042796137d084225db3116a6224c221e723f8"),
    (3, 3, "x^3", "46e8b17d76120d50612507a99ab55566000e3de31fc0ff0c2cd710c701a74429"),
    (3, 3, "x^4+x", "0a9dc145a462a19caff2fa0978a9ebcffda9df997c4d5f6d5d1a3d728e529b83"),
]


@pytest.mark.parametrize("p, r, pi_text, digest", NON_PLANAR_REPORTS,
                         ids=[f"{pi}-{p}-{r}" for p, r, pi, _ in NON_PLANAR_REPORTS])
def test_certified_kernel_matches_generic_on_non_planar_sets(p, r, pi_text, digest):
    m = unchecked_planar_set(p, r, pi_text)
    assert uncertified(m) == []
    want = generic_violations(m)
    assert bool(want) != is_planar(m.poly)  # x^4+x is planar over GF(27) only
    assert report_violations(m) == want
    text = json.dumps(verify_mub_set(m).to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pair_class_key_tells_cross_pairs_from_diagonal_ones():
    # basis 1 is basis 0 + tr(7 x) + 3: pair (0, 1) has the residual 0 of every
    # diagonal pair, but must be judged across bases, where all 625 fail
    m = planar_set(5, 2)
    exps = m.exponents.astype(np.int64)
    exps[1] = (exps[0] + m.field.trace_bilinear[7] + 3) % 5
    m = remade(m, exps.astype(np.uint16))
    assert uncertified(m) == []
    want = report_violations(m)
    assert len(want) == 625 and {(v.basis_i, v.basis_j) for v in want} == {(1, 2)}
    assert want == generic_violations(m) == literal_violations(m, [(0, 1)])


def shuffled(m, seed=1):
    """m with its phase bases in a seeded random order."""
    order = np.random.default_rng(seed).permutation(m.field.q)
    return remade(m, m.exponents[order], a=tuple(np.array(m.a)[order].tolist()))


@pytest.mark.parametrize("p, r, pi_text", [(5, 2, "x^3"), (3, 3, "x^4")])
def test_pair_classes_match_generic_on_shuffled_sets(p, r, pi_text):
    # x^4 is planar over GF(27), so its report is empty
    m = shuffled(unchecked_planar_set(p, r, pi_text))
    want = generic_violations(m)
    assert bool(want) != is_planar(m.poly)
    assert report_violations(m) == want


def test_pair_classes_match_generic_on_shuffled_gf49_x5():
    # 2.8 M violations in the whole report: take the pairs of bases 0 and 1,
    # and pairs of later bases in the classes of pairs (0, l)
    m = shuffled(unchecked_planar_set(7, 2, "x^5"))
    fld, q = m.field, m.field.q
    pos = {a: k for k, a in enumerate(m.a)}
    pairs = [(k, l) for k in (0, 1) for l in range(k, q, 6)]
    for l in range(1, q, 6):  # a_l' - a_k = a_l - a_0 for bases k > 1
        for k in (5, 20):
            l2 = pos[fld.add(fld.sub(m.a[l], m.a[0]), m.a[k])]
            pairs.append((min(k, l2), max(k, l2)))
    want = generic_violations(m, pairs)
    assert want
    assert _verify_pairs(m, pairs)[:2] == (want, 0)


def test_report_rows_hold_no_tracked_containers():
    # a row dict holding a list stays tracked, and on a 255 879-row report the
    # collector's passes over them cost more than building the dicts
    rows = verify_mub_set(corrupt(planar_set(5), k=1, x=2)).to_json_dict()["violations"]
    gc.collect()
    assert rows and not any(gc.is_tracked(row) for row in rows)


@pytest.mark.parametrize("p, r", [(7, 1), (5, 2)])
def test_certified_kernel_matches_generic_on_alltop_sets(p, r):
    m = build_alltop_mubs(make_field(p, r))
    assert uncertified(m) == []
    # the rows of basis a differ from its row 0 by tr(b x) + tr(a b), not by tr(b x)
    rest = (m.exponent_matrix(1) - m.exponent_matrix(1)[0] - m.field.trace_bilinear) % p
    assert rest.any()
    assert report_violations(m) == generic_violations(m) == []


@pytest.mark.parametrize("b", [0, 3])
@pytest.mark.parametrize("build", [lambda: planar_set(5, 2), lambda: build_alltop_mubs(make_field(7)),
                                   lambda: unchecked_planar_set(5, 2, "x^3")])
def test_generic_kernel_takes_corrupted_bases(build, b):
    # one flipped exponent in row 0 or in a middle row of phase basis 2
    m = corrupt(build(), k=2, b=b, x=1)
    assert uncertified(m) == [2]
    want = generic_violations(m)
    assert want
    assert report_violations(m) == want


def test_kernels_agree_with_standard_basis_last():
    obj = _standard_last(planar_set(5, 2))
    row = obj["bases"][7]["vectors"][4]
    row[3] = (row[3] + 1) % 5
    m = import_mubs(json.dumps(obj), "json")
    assert m.standard == 25 and uncertified(m) == [7]
    want = generic_violations(m)
    assert want and want[0][1] == 7
    assert report_violations(m) == want


def test_kernels_agree_across_workers():
    m = corrupt(unchecked_planar_set(7, 1, "x^3"), k=4, b=2, x=0)
    assert report_violations(m) == generic_violations(m)


def literal_violations(m, pairs=None):
    """The report's violations from the definition: one phase-difference
    histogram and one cyclo.mag_sq per vector pair, basis pairs (every one,
    or `pairs`) in report order, v >= u within a basis."""
    p, q = m.field.p, m.field.q
    idx = m.phase_bases()
    exps = m.exponents
    out = []
    for k, l in pairs or all_pairs(q):
        kind = "orthonormality" if k == l else "unbiasedness"
        for u in range(q):
            for v in range(u if k == l else 0, q):
                res = mag_sq(phase_inner_counts(exps[k, u], exps[l, v], p))
                want = (q * q if u == v else 0) if k == l else q
                if not res.is_rational_integer or res.value != want:
                    out.append((kind, idx[k], u, idx[l], v, want, res.is_rational_integer,
                                res.value, res.autocorrelation))
    return out


def _flipped_standard_last(m, basis, vector, x):
    obj = _standard_last(m)
    row = obj["bases"][basis]["vectors"][vector]
    row[x] = (row[x] + 1) % m.field.p
    return import_mubs(json.dumps(obj), "json")


@pytest.mark.parametrize("build", [
    lambda: planar_set(5),
    lambda: planar_set(3, 2),
    lambda: build_alltop_mubs(make_field(7)),
    lambda: corrupt(build_alltop_mubs(make_field(7)), k=3, b=0, x=2),
    lambda: corrupt(build_alltop_mubs(make_field(7)), k=3, b=4, x=2),
    lambda: corrupt(planar_set(3, 2), k=5, b=0, x=1),
    lambda: corrupt(planar_set(3, 2), k=5, b=4, x=1),
    lambda: unchecked_planar_set(5, 1, "x^3"),
    lambda: unchecked_planar_set(3, 2, "x^4+x"),
    lambda: _flipped_standard_last(planar_set(3, 2), basis=4, vector=2, x=7),
], ids=["planar-5", "planar-9", "alltop-7", "alltop-7-row0", "alltop-7-row4",
        "planar-9-row0", "planar-9-row4", "x3-5", "x4+x-9", "planar-9-standard-last"])
def test_verify_matches_literal_definition(build):
    m = build()
    assert report_violations(m) == literal_violations(m)


def test_verify_logs_the_kernel_split(caplog):
    caplog.set_level(logging.INFO, logger="planarlab")
    m = planar_set(5, 2)
    verify_mub_set(m)
    verify_mub_set(corrupt(m, k=3, b=1, x=1))
    verify_mub_set(unchecked_planar_set(5, 2, "x^3"))
    assert [r.name for r in caplog.records] == ["planarlab"] * 3
    assert [r.levelno for r in caplog.records] == [logging.INFO] * 3
    assert [r.getMessage() for r in caplog.records] == [
        # the diagonal pairs share one class, the cross pairs one per a_l - a_k
        "verify GF(25): 25 of 25 phase bases pass the translation certificate; "
        "0 of 625 phase vectors uncertified, 0 of 195625 vector pairs by direct histograms; "
        "0 of 25 pair classes fail",
        # vector 1 of basis 3 against each of the 625 vectors, itself once
        "verify GF(25): 24 of 25 phase bases pass the translation certificate; "
        "1 of 625 phase vectors uncertified, 625 of 195625 vector pairs by direct histograms; "
        "0 of 25 pair classes fail",
        # x^3 is not planar: only the diagonal class passes
        "verify GF(25): 25 of 25 phase bases pass the translation certificate; "
        "0 of 625 phase vectors uncertified, 0 of 195625 vector pairs by direct histograms; "
        "24 of 25 pair classes fail",
    ]


# ---------------------------------------------------------------------------
# row-level certificates
# ---------------------------------------------------------------------------

def flipped(m, *cells):
    """Copy with `step` added to the phase exponent [k, b, x] for each
    (k, b, x, step) of cells."""
    exps = m.exponents.copy()
    for k, b, x, step in cells:
        exps[k, b, x] = (int(exps[k, b, x]) + step) % m.field.p
    return remade(m, exps)


def uncertified_rows(m):
    """{phase basis: its uncertified rows} for the bases that have any."""
    good = m._form.good
    return {k: np.flatnonzero(~rows).tolist() for k, rows in enumerate(good) if not rows.all()}


def assert_kernels_agree(m):
    want = generic_violations(m)
    assert report_violations(m) == want
    if m.field.q <= 9:
        assert want == literal_violations(m)


# x^4 + x is not planar over GF(9): its pair classes fail, so bad rows are
# merged into the rows read from failing tables
ROW_SETS = {
    "planar-9": lambda: planar_set(3, 2),
    "alltop-7": lambda: build_alltop_mubs(make_field(7)),
    "x4+x-9": lambda: unchecked_planar_set(3, 2, "x^4+x"),
}


@pytest.mark.parametrize("build", ROW_SETS.values(), ids=ROW_SETS)
def test_several_bad_rows_in_one_basis(build):
    m = flipped(build(), (4, 1, 0, 1), (4, 5, 2, 2), (4, 6, 0, 1))
    assert uncertified_rows(m) == {4: [1, 5, 6]}
    assert_kernels_agree(m)


@pytest.mark.parametrize("build", ROW_SETS.values(), ids=ROW_SETS)
def test_bad_rows_in_two_bases(build):
    # pair (2, 5) has the bad u = 3 and the bad v = 0 and 4
    m = flipped(build(), (2, 3, 1, 1), (5, 0, 2, 1), (5, 4, 6, 2))
    assert uncertified_rows(m) == {2: [3], 5: [0, 4]}
    assert_kernels_agree(m)


@pytest.mark.parametrize("build", ROW_SETS.values(), ids=ROW_SETS)
def test_a_bad_row_0_leaves_the_other_rows_certified(build):
    m = flipped(build(), (3, 0, 2, 1))
    assert uncertified_rows(m) == {3: [0]}
    assert_kernels_agree(m)


@pytest.mark.parametrize("build", ROW_SETS.values(), ids=ROW_SETS)
def test_a_garbage_basis_certifies_only_its_row_0(build):
    m = build()
    q, p = m.field.q, m.field.p
    exps = m.exponents.copy()
    exps[2] = np.random.default_rng(5).integers(0, p, (q, q))
    m = remade(m, exps)
    # no two rows agree, so every group has one row and row 0's wins the tie
    assert uncertified_rows(m) == {2: list(range(1, q))}
    assert_kernels_agree(m)


@pytest.mark.parametrize("moved", [(2, 4, 6, 8), (1, 3, 5, 7)])
def test_equal_row_groups_go_to_the_smallest_b(moved):
    # basis 3 of the GF(9) planar set: row 0 moved alone, the rows `moved` by
    # one common step at x = 1, so rows 1-8 form two groups of four; the group
    # of row 1 is certified whichever of the two sorts first
    m = flipped(planar_set(3, 2), (3, 0, 2, 1), *[(3, b, 1, 1) for b in moved])
    assert uncertified_rows(m) == {3: [0, 2, 4, 6, 8]}
    assert_kernels_agree(m)


@pytest.mark.parametrize("build", [lambda: planar_set(3, 2),
                                   lambda: build_alltop_mubs(make_field(5, 2))],
                         ids=["planar-9", "alltop-25"])
def test_bad_rows_with_standard_basis_last_and_shuffled_labels(build):
    m = flipped(build(), (6, 2, 3, 1), (6, 0, 0, 2), (1, 8, 7, 1))
    m = dataclasses.replace(shuffled(m, seed=3), standard=m.field.q)
    assert m.phase_bases() == list(range(m.field.q))
    assert sorted(uncertified_rows(m).values()) == [[0, 2], [8]]
    assert_kernels_agree(m)


def chunk_run(build, pairs):
    """(exponents, (ref, good), _verify_pairs result, report violations) of
    build()."""
    m = build()
    return m.exponents, m._form[::2], _verify_pairs(m, pairs), report_violations(m)


def assert_small_chunks_agree(build, q, pairs, monkeypatch):
    """chunk_run with _VERIFY_CHUNK = 2 q^2 (two phase bases a step in the
    build and the certificate, 2q basis pairs a chunk of keys, two classes a
    batch of class tables) equals the default run; returns the latter."""
    default = chunk_run(build, pairs)
    monkeypatch.setattr(mub, "_VERIFY_CHUNK", 2 * q * q)
    small = chunk_run(build, pairs)
    assert np.array_equal(default[0], small[0])
    assert all(np.array_equal(a, b) for a, b in zip(default[1], small[1]))
    assert default[2:] == small[2:]
    return default


# each set with the phase bases it flips: bases 4 and 5 open and close a chunk
# of two, and 24 and 26 are alone in the last one
CHUNK_SETS = {
    "planar-25": (lambda: planar_set(5, 2), []),
    "planar-x4-27": (lambda: planar_set(3, 3, "x^4"), []),
    "alltop-25": (lambda: build_alltop_mubs(make_field(5, 2)), []),
    "planar-25-flipped": (lambda: flipped(planar_set(5, 2), (4, 0, 3, 1), (5, 7, 0, 2),
                                          (24, 3, 11, 4)), [4, 5, 24]),
    "alltop-25-flipped": (lambda: flipped(build_alltop_mubs(make_field(5, 2)),
                                          (4, 9, 2, 1), (5, 0, 0, 3)), [4, 5]),
    "planar-27-flipped": (lambda: flipped(planar_set(3, 3), (4, 26, 5, 1), (5, 1, 1, 2),
                                          (26, 0, 2, 1)), [4, 5, 26]),
}


@pytest.mark.parametrize("build, bad", CHUNK_SETS.values(), ids=CHUNK_SETS)
def test_small_chunks_match_the_default_chunk(build, bad, monkeypatch):
    m = build()
    q = m.field.q
    assert sorted(uncertified_rows(m)) == bad
    # the set was clean: only the pairs with a flipped basis hold violations
    pairs = [(k, l) for k, l in all_pairs(q) if k in bad or l in bad]
    want = generic_violations(m, pairs) if pairs else []
    assert bool(want) == bool(bad)
    _, _, (violations, *_), report = assert_small_chunks_agree(build, q, all_pairs(q),
                                                               monkeypatch)
    assert violations == report == want


@pytest.mark.parametrize("p, r", [(5, 2), (3, 3)])
def test_small_chunks_match_on_an_unsorted_pair_list(p, r, monkeypatch):
    # a non-planar set, its bases shuffled, 80 basis pairs in a seeded order
    # and one flipped exponent
    q = p**r
    pairs = [all_pairs(q)[n] for n in np.random.default_rng(p).permutation(len(all_pairs(q)))[:80]]
    build = lambda: flipped(shuffled(unchecked_planar_set(p, r, "x^3")), (3, 2, 1, 1))
    want = generic_violations(build(), pairs)
    assert assert_small_chunks_agree(build, q, pairs, monkeypatch)[2][0] == want


ROW_FIELDS = [("planar", 7, 1), ("planar", 3, 2), ("planar", 5, 2), ("planar", 3, 3),
              ("alltop", 7, 1), ("alltop", 5, 2)]


@pytest.mark.parametrize("construction, p, r", ROW_FIELDS,
                         ids=[f"{c}-{p**r}" for c, p, r in ROW_FIELDS])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_seeded_corruptions_match_the_generic_kernel(construction, p, r, data):
    field = make_field(p, r)
    m = build_alltop_mubs(field) if construction == "alltop" else planar_set(p, r)
    q = field.q
    cell = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1), st.integers(0, q - 1),
                     st.integers(1, p - 1))
    m = flipped(m, *data.draw(st.lists(cell, min_size=1, max_size=6)))
    # the set was clean: only the pairs with an uncertified basis hold violations
    bad = uncertified_rows(m)
    pairs = [(k, l) for k, l in all_pairs(q) if k in bad or l in bad]
    want = generic_violations(m, pairs) if pairs else []
    assert report_violations(m) == want
    if q <= 9:
        assert want == literal_violations(m, pairs)


# ---------------------------------------------------------------------------
# size bound
# ---------------------------------------------------------------------------

def test_size_bound_admits_q_up_to_406():
    assert 406**3 <= MAX_PHASE_ENTRIES < 407**3
    for p, r in [(7, 4), (5, 4), (3, 6), (409, 1)]:
        field = make_field(p, r)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            build_planar_mubs(field, parse_poly("x^2", field))
        with pytest.raises(BudgetExceeded):
            build_alltop_mubs(field)
        with pytest.raises(BudgetExceeded):
            import_mubs("basis,b,x0\n", "csv", field=field)
        assert time.perf_counter() - t0 < 0.5, (p, r)
    m = build_alltop_mubs(make_field(5, 3))
    assert m.exponents.shape == (125, 125, 125)


def test_json_import_checks_the_size_bound():
    obj = json.loads(export_mubs(planar_set(5), "json"))
    obj["field"] = make_field(7, 4).to_json_dict()
    with pytest.raises(BudgetExceeded):
        import_mubs(json.dumps(obj), "json")


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def test_json_export_structure():
    m = planar_set(5)
    obj = json.loads(export_mubs(m, "json"))
    assert obj["field"] == {"p": 5, "r": 1, "modulus": [0, 1]}
    assert obj["construction"] == "planar"
    assert obj["poly"] == "x^2"
    assert len(obj["bases"]) == 6
    assert obj["bases"][0] == {"standard": True}
    for b in obj["bases"][1:]:
        assert len(b["vectors"]) == 5
        for row in b["vectors"]:
            assert len(row) == 5 and all(0 <= e < 5 for e in row)


def test_csv_export_structure():
    m = planar_set(5)
    lines = export_mubs(m, "csv").decode().splitlines()
    assert lines[0] == "basis,b," + ",".join(f"x{i}" for i in range(5))
    assert len(lines) == 1 + 25  # standard basis omitted


def test_float_json_amplitudes():
    m = planar_set(5)
    obj = json.loads(export_mubs(m, "float-json"))
    assert obj["lossy"] is True
    for b in obj["bases"][1:]:
        for vec in b["entries"]:
            for re, im in vec:
                assert abs((re * re + im * im) - 1 / 5) < 1e-12


def test_json_roundtrip_bit_exact():
    for build in (lambda: planar_set(7), lambda: build_alltop_mubs(make_field(5, 2))):
        m = build()
        data = export_mubs(m, "json")
        back = import_mubs(data, "json")
        assert export_mubs(back, "json") == data
        assert np.array_equal(m.exponents, back.exponents)
        assert back.a == m.a and back.standard == 0


def test_csv_roundtrip_bit_exact():
    m = planar_set(7)
    data = export_mubs(m, "csv")
    back = import_mubs(data, "csv", field=m.field)
    assert export_mubs(back, "csv") == data
    assert np.array_equal(m.exponents, back.exponents)
    assert back.a == m.a and back.standard == 0


def _framed_by_hand(m, fmt):
    """The document export_mubs(m, fmt) writes, built from m.exponents, m.a
    and m.standard alone: json.dumps of the nested exponent lists, or of
    float-json's [re, im] pairs with "lossy", and csv's header line and one
    `a,b,e...` line a vector."""
    p, q = m.field.p, m.field.q
    exps = m.exponents.tolist()
    if fmt == "csv":
        lines = ["basis,b," + ",".join(f"x{i}" for i in range(q))]
        lines += [",".join(map(str, [a, b, *row]))
                  for a, rows in zip(m.a, exps) for b, row in enumerate(rows)]
        return ("\n".join(lines) + "\n").encode()
    doc = {"construction": m.construction, "field": m.field.to_json_dict(), "poly": str(m.poly)}
    if fmt == "json":
        bases = [{"a": a, "vectors": rows} for a, rows in zip(m.a, exps)]
    else:
        amp = 1.0 / math.sqrt(q)
        pair = [[amp * math.cos(2.0 * math.pi * e / p), amp * math.sin(2.0 * math.pi * e / p)]
                for e in range(p)]
        bases = [{"a": a, "entries": [[pair[e] for e in row] for row in rows]}
                 for a, rows in zip(m.a, exps)]
        doc["lossy"] = True
    doc["bases"] = bases[: m.standard] + [{"standard": True}] + bases[m.standard :]
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


FRAMING_SETS = [("planar", 5, 2), ("alltop", 5, 2), ("planar", 11, 1), ("alltop", 13, 1)]


@pytest.mark.parametrize("construction, p, r", FRAMING_SETS,
                         ids=[f"{c}-GF({p}^{r})" for c, p, r in FRAMING_SETS])
def test_every_format_frames_its_bases_as_the_documents_by_hand(construction, p, r):
    """One-digit (GF(25)) and mixed-width (GF(11), GF(13)) sets with the
    standard basis first, in the middle and last, and with shuffled labels:
    every format's bytes are the document built by hand, so the framing is
    checked apart from the renderers that share it."""
    m = planar_set(p, r) if construction == "planar" else build_alltop_mubs(make_field(p, r))
    q = m.field.q
    order = np.random.default_rng(q).permutation(q)
    variants = [dataclasses.replace(m, standard=s) for s in (0, q // 2, q)]
    variants.append(remade(m, m.exponents[order], a=tuple(m.a[i] for i in order)))
    for v in variants:
        for fmt in ("json", "float-json", "csv"):
            assert export_mubs(v, fmt) == _framed_by_hand(v, fmt), (v.standard, fmt)


# sha256 of export_mubs output made by the serializers that dumped nested
# lists (json, float-json) and joined each csv row on its own
EXPORT_DIGESTS = {
    ("planar", 5, 2): (
        "3e98c56bb5aa1c1114d17c179cc0a1cc5eddf271b03b8d323e5926f9d0c5954f",
        "6c1fa0bcdd54ff43f0ed265e9355f694cc80b3eaebcbe94da7df87b53768494e",
        "740f131568dbed9d6abeaf3d233b513035f605bdf259e7a01afe92c9129974d0",
    ),
    ("planar", 3, 3): (
        "49234bde308308a87e81e59fa17f1b13445ff3762df4ebedf9f46e6899b6c273",
        "7deb89cd0f05dfbfa14ef30c73e6881292535c472411e0afca3ecf779affe714",
        "f31607abb6b0420c953944190bb477859fc7c51802912d47af34cb87aee0d434",
    ),
    ("planar", 7, 2): (
        "990b96ba6fef20a893199abce164c86fccbf50c8928ee02a0016b27a316b569f",
        "0b48bfd0a5f413a49a300d6c9d7864a3093403b7a9ec761dde59fb618bb416b9",
        "51f4f87a3fc0fe45449cd7e072760dc04383c2d222399eee75aa47f7c940b135",
    ),
    ("planar", 5, 3): (
        "d0770c36f7c2676ea5e908fac92cd7fdfe62e975d350a2be5e780d9db96ddf23",
        "0602fcfdb2a647c8175b260d4ddcc2b2a62c588cc77aa6df27d92a111e781672",
        "1ab7ea7c660dc62abebe7fdbeeeea0c962905c28434ff927aecab482b268a578",
    ),
    ("alltop", 5, 2): (
        "cf373b8f8d64be96697266e130c81e14dbdd9ece372d481fa24ab2ee37a8c84c",
        "93956eb07f87d148ba05f98df874d1d860fec2dd949ae68268d08b3a9ce6faa2",
        "7ce6348e048ee71f1e341a98042d82690e7d65cc6cccea24450952efe71bd480",
    ),
    ("alltop", 5, 3): (
        "eb77056099eda55cbf0bed40f42474b2324cd6a15fc6e47037bd5004d11041f8",
        "e0909a1fe9c86431587730a966908a8b77007ee9b3836131231bf102fba07943",
        "40b76ac6d9cc2e74883f56b5f424808f9ee2b25b139549ae240cfc5f68771bbc",
    ),
    # exponents of one and two digits: tokens of mixed width
    ("planar", 11, 1): (
        "0f23c057db0888638fb0d72492d8cf2edf30686786e768073ebc9e2915e205c0",
        "adb4b1a759de55ffdf905930bc83e319ae69916255b00350cca8e252e3dbad01",
        "3ad1d03dcf970d03adf4c37e0b5fcf530fc652a10db5c893966a7d0f594b80af",
    ),
    ("alltop", 13, 1): (
        "e6b36dce4abcf808d97b93fff629d0effacc38a591f18d4de2efb8a01cb4c098",
        "3e96d6cc98fb483c9974e547d2909518391bb0d0d423cbd535753e5efbf54144",
        "e1a21bb0c9949c101f85e818ade0eed59a2e0afe65e0e68edf0d639a9e01ba32",
    ),
    ("planar", 11, 2): (
        "0c235c402533d90ec42e8f98afe2e571d74f9a9811cf0ef501a65920149c08d2",
        "90c05c1f47766ed25494f550d5589a6efaf945fb9b9427e9dc1ad8f9249eb543",
        "dbb6b6a029150f3724e4d5f27acc7fdf00c7269b29cd3439274757d8d54c0bd4",
    ),
}


def _pinned_set(construction, p, r):
    if construction == "planar":
        return planar_set(p, r)
    return build_alltop_mubs(make_field(p, r))


@pytest.mark.parametrize("construction, p, r", list(EXPORT_DIGESTS))
def test_export_bytes_are_pinned(construction, p, r):
    m = _pinned_set(construction, p, r)
    for fmt, digest in zip(("json", "csv", "float-json"), EXPORT_DIGESTS[construction, p, r]):
        assert hashlib.sha256(export_mubs(m, fmt)).hexdigest() == digest, fmt


@pytest.mark.parametrize("construction, p, r", [("planar", 11, 1), ("alltop", 13, 1),
                                                ("planar", 11, 2)])
def test_mixed_width_exports_round_trip_canonically(construction, p, r, caplog):
    caplog.set_level(logging.INFO, logger="planarlab")
    m = _pinned_set(construction, p, r)
    js, cs = export_mubs(m, "json"), export_mubs(m, "csv")
    assert export_mubs(import_mubs(js, "json"), "json") == js
    back = import_mubs(cs, "csv", field=m.field, construction=construction, poly_text=str(m.poly))
    assert export_mubs(back, "csv") == cs
    assert [rec.getMessage() for rec in caplog.records] == [
        f"import json GF({m.field.q}): canonical route",
        f"import csv GF({m.field.q}): canonical route",
    ]


# every field whose exponents are single digits, so json and csv tokens
# have one width
UNIFORM_WIDTH_FIELDS = [(p, r) for p in (3, 5, 7) for r in range(1, 5) if p**r <= 125]


def _shuffled_labels(m, seed):
    """m imported from a json export whose phase bases are permuted."""
    obj = json.loads(export_mubs(m, "json"))
    phase = obj["bases"][1:]
    order = np.random.default_rng(seed).permutation(len(phase))
    obj["bases"] = [obj["bases"][0]] + [phase[i] for i in order]
    back = import_mubs(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", "json")
    assert back.a == tuple(m.a[i] for i in order)
    return back


@pytest.mark.parametrize("p, r", UNIFORM_WIDTH_FIELDS,
                         ids=[f"GF({p}^{r})" for p, r in UNIFORM_WIDTH_FIELDS])
def test_byte_table_renders_as_the_join(p, r, monkeypatch):
    sets = [planar_set(p, r)] + ([build_alltop_mubs(make_field(p, r))] if p >= 5 else [])
    q = p**r
    variants = [v for m in sets for v in (
        m, dataclasses.replace(m, standard=q // 2), dataclasses.replace(m, standard=q),
        _shuffled_labels(m, q))]
    for fmt in ("json", "csv"):
        fast = [export_mubs(m, fmt) for m in variants]
        with monkeypatch.context() as patch:
            patch.setattr(mub, "_one_digit", _never)  # every basis by _rows_join
            assert [export_mubs(m, fmt) for m in variants] == fast, fmt


def _never(p):
    return False


def _refuse(*args):
    raise AssertionError("the other renderer was chosen")


def test_renderer_is_chosen_by_token_width(monkeypatch):
    uniform = [planar_set(7, 2), build_alltop_mubs(make_field(5, 2)), planar_set(3, 3)]
    with monkeypatch.context() as patch:
        patch.setattr(mub, "_rows_join", _refuse)
        for m in uniform:
            export_mubs(m, "json")
            export_mubs(m, "csv")
    with monkeypatch.context() as patch:
        patch.setattr(mub, "_rows_table", _refuse)
        for m in uniform:
            export_mubs(m, "float-json")
        for m in (planar_set(11), build_alltop_mubs(make_field(11, 1))):
            for fmt in ("json", "csv", "float-json"):
                export_mubs(m, fmt)


def test_reader_is_chosen_by_token_width(monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="planarlab")
    uniform = [planar_set(7, 2), build_alltop_mubs(make_field(5, 2)), planar_set(3, 3)]
    mixed = [planar_set(11), build_alltop_mubs(make_field(13, 1))]
    for sets, refused in ((uniform, "_runs_body"), (mixed, "_body_digits")):
        with monkeypatch.context() as patch:
            patch.setattr(mub, refused, _refuse)
            patch.setattr(mub, "_json_checked", _refuse)
            patch.setattr(mub, "_csv_checked", _refuse)
            for m in sets:
                _same_set(import_mubs(export_mubs(m, "json"), "json"), m)
                _same_set(import_mubs(export_mubs(m, "csv"), "csv", field=m.field,
                                      construction=m.construction, poly_text=str(m.poly)), m)
    assert {rec.getMessage().split(": ")[1] for rec in caplog.records} == {"canonical route"}


def _join_export(m, fmt):
    """export_mubs(m, fmt) with every phase basis rendered by _rows_join."""
    with mock.patch.object(mub, "_one_digit", _never):
        return export_mubs(m, fmt)


def _render_and_import_by_chunks(sets, monkeypatch):
    """Each set's json exports with the standard basis first, in the middle
    and last, its csv export (which does not record the standard basis),
    and both with shuffled labels, whose runs of one label width are one or
    a few bases long: the bytes are the join's, and each import takes the
    canonical route and gives the set back."""
    with monkeypatch.context() as patch:
        patch.setattr(mub, "_json_checked", _refuse)
        patch.setattr(mub, "_csv_checked", _refuse)
        for m in sets:
            q = m.field.q
            order = np.random.default_rng(q).permutation(q)  # as _shuffled_labels, without json
            shuffled = remade(m, m.exponents[order], a=tuple(m.a[i] for i in order))
            cases = [(dataclasses.replace(m, standard=s), "json") for s in (0, q // 2, q)]
            cases += [(shuffled, "json"), (m, "csv"), (shuffled, "csv")]
            for v, fmt in cases:
                data = export_mubs(v, fmt)
                assert data == _join_export(v, fmt), (q, v.standard, fmt)
                kwargs = {"field": v.field, "construction": v.construction,
                          "poly_text": str(v.poly)} if fmt == "csv" else {}
                back = import_mubs(data, fmt, **kwargs)
                _same_set(back, v if fmt == "json" else dataclasses.replace(v, standard=0))


def _chunks_and_runs(m, fmt):
    """(chunks, runs): the digit pieces of m's export in fmt, and its runs of
    phase bases (json's split by the standard basis)."""
    widths = [len(str(a)) for a in m.a]
    runs = mub._Frames.of(fmt, m.field.q).runs(widths, m.standard)
    chunks = [piece for piece in mub._pieces(m, fmt) if isinstance(piece, np.ndarray)]
    return len(chunks), len(runs)


@pytest.mark.parametrize("p, r", [(3, 4), (5, 3), (3, 5)], ids=["GF(81)", "GF(125)", "GF(243)"])
def test_chunks_of_label_runs_render_as_the_join(p, r, monkeypatch):
    """A chunk holds fewer bases than these sets, so runs of labels of one
    width (1, 2 and 3 digits) are cut into several chunks."""
    sets = [planar_set(p, r)] + ([build_alltop_mubs(make_field(p, r))] if p >= 5 else [])
    for fmt in ("json", "csv"):
        chunks, runs = _chunks_and_runs(sets[0], fmt)
        assert chunks > runs, (fmt, chunks, runs)
    _render_and_import_by_chunks(sets, monkeypatch)


@pytest.mark.parametrize("p, r", [(5, 2), (3, 3), (7, 2)], ids=["GF(25)", "GF(27)", "GF(49)"])
@pytest.mark.parametrize("bases", [1, 3])
def test_small_chunks_render_as_the_join(p, r, bases, monkeypatch):
    """_VERIFY_CHUNK of q^2 and 3 q^2 exponents: chunks of one and of three
    phase bases."""
    q = p**r
    monkeypatch.setattr(mub, "_VERIFY_CHUNK", bases * q * q)
    sets = [planar_set(p, r)] + ([build_alltop_mubs(make_field(p, r))] if p >= 5 else [])
    for fmt in ("json", "csv"):
        chunks, runs = _chunks_and_runs(sets[0], fmt)
        assert chunks > runs, (fmt, chunks, runs)
    _render_and_import_by_chunks(sets, monkeypatch)


def _digit_rows(monkeypatch):
    """Returns a list that collects, for each row view _Frames.rows yields,
    whether it can be written: a chunk being rendered (a digit write) or
    the input being read (a digit read)."""
    calls = []
    rows = mub._Frames.rows

    def recorded(self, frames, lead, pre):
        for item in rows(self, frames, lead, pre):
            calls.append(frames.flags.writeable)
            yield item

    monkeypatch.setattr(mub._Frames, "rows", recorded)
    return calls


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_digit_io_goes_a_run_or_a_chunk_at_a_time(fmt, monkeypatch):
    """A GF(125) export writes its digits once per run of row heads in each
    chunk, and the import reads them once per run of heads in each block,
    a piece of at most a block of bases of a run of bases, then renders the
    chunks again for the tile check: a few dozen numpy passes, where one a
    basis and run of heads made q times that."""
    m = dataclasses.replace(build_alltop_mubs(make_field(5, 3)), standard=62)
    heads = len(mub._Frames.of(fmt, 125).column)  # 2 in json, 3 in csv
    chunks, runs = _chunks_and_runs(m, fmt)
    # each run is cut into blocks of 16 bases from its own start
    step = mub._block_bases(125)
    blocks = sum(-(-(k1 - k0) // step) for k0, k1 in
                 mub._Frames.of(fmt, 125).runs([len(str(a)) for a in m.a], m.standard))
    assert (blocks, step) == ({"json": 10, "csv": 9}[fmt], 16)
    calls = _digit_rows(monkeypatch)
    data = export_mubs(m, fmt)
    assert calls == [True] * heads * chunks
    calls.clear()
    kwargs = {"field": m.field, "construction": "alltop"} if fmt == "csv" else {}
    import_mubs(data, fmt, **kwargs)
    assert sorted(calls) == [False] * heads * blocks + [True] * heads * chunks
    assert runs < blocks and heads * (blocks + chunks) < 125


def test_export_bytes_with_standard_basis_last_are_pinned():
    obj = _standard_last(planar_set(5, 2))
    data = (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    out = export_mubs(import_mubs(data, "json"), "json")
    assert out == data
    assert hashlib.sha256(out).hexdigest() == (
        "eabb75bcbbfe695495b4cac5016d8ecaf323f497cb98c052a6c1575e5077ffb7"
    )


# json exponents that are not ints in [0, p) for p = 5; 65539 wraps to 3 in
# uint16 and 2**64 and 10**30 do not fit int64
BAD_JSON_EXPONENTS = [-1, 5, 65539, 2**64, 10**30, 1.0, True, None, "3"]
BAD_CSV_CELLS = ["-1", "p", "65539", "99999999999999999999", "", "x"]


@pytest.mark.parametrize("value", BAD_JSON_EXPONENTS, ids=repr)
def test_json_import_rejects_bad_exponents(value):
    obj = json.loads(export_mubs(planar_set(5), "json"))
    obj["bases"][2]["vectors"][3][1] = value
    with pytest.raises(ValueError):
        import_mubs(json.dumps(obj), "json")


def _csv_with_cell(m, line, cell, value):
    lines = export_mubs(m, "csv").decode().splitlines(keepends=True)
    fields = lines[line].split(",")
    fields[2 + cell] = value
    lines[line] = ",".join(fields)
    return "".join(lines)


@pytest.mark.parametrize("value", BAD_CSV_CELLS, ids=repr)
def test_csv_import_rejects_bad_cells(value):
    m = planar_set(5)
    with pytest.raises(ValueError):
        import_mubs(_csv_with_cell(m, 8, 1, value), "csv", field=m.field)


def test_csv_import_accepts_non_canonical_integers():
    m = planar_set(5, 2)
    canonical = export_mubs(m, "csv").decode().splitlines(keepends=True)
    edited = canonical[:1]
    for n, line in enumerate(canonical[1:]):
        if n % 3:  # every third line stays canonical
            a, b, *cells = line.rstrip("\n").split(",")
            cells = [("0{}", " {}", "+{}", "{} ")[i % 4].format(c) for i, c in enumerate(cells)]
            line = ",".join([a, b, *cells]) + "\n"
        edited.append(line)
    assert edited[2].split(",")[2:4] == ["0" + canonical[2].split(",")[2],
                                         " " + canonical[2].split(",")[3]]
    back = import_mubs("".join(edited), "csv", field=m.field)
    assert np.array_equal(back.exponents, m.exponents)
    assert export_mubs(back, "csv") == export_mubs(m, "csv")


def test_csv_import_checks_vector_positions():
    # rows "1,0,..." and "1,1,..." are lines 6 and 7 of the GF(5) export
    m = planar_set(5)
    data = export_mubs(m, "csv")
    lines = data.decode().splitlines(keepends=True)
    lines[6], lines[7] = lines[7], lines[6]
    swapped = "".join(lines)
    assert swapped.splitlines()[6].startswith("1,1,")
    with pytest.raises(ValueError):
        import_mubs(swapped, "csv", field=m.field)
    with pytest.raises(ValueError):
        import_mubs(data.decode().replace("\n0,4,", "\n0,7,"), "csv", field=m.field)
    with pytest.raises(ValueError):
        import_mubs(data.decode() + "9\n", "csv", field=m.field)


def test_import_checks_basis_labels():
    m = planar_set(5)
    obj = json.loads(export_mubs(m, "json"))
    obj["bases"][1]["a"] = obj["bases"][2]["a"] = 99
    with pytest.raises(ValueError):
        import_mubs(json.dumps(obj), "json")
    relabelled = export_mubs(m, "csv").decode().replace("\n2,", "\n99,")
    with pytest.raises(ValueError):
        import_mubs(relabelled, "csv", field=m.field)
    for a in ((0, 0, 2, 3, 4), (1, 2, 3, 4, 5), (-1, 1, 2, 3, 4)):
        with pytest.raises(ValueError):
            dataclasses.replace(m, a=a)
    assert dataclasses.replace(m, a=(4, 3, 2, 1, 0)).a == (4, 3, 2, 1, 0)


def test_import_rejects_wrong_modulus():
    m = planar_set(5, r=2)
    obj = json.loads(export_mubs(m, "json"))
    obj["field"]["modulus"] = [1, 0, 1]
    with pytest.raises(ValueError):
        import_mubs(json.dumps(obj), "json")


def test_import_rejects_out_of_range_exponents():
    m = planar_set(5)
    obj = json.loads(export_mubs(m, "json"))
    obj["bases"][1]["vectors"][0][0] = 7  # >= p
    with pytest.raises(ValueError):
        import_mubs(json.dumps(obj), "json")


def test_json_import_matches_given_field_and_construction():
    m = planar_set(5)
    data = export_mubs(m, "json")
    with pytest.raises(FieldMismatch):
        import_mubs(data, "json", field=make_field(7))
    with pytest.raises(FieldMismatch):
        import_mubs(data, "json", field=make_field(5, 2))
    with pytest.raises(ValueError):
        import_mubs(data, "json", construction="alltop")
    back = import_mubs(data, "json", field=make_field(5), construction="planar")
    assert export_mubs(back, "json") == data


def test_import_rejects_unknown_constructions():
    m = planar_set(5)
    data = export_mubs(m, "json").replace(b'"construction":"planar"', b'"construction":"bogus"')
    with pytest.raises(ValueError, match="unknown construction 'bogus'"):
        import_mubs(data, "json")
    with pytest.raises(ValueError, match="unknown construction 'nonsense'"):
        import_mubs(export_mubs(m, "csv"), "csv", field=m.field, construction="nonsense")
    with pytest.raises(ValueError, match="unknown construction"):
        dataclasses.replace(m, construction="cubic")


def test_json_import_matches_given_poly():
    m = planar_set(5)
    data = export_mubs(m, "json")
    with pytest.raises(ValueError, match="generated by x\\^2"):
        import_mubs(data, "json", poly_text="2*x^2")
    with pytest.raises(ValueError):
        import_mubs(data, "json", construction="planar", poly_text="x^2 + x")
    assert export_mubs(import_mubs(data, "json", poly_text=" x^2 "), "json") == data
    assert export_mubs(import_mubs(data, "json"), "json") == data


# every field with q <= 125; p = 11, 13 and q = 121 have two-digit exponents,
# p >= 101 three-digit ones, and q >= 101 three-digit labels
FIELDS_TO_125 = [(p, r) for p in range(3, 126, 2) if all(p % d for d in range(3, p, 2))
                 for r in range(1, 5) if p**r <= 125]


def _same_set(x, y):
    assert np.array_equal(x.exponents, y.exponents)
    assert (x.field, x.a, x.standard, x.poly, x.construction) == (
        y.field, y.a, y.standard, y.poly, y.construction)


@pytest.mark.parametrize("n, p, r", [(n, *f) for n, f in enumerate(FIELDS_TO_125)],
                         ids=[f"GF({p}^{r})" for p, r in FIELDS_TO_125])
def test_canonical_and_checked_imports_agree(n, p, r):
    # one combination per field keeps the sweep near 3 s; n cycles the
    # construction (alltop needs p >= 5), the format and the standard position
    m = planar_set(p, r)
    if n // 2 % 2 and p >= 5:
        m = build_alltop_mubs(m.field)
    if n % 3 == 2:  # standard basis last, labels reversed
        m = dataclasses.replace(m, a=m.a[::-1], standard=m.field.q)
    if n % 2 == 0:
        data = export_mubs(m, "json")
        header = _json_header(json.loads(data), None, None, None)
        fast = _canonical(data, "json", *header)
        slow = MubSet.from_exponents(*header, *_json_checked(json.loads(data), m.field))
    else:
        data = export_mubs(m, "csv")
        header = m.field, *_csv_kind(m.field, m.construction, None)
        fast = _canonical(data, "csv", *header)
        slow = MubSet.from_exponents(*header, *_csv_checked(data, m.field))
        m = dataclasses.replace(m, standard=0)  # csv does not record it
    assert fast is not None
    _same_set(fast, slow)
    _same_set(fast, m)


@pytest.mark.parametrize("construction, default", [(None, "x^2"), ("alltop", "x^3")])
def test_csv_defaults_through_both_routes(construction, default):
    """csv records no construction or polynomial: planar unless given, and
    x^2 for planar or x^3 for alltop unless poly_text is given."""
    field = make_field(7)
    m = planar_set(7) if construction is None else build_alltop_mubs(field)
    data = export_mubs(m, "csv")
    header = field, *_csv_kind(field, construction, None)
    for back in (_canonical(data, "csv", *header),
                 MubSet.from_exponents(*header, *_csv_checked(data, field)),
                 import_mubs(data, "csv", field=field, construction=construction)):
        assert back.construction == m.construction == (construction or "planar")
        assert back.poly == m.poly == parse_poly(default, field)
        _same_set(back, dataclasses.replace(m, standard=0))


def test_import_logs_the_route(caplog):
    caplog.set_level(logging.INFO, logger="planarlab")
    m = planar_set(5, 2)
    data = export_mubs(m, "json")
    obj = json.loads(data)
    csv = export_mubs(m, "csv")
    for doc in (data, json.dumps(obj), json.dumps(obj, indent=1)):
        _same_set(import_mubs(doc, "json"), m)
    for doc in (csv, csv.decode(), csv.replace(b"\n", b"\r\n")):
        _same_set(import_mubs(doc, "csv", field=m.field), m)
    assert [r.getMessage() for r in caplog.records] == [
        "import json GF(25): canonical route",
        "import json GF(25): checked route",
        "import json GF(25): checked route",
        "import csv GF(25): canonical route",
        "import csv GF(25): canonical route",
        "import csv GF(25): checked route",
    ]


MODULUS = (ValueError, "modulus in file does not match the canonical field")
# header edits of the GF(25) planar x^2 export: (edit, import_mubs arguments,
# the error it raises)
HEADER_ERRORS = {
    "field p": (lambda o: o["field"].update(p=7), {}, MODULUS),
    "field r": (lambda o: o["field"].update(r=3), {}, MODULUS),
    "modulus": (lambda o: o["field"].update(modulus=[1, 1, 1]), {}, MODULUS),
    "construction": (lambda o: o.update(construction="cubic"), {},
                     (ValueError, "unknown construction 'cubic'")),
    "poly": (lambda o: o.update(poly="x^+"), {}, (PolySyntaxError, "bad term 'x^'")),
    "poly type": (lambda o: o.update(poly=2), {}, (ValueError, "poly must be a str, not int")),
    "alltop over GF(27)": (
        lambda o: o.update(construction="alltop", field=make_field(3, 3).to_json_dict()), {},
        (CharacteristicTooSmall, "the alltop construction needs characteristic >= 5, got 3")),
    "GF(409)": (lambda o: o.update(field=make_field(409, 1).to_json_dict()), {},
                (BudgetExceeded, "a MUB set over GF(409) has 68417929 phase entries, "
                                 "more than the bound 67108864")),
    "no poly": (lambda o: o.pop("poly"), {}, (KeyError, "'poly'")),
    "no field": (lambda o: o.pop("field"), {}, (KeyError, "'field'")),
    "field=": (None, {"field": make_field(7, 2)},
               (FieldMismatch, "the export is over GF(5^2), not GF(7^2)")),
    "construction=": (None, {"construction": "alltop"},
                      (ValueError, "the export holds a planar set, not a alltop set")),
    "poly_text=": (None, {"poly_text": "2*x^2"},
                   (ValueError, "the export is generated by x^2, not 2*x^2")),
}


@pytest.mark.parametrize("layout", ["canonical", "indent", "header first"])
@pytest.mark.parametrize("case", list(HEADER_ERRORS))
def test_header_errors_are_pinned(case, layout):
    """Each refused header of a valid json document raises one pinned type
    and message, whether its header ends the document as export_mubs writes
    it, is indented, or comes before the bases."""
    edit, kwargs, (kind, message) = HEADER_ERRORS[case]
    obj = json.loads(export_mubs(planar_set(5, 2), "json"))
    if edit is not None:
        edit(obj)
    if layout == "header first":
        obj = {**{k: v for k, v in obj.items() if k != "bases"}, "bases": obj["bases"]}
    text = (json.dumps(obj, indent=1) if layout == "indent"
            else json.dumps(obj, sort_keys=layout == "canonical", separators=(",", ":")) + "\n")
    with pytest.raises(kind) as exc:
        import_mubs(text.encode(), "json", **kwargs)
    assert (type(exc.value), str(exc.value)) == (kind, message)


def test_a_refused_header_reaches_no_body_reader(monkeypatch):
    """The GF(243) planar x^2 json export, 28.8 MB, with its header saying
    alltop: no Alltop function exists in characteristic 3."""
    data = export_mubs(planar_set(3, 5), "json")
    at = data.rfind(b'],"construction":')
    data = data[:at] + data[at:].replace(b'"planar"', b'"alltop"')

    def reached(*args):
        raise AssertionError("a body reader read a refused document")

    for name in ("_bases", "_json_checked", "_csv_checked", "_json_document"):
        monkeypatch.setattr(mub, name, reached)
    with pytest.raises(CharacteristicTooSmall):
        import_mubs(data, "json")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_memory_error_of_the_walker_propagates(monkeypatch, fmt):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(mub, "_bases", exhausted)
    m = planar_set(5, 2)
    with pytest.raises(MemoryError):
        import_mubs(export_mubs(m, fmt), fmt, field=m.field)


def test_a_str_with_a_lone_surrogate_is_judged_as_text():
    """A str no codec can encode is still a json text: its header is read
    by the whole-document parse."""
    text = export_mubs(planar_set(5), "json").decode().replace('"x^2"', '"x^2\ud800"')
    with pytest.raises(PolySyntaxError, match="bad term"):
        import_mubs(text, "json")


@pytest.mark.parametrize("fmt, p, r", [("json", 7, 2), ("csv", 7, 2), ("float-json", 7, 2),
                                        ("json", 5, 3), ("csv", 5, 3)],
                         ids=["json", "csv", "float-json", "json-GF(125)", "csv-GF(125)"])
def test_an_export_holds_one_document(fmt, p, r):
    """export_mubs writes its pieces into one buffer: its traced peak stays
    under 1.5 documents, where joining a list of the pieces held two.  At
    GF(125) a one-digit chunk holds 15 of the 125 bases."""
    m = planar_set(p, r)
    size = len(export_mubs(m, fmt))
    tracemalloc.start()
    try:
        export_mubs(m, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size, (peak, size)


def _import_outcome(import_, *args, **kwargs):
    try:
        return import_(*args, **kwargs)
    except Exception as exc:  # the type is the outcome
        return type(exc)


def _exponent_digits(data):
    """Positions of the one-digit tokens of a one-digit export: exponents,
    and csv positions b below 10."""
    return [i for i in range(1, len(data) - 1)
            if data[i - 1] in b",[" and data[i] in b"0123456789" and data[i + 1] in b",]\n"]


def _mutations(data, p, rng):
    """Edits of an export: 40 one-byte substitutions, then byte insertions
    and deletions, values >= p and two-digit tokens in place of one-digit
    ones, CRLF line ends and a missing final newline."""
    alphabet = list(b'0123456789,[]{}" \n-:at')
    for _ in range(40):
        pos = int(rng.integers(len(data)))
        yield data[:pos] + bytes([rng.choice(alphabet)]) + data[pos + 1 :]
    for _ in range(10):
        pos = int(rng.integers(len(data) + 1))
        yield data[:pos] + bytes([rng.choice(alphabet)]) + data[pos:]
    for _ in range(10):
        pos = int(rng.integers(len(data)))
        yield data[:pos] + data[pos + 1 :]
    digits = _exponent_digits(data)
    for n in range(12):
        pos = digits[int(rng.integers(len(digits)))]
        d = chr(data[pos])
        token = (str(int(rng.integers(p, max(p + 1, 10)))), "0" + d, d + d, "1" + d)[n % 4]
        yield data[:pos] + token.encode() + data[pos + 1 :]
    yield data.replace(b"\n", b"\r\n")
    yield data[:-1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_one_byte_mutations_import_as_the_checked_parser_does(fmt):
    rng = np.random.default_rng(2024)
    accepted = rejected = 0
    for m in (build_alltop_mubs(make_field(5, 2)), planar_set(3, 3), planar_set(11),
              build_alltop_mubs(make_field(13))):
        data = export_mubs(dataclasses.replace(m, standard=7), fmt)
        kwargs = {"field": m.field, "construction": m.construction} if fmt == "csv" else {}
        for n, mutated in enumerate(_mutations(data, m.field.p, rng)):
            got = _import_outcome(import_mubs, mutated, fmt, **kwargs)
            with mock.patch.object(mub, "_canonical", lambda *args: None):
                want = _import_outcome(import_mubs, mutated, fmt, **kwargs)
            if isinstance(want, type):
                assert got is want, (n, mutated)
                rejected += 1
            else:
                _same_set(got, want)
                accepted += 1
    assert accepted and rejected


def _edge_positions(m, fmt):
    """Byte positions of m's export at the edges of the canonical route's
    pieces: the first and last byte of each piece (prologue, chunk, standard
    basis, epilogue), and the labels on both sides of the width steps 9 -> 10
    and 99 -> 100."""
    ends = np.cumsum([len(piece) for piece in mub._pieces(m, fmt)]).tolist()
    spots = {0} | {e - 1 for e in ends} | set(ends[:-1])
    data = export_mubs(m, fmt)
    for before, after in ((9, 10), (99, 100)):
        if fmt == "json":
            first = data.index(b'{"a":%d,' % after) + len(b'{"a":')
            last = data.index(b'{"a":%d,' % before) + len(b'{"a":')
        else:
            first = data.index(b"\n%d,0," % after) + 1
            last = data.rindex(b"\n%d," % before, 0, first) + 1
        spots |= {first, first + len(str(after)) - 1, last, last + len(str(before)) - 1}
    return sorted(spots)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_mutations_at_chunk_and_width_edges_import_as_the_checked_parser_does(fmt):
    """One-byte substitutions where a GF(125) export's chunks, runs and label
    widths meet.  When the canonical route declines a mutant, the import's
    outcome is the checked body reader's by construction; when it keeps one,
    the checked reader, run alone, must give the same set."""
    m = dataclasses.replace(build_alltop_mubs(make_field(5, 3)), standard=62)
    kwargs = {"field": m.field, "construction": m.construction} if fmt == "csv" else {}
    data = export_mubs(m, fmt)
    alphabet = b'0123456789,[]{}" \n-:a'
    declined = []
    canonical = mub._canonical

    def recorded(*args):
        out = canonical(*args)
        declined.append(out is None)
        return out

    for n, pos in enumerate(_edge_positions(m, fmt)):
        subs = [c for c in alphabet if c != data[pos]]
        mutated = data[:pos] + bytes([subs[n % len(subs)]]) + data[pos + 1 :]
        declined.clear()
        with mock.patch.object(mub, "_canonical", recorded):
            got = _import_outcome(import_mubs, mutated, fmt, **kwargs)
        if declined == [True]:
            continue
        with mock.patch.object(mub, "_canonical", lambda *args: None):
            want = _import_outcome(import_mubs, mutated, fmt, **kwargs)
        if isinstance(want, type):
            assert got is want, (n, pos)
        else:
            _same_set(got, want)
    assert len(_edge_positions(m, fmt)) > 20


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field=st.sampled_from(UNIFORM_WIDTH_FIELDS), seed=st.integers(0, 2**32 - 1),
       fmt=st.sampled_from(["json", "csv"]))
def test_one_digit_tables_render_as_the_join_and_import_by_position(field, seed, fmt):
    # arbitrary exponent tables, not a construction's, so every digit can
    # sit anywhere
    fld = make_field(*field)
    q = fld.q
    rng = np.random.default_rng(seed)
    m = MubSet.from_exponents(fld, "planar", parse_poly("x^2", fld),
                              tuple(rng.permutation(q).tolist()),
                              rng.integers(0, fld.p, (q, q, q), dtype=np.uint16),
                              int(rng.integers(q + 1)))
    data = export_mubs(m, fmt)
    with mock.patch.object(mub, "_one_digit", _never):  # every basis by _rows_join
        assert export_mubs(m, fmt) == data
    # the canonical route itself: import_mubs would refuse these labels
    back = _canonical(data, fmt, fld, "planar", m.poly)
    _same_set(back, m if fmt == "json" else dataclasses.replace(m, standard=0))
    with pytest.raises(MislabelledImport):
        import_mubs(data, fmt, **({"field": fld} if fmt == "csv" else {}))


@pytest.mark.parametrize("value", [5, 60000])
def test_mub_set_refuses_exponents_outside_zp(value):
    """An exponent of p or more would export a token no import reads, or
    overrun the histograms' 2p bins a pair."""
    m = planar_set(5)
    exps = m.exponents.copy()
    exps[2, 3, 1] = value
    with pytest.raises(ValueError, match=r"in \[0, 5\)"):
        remade(m, exps)


def _json_bytes(obj, canonical):
    """The document as export_mubs writes it, or indented so that only the
    checked body reader reads it."""
    if canonical:
        return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    return json.dumps(obj, indent=1).encode()


def _swap_labels(obj):
    obj["bases"][1]["a"], obj["bases"][2]["a"] = obj["bases"][2]["a"], obj["bases"][1]["a"]


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("alltop,edit,message", [
    (False, {"construction": "alltop", "poly": "x^3"},
     "phase basis 0 is not the alltop basis a = 0 of x^3"),
    (True, {"construction": "planar", "poly": "x^2"},
     "phase basis 0 is not the planar basis a = 0 of x^2"),
    (False, {"poly": "2*x^2"}, "phase basis 1 is not the planar basis a = 1 of 2*x^2"),
    (False, _swap_labels, "phase basis 0 is not the planar basis a = 1 of x^2"),
], ids=["planar-as-alltop", "alltop-as-planar", "other-pi", "swapped-labels"])
def test_a_relabelled_json_export_is_refused(alltop, edit, message, canonical):
    m = build_alltop_mubs(make_field(7)) if alltop else planar_set(7)
    obj = json.loads(export_mubs(m, "json"))
    if callable(edit):
        edit(obj)
    else:
        obj.update(edit)
    with pytest.raises(MislabelledImport, match=f"^{re.escape(message)}$"):
        import_mubs(_json_bytes(obj, canonical), "json")


@pytest.mark.parametrize("crlf", [False, True])
def test_csv_imports_take_the_construction_their_vectors_match(crlf):
    """With no construction given, a csv set is planar x^2 or alltop x^3,
    whichever its vectors match; a construction or pi given must match.
    CRLF line ends take the checked body reader."""
    fld = make_field(7)
    planar, alltop = planar_set(7), build_alltop_mubs(fld)

    def csv(m):
        data = export_mubs(m, "csv")
        return data.replace(b"\n", b"\r\n") if crlf else data

    for m, other in [(planar, "alltop"), (alltop, "planar")]:
        _same_set(import_mubs(csv(m), "csv", field=fld), m)
        _same_set(import_mubs(csv(m), "csv", field=fld, construction=m.construction), m)
        with pytest.raises(MislabelledImport, match=f"not the {other} basis"):
            import_mubs(csv(m), "csv", field=fld, construction=other)
    with pytest.raises(MislabelledImport, match="^phase basis 1 is not the planar basis a = 1 "
                                                "of 2\\*x\\^2$"):
        import_mubs(csv(planar), "csv", field=fld, construction="planar", poly_text="2*x^2")
    swapped = dataclasses.replace(planar, a=(1, 0, *range(2, 7)))
    with pytest.raises(MislabelledImport, match="^phase basis 0 is not the planar basis a = 1 "
                                                "of x\\^2; phase basis 0 is not the alltop "):
        import_mubs(csv(swapped), "csv", field=fld)


def _alltop_shape_9():
    """The GF(9) set whose basis a is tr((x + a)^3 + b * (x + a)), labelled
    planar x^2.  x^3 is additive over GF(9), so every basis is basis 0 up to
    phases: no Alltop set exists in characteristic 3."""
    fld = make_field(3, 2)
    enc = fld.encodings
    y = fld.add_vec(enc[None, None, :], enc[:, None, None])  # x + a
    exps = fld.trace_table[fld.add_vec(fld.pow_vec(y, 3), fld.mul_vec(enc[None, :, None], y))]
    return MubSet.from_exponents(fld, "planar", parse_poly("x^2", fld), tuple(range(9)),
                                 exps.astype(np.uint16))


@pytest.mark.parametrize("canonical", [True, False])
def test_no_route_makes_an_alltop_set_in_characteristic_3(canonical):
    m = _alltop_shape_9()
    fld = m.field
    assert not verify_mub_set(m).passed
    csv = export_mubs(m, "csv") if canonical else export_mubs(m, "csv").replace(b"\n", b"\r\n")
    with pytest.raises(MislabelledImport, match="^phase basis 0 is not the planar basis a = 0 "
                                                "of x\\^2$"):  # the guess skips alltop
        import_mubs(csv, "csv", field=fld)
    with pytest.raises(CharacteristicTooSmall):
        import_mubs(csv, "csv", field=fld, construction="alltop")
    obj = json.loads(export_mubs(m, "json"))
    obj.update(construction="alltop", poly="x^3")
    with pytest.raises(CharacteristicTooSmall):
        import_mubs(_json_bytes(obj, canonical), "json")
    with pytest.raises(CharacteristicTooSmall):
        dataclasses.replace(m, construction="alltop", poly=parse_poly("x^3", fld))
    with pytest.raises(CharacteristicTooSmall):
        build_alltop_mubs(fld)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(field=st.sampled_from([(p, r) for p in (3, 5, 7, 11) for r in (1, 2) if p**r <= 49]),
       data=st.data())
def test_builder_output_passes_the_label_check(field, data):
    """Planar sets of c * x^(p^k + 1) plus affine terms, for every planar k,
    and the alltop set: their labels hold, through json and csv alike."""
    fld = make_field(*field)
    p, r = field
    planar_k = [k for k in range(r) if mub.classify.is_do_monomial_planar(p, r, k)]
    k = data.draw(st.sampled_from(planar_k))
    coeffs = st.integers(0, fld.q - 1)
    pi = Poly(fld, {p**k + 1: data.draw(st.integers(1, fld.q - 1)), 1: data.draw(coeffs),
                    0: data.draw(coeffs)})
    sets = [build_planar_mubs(fld, pi)] + ([build_alltop_mubs(fld)] if p >= 5 else [])
    for m in sets:
        assert mub._check_labels(m, False) is m
        _same_set(import_mubs(export_mubs(m, "json"), "json"), m)
        _same_set(import_mubs(export_mubs(m, "csv"), "csv", field=fld,
                              construction=m.construction, poly_text=str(m.poly)), m)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("alltop", [False, True])
def test_a_corrupted_row_0_still_imports_and_fails_verification(fmt, alltop):
    """A basis's reference row comes from its largest group of rows, so a
    flipped exponent in row 0 neither hides the label nor passes verify."""
    fld = make_field(7)
    m = corrupt(build_alltop_mubs(fld) if alltop else planar_set(7), k=3, b=0, x=2)
    back = import_mubs(export_mubs(m, fmt), fmt, **({"field": fld} if fmt == "csv" else {}))
    _same_set(back, m)
    report = verify_mub_set(back)
    assert not report.passed
    assert all((4, 0) in ((v.basis_i, v.vector_i), (v.basis_j, v.vector_j))
               for v in report.violations)


def _standard_last(m):
    obj = json.loads(export_mubs(m, "json"))
    obj["bases"].append(obj["bases"].pop(0))
    return obj


def test_json_standard_basis_last_roundtrip():
    obj = _standard_last(planar_set(5))
    data = (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    back = import_mubs(data, "json")
    assert back.standard == 5 and back.phase_bases() == [0, 1, 2, 3, 4]
    assert export_mubs(back, "json") == data
    rep = verify_mub_set(back)
    assert rep.passed and rep.num_bases == 6


def test_json_standard_basis_last_violations():
    # digest of the report made by the earlier tuple-of-vectors representation
    obj = _standard_last(planar_set(5))
    row = obj["bases"][2]["vectors"][3]
    row[1] = (row[1] + 1) % 5
    rep = verify_mub_set(import_mubs(json.dumps(obj), "json"))
    assert len(rep.violations) == 24
    v = rep.violations[0]
    assert (v.kind, v.basis_i, v.vector_i, v.basis_j, v.vector_j) == (
        "orthonormality", 2, 0, 2, 3)
    digest = hashlib.sha256(json.dumps(rep.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "56aacde3527abfc2c6ce9f5ba6e1af41f0e9455330cef627a31c5be5f8de09a8"
    )


def test_builds_are_deterministic():
    a = export_mubs(planar_set(5, r=2), "json")
    b = export_mubs(planar_set(5, r=2), "json")
    assert a == b


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_mubs(planar_set(5), "xml")


def test_import_refuses_unknown_format_and_csv_without_field():
    m = planar_set(5)
    with pytest.raises(ValueError, match="unknown import format 'xml'"):
        import_mubs(export_mubs(m, "json"), "xml")
    with pytest.raises(ValueError, match="csv import needs the field"):
        import_mubs(export_mubs(m, "csv"), "csv")


@pytest.mark.parametrize("depth", [900, 1100, 100_000])
def test_deeply_nested_json_import_raises_value_error(depth):
    nested = b"[" * depth + b"]" * depth
    with pytest.raises(ValueError):
        import_mubs(nested, "json")
    data = export_mubs(planar_set(5), "json")  # canonical bases, then a deep header tail
    with pytest.raises(ValueError):
        import_mubs(data.replace(b'"planar"', nested), "json")


# ---------------------------------------------------------------------------
# storage: a set keeps its bases as reference rows, constants and exceptions
# ---------------------------------------------------------------------------

def _certified_rows(exps, field):
    """(ref, good): the reference row ref[k] of each phase basis k of the
    (q, q, q) exponent array and the mask good[k] of its certified rows, as
    sets computed them when they kept all q^3 exponents: row b less row 0
    and less tr(b * x), taken up to a constant, is normalised; the largest
    group of equal normalised rows, ties going to the group of the smallest
    b, is certified, and ref[k] is row 0 plus their normalised row."""
    p = field.p
    ref, good = exps[:, 0].astype(np.int64), np.ones(exps.shape[:2], dtype=bool)
    for k, basis in enumerate(exps.astype(np.int64)):
        rest = (basis - basis[0] - field.trace_bilinear) % p
        norm = (rest - rest[:, :1]) % p
        if norm.any():
            _, first, group, size = np.unique(norm, axis=0, return_index=True,
                                              return_inverse=True, return_counts=True)
            best = np.lexsort((first, -size))[0]
            ref[k] = (basis[0] + norm[first[best]]) % p
            good[k] = group.ravel() == best
    return ref, good


def _oracle_exponents(m):
    """The q^3 exponents of m's construction and labels by the field's
    arithmetic, a basis at a time: tr(a * pi(x) + b * x), or
    tr(f(x + a) + b * (x + a))."""
    fld = m.field
    b, x = fld.encodings[:, None], fld.encodings[None, :]
    values = m.poly.value_table()
    exps = np.empty((fld.q,) * 3, dtype=np.uint16)
    for k, a in enumerate(m.a):
        if m.construction == "planar":
            arg = fld.add_vec(fld.mul_vec(a, values[x]), fld.mul_vec(b, x))
        else:
            y = fld.add_vec(x, a)
            arg = fld.add_vec(values[y], fld.mul_vec(b, y))
        exps[k] = fld.trace_table[arg]
    return exps


def _oracle_exports(m, exps):
    """m's json and csv bytes written from the exponent array by joins of
    decimals, as the exports were first defined."""
    q = m.field.q
    texts = [[",".join(map(str, row)) for row in basis] for basis in exps.tolist()]
    bases = ['{"a":%d,"vectors":[%s]}' % (a, ",".join(f"[{row}]" for row in rows))
             for a, rows in zip(m.a, texts)]
    bases.insert(m.standard, '{"standard":true}')
    header = json.dumps({"bases": 0, "construction": m.construction,
                         "field": m.field.to_json_dict(), "poly": str(m.poly)},
                        sort_keys=True, separators=(",", ":"))
    js = header.replace('"bases":0', '"bases":[%s]' % ",".join(bases), 1) + "\n"
    lines = ["basis,b," + ",".join(f"x{i}" for i in range(q))]
    lines += [f"{a},{b},{row}" for a, rows in zip(m.a, texts) for b, row in enumerate(rows)]
    return js.encode(), ("\n".join(lines) + "\n").encode()


def _verified(m, caplog):
    """(report, INFO line) of verify_mub_set(m)."""
    caplog.clear()
    report = verify_mub_set(m)
    (info,) = [r.getMessage() for r in caplog.records if r.name == "planarlab"]
    return report, info


def _assert_the_old_definition(m, exps, caplog, imports=True):
    """m's exponents are exps; its form is the old certificate of exps with
    each vector's constant, its value at 0 less row 0's, and the uncertified
    rows; its INFO line counts the certificate's bases and vectors; its json
    and csv exports are exps written out, and with `imports` they import to
    the same form, labels and standard position, which are all that
    verify_mub_set reads.  Returns m's report."""
    p, q = m.field.p, m.field.q
    ref, good = _certified_rows(exps, m.field)
    assert np.array_equal(m.exponents, exps)
    assert np.array_equal(m._form.ref, ref) and np.array_equal(m._form.good, good)
    assert np.array_equal(m._form.const, (exps[:, :, 0].astype(np.int64) - exps[:, :1, 0]) % p)
    assert np.array_equal(m._form.extra, exps[~good])
    report, info = _verified(m, caplog)
    assert info.startswith(
        f"verify GF({q}): {good.all(axis=1).sum()} of {q} phase bases pass the translation "
        f"certificate; {q * q - good.sum()} of {q * q} phase vectors uncertified, ")
    if q > 125:
        return report
    js, cs = _oracle_exports(m, exps)
    assert export_mubs(m, "json") == js and export_mubs(m, "csv") == cs
    if not imports:
        return report
    back_js = import_mubs(js, "json")
    back_cs = import_mubs(cs, "csv", field=m.field, construction=m.construction,
                          poly_text=str(m.poly))
    for back in (back_js, back_cs):
        assert _form_bytes(back) == _form_bytes(m)
        assert (back.a, back.standard) == (m.a, m.standard if back is back_js else 0)
    if q <= 49:
        assert export_mubs(back_js, "float-json") == export_mubs(m, "float-json")
    return report


# every field with q <= 125 and both constructions; above q = 49 one
# construction a field, in turn
DIFFERENTIAL_SETS = [(c, p, r) for n, (p, r) in enumerate(FIELDS_TO_125)
                     for c in ("planar", "alltop")
                     if (c == "planar" or p >= 5)
                     and (p**r <= 49 or p < 5 or (c == "alltop") == bool(n % 2))]


@pytest.mark.parametrize("n, construction, p, r",
                         [(n, *s) for n, s in enumerate(DIFFERENTIAL_SETS)],
                         ids=[f"{c}-GF({p}^{r})" for c, p, r in DIFFERENTIAL_SETS])
def test_the_form_matches_the_old_definition(n, construction, p, r, caplog):
    """The built set, the set with its standard basis at q // 2, and the set
    with shuffled labels and the standard basis last, made by the public
    constructor (which certifies it).  Above q = 49 one of the three, in
    turn, with imports only where exponents are one digit, keeps the sweep
    near 10 s."""
    caplog.set_level(logging.INFO, logger="planarlab")
    m = _pinned_set(construction, p, r)
    q = m.field.q
    order = np.random.default_rng(q).permutation(q)
    variants = [lambda: m, lambda: dataclasses.replace(m, standard=q // 2),
                lambda: remade(m, m.exponents[order], a=tuple(np.array(m.a)[order].tolist()),
                               standard=q)]
    for variant in variants if q <= 49 else [variants[n % 3]]:
        v = variant()
        report = _assert_the_old_definition(v, _oracle_exponents(v), caplog, q <= 49 or p <= 7)
        assert report.passed


CORRUPTED_SETS = {
    # criterion 17's corrupted GF(125) and GF(343) sets, with the length of
    # their reports
    "planar-125-one-row": (lambda: planar_set(5, 3), [(100, 17, 3, 1)], 125**2 - 1),
    "planar-125-three-rows": (lambda: planar_set(5, 3),
                              [(100, 0, 3, 1), (100, 40, 7, 2), (100, 77, 0, 4)],
                              3 * (125**2 - 1) - 3),
    "alltop-343-one-row": (lambda: build_alltop_mubs(make_field(7, 3)), [(200, 17, 5, 3)],
                           343**2 - 1),
    # the non-planar sets of test_certified_kernel_matches_generic_on_non_planar_sets,
    # with the digests of their reports
    **{f"{pi}-{p**r}": (lambda p=p, r=r, pi=pi: unchecked_planar_set(p, r, pi), [], digest)
       for p, r, pi, digest in NON_PLANAR_REPORTS},
}


@pytest.mark.parametrize("build, cells, want", CORRUPTED_SETS.values(), ids=CORRUPTED_SETS)
def test_corrupted_and_non_planar_forms_match_the_old_definition(build, cells, want, caplog):
    caplog.set_level(logging.INFO, logger="planarlab")
    m = build()
    exps = _oracle_exponents(m)
    for k, b, x, step in cells:
        exps[k, b, x] = (int(exps[k, b, x]) + step) % m.field.p
    report = _assert_the_old_definition(flipped(m, *cells), exps, caplog)
    if cells:
        assert len(report.violations) == want
    else:
        text = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == want


def _kept(m):
    """Bytes of each part of m's form."""
    return [part.nbytes for part in m._form]


@pytest.mark.parametrize("construction", ["planar", "alltop"])
def test_a_set_keeps_o_q2_bytes(construction):
    """At q = 125 a built set and its json and csv canonical imports keep
    5 q^2 bytes, and building the three traces a peak below one (q, q, q)
    uint16 array."""
    fld = make_field(5, 3)
    q = fld.q
    m = _pinned_set(construction, 5, 3)
    js, cs = export_mubs(m, "json"), export_mubs(m, "csv")
    tracemalloc.start()
    try:
        sets = [_pinned_set(construction, 5, 3), import_mubs(js, "json"),
                import_mubs(cs, "csv", field=fld, construction=construction)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * q**3, peak
    for s in sets:
        assert _kept(s) == [2 * q * q, 2 * q * q, q * q, 0]
        assert all(part.base is None for part in s._form)  # owned, not views


def test_a_corrupted_set_keeps_a_row_per_uncertified_vector():
    """Criterion 17's corrupted GF(125) sets, made by the public constructor
    and imported from json: q^2 bytes a part plus each bad vector's row."""
    m = planar_set(5, 3)
    q = m.field.q
    for cells in ([(100, 17, 3, 1)], [(100, 0, 3, 1), (100, 40, 7, 2), (100, 77, 0, 4)]):
        bad = flipped(m, *cells)
        back = import_mubs(export_mubs(bad, "json"), "json")
        for s in (bad, back):
            assert _kept(s) == [2 * q * q, 2 * q * q, q * q, 2 * q * len(cells)]
