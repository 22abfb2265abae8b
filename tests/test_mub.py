import dataclasses
import hashlib
import json
import logging
import time

import numpy as np
import pytest

from planarlab.classify import is_planar
from planarlab.cyclo import mag_sq, phase_inner_counts
from planarlab.errors import BudgetExceeded, CharacteristicTooSmall, FieldMismatch, NotPlanar
from planarlab.field import make_field
from planarlab.mub import (
    MAX_PHASE_ENTRIES,
    MubSet,
    _pair_violations,
    _translation_certified,
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


def corrupt(m, k=0, b=0, x=0):
    """Copy with the phase exponent [k, b, x] perturbed."""
    exps = m.exponents.copy()
    exps[k, b, x] = (exps[k, b, x] + 1) % m.field.p
    return dataclasses.replace(m, exponents=exps)


def unchecked_planar_set(p, r, pi_text):
    """The planar construction from any polynomial, planar or not."""
    field = make_field(p, r)
    pi = parse_poly(pi_text, field)
    ta = field.trace_table[field.mul_vec(field.encodings[:, None], pi.value_table()[None, :])]
    exps = (ta[:, None, :] + field.trace_bilinear[None, :, :]) % field.p
    return MubSet(field, "planar", pi, tuple(range(field.q)), exps.astype(np.uint16))


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
    for k, a in enumerate(m.a):
        for b in range(5):
            for x in range(5):
                want = field.trace(field.add(field.mul(a, pi(x).enc), field.mul(b, x)))
                assert m.exponents[k, b, x] == want


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
    for k, a in enumerate(m.a):
        for b in range(7):
            for x in range(7):
                y = field.add(x, a)
                want = field.trace(field.add(field.pow(y, 3), field.mul(b, y)))
                assert m.exponents[k, b, x] == want


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
        dataclasses.replace(m, exponents=m.exponents[:-1], a=m.a[:-1])
    with pytest.raises(ValueError):
        dataclasses.replace(m, exponents=m.exponents[:, :-1])
    with pytest.raises(ValueError):
        dataclasses.replace(m, a=m.a[:-1])
    with pytest.raises(ValueError):
        dataclasses.replace(m, exponents=m.exponents.astype(np.int64))
    for standard in (-1, 6):
        with pytest.raises(ValueError):
            dataclasses.replace(m, standard=standard)


def test_exponents_are_read_only():
    m = planar_set(5)
    with pytest.raises(ValueError):
        m.exponents[0, 0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.standard = 1
    exps = m.exponents.copy()
    m2 = dataclasses.replace(m, exponents=exps)
    with pytest.raises(ValueError):
        m2.exponents[0, 0, 0] = 1


def test_verify_parallel_matches_serial():
    m = planar_set(7)
    serial = verify_mub_set(m, workers=1)
    parallel = verify_mub_set(m, workers=2)
    assert serial.to_json_dict() == parallel.to_json_dict()
    mc = corrupt(m)
    assert (
        verify_mub_set(mc, workers=1).to_json_dict()
        == verify_mub_set(mc, workers=2).to_json_dict()
    )


def test_verify_caps_workers_at_the_machine(inline_pool):
    m = corrupt(planar_set(7))
    assert verify_mub_set(m, workers=64).to_json_dict() == (
        verify_mub_set(m, workers=1).to_json_dict()
    )
    assert inline_pool == [2]


def generic_violations(m):
    """The report's violations from the generic kernel over every basis pair,
    diagonal pairs first, as tuples in report order."""
    p, q = m.field.p, m.field.q
    idx = m.phase_bases()
    mats = [m.exponent_matrix(k) for k in range(q)]
    pairs = [(k, k) for k in range(q)] + [(k, l) for k in range(q) for l in range(k + 1, q)]
    out = []
    for k, l in pairs:
        out += _pair_violations(p, q, mats[k], mats[l], idx[k], idx[l])
    return out


def report_violations(m, workers=1):
    return verify_mub_set(m, workers=workers).violations


def uncertified(m):
    tb = m.field.trace_bilinear
    return [k for k in range(m.field.q)
            if not _translation_certified(m.field.p, tb, m.exponent_matrix(k))]


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


def test_kernels_agree_across_workers(inline_pool):
    m = corrupt(unchecked_planar_set(7, 1, "x^3"), k=4, b=2, x=0)
    assert report_violations(m, workers=2) == report_violations(m) == generic_violations(m)
    assert inline_pool == [2]


def literal_violations(m):
    """The report's violations from the definition: one phase-difference
    histogram and one cyclo.mag_sq per vector pair, basis pairs in report
    order, v >= u within a basis."""
    p, q = m.field.p, m.field.q
    idx = m.phase_bases()
    pairs = [(k, k) for k in range(q)] + [(k, l) for k in range(q) for l in range(k + 1, q)]
    out = []
    for k, l in pairs:
        kind = "orthonormality" if k == l else "unbiasedness"
        for u in range(q):
            for v in range(u if k == l else 0, q):
                res = mag_sq(phase_inner_counts(m.exponents[k, u], m.exponents[l, v], p))
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
    assert [r.name for r in caplog.records] == ["planarlab", "planarlab"]
    assert [r.levelno for r in caplog.records] == [logging.INFO] * 2
    assert [r.getMessage() for r in caplog.records] == [
        "verify GF(25): 25 of 25 phase bases pass the translation certificate; "
        "325 basis pairs by the certified kernel, 0 by the generic kernel",
        "verify GF(25): 24 of 25 phase bases pass the translation certificate; "
        "300 basis pairs by the certified kernel, 25 by the generic kernel",
    ]


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
