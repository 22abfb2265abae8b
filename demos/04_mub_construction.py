"""Complete MUB sets from planar functions and from shifted cubics,
verified exactly in integer arithmetic."""

import json

from planarlab import (
    MubSet,
    build_alltop_mubs,
    build_planar_mubs,
    export_mubs,
    import_mubs,
    make_field,
    parse_poly,
    verify_mub_set,
)

f7 = make_field(7)

m = build_planar_mubs(f7, parse_poly("x^2", f7))
report = verify_mub_set(m)
print(f"planar construction over GF(7): {report.num_bases} bases")
print(f"  verification: passed={report.passed}, "
      f"{report.pairs_checked} vector pairs checked exactly")

m2 = build_alltop_mubs(f7)
report2 = verify_mub_set(m2)
print(f"cubic construction over GF(7): {report2.num_bases} bases, passed={report2.passed}")

print()
print("exports are exact phase-exponent tables; a json round trip is bit-exact:")
data = export_mubs(m, "json")
assert export_mubs(import_mubs(data, "json"), "json") == data
print("  first basis row:", json.loads(data)["bases"][1]["vectors"][0])

print()
print("corrupting a single exponent is caught and localized:")
exps = m.exponents.copy()  # [phase basis, vector, entry], rendered read-only on demand
exps[0, 0, 0] = (exps[0, 0, 0] + 1) % 7
bad = MubSet.from_exponents(m.field, m.construction, m.poly, m.a, exps, m.standard)
bad_report = verify_mub_set(bad)
v = bad_report.violations[0]
got = v.value if v.is_rational_integer else f"non-integral d={v.autocorrelation}"
print(f"  passed={bad_report.passed}; first violation: basis {v.basis_i} vector "
      f"{v.vector_i} vs basis {v.basis_j} vector {v.vector_j} "
      f"(expected {v.expected}, got {got})")
