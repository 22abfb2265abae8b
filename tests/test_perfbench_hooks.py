"""The benchmark harness under perfbench/ binds names of the package: the
tracer wraps kernels, tables, methods and `classify._perm_rows_ok`, and the
worker touches each workload's tables and sums `FieldSpec._cache`.  A
change that drops one of those names fails here, not in a benchmark run."""

import logging
import sys
from pathlib import Path

import numpy as np
import pytest

import planarlab
from planarlab.field import FieldSpec, make_field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracer
    import workloads

    return tracer, workloads


def test_the_tracer_installs_and_restores_every_hook(harness):
    tracer, _ = harness
    before = {mod: dict(vars(mod)) for mod in (planarlab.classify, planarlab.mub)}
    t = tracer.Tracer(planarlab)
    try:
        t.install()  # inside the try: a failed install leaves no patch behind
        assert planarlab.classify._perm_rows_ok is not before[planarlab.classify]["_perm_rows_ok"]
        field = make_field(5, 2)
        for name in tracer.TABLES:  # the traced properties read FieldSpec._cache
            getattr(field, name)
        assert planarlab.classify.is_planar(planarlab.parse_poly("x^2", field))
    finally:
        t.uninstall()
    assert t.calls["field.table_hit"] + t.calls["field.table_build"] == len(tracer.TABLES)
    assert t.counts["classify.rows_checked"] == 0  # the certificate decides x^2
    for mod, attrs in before.items():
        assert dict(vars(mod)) == attrs


def test_every_workload_table_is_a_field_attribute(harness):
    _, workloads = harness
    field = make_field(5, 2)
    for names in workloads.TABLES.values():
        for name in names:
            assert isinstance(getattr(FieldSpec, name), property), name
            getattr(field, name)
    assert sum(arr.nbytes for arr in field._cache.values()) > 0


def test_both_builders_keep_their_own_spans(harness):
    """The worker's mub.build_s sums the self time of the two public
    builders, so the kernel they share must not take a span of its own."""
    tracer, _ = harness
    t = tracer.Tracer(planarlab)
    field = make_field(5, 2)
    try:
        t.install()
        planarlab.build_planar_mubs(field, planarlab.parse_poly("x^2", field))
        planarlab.build_alltop_mubs(field)
    finally:
        t.uninstall()
    builders = {"mub.build_planar_mubs", "mub.build_alltop_mubs"}
    assert {name for name in t.calls if name.startswith("mub.")} == builders
    for name in builders:
        assert t.calls[name] == 1 and t.self_s[name] > 0, name


def test_a_traced_export_and_import_take_the_mub_hooks(harness):
    """The tracer's export and import hooks count a set's entries through
    MubSet.phase_bases, and it traces MubSet.exponent_matrix as a span: a
    MubSet without either name fails here."""
    tracer, _ = harness
    t = tracer.Tracer(planarlab)
    field = make_field(5, 2)
    try:
        t.install()
        m = planarlab.build_planar_mubs(field, planarlab.parse_poly("x^2", field))
        data = planarlab.export_mubs(m, "json")
        back = planarlab.import_mubs(data, "json")
        matrix = back.exponent_matrix(3)
        report = planarlab.verify_mub_set(back)
    finally:
        t.uninstall()
    for name in ("mub.export_mubs", "mub.import_mubs", "mub.MubSet.exponent_matrix",
                 "mub.verify_mub_set"):
        assert t.calls[name] == 1, name
    assert t.counts["mub.io_bytes"] == 2 * len(data)
    assert t.counts["mub.phase_entries"] == 2 * 25**3
    assert t.counts["mub.vector_pairs"] == report.pairs_checked
    assert matrix.dtype == np.int64 and np.array_equal(matrix, m.exponents[3])


def test_the_benchmark_imports_take_the_canonical_route(harness, caplog):
    """mub-verify's verify-import inputs and mub-io's round-trip documents
    are exact exports, so the workloads time the canonical route, not the
    much slower checked body reader."""
    _, workloads = harness
    caplog.set_level(logging.INFO, logger="planarlab")
    for name, op, count in (("mub-verify", "verify-import", 1), ("mub-io", "roundtrip", 2)):
        reqs = [e["req"] for e in workloads.load_goldens(name)["pool"] if e["req"]["op"] == op]
        assert reqs, name
        for req in reqs:
            inputs = {}
            if op == "verify-import":
                inputs[workloads.req_id(req)] = workloads.corrupted_export(planarlab, req)
            caplog.clear()
            workloads.execute(planarlab, req, inputs)
            routes = [r.getMessage().split(": ")[1] for r in caplog.records
                      if r.getMessage().startswith("import ")]
            assert routes == ["canonical route"] * count, req


def test_every_mub_request_matches_its_golden(harness):
    """Every request of the mub-io and mub-verify pools, run in this
    process, returns its golden digest and work units with its checks held,
    as the benchmark's correctness check asks: an export that changes a
    byte of its framing fails here, not first in a benchmark run."""
    _, workloads = harness
    for name in ("mub-io", "mub-verify"):
        pool = workloads.load_goldens(name)["pool"]
        assert pool, name
        for entry in pool:
            req = entry["req"]
            inputs = {}
            if req["op"] == "verify-import":
                inputs[workloads.req_id(req)] = workloads.corrupted_export(planarlab, req)
            out, units, held = workloads.execute(planarlab, req, inputs)
            assert (workloads.digest(out), units, held) == (entry["digest"], entry["units"],
                                                            True), req
