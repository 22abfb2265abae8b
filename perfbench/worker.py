"""The workload process: one closed-loop client with workers=1.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Started by run.py, never by hand.  It sets up (imports planarlab, makes every
field the workload uses and touches the cached tables it reads), prints
``READY <set-up in reference seconds> <set-up in CPU seconds>`` and waits for
one line on stdin: ``quit`` ends it, ``go`` runs the timed phase and prints
``RESULT <json>`` as its last line.

The timed phase runs whole passes over the seeded request stream, as many as
`passes_per_run` gives for SECONDS; a pass runs each request once, or as
often as `REPEATS` says, in `execution_order`.  With TRACE=1 it runs an
untraced reference pass and a traced pass, each request once.

Times are the process's CPU time, not wall time: on a shared host the
process is descheduled at random, which stretched the wall time of a fixed
loop up to 3.4 times its CPU time, varying from one second to the next
(NOTES.md, "Why CPU time").  planarlab computes in one thread and waits on no
I/O, so on an idle machine the two agree.  In the untraced run the CPU times
are scaled to reference seconds by the host speed measured alongside
(speed.py), set-up included; the CPU time used before the clock starts
(interpreter start and the first imports) is scaled by its first factor.  The
raw CPU times go to the metadata.  Span times (tracer.py) are wall times.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time

from common import OUT_DIR, import_planarlab
from speed import RefClock
from workloads import (
    SENSITIVITY,
    TABLES,
    corrupted_export,
    digest,
    draw_stream,
    execute,
    execution_order,
    fields_of,
    load_goldens,
    passes_per_run,
    req_id,
)


def setup(workload: str, trace: bool):
    pl = import_planarlab()
    golden = load_goldens(workload)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(pl)
        tracer.install()  # so that table builds are measured
    for p, r in fields_of(golden["pool"]):
        fld = pl.make_field(p, r)
        for table in TABLES[workload]:
            getattr(fld, table)
    if tracer is not None:
        tracer.uninstall()
    return pl, golden, tracer


def run_pass(pl, workload, stream, inputs, order, tracer=None, scaled=True) -> dict:
    """Execute the stream once in `order`, traced when a tracer is given;
    latencies exclude the golden comparison.  Timed in reference seconds when
    `scaled`, else in CPU seconds (a traced run, where the clock's ticks
    would land inside the spans)."""
    pl.binom.expansion.cache_clear()  # every pass starts from the same state
    if tracer is not None:
        tracer.reset()
        tracer.install()
    clock = RefClock(SENSITIVITY[workload])
    try:
        if not scaled:
            return _run_stream(pl, stream, inputs, order, time.process_time)
        clock.start()
        return _run_stream(pl, stream, inputs, order, clock.now)
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()


def _run_stream(pl, stream, inputs, order, clock) -> dict:
    runs = [[] for _ in stream]  # latencies of each request's runs
    failed, failures, units, cpu_s = set(), [], 0, 0.0
    t_start = time.perf_counter()
    raw_start = time.process_time()
    for i in order:
        if i in failed:
            continue
        entry = stream[i]
        req = entry["req"]
        first = not runs[i]  # throughput counts a request's first run only
        t0 = clock()
        try:
            out, n, consistent = execute(pl, req, inputs)
        except Exception as exc:  # a failed request is a result, not a crash
            failed.add(i)
            failures.append((i, f"{req_id(req)}: {type(exc).__name__}: {exc}"))
            continue
        finally:
            dt = clock() - t0
            runs[i].append(dt * 1e3)
            if first:
                cpu_s += dt
        if not consistent or digest(out) != entry["digest"] or n != entry["units"]:
            failed.add(i)
            failures.append((i, req_id(req)))
        elif first:
            units += n
    return {"wall_s": time.perf_counter() - t_start, "cpu_s": cpu_s, "units": units,
            "raw_cpu_s": time.process_time() - raw_start,
            "latencies_ms": [statistics.median(r) for r in runs], "failures": failures}


def traced_metrics(pl, tracer, reference: dict, traced: dict, fields, setup_table_s) -> dict:
    """Per-layer metrics of the traced pass; `reference` is an untraced pass."""
    s, c, calls = tracer.self_s, tracer.counts, tracer.calls
    layer = tracer.layer_self()
    wall = traced["wall_s"]
    total_self = sum(layer.values())
    if abs(total_self - tracer.covered) > 1e-6 * wall + 1e-6:
        raise SystemExit(f"self times {total_self} do not add up to {tracer.covered}")

    def ratio(a, b):
        return a / b if b else 0.0

    mf_hits, mf_misses = tracer.cache_delta("make_field")
    ex_hits, ex_misses = tracer.cache_delta("expansion")
    table_bytes = sum(arr.nbytes for p, r in fields
                      for arr in pl.make_field(p, r)._cache.values())
    vec_s = s["field.vec"]
    verify_s = s["mub.verify_mub_set"]
    delta_names = ("polyfun.delta", "polyfun.double_delta", "polyfun.delta_table")
    return {
        "field.vec_calls": calls["field.vec"],
        "field.vec_elems": c["field.vec_elems"],
        "field.vec_self_s": vec_s,
        "field.vec_ns_per_elem": ratio(vec_s * 1e9, c["field.vec_elems"]),
        "field.scalar_calls": calls["field.scalar"],
        "field.scalar_self_s": s["field.scalar"],
        "field.table_build_s": setup_table_s + s["field.table_build"],
        "field.table_bytes": table_bytes,
        "field.make_field_hit_ratio": ratio(mf_hits, mf_hits + mf_misses),
        "field.self_s": layer["field"],
        "polyfun.value_table_calls": calls["polyfun.Poly.value_table"],
        "polyfun.value_table_self_s": s["polyfun.Poly.value_table"],
        "polyfun.delta_calls": calls["polyfun.delta"],
        "polyfun.delta_self_s": sum(s[n] for n in delta_names),
        "polyfun.delta_terms_out": c["polyfun.delta_terms_out"],
        "polyfun.shift_scale_self_s": s["polyfun.shift_scale"],
        "polyfun.eval_self_s": s["polyfun.Poly.__call__"],
        "polyfun.self_s": layer["polyfun"],
        "binom.expansion_calls": calls["binom.expansion"],
        "binom.expansion_hit_ratio": ratio(ex_hits, ex_hits + ex_misses),
        "binom.self_s": layer["binom"],
        "classify.calls": c["classify.calls"],
        "classify.self_s": layer["classify"],
        "classify.positive_ratio": ratio(c["classify.positives"], c["classify.calls"]),
        "classify.rows_checked": c["classify.rows_checked"],
        "classify.scan_ratio": ratio(c["classify.rows_checked"], c["classify.full_rows"]),
        "cyclo.calls": sum(calls[f"cyclo.{n}"]
                           for n in ("char_sum", "mag_sq", "phase_inner_counts")),
        "cyclo.self_s": layer["cyclo"],
        "mub.build_s": s["mub.build_planar_mubs"] + s["mub.build_alltop_mubs"],
        "mub.verify_s": verify_s,
        "mub.vector_pairs": c["mub.vector_pairs"],
        "mub.verify_pairs_per_s": ratio(c["mub.vector_pairs"], verify_s),
        "mub.violations": c["mub.violations"],
        "mub.export_s": s["mub.export_mubs"],
        "mub.import_s": s["mub.import_mubs"],
        "mub.phase_entries": c["mub.phase_entries"],
        "mub.io_bytes": c["mub.io_bytes"],
        "mub.self_s": layer["mub"],
        "search.candidates": c["search.candidates"],
        "search.hit_ratio": ratio(c["search.hits"], c["search.candidates"]),
        "search.candidate_build_s": s["search.FamilySpec.candidate"],
        "search.self_s": layer["search"],
        "trace.overhead_ratio": traced["cpu_s"] / reference["cpu_s"],
        "trace.unattributed_s": wall - tracer.covered,
        "trace.wall_s": wall,
        "trace.spans": tracer.n_spans,
    }


def main() -> None:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    trace = sys.argv[4] == "1"
    if trace:  # the clock's ticks would land inside the table-build spans
        pl, golden, tracer = setup(workload, trace)
        setup_ref_s = setup_cpu_s = time.process_time()
    else:
        clock = RefClock(SENSITIVITY[workload])
        clock.start()
        pl, golden, tracer = setup(workload, trace)
        clock.stop()
        setup_ref_s = clock.start_cpu_s * clock.start_factor + clock.now()
        setup_cpu_s = time.process_time() - clock.calib_cpu_s
    setup_table_s = tracer.self_s["field.table_build"] if tracer is not None else 0.0
    print(f"READY {setup_ref_s!r} {setup_cpu_s!r}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return

    stream = draw_stream(golden, seed)
    inputs = {req_id(e["req"]): corrupted_export(pl, e["req"])
              for e in stream if e["req"]["op"] == "verify-import"}
    if tracer is None:
        order = execution_order(stream, seed)
        passes = [run_pass(pl, workload, stream, inputs, order)
                  for _ in range(passes_per_run(workload, seconds))]
        layers = None
    else:
        # per-layer counts are of one run of each request; the untraced
        # reference pass also warms the caches the traced pass reads, as a
        # census pass is too long for a separate warm-up pass
        order = range(len(stream))
        passes = [run_pass(pl, workload, stream, inputs, order, scaled=False),
                  run_pass(pl, workload, stream, inputs, order, tracer, scaled=False)]
        layers = traced_metrics(pl, tracer, passes[0], passes[1],
                                fields_of(golden["pool"]), setup_table_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{workload}.spans.json")

    import numpy

    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests_per_pass": len(stream),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "pass_raw_cpu_s": [p["raw_cpu_s"] for p in passes],
        "units_done": sum(p["units"] for p in passes),
        "latencies_ms": [p["latencies_ms"] for p in passes],
        "failures": [f for p in passes for f in p["failures"]],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
