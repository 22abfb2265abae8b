"""Workload definitions for the planarlab benchmark.

A workload is a pool of user-level requests stored with its golden digests
in ``goldens/<workload>.json``.  A run draws its stream from the pool with
the run seed: ``quota`` requests per stratum, shuffled.  The stream is the
same on every pass of a run, so every pass does the same work and throughput
does not depend on how many passes fit in the run.

Requests are plain dicts (``op`` plus arguments) so the pool files stay
readable; ``execute`` runs one and returns its canonical output bytes, its
work units and whether its internal consistency checks held.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

WORKLOADS = ("census", "algebra", "mub-verify", "mub-io")

# Unit of the throughput metric per workload.
UNITS = {
    "census": "candidates classified",
    "algebra": "requests",
    "mub-verify": "basis-vector pairs checked",
    "mub-io": "phase-table entries written plus parsed",
}

# CPU seconds a pass of each workload took on the machine the benchmark was
# built on (2-vCPU shared VM, seed code; census's with the repeats of its
# sweep).  A run makes --seconds // this many
# passes, at least one.  The count is fixed instead of timed because that
# machine's speed drifted by about 20 %: a timed loop made one pass or two,
# or two or three, by chance, and a process's first pass is a few per cent
# slower than its later ones.
PASS_CPU_S = {"census": 23, "algebra": 13, "mub-verify": 13, "mub-io": 8}


# Strata whose requests run several times in every pass, at moments spread
# over the pass by `execution_order`: their latency is the median of the
# runs, and throughput counts only the first, so that the pass does the same
# work as without repeats.  Census's sweep requests take milliseconds and set
# its op_p50_ms and op_tail_ms, but a census pass is so long that a run makes
# one, and measured once a request's time varied by about 10 % from pass to
# pass on the machine the benchmark was built on.  Runs back to back see the
# same state of the host; runs spread over the pass see different ones.
REPEATS = {"sweep": 3}


# How strongly the host's speed, as the reference clock's loop measures it,
# moves each workload's time: the exponent of the clock's speed factor
# (speed.py).  The host slows the loop more than most of the work, and
# census's millisecond requests about as much as the loop.  Each value is the
# one that gave the workload's end-to-end metrics the least spread over 15
# runs (two sets) on the machine the benchmark was built on (NOTES.md,
# "Reference seconds").
SENSITIVITY = {"census": 1.0, "algebra": 0.7, "mub-verify": 0.6, "mub-io": 0.8}


def passes_per_run(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_CPU_S[workload]))


# Cached per-field tables each workload reads; setup touches them through
# their public properties so that lazy table builds count as set-up time.
TABLES = {
    "census": ("power_table",),  # shift_scale in the shifted-cubics family
    "algebra": ("power_table", "trace_table"),  # delta / shift_scale, charsum
    "mub-verify": ("trace_table", "trace_bilinear"),
    "mub-io": ("trace_table", "trace_bilinear"),
}

# The representative CLI invocation of each workload, timed for cli_s.
CLI = {
    "census": ["search", "--p", "5", "--family", "all-reduced", "--max-deg", "4",
               "--mode", "alltop", "--canonical"],
    "algebra": ["test", "--p", "7", "--r", "4", "--poly", "x^2", "--mode", "planar"],
    "mub-verify": ["mubs", "--p", "5", "--r", "2", "--construction", "planar",
                   "--action", "verify", "--canonical"],
    "mub-io": ["mubs", "--p", "5", "--r", "3", "--construction", "planar",
               "--action", "build", "--export-format", "csv"],
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def load_goldens(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def load_cli_goldens() -> dict:
    with open(GOLDEN_DIR / "cli.json") as fh:
        return json.load(fh)


def draw_stream(golden: dict, seed: int) -> list[dict]:
    """The run's request stream: per stratum, `quota` pool entries chosen by
    the seed; then the whole stream shuffled by the seed."""
    rng = random.Random(seed)
    by_stratum: dict[str, list[dict]] = {}
    for entry in golden["pool"]:
        by_stratum.setdefault(entry["stratum"], []).append(entry)
    stream = []
    for stratum in sorted(by_stratum):
        stream += rng.sample(by_stratum[stratum], golden["quota"][stratum])
    rng.shuffle(stream)
    return stream


def execution_order(stream: list[dict], seed: int) -> list[int]:
    """Indices into the stream in the order a pass runs them: each request as
    often as `REPEATS` says, the runs shuffled by the seed."""
    order = [i for i, e in enumerate(stream) for _ in range(REPEATS.get(e["stratum"], 1))]
    if len(order) > len(stream):  # else the stream's own seeded order stands
        random.Random(seed).shuffle(order)
    return order


def fields_of(entries) -> list[tuple[int, int]]:
    return sorted({(e["req"]["p"], e["req"]["r"]) for e in entries})


# -- execution ---------------------------------------------------------------

_WITNESS_KEYS = {
    "permutation": ("x", "x2"),
    "additive": ("x", "y"),
    "planar": ("a", "x", "x2"),
    "alltop": ("a", "b", "x", "x2"),
}


def corrupted_export(pl, req: dict) -> bytes:
    """Json export of the planar set with one phase exponent shifted.

    Built before the timed phase: it is the input of a verify-import request.
    """
    fld = pl.make_field(req["p"], req["r"])
    m = pl.build_planar_mubs(fld, pl.parse_poly(req["pi"], fld))
    obj = json.loads(pl.export_mubs(m, "json"))
    basis, vector, x, step = req["flip"]
    row = obj["bases"][basis]["vectors"][vector]
    row[x] = (row[x] + step) % fld.p
    return _json(obj) + b"\n"


def execute(pl, req: dict, inputs: dict) -> tuple[bytes, int, bool]:
    """Run one request; returns (canonical output, work units, checks held).

    Work units are those of the workload's throughput (`UNITS`).

    `pl` is the imported planarlab package; `inputs` maps request ids to
    prepared input bytes (verify-import requests only).
    """
    op = req["op"]
    fld = pl.make_field(req["p"], req["r"])
    if op == "search":
        family = pl.FamilySpec(req["family"], req.get("max_deg"))
        report = pl.run_search(fld, family, req["mode"])
        return _json(report.to_json_dict(canonical=True)), report.tested, True
    if op == "test":
        f = pl.parse_poly(req["poly"], fld)
        witness = getattr(pl.classify, f"{req['mode']}_witness")(f)
        payload = {
            "field": fld.to_json_dict(),
            "poly": str(f),
            "mode": req["mode"],
            "verdict": witness is None,
            "witness": None if witness is None
            else dict(zip(_WITNESS_KEYS[req["mode"]], witness)),
        }
        return _json(payload), 1, True
    if op == "delta":
        f = pl.parse_poly(req["poly"], fld)
        if "b" in req:
            out = pl.double_delta(f, req["a"], req["b"])
        else:
            out = pl.delta(f, req["a"])
        return str(out).encode(), 1, True
    if op == "shift_scale":
        f = pl.parse_poly(req["poly"], fld)
        return str(pl.shift_scale(f, req["s"], req["t"])).encode(), 1, True
    if op == "charsum":
        vec = pl.char_sum(fld, pl.parse_poly(req["poly"], fld))
        res = pl.mag_sq(vec)
        payload = {
            "counts": list(vec.counts),
            "d": list(res.autocorrelation),
            "is_rational_integer": res.is_rational_integer,
            "mag_sq": res.value,
        }
        return _json(payload), 1, True
    if op == "eval":
        f = pl.parse_poly(req["poly"], fld)
        return str(int(f(req["x"]))).encode(), 1, True
    if op in ("verify", "verify-import"):
        if op == "verify-import":
            m = pl.import_mubs(inputs[req_id(req)], "json")
        elif req["construction"] == "planar":
            m = pl.build_planar_mubs(fld, pl.parse_poly(req["pi"], fld))
        else:
            m = pl.build_alltop_mubs(fld)
        report = pl.verify_mub_set(m)
        return _json(report.to_json_dict()), report.pairs_checked, True
    if op == "roundtrip":
        if req["construction"] == "planar":
            m = pl.build_planar_mubs(fld, pl.parse_poly(req["pi"], fld))
        else:
            m = pl.build_alltop_mubs(fld)
        js = pl.export_mubs(m, "json")
        cs = pl.export_mubs(m, "csv")
        back_js = pl.import_mubs(js, "json")
        back_cs = pl.import_mubs(cs, "csv", field=fld, construction=req["construction"],
                                 poly_text=req.get("pi"))
        same = (pl.export_mubs(back_js, "json") == js
                and pl.export_mubs(back_cs, "csv") == cs)
        # four exports and two imports of q^3 entries each
        return js + b"\0" + cs, 6 * fld.q**3, same
    if op == "float-json":
        m = pl.build_planar_mubs(fld, pl.parse_poly(req["pi"], fld))
        return pl.export_mubs(m, "float-json"), fld.q**3, True
    raise ValueError(f"unknown request op {op!r}")


def req_id(req: dict) -> str:
    return json.dumps(req, sort_keys=True, separators=(",", ":"))
