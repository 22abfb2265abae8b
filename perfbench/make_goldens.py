"""Write the request pools and their golden digests under perfbench/goldens/.

    python3 perfbench/make_goldens.py [workload ...]

Run it only on code whose outputs are trusted: the goldens are what every
later benchmark run is checked against.  The pools are drawn with a fixed
seed, so a rerun on unchanged code rewrites identical files.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from common import ROOT, child_env, import_planarlab
from workloads import (
    CLI,
    GOLDEN_DIR,
    WORKLOADS,
    corrupted_export,
    digest,
    execute,
    req_id,
)

POOL_SEED = 20120515
# An algebra stratum of size n has POOL_FACTOR * n pool entries, of which a
# run draws QUOTA_FACTOR * n.  Drawing two thirds keeps the cost mix of the
# stream close from seed to seed: drawing one third moved the median
# request's cost by about 8 % (interquartile range over ten seeds).
POOL_FACTOR = 3
QUOTA_FACTOR = 2

ALGEBRA_FIELDS = ((5, 3), (7, 3), (3, 6), (7, 4))
SWEEP_FIELDS = (
    (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
    (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
)


def _random_poly(rng: random.Random, q: int, max_exp: int) -> str:
    exps = rng.sample(range(1, max_exp + 1), rng.randint(1, 3))
    terms = [f"{rng.randrange(1, q)}*x^{e}" for e in sorted(exps, reverse=True)]
    if rng.random() < 0.3:
        terms.append(str(rng.randrange(1, q)))
    return " + ".join(terms)


def census_pool(pl, rng):
    strata = {"big": [], "sweep": []}
    # the paper-scale all-reduced campaigns.  Lower degrees change the mix of
    # early exits and full scans: over GF(7) every candidate with a cubic term
    # is Alltop (86 % hits at deg <= 3 against 12 % at deg <= 4), and GF(25)
    # has no planar function of degree <= 1 (0 % against 96 % at deg <= 2)
    for p, r, deg, mode in ((7, 1, 4, "alltop"), (5, 1, 5, "alltop"),
                            (3, 2, 3, "planar"), (5, 2, 2, "planar")):
        strata["big"].append({"op": "search", "p": p, "r": r, "family": "all-reduced",
                              "max_deg": deg, "mode": mode})
    # the sweep: one campaign per family, mode and field with q <= 49.  Its
    # hundred-odd requests of a few ms make the median and tail latency
    # statistics of many samples rather than of two
    for family in ("monomials", "do-monomials", "shifted-cubics"):
        for mode in ("planar", "alltop"):
            for p, r in SWEEP_FIELDS:
                strata["sweep"].append({"op": "search", "p": p, "r": r, "family": family,
                                        "mode": mode})
    # exhaustive campaigns: every run classifies all of them, in seeded order
    return strata, {name: len(reqs) for name, reqs in strata.items()}


def _keep_test(pl, req) -> bool:
    """Random classification requests must exit early; full scans are the
    job of the fixed `positive` stratum."""
    fld = pl.make_field(req["p"], req["r"])
    f = pl.parse_poly(req["poly"], fld)
    if req["mode"] == "alltop":
        # a planar first difference could mean an O(q^3) scan
        return pl.classify.planar_witness(pl.delta(f, 1)) is not None
    if req["mode"] in ("planar", "additive"):
        return getattr(pl.classify, f"{req['mode']}_witness")(f) is not None
    return True


def algebra_pool(pl, rng):
    quota = {}
    strata = {}
    test_quota = {125: 9, 343: 9, 729: 7, 2401: 7}
    for p, r in ALGEBRA_FIELDS:
        q = p**r
        base = {"p": p, "r": r}
        for mode in ("permutation", "additive", "planar", "alltop"):
            name = f"test-{mode}-{q}"
            quota[name] = QUOTA_FACTOR * test_quota[q]
            reqs = []
            while len(reqs) < POOL_FACTOR * test_quota[q]:
                req = dict(base, op="test", mode=mode, poly=_random_poly(rng, q, q - 1))
                if _keep_test(pl, req):
                    reqs.append(req)
            strata[name] = reqs
        makers = {
            "delta": (7, lambda: dict(base, op="delta", poly=_random_poly(rng, q, q - 1),
                                      a=rng.randrange(1, q))),
            # double differences of high degrees expand quadratically; keep
            # the exponents moderate so one request stays in the ms range
            "ddelta": (3, lambda: dict(base, op="delta",
                                       poly=_random_poly(rng, q, min(q - 1, 200)),
                                       a=rng.randrange(1, q), b=rng.randrange(1, q))),
            "shift": (4, lambda: dict(base, op="shift_scale",
                                      poly=_random_poly(rng, q, q - 1),
                                      s=rng.randrange(1, q), t=rng.randrange(q))),
            "charsum": (5, lambda: dict(base, op="charsum",
                                        poly=_random_poly(rng, q, q - 1))),
            "eval": (12, lambda: dict(base, op="eval", poly=_random_poly(rng, q, q - 1),
                                      x=rng.randrange(q))),
        }
        for kind, (n, make) in makers.items():
            name = f"{kind}-{q}"
            quota[name] = QUOTA_FACTOR * n
            strata[name] = [make() for _ in range(POOL_FACTOR * n)]
    strata["positive"] = [
        {"op": "test", "p": 7, "r": 4, "poly": "x^2", "mode": "planar"},
        {"op": "test", "p": 5, "r": 3, "poly": "x^3", "mode": "alltop"},
        {"op": "test", "p": 5, "r": 3, "poly": "x^6", "mode": "planar"},
        {"op": "test", "p": 7, "r": 3, "poly": "x^8", "mode": "planar"},
        {"op": "test", "p": 3, "r": 6, "poly": "x^10", "mode": "planar"},
        {"op": "test", "p": 7, "r": 3, "poly": "x^5", "mode": "permutation"},
        {"op": "test", "p": 7, "r": 4, "poly": "x^49 + 3*x", "mode": "additive"},
    ]
    quota["positive"] = len(strata["positive"])
    return strata, quota


def mub_verify_pool(pl, rng):
    # planar generators: a planar monomial times a constant, plus additive
    # (linearised) terms and a constant
    strata = {
        "planar-25": [{"op": "verify", "p": 5, "r": 2, "construction": "planar", "pi": pi}
                      for pi in ("x^2", "2*x^2", "x^2 + x", "3*x^2 + x^5 + 1",
                                 "4*x^2 + x^5", "x^2 + 2*x + 3", "2*x^2 + 3*x^5",
                                 "3*x^2 + x")],
        "planar-27": [{"op": "verify", "p": 3, "r": 3, "construction": "planar", "pi": pi}
                      for pi in ("x^2", "x^4", "x^10", "2*x^2 + x^3", "2*x^2",
                                 "x^4 + x", "2*x^10 + x^9", "x^2 + x^3 + 1")],
        "planar-49": [{"op": "verify", "p": 7, "r": 2, "construction": "planar", "pi": pi}
                      for pi in ("x^2", "3*x^2", "x^2 + x^7", "5*x^2 + 2*x + 4")],
        "alltop-25": [{"op": "verify", "p": 5, "r": 2, "construction": "alltop"}],
        "corrupted-25": [
            {"op": "verify-import", "p": 5, "r": 2, "pi": "x^2",
             "flip": [rng.randint(1, 25), rng.randrange(25), rng.randrange(25),
                      rng.randint(1, 4)]}
            for _ in range(12)
        ],
    }
    quota = {name: 1 for name in strata}
    quota.update({"planar-25": 6, "planar-27": 6, "corrupted-25": 6})
    return strata, quota


GF49_PLANAR = ("x^2", "3*x^2 + x^7", "2*x^2 + x", "4*x^2", "x^2 + 2*x^7 + 3", "6*x^2 + x")


def mub_io_pool(pl, rng):
    strata = {
        "planar-125": [{"op": "roundtrip", "p": 5, "r": 3, "construction": "planar",
                        "pi": pi} for pi in ("x^2", "x^6", "x^26", "2*x^2 + x^5 + 3")],
        "alltop-125": [{"op": "roundtrip", "p": 5, "r": 3, "construction": "alltop"}],
        "planar-49": [{"op": "roundtrip", "p": 7, "r": 2, "construction": "planar",
                       "pi": pi} for pi in GF49_PLANAR],
        "float-json-49": [{"op": "float-json", "p": 7, "r": 2, "pi": pi}
                          for pi in GF49_PLANAR],
    }
    quota = {name: 1 for name in strata}
    quota.update({"planar-49": 3, "float-json-49": 3})
    return strata, quota


POOLS = {
    "census": census_pool,
    "algebra": algebra_pool,
    "mub-verify": mub_verify_pool,
    "mub-io": mub_io_pool,
}


def write_golden(pl, workload: str) -> None:
    rng = random.Random(f"{POOL_SEED}-{workload}")
    strata, quota = POOLS[workload](pl, rng)
    entries = []
    slowest = (0.0, None)
    for name in sorted(strata):
        for req in strata[name]:
            inputs = {}
            if req["op"] == "verify-import":
                inputs[req_id(req)] = corrupted_export(pl, req)
            t0 = time.perf_counter()
            out, units, ok = execute(pl, req, inputs)
            dt = time.perf_counter() - t0
            if not ok:
                raise SystemExit(f"consistency check failed for {req}")
            slowest = max(slowest, (dt, req_id(req)))
            entries.append({"stratum": name, "req": req, "digest": digest(out),
                            "units": units})
    lines = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in entries)
    text = (f'{{"workload": "{workload}",\n"quota": {json.dumps(quota, sort_keys=True)},\n'
            f'"pool": [\n{lines}\n]}}\n')
    (GOLDEN_DIR / f"{workload}.json").write_text(text)
    print(f"{workload}: {len(entries)} requests; slowest {slowest[0]:.3f} s {slowest[1]}")


def write_cli_goldens() -> None:
    out = {}
    for workload, args in CLI.items():
        proc = subprocess.run([sys.executable, "-m", "planarlab", *args], cwd=ROOT,
                              env=child_env(), capture_output=True, timeout=120)
        out[workload] = {"args": args, "exit_code": proc.returncode,
                         "stdout_sha256": digest(proc.stdout), "stdout_bytes": len(proc.stdout)}
    (GOLDEN_DIR / "cli.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"cli: {len(out)} commands")


def main(argv: list[str]) -> None:
    pl = import_planarlab()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        write_golden(pl, workload)
    if not argv:
        write_cli_goldens()


if __name__ == "__main__":
    main(sys.argv[1:])
