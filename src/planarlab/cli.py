"""Command-line frontend.

JSON on stdout is the machine-readable compatibility surface: one document
per invocation, keys sorted, no timestamps except the elapsed_ms field of
search reports, which --canonical omits so identical invocations are
byte-identical.  Text output is human-oriented and unstable.  Diagnostics go
to stderr; the global -v adds the INFO lines of the "planarlab" logger there.

Exit codes: 0 success/pass, 2 usage or input error, 3 budget exceeded,
4 verification failure.  One handler, _Main.invoke, maps errors to codes for
every command: BudgetExceeded exits 3; a PlanarLabError, ValueError, KeyError
or OSError (r < 1, a malformed import, a file it cannot read or write) exits 2
with an ``error:`` line, never a traceback.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import sys

import click

from . import binom, classify, cyclo, mub, polyfun, search
from .errors import BudgetExceeded, PlanarLabError
from .field import make_field
from .polyfun import Poly, format_poly, parse_poly

BUDGET_ENV = "PLANARLAB_BUDGET"
_workers_option = click.option("--workers", type=int, expose_value=False,
                               help="accepted and ignored; planarlab runs in one process")


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BudgetExceeded as exc:
            _fail(str(exc), code=3)
        except BrokenPipeError:  # the reader closed stdout; click's main exits 1
            raise
        except KeyError as exc:
            _fail(f"missing key {exc}")
        except (PlanarLabError, ValueError, OSError) as exc:
            _fail(str(exc))


def _emit_json(payload) -> None:
    click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
@click.option("-v", "--verbose", is_flag=True, help="log progress (INFO) to stderr")
@click.pass_context
def main(ctx, verbose):
    """Planar/Alltop classification, MUB construction, and exhaustive search
    over small odd-characteristic finite fields."""
    if verbose:
        log = logging.getLogger("planarlab")
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        level = log.level
        log.addHandler(handler)
        log.setLevel(logging.INFO)

        def detach():
            log.removeHandler(handler)
            log.setLevel(level)

        ctx.call_on_close(detach)


@main.command("field-info")
@click.option("--p", type=int, required=True, help="characteristic (odd prime)")
@click.option("--r", type=int, default=1, show_default=True, help="extension degree")
@click.option("--mul-table", is_flag=True, help="include the q x q product table (q <= 49)")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def field_info(p, r, mul_table, fmt):
    """Describe GF(p^r) and its canonical modulus."""
    fld = make_field(p, r)
    payload = fld.to_json_dict()
    payload["q"] = fld.q
    payload["modulus_text"] = format_poly(Poly.from_coeffs(make_field(p), fld.modulus))
    if mul_table:
        if fld.q > 49:
            _fail("--mul-table is limited to q <= 49")
        enc = fld.encodings
        payload["mul_table"] = fld.mul_vec(enc[:, None], enc).tolist()
    if fmt == "json":
        _emit_json(payload)
        return
    click.echo(f"GF({p}^{r}) with q = {fld.q}")
    click.echo(f"modulus: {payload['modulus_text']}  coefficients (low->high): "
               f"{list(fld.modulus)}")
    if mul_table:
        for row in payload["mul_table"]:
            click.echo(" ".join(f"{v:>3}" for v in row))


_WITNESSES = {  # mode -> (witness function, names of its entries)
    "permutation": (classify.permutation_witness, ("x", "x2")),
    "additive": (classify.additive_witness, ("x", "y")),
    "planar": (classify.planar_witness, ("a", "x", "x2")),
    "alltop": (classify.alltop_witness, ("a", "b", "x", "x2")),
}


@main.command("test")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--poly", "poly_text", required=True, help="polynomial in the text grammar")
@click.option("--mode", type=click.Choice(sorted(_WITNESSES)), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def cmd_test(p, r, poly_text, mode, fmt):
    """Classify a polynomial function; the witness is the first violation found."""
    fld = make_field(p, r)
    f = parse_poly(poly_text, fld)
    witness_fn, keys = _WITNESSES[mode]
    witness = witness_fn(f)
    verdict = witness is None
    payload = {
        "field": fld.to_json_dict(),
        "poly": str(f),
        "mode": mode,
        "verdict": verdict,
        "witness": None if verdict else dict(zip(keys, witness)),
    }
    if fmt == "json":
        _emit_json(payload)
    else:
        click.echo(f"{mode}({f}) over {fld!r}: {verdict}")
        if not verdict:
            click.echo(f"witness: {payload['witness']}")


@main.command("delta")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--poly", "poly_text", required=True)
@click.option("--a", "a_enc", type=int, required=True, help="shift encoding")
@click.option("--b", "b_enc", type=int, default=None, help="second shift (double difference)")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_delta(p, r, poly_text, a_enc, b_enc, fmt):
    """Print f(x+a) - f(x), or the double difference when --b is given."""
    fld = make_field(p, r)
    f = parse_poly(poly_text, fld)
    result = (
        polyfun.delta(f, a_enc)
        if b_enc is None
        else polyfun.double_delta(f, a_enc, b_enc)
    )
    if fmt == "json":
        _emit_json({"poly": str(result)})
    else:
        click.echo(str(result))


@main.command("search")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--family", type=click.Choice(sorted(search.FAMILY_KINDS)), required=True)
@click.option("--max-deg", type=int, default=None, help="degree bound (all-reduced only)")
@click.option("--mode", type=click.Choice(sorted(search.MODES)), required=True)
@click.option("--budget", type=int, default=None,
              help=f"candidate budget (default {search.DEFAULT_CANDIDATE_BUDGET}, "
                   f"or the {BUDGET_ENV} environment variable)")
@_workers_option
@click.option("--canonical", is_flag=True, help="omit elapsed_ms for byte-stable output")
def cmd_search(p, r, family, max_deg, mode, budget, canonical):
    """Run an enumeration campaign and print the report as JSON."""
    fld = make_field(p, r)
    fam = search.FamilySpec(family, max_deg)
    if budget is None and os.environ.get(BUDGET_ENV):
        try:
            budget = int(os.environ[BUDGET_ENV])
        except ValueError:
            _fail(f"{BUDGET_ENV} must be an integer")
    report = search.run_search(fld, fam, mode, budget=budget)
    _emit_json(report.to_json_dict(canonical=canonical))


@main.command("mubs")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--construction", type=click.Choice(list(mub.CONSTRUCTIONS)), required=True)
@click.option("--pi", "pi_text", default=None,
              help="generating polynomial: planar for the planar construction (default "
                   "x^2), Alltop for the alltop one (default x^3)")
@click.option("--action", type=click.Choice(["build", "verify", "export"]), required=True)
@click.option("--export-format", "fmt", type=click.Choice(["json", "csv", "float-json"]),
              default="json", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="output file (default stdout)")
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="existing export to verify or convert")
@_workers_option
@click.option("--canonical", is_flag=True, expose_value=False,
              help="accepted for symmetry; reports carry no timings")
def cmd_mubs(p, r, construction, pi_text, action, fmt, out_path, in_path):
    """Build, verify, or convert a complete MUB set."""
    fld = make_field(p, r)

    def build():
        return mub._build(fld, construction,
                          parse_poly(pi_text or mub.CONSTRUCTIONS[construction], fld))

    def load(path):
        with open(path, "rb") as fh:
            data = fh.read()
        in_fmt = "csv" if path.endswith(".csv") else "json"
        return mub.import_mubs(data, in_fmt, field=fld, construction=construction,
                               poly_text=pi_text)

    def write(m):
        """Export m piece by piece, each written as it is rendered, so only
        one phase basis is held at once."""
        if out_path is None:
            sys.stdout.flush()
        with (open(out_path, "wb") if out_path is not None
              else contextlib.nullcontext(sys.stdout.buffer)) as fh:
            for piece in mub._pieces(m, fmt):
                fh.write(piece)  # one write a piece: click's CliRunner captures no writelines

    if action == "build":
        write(build())
        return
    if action == "export":
        if in_path is None:
            _fail("--action export needs --in")
        write(load(in_path))
        return
    m = load(in_path) if in_path is not None else build()
    report = mub.verify_mub_set(m)
    _emit_json(report.to_json_dict())
    if not report.passed:
        sys.exit(4)


@main.command("charsum")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--poly", "poly_text", required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_charsum(p, r, poly_text, fmt):
    """Exact squared magnitude of the trace character sum of a polynomial."""
    fld = make_field(p, r)
    f = parse_poly(poly_text, fld)
    vec = cyclo.char_sum(fld, f)
    result = cyclo.mag_sq(vec)
    payload = {
        "field": fld.to_json_dict(),
        "poly": str(f),
        "counts": list(vec.counts),
        "d": list(result.autocorrelation),
        "is_rational_integer": result.is_rational_integer,
        "mag_sq": result.value,
    }
    if fmt == "json":
        _emit_json(payload)
        return
    click.echo(f"counts: {list(vec.counts)}")
    click.echo(f"d:      {list(result.autocorrelation)}")
    if result.is_rational_integer:
        click.echo(f"|S|^2 = {result.value}")
    else:
        click.echo("|S|^2 is not a rational integer")


@main.command("binom")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_binom(n, k, p, fmt):
    """binom(n, k) mod p with the base-p digit-domination explanation."""
    if n < 0 or k < 0:
        _fail("n and k must be non-negative")
    residue = binom.binom_mod_p(n, k, p)
    nd = binom.base_p_digits(n, p, len(binom.base_p_digits(k, p)))
    kd = binom.base_p_digits(k, p, len(nd))
    positions = [
        {
            "n_digit": a,
            "k_digit": b,
            "binom": binom.binom_mod_p(a, b, p),
        }
        for a, b in zip(nd, kd)
    ]
    dominated = all(b <= a for a, b in zip(nd, kd))
    payload = {
        "n": n,
        "k": k,
        "p": p,
        "residue": residue,
        "n_digits": nd,
        "k_digits": kd,
        "positions": positions,
        "dominated": dominated,
    }
    if fmt == "json":
        _emit_json(payload)
        return
    click.echo(f"C({n},{k}) mod {p} = {residue}")
    click.echo(f"n digits (base {p}, low->high): {nd}")
    click.echo(f"k digits (base {p}, low->high): {kd}")
    for i, pos in enumerate(positions):
        note = "" if pos["k_digit"] <= pos["n_digit"] else "  <- k digit exceeds n digit"
        click.echo(
            f"position {i}: C({pos['n_digit']},{pos['k_digit']}) = {pos['binom']}{note}"
        )
    click.echo(
        "nonzero (every k digit dominated)" if dominated else "zero (domination fails)"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
