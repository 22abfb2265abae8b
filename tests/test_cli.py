import concurrent.futures
import errno
import hashlib
import json
import multiprocessing.process
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from planarlab import binom
from planarlab.cli import main
from planarlab.field import make_field
from planarlab.mub import build_planar_mubs, export_mubs
from planarlab.polyfun import parse_poly
from planarlab.search import FamilySpec, run_search


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def invoke_json(runner, *args):
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# field-info
# ---------------------------------------------------------------------------

def test_field_info_canonical_modulus(runner):
    obj = invoke_json(runner, "field-info", "--p", "3", "--r", "2", "--format", "json")
    assert obj["modulus"] == [1, 0, 1]
    assert obj["q"] == 9
    assert obj["modulus_text"] == "x^2 + 1"
    for p, r, modulus, text in [(5, 3, [1, 1, 0, 1], "x^3 + x + 1"),
                                (7, 4, [1, 1, 0, 0, 1], "x^4 + x + 1")]:
        obj = invoke_json(runner, "field-info", "--p", str(p), "--r", str(r),
                          "--format", "json")
        assert obj["modulus"] == modulus
        assert obj["modulus_text"] == text


def test_field_info_not_prime_exits_2(runner):
    result = runner.invoke(main, ["field-info", "--p", "4", "--r", "1"])
    assert result.exit_code == 2
    assert "prime" in result.output


@pytest.mark.parametrize("args", [["--p", "3", "--r", "1000000000"],
                                  ["--p", "1000000000000000003"]])
def test_field_info_huge_field_exits_2_at_once(runner, args):
    t0 = time.perf_counter()
    result = runner.invoke(main, ["field-info", *args])
    assert result.exit_code == 2
    assert "exceeds the bound" in result.output
    assert time.perf_counter() - t0 < 1


FIELD_COMMANDS = [
    ["field-info"],
    ["test", "--poly", "x^2", "--mode", "planar"],
    ["delta", "--poly", "x^3", "--a", "1"],
    ["search", "--family", "monomials", "--mode", "planar"],
    ["mubs", "--construction", "planar", "--action", "build"],
    ["charsum", "--poly", "x^2"],
]


@pytest.mark.parametrize("r", ["0", "-1"])
@pytest.mark.parametrize("cmd", FIELD_COMMANDS, ids=[c[0] for c in FIELD_COMMANDS])
def test_field_commands_reject_r_below_1(runner, cmd, r):
    result = runner.invoke(main, [cmd[0], "--p", "3", "--r", r, *cmd[1:]])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and "Traceback" not in result.output


def test_closed_stdout_is_left_to_click(runner, monkeypatch):
    def reader_gone(*args):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(binom, "binom_mod_p", reader_gone)
    result = runner.invoke(main, ["binom", "--n", "5", "--k", "2", "--p", "5"])
    assert result.exit_code == 1 and "error:" not in result.output


def test_field_info_q5(runner):
    result = invoke(runner, "field-info", "--p", "5", "--r", "1")
    assert result.exit_code == 0
    assert "q = 5" in result.output


def test_field_info_mul_table(runner):
    obj = invoke_json(
        runner, "field-info", "--p", "3", "--r", "1", "--mul-table", "--format", "json"
    )
    assert obj["mul_table"] == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    result = runner.invoke(main, ["field-info", "--p", "11", "--r", "2", "--mul-table"])
    assert result.exit_code == 2  # q = 121 > 49


# ---------------------------------------------------------------------------
# test (classification)
# ---------------------------------------------------------------------------

def test_cmd_test_examples(runner):
    obj = invoke_json(runner, "test", "--p", "5", "--r", "1", "--poly", "x^2",
                      "--mode", "planar")
    assert obj["verdict"] is True and obj["witness"] is None
    obj = invoke_json(runner, "test", "--p", "3", "--r", "1", "--poly", "x^3",
                      "--mode", "alltop")
    assert obj["verdict"] is False
    assert set(obj["witness"]) == {"a", "b", "x", "x2"}
    obj = invoke_json(runner, "test", "--p", "7", "--r", "1", "--poly", "x^3",
                      "--mode", "alltop")
    assert obj["verdict"] is True


def test_cmd_test_cubic_alltop_over_gf2401_is_fast():
    """A fresh process decides x^3 over GF(7^4) Alltop, its field built
    included, in under 2 s: the certificate reads the trilinear form of the
    second differences instead of scanning q^3 table entries."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "planarlab", "test", "--p", "7", "--r", "4", "--poly", "x^3",
         "--mode", "alltop"],
        env=env, capture_output=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    obj = json.loads(proc.stdout)
    assert obj["verdict"] is True and obj["witness"] is None
    assert elapsed < 2.0, elapsed


def test_cmd_test_witness_planar(runner):
    obj = invoke_json(runner, "test", "--p", "5", "--r", "1", "--poly", "x^4",
                      "--mode", "planar")
    assert obj["witness"] == {"a": 1, "x": 1, "x2": 2}


def test_cmd_test_text(runner):
    result = invoke(runner, "test", "--p", "5", "--poly", "x^2", "--mode", "planar",
                    "--format", "text")
    assert result.exit_code == 0 and result.output == "planar(x^2) over GF(5): True\n"
    result = invoke(runner, "test", "--p", "5", "--poly", "x^4", "--mode", "planar",
                    "--format", "text")
    assert result.exit_code == 0
    assert result.output == ("planar(x^4) over GF(5): False\n"
                             "witness: {'a': 1, 'x': 1, 'x2': 2}\n")


def test_cmd_test_parse_error_exits_2(runner):
    result = runner.invoke(main, ["test", "--p", "5", "--r", "1", "--poly", "x^-1",
                                  "--mode", "planar"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

def test_cmd_delta_examples(runner):
    result = invoke(runner, "delta", "--p", "5", "--r", "1", "--poly", "x^2", "--a", "1")
    assert result.output.strip() == "2*x + 1"
    result = invoke(runner, "delta", "--p", "5", "--r", "1", "--poly", "x^3", "--a", "1")
    assert result.output.strip() == "3*x^2 + 3*x + 1"
    result = invoke(runner, "delta", "--p", "3", "--r", "1", "--poly", "x^3", "--a", "1")
    assert result.output.strip() == "1"


def test_cmd_delta_double(runner):
    result = invoke(runner, "delta", "--p", "7", "--r", "1", "--poly", "x^3",
                    "--a", "1", "--b", "1")
    assert result.output.strip() == "6*x + 6"


def test_cmd_delta_large_double_is_pinned(runner):
    # sha256 of the stdout made by composing two first differences
    result = invoke(runner, "delta", "--p", "5", "--poly", "x^3124", "--a", "1",
                    "--b", "2", "--format", "json")
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "c83ac24373cdcec13586e678402356caebaf1f205fbc3d2c217f786750ebf851")


def test_cmd_delta_bad_shift_exits_2(runner):
    result = runner.invoke(main, ["delta", "--p", "5", "--r", "1", "--poly", "x^2",
                                  "--a", "9"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["delta", "--p", "5", "--r", "2", "--poly", "x^3",
                                  "--a", "1", "--b", "25"])
    assert result.exit_code == 2
    assert "error:" in result.output


def test_cmd_delta_huge_exponent_exits_2(runner):
    result = runner.invoke(main, ["delta", "--p", "7", "--poly", f"x^{7**12 - 1}",
                                  "--a", "1"])
    assert result.exit_code == 2
    assert "error:" in result.output


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_cmd_search_char3_all_reduced(runner):
    obj = invoke_json(runner, "search", "--p", "3", "--r", "1", "--family",
                      "all-reduced", "--max-deg", "2", "--mode", "alltop")
    assert obj["tested"] == 27 and obj["hits"] == []


def test_cmd_search_monomials_alltop_gf5(runner):
    obj = invoke_json(runner, "search", "--p", "5", "--r", "1", "--family", "monomials",
                      "--mode", "alltop")
    assert obj["hits"] == ["x^3"]


def test_cmd_search_monomials_planar_gf25(runner):
    obj = invoke_json(runner, "search", "--p", "5", "--r", "2", "--family", "monomials",
                      "--mode", "planar")
    assert obj["hits"] == ["x^2", "x^10"]


def test_cmd_search_budget_exceeded_exits_3(runner):
    result = runner.invoke(main, ["search", "--p", "5", "--r", "1", "--family",
                                  "monomials", "--mode", "planar", "--budget", "1"])
    assert result.exit_code == 3


def test_cmd_search_huge_max_degree_exits_3(runner):
    result = runner.invoke(main, ["search", "--p", "3", "--family", "all-reduced",
                                  "--max-deg", "1000000000", "--mode", "planar"])
    assert result.exit_code == 3
    assert "exceed the budget" in result.output


def test_cmd_search_budget_env(runner, monkeypatch):
    monkeypatch.setenv("PLANARLAB_BUDGET", "1")
    result = runner.invoke(main, ["search", "--p", "5", "--r", "1", "--family",
                                  "monomials", "--mode", "planar"])
    assert result.exit_code == 3
    monkeypatch.setenv("PLANARLAB_BUDGET", "not-a-number")
    result = runner.invoke(main, ["search", "--p", "5", "--r", "1", "--family",
                                  "monomials", "--mode", "planar"])
    assert result.exit_code == 2


def test_cmd_search_canonical_is_stable(runner):
    args = ["search", "--p", "5", "--r", "1", "--family", "all-reduced", "--max-deg",
            "2", "--mode", "planar", "--canonical"]
    out1 = invoke(runner, *args).output
    out2 = invoke(runner, *args).output
    assert out1 == out2
    assert "elapsed_ms" not in out1
    noncanon = invoke(runner, *args[:-1]).output
    assert "elapsed_ms" in noncanon


# ---------------------------------------------------------------------------
# mubs
# ---------------------------------------------------------------------------

def test_cmd_mubs_verify_planar_gf5(runner):
    result = invoke(runner, "mubs", "--p", "5", "--r", "1", "--construction", "planar",
                    "--pi", "x^2", "--action", "verify")
    assert result.exit_code == 0
    assert json.loads(result.output)["passed"] is True


def test_cmd_mubs_alltop_char3_exits_2(runner):
    result = runner.invoke(main, ["mubs", "--p", "3", "--r", "1", "--construction",
                                  "alltop", "--action", "build"])
    assert result.exit_code == 2


def test_cmd_mubs_verify_alltop_gf7(runner):
    result = invoke(runner, "mubs", "--p", "7", "--r", "1", "--construction", "alltop",
                    "--action", "verify")
    assert result.exit_code == 0


def test_cmd_mubs_build_verify_export_files(runner, tmp_path):
    out = tmp_path / "mubs.json"
    result = invoke(runner, "mubs", "--p", "5", "--r", "1", "--construction", "planar",
                    "--action", "build", "--out", str(out))
    assert result.exit_code == 0
    obj = json.loads(out.read_text())
    assert len(obj["bases"]) == 6

    result = invoke(runner, "mubs", "--p", "5", "--r", "1", "--construction", "planar",
                    "--action", "verify", "--in", str(out))
    assert result.exit_code == 0

    csv_out = tmp_path / "mubs.csv"
    result = invoke(runner, "mubs", "--p", "5", "--r", "1", "--construction", "planar",
                    "--action", "export", "--in", str(out), "--export-format", "csv",
                    "--out", str(csv_out))
    assert result.exit_code == 0
    assert csv_out.read_text().splitlines()[0].startswith("basis,b,x0")


@pytest.mark.parametrize("fmt", ["csv", "float-json"])
def test_cmd_mubs_build_writes_the_export_bytes_to_stdout(fmt):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "planarlab", "mubs", "--p", "5", "--r", "2", "--construction",
         "planar", "--action", "build", "--export-format", fmt],
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    field = make_field(5, 2)
    assert proc.stdout == export_mubs(build_planar_mubs(field, parse_poly("x^2", field)), fmt)


def test_cmd_mubs_export_streams_its_pieces(tmp_path):
    """A q = 125 float-json build, a 73 MB document, is written one piece at
    a time: the CLI's peak RSS stays far below the 183 MB it took to hold
    every basis and the joined document, and the file is export_mubs's.
    The peak is the fresh interpreter's VmHWM: its ru_maxrss would carry
    the peak of the test process it was started from."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = tmp_path / "m125.json"
    code = ("import sys\n"
            "from planarlab.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(next(ln.split()[1] for ln in open('/proc/self/status')\n"
            "           if ln.startswith('VmHWM:')))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "mubs", "--p", "5", "--r", "3", "--construction", "planar",
         "--action", "build", "--export-format", "float-json", "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    peak_mb = int(proc.stdout) / 1024  # VmHWM is in kB
    assert peak_mb < 100, peak_mb
    field = make_field(5, 3)
    want = hashlib.sha256(export_mubs(build_planar_mubs(field, parse_poly("x^2", field)),
                                      "float-json")).hexdigest()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_cmd_mubs_out_into_missing_directory_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["mubs", "--p", "5", "--construction", "planar",
                                  "--action", "build", "--out", str(tmp_path / "no" / "m.json")])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


def test_cmd_mubs_verify_corrupted_exits_4(runner, tmp_path):
    out = tmp_path / "mubs.json"
    invoke(runner, "mubs", "--p", "5", "--r", "1", "--construction", "planar",
           "--action", "build", "--out", str(out))
    obj = json.loads(out.read_text())
    obj["bases"][1]["vectors"][0][0] = (obj["bases"][1]["vectors"][0][0] + 1) % 5
    out.write_text(json.dumps(obj))
    result = runner.invoke(main, ["mubs", "--p", "5", "--r", "1", "--construction",
                                  "planar", "--action", "verify", "--in", str(out)])
    assert result.exit_code == 4
    report = json.loads(result.output)
    assert report["passed"] is False and report["violations"]


def test_cmd_mubs_verify_corrupted_gf49_report_is_pinned(runner, tmp_path):
    # digest of the report made by the O(p q^5) verifier, which ran every
    # basis pair through the generic kernel
    out = tmp_path / "mubs.json"
    invoke(runner, "mubs", "--p", "7", "--r", "2", "--construction", "planar",
           "--action", "build", "--out", str(out))
    obj = json.loads(out.read_text())
    obj["bases"][1]["vectors"][0][0] = (obj["bases"][1]["vectors"][0][0] + 1) % 7
    out.write_text(json.dumps(obj))
    result = runner.invoke(main, ["mubs", "--p", "7", "--r", "2", "--construction",
                                  "planar", "--action", "verify", "--in", str(out),
                                  "--canonical"])
    assert result.exit_code == 4
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "171830083299c3c30eb6755d79f441825d2d7ac864555108d53430480d9a9286"
    )


def test_cmd_mubs_verify_corrupted_gf25_report_is_pinned(runner, tmp_path):
    # digest of the report made by the report objects that wrapped the
    # kernel's tuples in dataclasses
    out = tmp_path / "mubs.json"
    invoke(runner, "mubs", "--p", "5", "--r", "2", "--construction", "planar",
           "--action", "build", "--out", str(out))
    obj = json.loads(out.read_text())
    obj["bases"][3]["vectors"][2][4] = (obj["bases"][3]["vectors"][2][4] + 1) % 5
    out.write_text(json.dumps(obj))
    result = runner.invoke(main, ["mubs", "--p", "5", "--r", "2", "--construction",
                                  "planar", "--action", "verify", "--in", str(out)])
    assert result.exit_code == 4
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "f16ffd29b04cfe0d364f490d9cb2f2bfee3fe6a396070baae882eb220996abcc"
    )


def _replaced(obj, path, value):
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _mubs_on_edited_export(runner, tmp_path, edit, action):
    out = tmp_path / "mubs.json"
    invoke(runner, "mubs", "--p", "5", "--r", "1", "--construction", "planar",
           "--action", "build", "--out", str(out))
    obj = json.loads(out.read_text())
    out.write_text(json.dumps(edit(obj)))
    return runner.invoke(main, ["mubs", "--p", "5", "--r", "1", "--construction",
                                "planar", "--action", action, "--in", str(out)])


# well-typed exports whose bases or vectors have the wrong counts
STRUCTURAL_EDITS = [
    lambda obj: _replaced(obj, ("bases", 1, "vectors"), obj["bases"][1]["vectors"][:-1]),
    lambda obj: _replaced(obj, ("bases", 1, "vectors", 2),
                          obj["bases"][1]["vectors"][2][:-1]),
    lambda obj: _replaced(obj, ("bases",), obj["bases"][1:]),
    lambda obj: _replaced(obj, ("bases",), obj["bases"] + [{"standard": True}]),
    lambda obj: _replaced(obj, ("bases",), obj["bases"][:-1]),
    lambda obj: _replaced(_replaced(obj, ("bases", 1, "a"), 99), ("bases", 2, "a"), 99),
]
STRUCTURAL_IDS = ["short-basis", "ragged-row", "no-standard", "two-standards",
                  "short-set", "label-99"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: [obj],
        lambda obj: _replaced(obj, ("field", "p"), "5"),
        lambda obj: _replaced(obj, ("bases", 1), 7),
        lambda obj: _replaced(obj, ("bases", 1, "vectors", 0, 0), 1.7),
        lambda obj: _replaced(obj, ("bases", 1, "vectors", 0, 0), True),
        lambda obj: _replaced(obj, ("bases", 1, "a"), None),
        lambda obj: _replaced(obj, ("bases",), 5),
        lambda obj: _replaced(obj, ("poly",), 2),
        lambda obj: _replaced(obj, ("field", "r"), 100_000_000),
        *STRUCTURAL_EDITS,
    ],
    ids=["list-document", "string-p", "basis-not-object", "float-exponent",
         "bool-exponent", "null-a", "bases-not-list", "poly-not-string", "huge-r",
         *STRUCTURAL_IDS],
)
def test_cmd_mubs_malformed_import_exits_2(runner, tmp_path, edit):
    result = _mubs_on_edited_export(runner, tmp_path, edit, "verify")
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


@pytest.mark.parametrize("action", ["verify", "export"])
def test_cmd_mubs_unknown_construction_exits_2(runner, tmp_path, action):
    result = _mubs_on_edited_export(
        runner, tmp_path, lambda obj: _replaced(obj, ("construction",), "bogus"), action)
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


@pytest.mark.parametrize("built,args,message", [
    ("alltop", ["--construction", "planar"], "phase basis 0 is not the planar basis a = 0 of x^2"),
    ("planar", ["--construction", "alltop"], "phase basis 0 is not the alltop basis a = 0 of x^3"),
    ("planar", ["--construction", "planar", "--pi", "2*x^2"],
     "phase basis 1 is not the planar basis a = 1 of 2*x^2"),
], ids=["alltop-as-planar", "planar-as-alltop", "other-pi"])
@pytest.mark.parametrize("action", ["verify", "export"])
def test_cmd_mubs_mislabelled_csv_exits_2(runner, tmp_path, built, args, message, action):
    """csv records no construction: the one given must be the vectors'."""
    out = tmp_path / "a7.csv"
    invoke(runner, "mubs", "--p", "7", "--construction", built, "--action", "build",
           "--export-format", "csv", "--out", str(out))
    result = runner.invoke(main, ["mubs", "--p", "7", *args, "--action", action,
                                  "--in", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {message}\n"


@pytest.mark.parametrize("action", ["verify", "export"])
def test_cmd_mubs_relabelled_json_header_exits_2(runner, tmp_path, action):
    result = _mubs_on_edited_export(
        runner, tmp_path, lambda obj: _replaced(obj, ("poly",), "2*x^2"), action)
    assert result.exit_code == 2, result.output
    assert result.output == "error: phase basis 1 is not the planar basis a = 1 of 2*x^2\n"


def test_cmd_mubs_import_without_vectors_names_the_key(runner, tmp_path):
    def drop_vectors(obj):
        del obj["bases"][1]["vectors"]
        return obj

    result = _mubs_on_edited_export(runner, tmp_path, drop_vectors, "verify")
    assert result.exit_code == 2, result.output
    assert "error: missing key 'vectors'" in result.output


def test_cmd_mubs_deeply_nested_import_exits_2(tmp_path):
    path = tmp_path / "nested.json"
    path.write_bytes(b"[" * 1100 + b"]" * 1100)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "planarlab", "mubs", "--p", "5", "--construction", "planar",
         "--action", "verify", "--in", str(path)],
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr.decode()
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


def test_cmd_mubs_export_without_in_exits_2(runner):
    result = runner.invoke(main, ["mubs", "--p", "5", "--construction", "planar",
                                  "--action", "export"])
    assert result.exit_code == 2, result.output
    assert "error: --action export needs --in" in result.output


@pytest.mark.parametrize("edit", STRUCTURAL_EDITS, ids=STRUCTURAL_IDS)
def test_cmd_mubs_export_malformed_exits_2(runner, tmp_path, edit):
    # the array is built at import, so a malformed set is not written back
    result = _mubs_on_edited_export(runner, tmp_path, edit, "export")
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


@pytest.mark.parametrize("action", ["verify", "export"])
def test_cmd_mubs_csv_rows_out_of_place_exit_2(runner, tmp_path, action):
    out = tmp_path / "mubs.csv"
    invoke(runner, "mubs", "--p", "5", "--construction", "planar", "--action", "build",
           "--export-format", "csv", "--out", str(out))
    lines = out.read_text().splitlines(keepends=True)
    swapped = lines[:6] + [lines[7], lines[6]] + lines[8:]
    relabelled = [ln.replace("2,", "99,", 1) if ln.startswith("2,") else ln for ln in lines]
    for edited in (swapped, relabelled):
        out.write_text("".join(edited))
        result = runner.invoke(main, ["mubs", "--p", "5", "--construction", "planar",
                                      "--action", action, "--in", str(out)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output


def test_cmd_mubs_import_must_match_options(runner, tmp_path):
    out = tmp_path / "g5.json"
    invoke(runner, "mubs", "--p", "5", "--construction", "planar", "--action", "build",
           "--out", str(out))
    for args in (["--p", "7", "--construction", "planar"],
                 ["--p", "5", "--r", "2", "--construction", "planar"],
                 ["--p", "5", "--construction", "alltop"],
                 ["--p", "7", "--construction", "alltop"]):
        result = runner.invoke(main, ["mubs", *args, "--action", "verify", "--in", str(out)])
        assert result.exit_code == 2, (args, result.output)
        assert "error:" in result.output
    result = runner.invoke(main, ["mubs", "--p", "5", "--construction", "planar",
                                  "--action", "verify", "--in", str(out)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("value", [-1, 5, 65539, 2**64, 10**30, 1.0, None, "3"], ids=repr)
def test_cmd_mubs_json_exponent_out_of_range_exits_2(runner, tmp_path, value):
    edit = lambda obj: _replaced(obj, ("bases", 2, "vectors", 3, 1), value)  # noqa: E731
    result = _mubs_on_edited_export(runner, tmp_path, edit, "verify")
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


@pytest.mark.parametrize("value", ["-1", "p", "65539", "99999999999999999999", "", "x"],
                         ids=repr)
def test_cmd_mubs_csv_cell_out_of_range_exits_2(runner, tmp_path, value):
    out = tmp_path / "mubs.csv"
    invoke(runner, "mubs", "--p", "5", "--construction", "planar", "--action", "build",
           "--export-format", "csv", "--out", str(out))
    lines = out.read_text().splitlines(keepends=True)
    fields = lines[8].split(",")
    fields[3] = value
    lines[8] = ",".join(fields)
    out.write_text("".join(lines))
    result = runner.invoke(main, ["mubs", "--p", "5", "--construction", "planar",
                                  "--action", "export", "--in", str(out)])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


def test_cmd_mubs_csv_to_json_keeps_pi(runner, tmp_path):
    base = ["mubs", "--p", "5", "--construction", "planar", "--pi", "2*x^2"]
    csv_out = tmp_path / "g5.csv"
    invoke(runner, *base, "--action", "build", "--export-format", "csv", "--out", str(csv_out))
    built = invoke(runner, *base, "--action", "build")
    converted = invoke(runner, *base, "--action", "export", "--in", str(csv_out))
    assert converted.exit_code == 0, converted.output
    assert json.loads(converted.output)["poly"] == "2*x^2"
    assert converted.stdout_bytes == built.stdout_bytes


@pytest.mark.parametrize("action", ["export", "verify"])
def test_cmd_mubs_json_with_other_pi_exits_2(runner, tmp_path, action):
    g5 = tmp_path / "g5.json"
    invoke(runner, "mubs", "--p", "5", "--construction", "planar", "--action", "build",
           "--out", str(g5))
    base = ["mubs", "--p", "5", "--construction", "planar", "--action", action,
            "--in", str(g5)]
    result = runner.invoke(main, [*base[:5], "--pi", "2*x^2", *base[5:]])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and "2*x^2" in result.output
    same = runner.invoke(main, [*base[:5], "--pi", "x^2", *base[5:]])
    assert same.exit_code == 0, same.output
    assert same.stdout_bytes == invoke(runner, *base).stdout_bytes


@pytest.mark.parametrize("p, r", [(7, 4), (5, 4)])
def test_cmd_mubs_above_size_bound_exits_3(runner, p, r):
    for construction in ("planar", "alltop"):
        t0 = time.perf_counter()
        result = runner.invoke(main, ["mubs", "--p", str(p), "--r", str(r),
                                      "--construction", construction, "--action", "build"])
        assert time.perf_counter() - t0 < 0.5
        assert result.exit_code == 3, result.output
        assert "error:" in result.output


def test_cmd_mubs_alltop_takes_pi(runner):
    """--pi passes an Alltop f to the alltop construction: x^3 is the
    default, a planar x^2 is refused, and x^9 = x^(Q+2) over GF(49) verifies."""
    base = ["mubs", "--p", "7", "--r", "1", "--construction", "alltop", "--action", "build"]
    default = invoke(runner, *base)
    assert default.exit_code == 0, default.output
    assert invoke(runner, *base, "--pi", "x^3").stdout_bytes == default.stdout_bytes
    result = runner.invoke(main, [*base, "--pi", "x^2"])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and "x^2 is not alltop" in result.output
    verified = invoke(runner, "mubs", "--p", "7", "--r", "2", "--construction", "alltop",
                      "--pi", "x^9", "--action", "verify")
    assert verified.exit_code == 0, verified.output
    assert json.loads(verified.output)["passed"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cmd_mubs_alltop_in_characteristic_3_exits_2(runner, tmp_path, fmt):
    """No Alltop function exists in characteristic 3: building an alltop set
    over GF(9), or verifying an import as one, exits 2."""
    base = ["mubs", "--p", "3", "--r", "2", "--construction"]
    built = runner.invoke(main, [*base, "alltop", "--action", "build"])
    assert built.exit_code == 2 and "characteristic >= 5" in built.output
    path = tmp_path / f"g9.{fmt}"
    invoke(runner, *base, "planar", "--action", "build", "--export-format", fmt,
           "--out", str(path))
    if fmt == "json":  # a header that says alltop x^3
        path.write_bytes(path.read_bytes().replace(b'"planar"', b'"alltop"')
                         .replace(b'"x^2"', b'"x^3"'))
    result = runner.invoke(main, [*base, "alltop", "--action", "verify", "--in", str(path)])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and "characteristic >= 5" in result.output


def test_cmd_mubs_alltop_verify_of_a_planar_gf243_export_exits_2(runner, tmp_path):
    """The header of the GF(243) planar export (28.8 MB) is refused before
    any basis is read."""
    path = tmp_path / "g243.json"
    fld = make_field(3, 5)
    path.write_bytes(export_mubs(build_planar_mubs(fld, parse_poly("x^2", fld)), "json"))
    result = runner.invoke(main, ["mubs", "--p", "3", "--r", "5", "--construction", "alltop",
                                  "--action", "verify", "--in", str(path)])
    assert result.exit_code == 2, result.output
    assert result.output == "error: the export holds a planar set, not a alltop set\n"


def test_cmd_mubs_non_planar_pi_exits_2(runner):
    result = runner.invoke(main, ["mubs", "--p", "5", "--r", "1", "--construction",
                                  "planar", "--pi", "x^3", "--action", "build"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["mubs", "--p", "5", "--r", "2", "--construction", "planar", "--action", "verify"],
    ["mubs", "--p", "5", "--r", "2", "--construction", "planar", "--action", "verify",
     "--canonical"],
    ["search", "--p", "5", "--r", "1", "--family", "all-reduced", "--max-deg", "2",
     "--mode", "planar", "--canonical"],
    ["search", "--p", "7", "--family", "shifted-cubics", "--mode", "alltop"],
    ["search", "--p", "5", "--r", "2", "--family", "monomials", "--mode", "planar",
     "--canonical"],
])
def test_verbose_logs_to_stderr_only(runner, args):
    quiet = invoke(runner, *args)
    loud = invoke(runner, "-v", *args)
    assert quiet.exit_code == loud.exit_code == 0
    assert quiet.stderr_bytes == b""
    if args[0] == "search" and "--canonical" not in args:  # elapsed_ms may differ
        assert {**json.loads(loud.stdout_bytes), "elapsed_ms": 0} == {
            **json.loads(quiet.stdout_bytes), "elapsed_ms": 0}
    else:
        assert loud.stdout_bytes == quiet.stdout_bytes
    if args[0] == "search":
        assert loud.stderr_bytes.decode().startswith("INFO planarlab: search GF(")
        assert loud.stderr_bytes.count(b"\n") == 1
    if args[0] == "mubs":
        assert loud.stderr_bytes.decode() == (
            "INFO planarlab: verify GF(25): 25 of 25 phase bases pass the translation "
            "certificate; 0 of 625 phase vectors uncertified, 0 of 195625 vector pairs "
            "by direct histograms; 0 of 25 pair classes fail\n"
        )
    assert invoke(runner, *args).stderr_bytes == b""  # the handler left with -v


# ---------------------------------------------------------------------------
# charsum
# ---------------------------------------------------------------------------

def test_cmd_charsum_examples(runner):
    obj = invoke_json(runner, "charsum", "--p", "5", "--r", "1", "--poly", "x^2",
                      "--format", "json")
    assert obj["mag_sq"] == 5 and obj["counts"] == [1, 2, 0, 0, 2]
    obj = invoke_json(runner, "charsum", "--p", "5", "--r", "1", "--poly", "x",
                      "--format", "json")
    assert obj["mag_sq"] == 0
    obj = invoke_json(runner, "charsum", "--p", "7", "--r", "1", "--poly", "0",
                      "--format", "json")
    assert obj["mag_sq"] == 49


def test_cmd_charsum_text(runner):
    result = invoke(runner, "charsum", "--p", "5", "--r", "1", "--poly", "x^2")
    assert "|S|^2 = 5" in result.output
    result = invoke(runner, "charsum", "--p", "7", "--poly", "x^3")
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "|S|^2 is not a rational integer"


# ---------------------------------------------------------------------------
# binom
# ---------------------------------------------------------------------------

def test_cmd_binom_examples(runner):
    obj = invoke_json(runner, "binom", "--n", "6", "--k", "2", "--p", "5",
                      "--format", "json")
    assert obj["residue"] == 0 and obj["dominated"] is False
    obj = invoke_json(runner, "binom", "--n", "25", "--k", "25", "--p", "5",
                      "--format", "json")
    assert obj["residue"] == 1
    obj = invoke_json(runner, "binom", "--n", "10", "--k", "3", "--p", "7",
                      "--format", "json")
    assert obj["residue"] == 120 % 7 == 1


def test_cmd_binom_text_explains_domination(runner):
    result = invoke(runner, "binom", "--n", "6", "--k", "2", "--p", "5")
    assert "C(6,2) mod 5 = 0" in result.output
    assert "exceeds" in result.output


@pytest.mark.parametrize("p", ["4", "1", "-3"])
def test_cmd_binom_modulus_not_prime_exits_2(runner, p):
    result = runner.invoke(main, ["binom", "--n", "5", "--k", "2", "--p", p])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


def test_cmd_binom_negative_n_exits_2(runner):
    result = runner.invoke(main, ["binom", "--n", "-1", "--k", "0", "--p", "5"])
    assert result.exit_code == 2, result.output
    assert "error: n and k must be non-negative" in result.output


@pytest.mark.parametrize("p", ["1000003", "1000000000000000003"])
def test_cmd_binom_k_above_n_builds_no_table(runner, p):
    # C(1, 5) = 0 needs only the primality of p
    t0 = time.perf_counter()
    obj = invoke_json(runner, "binom", "--n", "1", "--k", "5", "--p", p,
                      "--format", "json")
    assert time.perf_counter() - t0 < 1.0
    assert obj["residue"] == 0 and obj["positions"][0]["binom"] == 0


def test_cmd_binom_large_prime_answers_from_the_digits(runner):
    t0 = time.process_time()
    result = invoke(runner, "binom", "--n", "5", "--k", "2", "--p", "1000003")
    assert time.process_time() - t0 < 1.0
    assert "C(5,2) mod 1000003 = 10" in result.output


def test_cmd_binom_digit_steps_past_the_bound_exit_2(runner):
    result = runner.invoke(main, ["binom", "--n", str(10**8), "--k", str(5 * 10**7),
                                  "--p", str(10**9 + 7)])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and "Traceback" not in result.output

# ---------------------------------------------------------------------------
# output hygiene
# ---------------------------------------------------------------------------

def test_json_outputs_are_single_documents(runner):
    cases = [
        ["field-info", "--p", "3", "--r", "2", "--format", "json"],
        ["test", "--p", "5", "--r", "1", "--poly", "x^2", "--mode", "planar"],
        ["delta", "--p", "5", "--r", "1", "--poly", "x^2", "--a", "1",
         "--format", "json"],
        ["search", "--p", "5", "--r", "1", "--family", "monomials", "--mode", "planar"],
        ["charsum", "--p", "5", "--r", "1", "--poly", "x^2", "--format", "json"],
        ["binom", "--n", "6", "--k", "2", "--p", "5", "--format", "json"],
        ["mubs", "--p", "5", "--r", "1", "--construction", "planar", "--action",
         "verify"],
    ]
    for args in cases:
        result = invoke(runner, *args)
        assert result.exit_code == 0, (args, result.output)
        lines = [ln for ln in result.output.splitlines() if ln]
        assert len(lines) == 1
        json.loads(lines[0])


# ---------------------------------------------------------------------------
# pinned output over extension fields
# ---------------------------------------------------------------------------

# sha256 of stdout made by the digit-vector addition kernel; field-info, delta
# and charsum read the field kernel, binom reads the base-p digit walk
PINNED_STDOUT = [
    (["field-info", "--p", "3", "--r", "2", "--mul-table", "--format", "json"],
     "322922b72dafa9991bcbf7b4f6ff53c7f5468e9f5e5a7a4a05134df3aaa99640"),
    (["field-info", "--p", "3", "--r", "2", "--mul-table"],
     "56328660229a394655838649205ae93ea77d3b2477563d64bf0f202e3f01d30d"),
    (["field-info", "--p", "5", "--r", "3", "--format", "json"],
     "f17043cba75d6a730829da74d65579e602dc7ac6cf81c3e83ba8b8444991ba6f"),
    (["field-info", "--p", "7", "--r", "4"],
     "09afd5538e9ae88b6fea0019da8939c2d7a11345fa67c8d71abaf6a3c01d7140"),
    (["delta", "--p", "3", "--r", "2", "--poly", "5*x^7 + x^4 + 2*x", "--a", "4"],
     "cc1d50524fa2993f0e17a13ff25c616867b24f9f81ce23659cd21ec118eb8040"),
    (["delta", "--p", "5", "--r", "3", "--poly", "7*x^31 + 3*x^6 + x^2", "--a", "17",
      "--b", "101", "--format", "json"],
     "9917aa9d4c1efffa1da42ff8380c504183d6424be2d307a13248cfc0053b3c79"),
    (["delta", "--p", "7", "--r", "4", "--poly", "x^400 + 1000*x^50 + 3*x^3", "--a",
      "1234", "--format", "json"],
     "5023ff611f282c139268c50ada64ff12ba29752ec108178657ecec22a4b9d909"),
    (["charsum", "--p", "3", "--r", "2", "--poly", "x^4 + 3*x", "--format", "json"],
     "76ff013183e61eb76e95e25bedd5119950f18d86ba9b9b8adc6a66157c51d995"),
    (["charsum", "--p", "5", "--r", "3", "--poly", "x^3 + 2*x"],
     "85f3803bc70a49bf350b33637616610f8ecbe2f64246d530aa2d1b20535b8efb"),
    (["charsum", "--p", "7", "--r", "4", "--poly", "x^2 + 5*x^8 + 77", "--format", "json"],
     "5c1d1fd319eab3149f56139c1b87300529124733c597ba201e6c6ec34e2ffbaa"),
    (["binom", "--n", "80", "--k", "40", "--p", "3", "--format", "json"],
     "262f5232ecf27d720b0ae4f98f31bc2415dbb9c0ff1d19838a94b35cd938b886"),
    (["binom", "--n", "124", "--k", "31", "--p", "5"],
     "5357b9fc954ccb6cb5db1bafd377a1bc0da23823d02302852d5ab5d719551a86"),
    (["binom", "--n", "2400", "--k", "1201", "--p", "7", "--format", "json"],
     "67fbf3ed4aafb80ba5e59bb04e83e18f662af04486dde3095e0831f535303fef"),
]


@pytest.mark.parametrize("args, digest", PINNED_STDOUT,
                         ids=[" ".join(args) for args, _ in PINNED_STDOUT])
def test_extension_field_stdout_is_pinned(runner, args, digest):
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


# sha256 of `search --canonical` stdout made by the scan that classifies every
# candidate; campaigns where reduced exponents collide (x^5 = x over GF(5),
# x^3 = x and x^4 = x^2 over GF(3)), an extension field, a worker split and a
# family built by shift_scale
PINNED_SEARCH = [
    (["--p", "5", "--family", "all-reduced", "--max-deg", "5", "--mode", "alltop"],
     "7a3ca3a31f2b342602f93026a5483b6c67f4e6fe40516234cd5dafce308ed624"),
    (["--p", "3", "--family", "all-reduced", "--max-deg", "4", "--mode", "planar"],
     "5a765001c3fc435d602412dec3fb7586e023461e4b892bdf14a5928c39ccb6b1"),
    (["--p", "3", "--family", "all-reduced", "--max-deg", "4", "--mode", "alltop"],
     "094a104ce368ed3e4d68ea984438e08623a6533850480309fb83634b37dea813"),
    (["--p", "3", "--r", "2", "--family", "all-reduced", "--max-deg", "3", "--mode",
      "planar"],
     "2a2ff66322e4f8df256fa843d87bfd398144e84b38daf2acf4893c3dad9672d5"),
    (["--p", "5", "--r", "2", "--family", "all-reduced", "--max-deg", "2", "--mode",
      "planar", "--workers", "2"],
     "7e22cd1f69efe09c6f365997518ec025a056ebcff156c42d42f220475ec40c37"),
    (["--p", "7", "--family", "shifted-cubics", "--mode", "alltop"],
     "335cc281085e73431d1e54cdf7486dcefe47184e68e76ea004849ba5358969d5"),
]


@pytest.mark.parametrize("args, digest", PINNED_SEARCH,
                         ids=[" ".join(args) for args, _ in PINNED_SEARCH])
def test_search_canonical_stdout_is_pinned(runner, args, digest):
    result = invoke(runner, "search", *args, "--canonical")
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("workers", ["2", "64"])
def test_search_starts_no_process(runner, monkeypatch, workers):
    def refuse(*args, **kwargs):
        raise AssertionError("planarlab started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    args, digest = PINNED_SEARCH[4]
    assert args[-2:] == ["--workers", "2"]
    result = invoke(runner, "search", *args[:-1], workers, "--canonical")
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
    rep = run_search(make_field(5), FamilySpec("all-reduced", 3), "alltop")
    assert rep.tested == 625 and rep.hit_indices
