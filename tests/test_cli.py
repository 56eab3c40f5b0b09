"""Command-line interface: output contracts, exit codes, JSON stability."""

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module
from pathlib import Path

import cli_sweep
import pytest
from conftest import main_block_calls
from reference import reference_parser

import nilcx
from nilcx import cli, cli_common
from nilcx.algfile import parse_text
from nilcx.catalog import get, render_entry
from nilcx.cli import COMMANDS, main, read_argv
from nilcx.cli_help import build_parser


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.fixture(autouse=True)
def json_as_dumps_writes_it(monkeypatch):
    """Every value a --json run here writes is checked against json.dumps."""
    encode = cli_common._encode

    def checked(value):
        text = encode(value)
        assert text == _dumps(value)
        return text

    monkeypatch.setattr(cli_common, "_encode", checked)


def alg_path(tmp_path, name, **params):
    p = tmp_path / f"{name}.alg"
    p.write_text(render_entry(get(name, **params)))
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_h9(tmp_path, capsys):
    rc, out, err = run(capsys, ["validate", alg_path(tmp_path, "h9")])
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "algebra h9 (dim 6)"
    assert "nilpotent: yes, step 3" in lines
    assert "  integrable: yes" in lines
    assert "  abelian: yes" in lines
    assert "  J-nilpotent: yes" in lines


def test_validate_json_replaces_text(tmp_path, capsys):
    path = alg_path(tmp_path, "h15")
    rc, out, _ = run(capsys, ["validate", path, "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["step"] == 3
    assert doc["structures"]["J"] == {
        "abelian": True,
        "integrable": True,
        "nilpotent": True,
    }
    rc2, out2, _ = run(capsys, ["validate", path, "--json"])
    assert out2 == out


def test_series_h9_adapted_frame(tmp_path, capsys):
    rc, out, _ = run(capsys, ["series", alg_path(tmp_path, "h9")])
    assert rc == 0
    assert "ascending series dims: 2, 4, 6" in out
    assert "  X1 = (1)*e5 + (-i)*e6" in out
    assert "  X2 = (1)*e3 + (-i)*e4" in out
    assert "  X3 = (1)*e1 + (-i)*e2" in out


def test_cohomology_h15_degree_one(tmp_path, capsys):
    rc, out, _ = run(
        capsys, ["cohomology", alg_path(tmp_path, "h15"), "--degree", "1"]
    )
    assert rc == 0
    assert "dim = 5" in out.splitlines()
    assert "  h1 = (1)*wb1 ox X1" in out
    assert "gram matrix:" in out


def test_cohomology_json(tmp_path, capsys):
    argv = ["cohomology", alg_path(tmp_path, "h15"), "--degree", "1", "--json"]
    rc, out1, _ = run(capsys, argv)
    assert rc == 0
    rc, out2, _ = run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["dim"] == 5
    assert len(doc["basis"]) == 5
    assert doc["gram"][4][4] == "5/4"


def test_kuranishi_h9_trivial(tmp_path, capsys):
    rc, out, _ = run(
        capsys, ["kuranishi", alg_path(tmp_path, "h9"), "--order", "6"]
    )
    assert rc == 0
    assert "φ_r = 0 for r ≥ 2; no obstructions" in out.splitlines()
    assert "obstructions:" not in out


def test_kuranishi_h15_tables(tmp_path, capsys):
    rc, out, _ = run(
        capsys, ["kuranishi", alg_path(tmp_path, "h15"), "--order", "2"]
    )
    assert rc == 0
    assert "  t2*t3: (-2)*wb2 ox X3" in out
    assert "  t2^2: (-2/5)*wb1 ox X3" in out
    assert "  t1*t3: (1)*wb3 ox X3" in out
    assert "  f1 = 0" in out
    assert "  f3 = (4)*t2^2" in out


def test_kuranishi_h15_deformed_point(tmp_path, capsys):
    rc, out, _ = run(
        capsys,
        [
            "kuranishi",
            alg_path(tmp_path, "h15"),
            "--order",
            "4",
            "--at",
            "0,0,1/10,0,0",
        ],
    )
    assert rc == 0
    assert "classification: integrable, nilpotent, not abelian" in out
    assert "nilpotent, not abelian" in out
    assert "deformed J matrix:" in out


def test_kuranishi_h15_locus_point_stays_abelian(tmp_path, capsys):
    rc, out, _ = run(
        capsys,
        [
            "kuranishi",
            alg_path(tmp_path, "h15"),
            "--order",
            "4",
            "--at",
            "0,0,0,1/10,0",
        ],
    )
    assert rc == 0
    assert "classification: integrable, nilpotent, abelian" in out


def test_kuranishi_notes_obstructed_point_on_stderr_only(tmp_path, capsys):
    # on h15 at order 6, f3 = (4)*t2^2 + ... is nonzero at t2 = 1/10, while
    # every obstruction vanishes at t3 = 1/10
    path = alg_path(tmp_path, "h15")
    outs = {}
    for point in ("0,1/10,0,0,0", "0,0,1/10,0,0"):
        for extra in ([], ["--json"]):
            argv = ["kuranishi", path, "--order", "6", "--at", point, *extra]
            rc, out, err = run(capsys, argv)
            outs[(point, tuple(extra))] = out
            assert rc == 0 and "note" not in out
            if point == "0,0,1/10,0,0":
                assert err == ""
            else:
                assert err == (
                    "note: t = (0, 1/10, 0, 0, 0) is obstructed (nonzero there: f3); "
                    "the deformed J is not a Kuranishi deformation\n"
                )
    # stdout is the report it was: same classification line, no new JSON key
    text = outs[("0,1/10,0,0,0", ())]
    assert "classification: not integrable, not nilpotent, not abelian" in text
    doc = json.loads(outs[("0,1/10,0,0,0", ("--json",))])
    assert set(doc) == {
        "schema", "command", "algebra", "structure", "order", "coordinates",
        "coefficients", "obstructions", "point", "deformed_j", "classification",
    }


def test_kuranishi_obstruction_note_names_every_live_polynomial(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        ["kuranishi", alg_path(tmp_path, "h15"), "--order", "6", "--at", "1/10,1/10,0,0,0"],
    )
    assert rc == 0
    assert "(nonzero there: f2, f3)" in err


def test_kuranishi_notes_a_truncated_series_on_stderr_only(tmp_path, capsys):
    # every n10 obstruction vanishes at this point, but along t2 and t11 the
    # series never ends, so the order-2 Phi(t) is not integrable there
    point = "0,1/10,0,0,0,0,0,0,0,0,1/10,0,0,0"
    rc, out, err = run(
        capsys, ["kuranishi", alg_path(tmp_path, "n10", s=1, t=0), "--order", "2", "--at", point]
    )
    assert rc == 0 and "note" not in out
    assert out.endswith("classification: not integrable, nilpotent, not abelian\n")
    assert err == (
        "note: the order-2 series does not solve the Maurer-Cartan equation at "
        "t = (0, 1/10, 0, 0, 0, 0, 0, 0, 0, 0, 1/10, 0, 0, 0): the deformed J is not "
        "integrable; the classification is of the truncated structure\n"
    )


@pytest.mark.parametrize(
    "name,order,point",
    [
        ("h15", "2", "0,0,1/10,0,0"),
        ("h15", "2", "1/10,0,1/10,0,0"),
        ("h15", "6", "1/10,0,1/10,0,0"),
        ("h9", "6", "1/10,0,0"),
        ("h9", "2", "1/3,-1/7,1/2"),
    ],
)
def test_kuranishi_is_silent_where_the_series_ends(tmp_path, capsys, name, order, point):
    rc, _, err = run(capsys, ["kuranishi", alg_path(tmp_path, name), "--order", order, "--at", point])
    assert rc == 0 and err == ""


def test_kuranishi_json_byte_identical(tmp_path, capsys):
    argv = [
        "kuranishi",
        alg_path(tmp_path, "h15"),
        "--order",
        "3",
        "--at",
        "0,0,1/10,0,0",
        "--json",
    ]
    rc, out1, _ = run(capsys, argv)
    assert rc == 0
    rc, out2, _ = run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["classification"] == {
        "integrable": True,
        "abelian": False,
        "nilpotent": True,
    }
    assert doc["point"] == ["0", "0", "1/10", "0", "0"]
    assert doc["obstructions"][0] == "0"


def test_abelian_locus_h15(tmp_path, capsys):
    rc, out, _ = run(capsys, ["abelian-locus", alg_path(tmp_path, "h15")])
    assert rc == 0
    assert "infinitesimal abelian subspace: dim 3" in out
    assert "[1 0 0 0 0]" in out
    assert "[0 0 0 1 0]" in out
    assert "[0 0 0 0 1]" in out


def test_abelian_locus_json(tmp_path, capsys):
    rc, out, _ = run(
        capsys, ["abelian-locus", alg_path(tmp_path, "h9"), "--json"]
    )
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert doc["basis"] == [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "1"],
    ]


def test_catalog_list(capsys):
    rc, out, _ = run(capsys, ["catalog"])
    assert rc == 0
    assert [ln.split()[0] for ln in out.splitlines()] == [
        "h9",
        "h15",
        "n10",
        "torus",
    ]


def test_catalog_emit_matches_render(tmp_path, capsys):
    rc, out, _ = run(capsys, ["catalog", "h9"])
    assert rc == 0
    assert out == render_entry(get("h9"))
    parsed = parse_text(out)
    assert parsed.algebra.bracket_table() == get("h9").algebra.bracket_table()


def test_catalog_emit_n10_with_params(capsys):
    rc, out, _ = run(capsys, ["catalog", "n10", "--s", "2", "--t", "1"])
    assert rc == 0
    assert out == render_entry(get("n10", s=2, t=1))


def test_catalog_rejects_degenerate_params(capsys):
    rc, out, err = run(capsys, ["catalog", "n10", "--s", "1", "--t", "1"])
    assert rc == 1
    assert "rejected" in err


def test_exit_code_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    p.write_text("algebra x\ndim 3\nbracket e2 e1 = 1*e3\n")
    rc, _, err = run(capsys, ["validate", str(p)])
    assert rc == 2
    assert "line 3, col 9" in err


def test_exit_code_zero_denominator(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    p.write_text("algebra x\ndim 2\nbracket e1 e2 = 1/0*e2\n")
    rc, out, err = run(capsys, ["validate", str(p)])
    assert (rc, out) == (2, "")
    assert err == "error: line 3, col 17: zero denominator\n"


def test_exit_code_validation_failure(tmp_path, capsys):
    p = tmp_path / "sl.alg"
    p.write_text("algebra sl\ndim 2\nbracket e1 e2 = 1*e1\n")
    rc, _, err = run(capsys, ["validate", str(p)])
    assert rc == 1
    assert "not nilpotent" in err


@pytest.mark.parametrize(
    "text, stop",
    [
        # [e1, e2] = e2: the center is zero
        ("algebra solvable\ndim 2\nbracket e1 e2 = 1*e2\n", "level 0, dim 0 of 2"),
        # the same with a central e3: the series stops at the center
        ("algebra s3\ndim 3\nbracket e1 e2 = 1*e2\n", "level 1, dim 1 of 3"),
    ],
)
@pytest.mark.parametrize("argv", [["validate"], ["series"], ["cohomology", "--degree", "1"]])
def test_not_nilpotent_names_where_the_central_series_stops(tmp_path, capsys, text, stop, argv):
    p = tmp_path / "solvable.alg"
    p.write_text(text)
    err = f"error: algebra fails validation: not nilpotent: the ascending central series stops at {stop}\n"
    assert run(capsys, [argv[0], str(p), *argv[1:]]) == (1, "", err)


@pytest.mark.parametrize(
    "argv",
    [["cohomology", "--degree", "1"], ["kuranishi", "--order", "2"], ["abelian-locus", "--json"]],
)
def test_non_abelian_structure_names_its_block_and_a_pair(tmp_path, capsys, argv):
    # n10 at (s, t) = (2, 1): [Je1, Je2] = [e1, e2], and [Je1, Je3] = 0 != [e1, e3]
    path = alg_path(tmp_path, "n10", s=2, t=1)
    err = "error: structure J: J is not abelian: [Je1, Je3] != [e1, e3]\n"
    assert run(capsys, [argv[0], path, *argv[1:]]) == (3, "", err)


@pytest.mark.parametrize(
    "name, params, argv",
    [
        ("h15", {}, ["kuranishi", "--order", "2", "--at", "0,0,1/10,0,0"]),
        ("h15", {}, ["kuranishi", "--order", "2", "--at", "0,0,1/10,0,0", "--json"]),
        ("h9", {}, ["abelian-locus"]),
        ("n10", {"s": 1, "t": 0}, ["abelian-locus", "--json"]),
    ],
)
def test_a_job_builds_each_cohomology_degree_once(
    tmp_path, capsys, monkeypatch, name, params, argv
):
    from nilcx import dolbeault

    built = []
    space = dolbeault.CohomologySpace

    def counted(*fields):
        built.append(fields[0])
        return space(*fields)

    monkeypatch.setattr(dolbeault, "CohomologySpace", counted)
    rc, out, _ = run(capsys, [argv[0], alg_path(tmp_path, name, **params), *argv[1:]])
    assert rc == 0 and out
    assert built == [1]


def test_exit_code_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, ["validate", str(tmp_path / "none.alg")])
    assert rc == 2
    assert "error:" in err


def test_exit_code_degenerate_deformation(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        [
            "kuranishi",
            alg_path(tmp_path, "h15"),
            "--order",
            "2",
            "--at",
            "1,0,0,0,0",
        ],
    )
    assert rc == 3
    assert "parameter too large" in err
    assert err.endswith("at t = (1, 0, 0, 0, 0)\n")


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_degenerate_point_prints_no_report(tmp_path, capsys, fmt):
    rc, out, err = run(
        capsys, ["kuranishi", alg_path(tmp_path, "h9"), "--order", "2", "--at", "1,1,1", *fmt]
    )
    assert rc == 3
    assert out == ""
    assert err == (
        "error: parameter too large: deformed (0,1)-space degenerate at t = (1, 1, 1)\n"
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "args, out_sha, err_sha",
    [
        (
            ["--order", "4", "--json"],
            "82c1d89623f274044ffbb1ed1e9bf9a837b6af928e9ab76c23a37a1666ad4928",
            _sha(""),
        ),
        (
            ["--order", "3"],
            "766ac8f5ce20765c062a791724ae1c88cd7873bf6762ca809c431045ade0ce99",
            _sha(""),
        ),
        (
            ["--order", "2", "--at", "0,1/10,0,0,0,0,0,0,0,0,1/10,0,0,0"],
            "b83e2b77e843114860465a35a008988ead126326aacb3dd2a7c20c843011d120",
            "b33c615b47ec1d5984579430adf023259bd7f29482c723fb3dd22ae6a3033c4b",
        ),
    ],
)
def test_kuranishi_n10_output_bytes_are_pinned(tmp_path, capsys, args, out_sha, err_sha):
    # SHA-256 of the output as the ordered-pair bracket route printed it;
    # n10 has the most coefficients, and the benchmark does not run it
    rc, out, err = run(capsys, ["kuranishi", alg_path(tmp_path, "n10", s=1, t=0), *args])
    assert rc == 0
    assert (_sha(out), _sha(err)) == (out_sha, err_sha)


def test_kuranishi_without_degree_two_reports_no_obstructions(tmp_path, capsys):
    # torus n = 1 has no degree-2 chains, so H^2 = 0 and nothing is obstructed
    path = alg_path(tmp_path, "torus", n=1)
    head = (
        "algebra torus (dim 2), structure J\n"
        "order 2\n"
        "coordinates t1..t1 (degree-one harmonic basis):\n"
        "  t1: (1)*wb1 ox X1\n"
        "φ_r = 0 for r ≥ 2; no obstructions\n"
    )
    assert run(capsys, ["kuranishi", path, "--order", "2"]) == (0, head, "")
    rc, out, err = run(capsys, ["kuranishi", path, "--order", "2", "--json"])
    assert (rc, err) == (0, "")
    assert out == (
        '{"algebra":"torus","coefficients":{},"command":"kuranishi",'
        '"coordinates":["(1)*wb1 ox X1"],"obstructions":[],"order":2,'
        '"schema":1,"structure":"J"}\n'
    )
    at = (
        "at t = (1/2)\n"
        "deformed J matrix:\n"
        "  [  0 -3]\n"
        "  [1/3  0]\n"
        "classification: integrable, nilpotent, abelian\n"
    )
    assert run(capsys, ["kuranishi", path, "--order", "2", "--at", "1/2"]) == (0, head + at, "")


def test_exit_code_series_frame_precondition(tmp_path, capsys):
    # the n10 structures do not preserve the ascending series, so no
    # adapted frame exists; the command must fail whole, not half-print
    rc, out, err = run(capsys, ["series", alg_path(tmp_path, "n10", s=2, t=1)])
    assert rc == 3
    assert out == ""
    assert "does not preserve ascending series" in err


def test_at_arity_checked(tmp_path, capsys):
    rc, out, err = run(
        capsys,
        ["kuranishi", alg_path(tmp_path, "h15"), "--order", "2", "--at", "1,0"],
    )
    assert rc == 1
    # the message names the count given and the count expected
    assert err == "error: wrong number of parameters: --at has 2 values; H^1 has dimension 5\n"
    # refused before the series is built, so no report is printed
    assert out == ""
    rc, out, err = run(
        capsys,
        ["kuranishi", alg_path(tmp_path, "torus", n=2), "--order", "1", "--at", "0,0,0,0,0,0"],
    )
    assert (rc, out) == (1, "")
    assert err == "error: wrong number of parameters: --at has 6 values; H^1 has dimension 4\n"


@pytest.mark.parametrize("tok", ["1/0", "abc"])
def test_bad_at_token_refused_before_any_report(tmp_path, capsys, tok):
    rc, out, err = run(
        capsys,
        ["kuranishi", alg_path(tmp_path, "h15"), "--order", "2", "--at", f"{tok},0,0,0,0"],
    )
    assert rc == 1
    assert err == f"error: not a rational number: {tok!r}\n"
    assert out == ""


def test_structure_flag_selects_block(tmp_path, capsys):
    text = (
        "algebra flat\ndim 2\n"
        "structure J\nJ e1 = 1*e2\n"
        "structure K\nJ e1 = -1*e2\n"
    )
    p = tmp_path / "two.alg"
    p.write_text(text)
    rc, out, _ = run(
        capsys,
        ["cohomology", str(p), "--degree", "0", "--structure", "K"],
    )
    assert rc == 0
    assert "structure K" in out


def test_missing_structure_block(tmp_path, capsys):
    p = tmp_path / "bare.alg"
    p.write_text("algebra flat\ndim 4\n")
    rc, _, err = run(capsys, ["cohomology", str(p), "--degree", "1"])
    assert rc == 1
    assert "no structure block" in err


def _child_env() -> dict:
    # the child finds the package where this interpreter found it, and argparse
    # wraps help at 80 columns there as in-process
    src = str(Path(nilcx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, COLUMNS="80")


def test_module_runs_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "nilcx.cli", "catalog"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("h9")


# one argv per way out of a job, with its exit code: success, a validation
# error, a parse error, an argparse usage error, a precondition and help
EXIT_PATHS = [
    (0, ["kuranishi", "h15.alg", "--order", "2", "--at=1/10,0,1/10,0,0", "--json"]),
    (1, ["validate", "solvable.alg"]),
    (2, ["validate", "syntax.alg"]),
    (2, ["cohomology", "h15.alg"]),
    (3, ["cohomology", "h15.alg", "--degree", "4"]),
    (0, ["--help"]),
]


@pytest.fixture
def job_dir(tmp_path, monkeypatch):
    """A directory holding the inputs of EXIT_PATHS, as the working directory."""
    (tmp_path / "h15.alg").write_text(render_entry(get("h15")))
    for stem in ("solvable", "syntax"):
        (tmp_path / f"{stem}.alg").write_text(cli_sweep.TEXT_FILES[stem])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


def _in_process(capsys, argv):
    """Exit code, stdout and stderr bytes of ``main(argv)``, argparse's exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


@pytest.mark.parametrize("code, argv", EXIT_PATHS)
def test_script_path_matches_main(job_dir, capsys, code, argv):
    """python -m nilcx.cli exits through SystemExit(script()) with the exit
    code and the bytes of main run in-process."""
    proc = subprocess.run(
        [sys.executable, "-m", "nilcx.cli", *argv],
        capture_output=True,
        cwd=job_dir,
        env=_child_env(),
    )
    want = _in_process(capsys, argv)
    assert want[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == want


# runs nilcx.cli as __main__ after registering an atexit handler, which runs
# after the script's own way out and reports the collector's freeze count
FREEZE_PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
runpy.run_module("nilcx.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("code, argv", EXIT_PATHS)
def test_script_freezes_the_collector_on_every_way_out(job_dir, code, argv):
    proc = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, *argv],
        capture_output=True,
        text=True,
        cwd=job_dir,
        env=_child_env(),
    )
    assert proc.returncode == code
    word, count = proc.stderr.splitlines()[-1].split()
    assert word == "frozen" and int(count) > 0


@pytest.mark.parametrize("code, argv", EXIT_PATHS)
def test_main_in_process_leaves_the_collector_alone(job_dir, capsys, code, argv):
    before = gc.get_freeze_count(), gc.isenabled()
    assert _in_process(capsys, argv)[0] == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_console_script_is_the_entry_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["nilcx"]
    module, _, name = target.partition(":")
    entry = getattr(import_module(module), name)
    called = [vars(cli)[n] for n in main_block_calls(cli.__file__) if n in vars(cli)]
    assert called == [entry]


@pytest.mark.parametrize(
    "argv",
    [["series"], ["cohomology", "--degree", "1"], ["kuranishi", "--order", "2"]],
)
def test_each_command_runs_one_jacobi_pass(tmp_path, capsys, monkeypatch, argv):
    import nilcx.lie as lie

    path = alg_path(tmp_path, "h15")
    passes = []
    real = lie._jacobi_violations

    def counted(a):
        passes.append(a.name)
        return real(a)

    monkeypatch.setattr(lie, "_jacobi_violations", counted)
    rc, out, _ = run(capsys, [argv[0], path, *argv[1:]])
    assert rc == 0 and out
    assert passes == ["h15"]


# ------------------------------------------------------------ argv and JSON

# values for each option: plain ones, and ones argparse must judge (bad
# ints, a leading dash, blanks)
_VALUES = {
    "--structure": ["J", "K", "-K"],
    "--degree": ["0", "2", " 3", "x", "2.5", "-1", ""],
    "--order": ["1", "4", "1_0", "o", "-2"],
    "--at": ["0,1/2,0", "-1,0", "", "1 ,2"],
    "--s": ["1/2", "-3", "2"],
    "--t": ["0", "1/3", "-1"],
    "--n": ["2", "4", "n", "-1"],
}
_STRAYS = ["--", "-h", "--help", "--bogus", "-", "-x"]


def _argv_corpus(rng: random.Random, count: int) -> list[list[str]]:
    """Seeded argvs over every command: both option orders, = and space forms,
    abbreviations, repeats, missing or extra arguments, stray tokens."""
    corpus = [[], ["-h"], ["--help"], ["bogus"], ["--json"]]
    while len(corpus) < count:
        command = rng.choice(list(COMMANDS))
        _, positionals, options, _ = COMMANDS[command]
        words = ["torus"] if command == "catalog" else ["h.alg"]
        groups = [[w] for w in words[: len(positionals) + rng.choice([0, 0, 0, -1, 1])]]
        for name, kind, _, required, _ in options:
            if rng.random() > (0.9 if required else 0.5):
                continue
            for _ in range(2 if rng.random() < 0.08 else 1):
                short = len(name) > 3 and rng.random() < 0.1
                spelt = name[: rng.randrange(3, len(name))] if short else name
                if kind is bool:
                    groups.append([spelt] if rng.random() < 0.95 else [spelt + "=1"])
                    continue
                value = rng.choice(_VALUES[name])
                groups.append([f"{spelt}={value}"] if rng.random() < 0.5 else [spelt, value])
        if rng.random() < 0.1:
            groups.append([rng.choice(_STRAYS)])
        rng.shuffle(groups)
        corpus.append([command] + [tok for group in groups for tok in group])
    return corpus


def _outcome(parse, argv):
    """(vars of the namespace, None) or (None, (exit code, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(parse(argv)), None
        except SystemExit as exc:
            return None, (exc.code, out.getvalue(), err.getvalue())


def test_command_table_reads_argv_as_argparse_does(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    accepted = declined = 0
    for argv in _argv_corpus(random.Random(15), 800):
        want, refused = _outcome(lambda a: reference_parser().parse_args(a), argv)
        got = read_argv(argv)
        if got is not None:
            assert vars(got) == want, argv
            accepted += 1
            continue
        declined += 1
        if refused is None:
            # argparse reads what the table declines: abbreviations, repeats
            assert _outcome(lambda a: build_parser(COMMANDS).parse_args(a), argv) == (want, None), argv
        else:
            assert _outcome(main, argv) == (None, refused), argv
    assert accepted >= 200 and declined >= 200


def test_help_text_is_argparse_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (
        "usage: nilcx [-h]\n"
        "             {validate,series,cohomology,kuranishi,abelian-locus,catalog} ...\n"
        "\n"
        "exact invariant complex structures on nilpotent Lie algebras\n"
        "\n"
        "positional arguments:\n"
        "  {validate,series,cohomology,kuranishi,abelian-locus,catalog}\n"
        "    validate            Jacobi, step, and structure checks\n"
        "    series              ascending series and adapted frame\n"
        "    cohomology          harmonic basis in one degree\n"
        "    kuranishi           deformation series and obstructions\n"
        "    abelian-locus       infinitesimal abelian subspace\n"
        "    catalog             list built-ins or emit one as .alg\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["kuranishi", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (
        "usage: nilcx kuranishi [-h] [--structure STRUCTURE] --order ORDER [--at AT]\n"
        "                       [--json]\n"
        "                       file\n"
        "\n"
        "positional arguments:\n"
        "  file                  path to an .alg file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --structure STRUCTURE\n"
        "                        structure block to use (default: first)\n"
        "  --order ORDER\n"
        "  --at AT               comma-separated rational coordinates in the printed\n"
        "                        basis order\n"
        "  --json\n"
    )


# quote, backslash, the escaped and the other controls, U+007F, BMP
# non-ASCII (a lone surrogate too) and astral characters
_CHARS = [
    "a", "Z", " ", "/", '"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f",
    "\x7f", "\xe9", "\u03c6", "\u2028", "\uffff", "\ud800", "\U00010000", "\U0001f600",
]


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_payload(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 3 else 4)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.randint(-(10**20), 10**20)
    if kind == 2:
        return rng.random() < 0.5
    if kind == 3:
        return None
    items = [_random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {_random_text(rng): item for item in items}


def test_json_writer_matches_json_dumps(capsys):
    rng = random.Random(15)
    for _ in range(500):
        payload = {_random_text(rng): _random_payload(rng) for _ in range(3)}
        cli_common.emit_json(payload)
        assert capsys.readouterr().out == _dumps(payload) + "\n"


@pytest.mark.parametrize("payload", [{"x": 1.5}, {"x": [2.0]}, {"x": {1, 2}}])
def test_json_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        cli_common.emit_json(payload)
