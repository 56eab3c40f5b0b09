"""A fixed sweep of nilcx command lines, with a digest of what each prints.

Run as a script from any checkout, it writes the sweep's input files to a
temporary directory, runs every argv of ``ARGVS`` in-process through
``nilcx.cli.main`` there, and prints one line per argv: the exit code, the
SHA-256 of stdout, the SHA-256 of stderr, and the argv. Two checkouts give
the same exit codes and bytes exactly when they print the same lines:

    python tests/cli_sweep.py > before.txt   # in one checkout
    python tests/cli_sweep.py > after.txt    # in the other
    diff before.txt after.txt

The lines of the checkout are kept in ``GOLDEN``, under a header that
names the Python minor version they were made with (argparse writes the
help and usage text, and its wording moves between versions).
``tests/test_cli_golden.py`` reruns the sweep and compares it with that
file line by line. A change that means to move output rewrites the file:

    python tests/cli_sweep.py --write

With ``--compiled`` it prints instead, for each argv, the nilcx source a
job of that argv compiles: the total source lines and AST nodes, then each
nilcx module the run loads with its lines and nodes. Each argv runs after
the nilcx modules are dropped from ``sys.modules``, so it loads what a
fresh ``python -m nilcx.cli`` process would:

    python tests/cli_sweep.py --compiled

The script imports nilcx from the ``src`` directory beside it, and sets
``COLUMNS=80`` so that argparse wraps help text the same way everywhere.
It uses the standard library only. ``tests/test_package.py`` runs
``ENTRY_ARGVS``, a part of ``ARGVS`` that builds one complex on the
ten-dimensional inputs, under a profiler to find the library functions no
command enters.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).with_name("cli_sweep.golden")

# stem -> (catalog name, parameters); n10_21 is a non-abelian member of the family
CATALOG_FILES = {
    "h9": ("h9", {}),
    "h15": ("h15", {}),
    "n10": ("n10", {"s": 1, "t": 0}),
    "n10_21": ("n10", {"s": 2, "t": 1}),
    "torus1": ("torus", {"n": 1}),
    "torus2": ("torus", {"n": 2}),
    "torus3": ("torus", {"n": 3}),
    "torus4": ("torus", {"n": 4}),
}

# files the catalog cannot produce: two structure blocks, none, a syntax
# error, an algebra that is not nilpotent
TEXT_FILES = {
    "two": "algebra flat\ndim 2\nstructure J\nJ e1 = 1*e2\nstructure K\nJ e1 = -1*e2\n",
    "plain": "algebra plain\ndim 2\n",
    "syntax": "algebra bad\ndim 2\nbracket e2 e1 = 1*e1\n",
    "solvable": "algebra solvable\ndim 2\nbracket e1 e2 = 1*e2\n",
}

# --at points per file: unobstructed, obstructed, degenerate, wrong arity,
# negative coordinates and unreadable tokens
POINTS = {
    "h9": ["1/10,0,0", "0,0,0", "1,0,0", "-1/3,1/7,1/2", "1/3,-1/7,1/2", "1,2"],
    "h15": [
        "0,0,1/10,0,0",
        "1/10,0,1/10,0,0",
        "0,1/10,0,0,0",
        "1/5,0,0,1/7,-1/3",
        "-1/10,0,0,0,0",
        "1,1,1,1,1",
        "1,2",
        "abc,0,0,0,0",
        "1/0,0,0,0,0",
    ],
    "torus1": ["1/2", "1,1"],
    "torus2": ["1/2,0,0,1/3", "1/10,1/10,1/10,1/10"],
    "torus3": ["1/10,0,0,0,1/10,0,0,0,1/10", "1,0,0"],
    "n10": ["0,1/10,0,0,0,0,0,0,0,0,1/10,0,0,0", "1/10,0,0,0,0,0,0,0,0,0,0,0,0,0"],
}

ORDERS = {"h9": 6, "h15": 6, "torus1": 2, "torus2": 3, "torus3": 3, "n10": 3}
HALF_DIM = {"h9": 3, "h15": 3, "n10": 5, "torus1": 1, "torus2": 2, "torus3": 3}


def _at(point: str) -> list[str]:
    # a value that starts with "-" must be joined to its option
    return [f"--at={point}"] if point.startswith("-") else ["--at", point]


def _argvs() -> list[list[str]]:
    out: list[list[str]] = [
        [],
        ["--help"],
        ["-h"],
        ["frobnicate"],
        ["catalog"],
        ["catalog", "h9"],
        ["catalog", "h15"],
        ["catalog", "n10"],
        ["catalog", "n10", "--s", "1/2", "--t", "1/3"],
        ["catalog", "n10", "--s=2", "--t=-1/3"],
        ["catalog", "n10", "--s", "1", "--t", "1"],
        ["catalog", "n10", "--s", "abc"],
        ["catalog", "torus"],
        ["catalog", "torus", "--n", "1"],
        ["catalog", "torus", "--n", "0"],
        ["catalog", "torus", "--n", "x"],
        ["catalog", "h10"],
        ["catalog", "h9", "extra"],
        ["catalog", "--help"],
    ]
    for command in ("validate", "series", "cohomology", "kuranishi", "abelian-locus"):
        out += [[command], [command, "--help"], [command, "-h"]]
    for stem in CATALOG_FILES:
        path = f"{stem}.alg"
        out += [["validate", path], ["validate", path, "--json"], ["series", path]]
    for stem in TEXT_FILES:
        path = f"{stem}.alg"
        out += [["validate", path], ["series", path], ["cohomology", path, "--degree", "1"]]
    out += [
        ["validate", "--json", "h9.alg"],
        ["validate", "missing.alg"],
        ["validate", "h9.alg", "--json=1"],
        ["validate", "h9.alg", "--json", "--json"],
        ["validate", "--", "h9.alg"],
        ["validate", "h9.alg", "h15.alg"],
        ["series", "two.alg", "--structure", "K"],
        ["series", "two.alg", "--structure=J"],
        ["series", "two.alg", "--structure", "L"],
        ["series", "two.alg", "--struct", "K"],
        ["cohomology", "two.alg", "--degree", "1", "--structure", "K", "--json"],
        ["abelian-locus", "two.alg", "--structure", "K"],
        ["kuranishi", "two.alg", "--order", "2", "--structure", "K", "--at", "1/2"],
        ["cohomology", "n10_21.alg", "--degree", "1"],
        ["kuranishi", "n10_21.alg", "--order", "2"],
        ["abelian-locus", "n10_21.alg", "--json"],
        ["cohomology", "h15.alg"],
        ["cohomology", "h15.alg", "--degree", "x"],
        ["cohomology", "h15.alg", "--degree", "4"],
        ["cohomology", "h15.alg", "--degree=-1"],
        ["cohomology", "h15.alg", "--deg", "1"],
        ["kuranishi", "h15.alg"],
        ["kuranishi", "h15.alg", "--order", "0"],
        ["kuranishi", "h15.alg", "--order", "two"],
        ["kuranishi", "--order", "2", "h15.alg", "--json"],
        ["kuranishi", "h15.alg", "--order=2", "--at=0,0,1/10,0,0", "--json"],
        ["kuranishi", "h15.alg", "--order", "2", "--at"],
        ["kuranishi", "h15.alg", "--order", "2", "--at", "0,0,1/10,0,0", "--at", "0,0,0,0,0"],
        ["abelian-locus", "missing.alg"],
    ]
    for stem, n in HALF_DIM.items():
        path = f"{stem}.alg"
        out += [["abelian-locus", path], ["abelian-locus", path, "--json"]]
        for k in range(n + 1):
            out += [
                ["cohomology", path, "--degree", str(k)],
                ["cohomology", path, "--degree", str(k), "--json"],
            ]
        for order in range(1, ORDERS[stem] + 1):
            out += [
                ["kuranishi", path, "--order", str(order)],
                ["kuranishi", path, "--order", str(order), "--json"],
            ]
        for point in POINTS[stem]:
            for order in sorted({1, 2, ORDERS[stem]}):
                out.append(["kuranishi", path, "--order", str(order), *_at(point)])
            out.append(["kuranishi", path, "--order", "2", *_at(point), "--json"])
    # every degree of the all-zero differential the benchmark's cohomology jobs use
    for k in range(5):
        out += [
            ["cohomology", "torus4.alg", "--degree", str(k)],
            ["cohomology", "torus4.alg", "--degree", str(k), "--json"],
        ]
    return out


ARGVS = _argvs()

# the profiled sweep: every command in text and --json, --at points that
# are unobstructed, truncated, obstructed, degenerate, of the wrong arity
# or unreadable, help, usage errors, a parse error, validation and I/O
# errors, and precondition errors; one complex on n10, whose Gram-Schmidt
# is the only division by a scalar other than 1 that the commands make
ENTRY_ARGVS = [
    [],
    ["--help"],
    ["kuranishi", "--help"],
    ["validate"],
    ["catalog"],
    ["catalog", "h15"],
    ["catalog", "n10", "--s=2", "--t=-1/3"],
    ["catalog", "torus", "--n", "1"],
    ["catalog", "h10"],
    ["validate", "h15.alg"],
    ["validate", "n10_21.alg", "--json"],
    ["validate", "syntax.alg"],
    ["validate", "solvable.alg"],
    ["validate", "missing.alg"],
    ["series", "n10.alg"],
    ["series", "n10_21.alg"],
    ["series", "plain.alg"],
    ["series", "two.alg", "--struct", "K"],
    ["cohomology", "h9.alg", "--degree", "1"],
    ["cohomology", "n10.alg", "--degree", "1"],
    ["cohomology", "torus1.alg", "--degree", "0", "--json"],
    ["cohomology", "h15.alg", "--degree", "4"],
    ["cohomology", "plain.alg", "--degree", "1"],
    ["abelian-locus", "h9.alg", "--json"],
    ["abelian-locus", "two.alg", "--structure", "K"],
    ["kuranishi", "torus1.alg", "--order", "2"],
    ["kuranishi", "h15.alg", "--order", "0"],
    ["kuranishi", "h15.alg", "--order=2", "--at=0,0,1/10,0,0", "--json"],
    ["kuranishi", "h15.alg", "--order", "1", "--at", "1/10,0,1/10,0,0"],
    ["kuranishi", "h15.alg", "--order", "2", "--at", "0,1/10,0,0,0"],
    ["kuranishi", "h9.alg", "--order", "2", "--at", "1,0,0", "--json"],
    ["kuranishi", "h15.alg", "--order", "2", "--at", "1,2"],
    ["kuranishi", "h15.alg", "--order", "2", "--at", "abc,0,0,0,0"],
]


def write_inputs(directory: Path) -> None:
    """The .alg files the argvs name, rendered from the catalog or written out."""
    import nilcx

    for stem, (name, params) in CATALOG_FILES.items():
        text = nilcx.render_entry(nilcx.get(name, **params))
        (directory / f"{stem}.alg").write_text(text, encoding="utf-8")
    for stem, text in TEXT_FILES.items():
        (directory / f"{stem}.alg").write_text(text, encoding="utf-8")


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run of the CLI."""
    from nilcx.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return rc, out.getvalue(), err.getvalue()


def compiled(argv: list[str]) -> list[tuple[str, int, int]]:
    """(module, source lines, AST nodes) of each nilcx module that one run
    of argv loads from a clean start.

    Drops every nilcx module from ``sys.modules`` first, so objects that
    the caller took from nilcx before no longer belong to the package.
    """
    for name in [m for m in sys.modules if m.partition(".")[0] == "nilcx"]:
        del sys.modules[name]
    run(argv)
    out = []
    for name in sorted(m for m in sys.modules if m.partition(".")[0] == "nilcx"):
        text = Path(sys.modules[name].__file__).read_text(encoding="utf-8")
        out.append((name, text.count("\n"), sum(1 for _ in ast.walk(ast.parse(text)))))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shown(argv: list[str]) -> str:
    return " ".join(argv) or "(no arguments)"


def line(rc: int, out: str, err: str, argv: list[str]) -> str:
    """The sweep's line for one run: exit code, digests of stdout and stderr, argv."""
    return f"{rc} {_digest(out)} {_digest(err)} {shown(argv)}"


def header() -> str:
    """The first line of ``GOLDEN``, naming this interpreter's minor version."""
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    return f"# python {version}; rewrite with: python tests/cli_sweep.py --write"


def _report(argv: list[str], show_compiled: bool) -> str:
    if not show_compiled:
        return line(*run(argv), argv)
    modules = compiled(argv)
    lines, nodes = sum(m[1] for m in modules), sum(m[2] for m in modules)
    parts = "".join(f"\n    {n:>6} {k:>7}  {name}" for name, n, k in modules)
    return f"{lines} lines {nodes} nodes: {shown(argv)}{parts}"


def main(args: list[str]) -> int:
    if args not in ([], ["--compiled"], ["--write"]):
        print("usage: python tests/cli_sweep.py [--compiled | --write]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["COLUMNS"] = "80"
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            lines = [_report(argv, args == ["--compiled"]) for argv in ARGVS]
        finally:
            os.chdir(home)
    if args == ["--write"]:
        GOLDEN.write_text("\n".join([header(), *lines]) + "\n", encoding="utf-8")
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
