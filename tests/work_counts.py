"""Deterministic work counts: the Python-level calls into nilcx of fixed command lines.

Run as a script from any checkout, it writes the inputs to a temporary
directory and runs the argvs of ``ARGVS`` in-process through
``nilcx.cli.main``: the first argv of each command once, to load and
compile the modules the command uses, then each argv under
``sys.setprofile``, counting each call that enters a function defined
under ``src/nilcx/``. Once the modules are loaded these counts
repeat exactly from run to run and from process to process, so they measure
the work a job does where wall-clock time on a shared machine swings. For
each argv it prints the total count and the count of each function of
``HOT``, zeros included:

    python tests/work_counts.py           # print the counts
    python tests/work_counts.py --write   # rewrite tests/work_counts.golden

``tests/test_work_counts.py`` counts again and compares with ``GOLDEN``,
naming the argv, the function and the old and new counts of each
difference. A change that means to change the work rewrites the file and
quotes the diff. The file's header names the Python minor version it was
written with, since the interpreter decides which comprehensions are calls
of their own.

The script imports nilcx from the ``src`` directory beside it and uses the
standard library only.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import cli_sweep

SRC = cli_sweep.SRC
GOLDEN = Path(__file__).with_name("work_counts.golden")

# stem -> (catalog name, parameters)
INPUTS = {
    "n10": ("n10", {"s": 1, "t": 0}),
    "h15": ("h15", {}),
    "torus4": ("torus", {"n": 4}),
    "torus6": ("torus", {"n": 6}),
}

ARGVS = [
    *(["cohomology", "n10.alg", "--degree", str(k)] for k in range(6)),
    ["cohomology", "torus6.alg", "--degree", "3"],
    ["kuranishi", "n10.alg", "--order", "6", "--at", "0,1/10,0,0,0,0,0,0,0,0,1/10,0,0,0"],
    ["kuranishi", "h15.alg", "--order", "6", "--at", "1/10,0,1/10,0,0"],
    ["abelian-locus", "torus4.alg"],
]

# module.qualname of the functions counted one by one
HOT = [
    *(
        f"scalars.GaussianRational.{op}"
        for op in (
            "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__",
            "__pow__", "__neg__", "__eq__", "__hash__", "__bool__", "conjugate", "inverse",
        )
    ),
    "scalars._reduced",
    "kuranishi._bracket",
    "linalg.EchelonBasis.add",
    "linalg.EchelonBasis._remainder",
    "linalg.kernel_basis",
    "linalg.rref",
    "linalg.inverse",
    "dolbeault.hdot_support",
]


def write_inputs(directory: Path) -> None:
    """The .alg files the argvs name, rendered from the catalog."""
    import nilcx

    for stem, (name, params) in INPUTS.items():
        text = nilcx.render_entry(nilcx.get(name, **params))
        (directory / f"{stem}.alg").write_text(text, encoding="utf-8")


def count(argv: list[str]) -> Counter:
    """{module.qualname: calls} of one in-process run of argv, nilcx functions only."""
    package = str(SRC / "nilcx")
    names: dict = {}
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = names.get(code)
            if name is None:
                path = Path(code.co_filename).resolve()
                name = f"{path.stem}.{code.co_qualname}" if str(path.parent) == package else ""
                names[code] = name
            if name:
                calls[name] += 1

    sys.setprofile(profile)
    try:
        cli_sweep.run(argv)
    finally:
        sys.setprofile(None)
    return calls


def counts() -> dict[str, dict[str, int]]:
    """{argv as shown: {"total": calls, function: calls for each of HOT}}, in the
    current directory, which holds the inputs."""
    for argv in {argv[0]: argv for argv in reversed(ARGVS)}.values():
        cli_sweep.run(argv)
    out = {}
    for argv in ARGVS:
        calls = count(argv)
        out[cli_sweep.shown(argv)] = {"total": sum(calls.values()), **{f: calls[f] for f in HOT}}
    return out


def header() -> str:
    """The first line of ``GOLDEN``, naming this interpreter's minor version."""
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    return f"# python {version}; nilcx calls per argv; rewrite with: python tests/work_counts.py --write"


def text(table: dict[str, dict[str, int]]) -> str:
    """The counts as ``GOLDEN`` holds them: per argv, a line with its total
    calls, then one indented line per function of ``HOT``."""
    lines = [header()]
    for argv, row in table.items():
        lines.append(f"{argv}: {row['total']} calls")
        lines += [f"    {f} {row[f]}" for f in HOT]
    return "\n".join(lines) + "\n"


def read(golden: str) -> dict[str, dict[str, int]]:
    """The table that :func:`text` wrote, without its header."""
    out: dict = {}
    for line in golden.splitlines()[1:]:
        if line.startswith("    "):
            name, n = line.split()
            out[argv][name] = int(n)
        else:
            argv, _, total = line.rpartition(": ")
            out[argv] = {"total": int(total.split()[0])}
    return out


def main(args: list[str]) -> int:
    if args not in ([], ["--write"]):
        print("usage: python tests/work_counts.py [--write]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            out = text(counts())
        finally:
            os.chdir(home)
    if args == ["--write"]:
        GOLDEN.write_text(out, encoding="utf-8")
    else:
        print(out, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
