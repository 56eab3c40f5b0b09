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

With ``--raises`` it prints each ``raise`` statement under ``src/nilcx/``
and, next to it, the first argv of the sweep that executes it, or the
reason ``UNREACHED`` gives for a raise that no argv reaches:

    python tests/cli_sweep.py --raises

``tests/test_package.py::test_every_raise_is_reached_or_listed`` runs the
same trace, :func:`raised`, and fails on a raise that is neither reached
nor listed.

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
from collections import namedtuple
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

# files that each stop at one error of the parser or of J's images, read
# by one validate argv each at the end of the sweep
ERROR_FILES = {
    "term_start": "algebra a\ndim 3\nbracket e1 e2 = e3\n",
    "term_end": "algebra a\ndim 3\nbracket e1 e2 = 1*e3 +\n",
    "term_index": "algebra a\ndim 3\nbracket e1 e2 = 1*e4\n",
    "term_twice": "algebra a\ndim 3\nbracket e1 e2 = 1*e3 + 2*e3\n",
    "term_zero": "algebra a\ndim 3\nbracket e1 e2 = 1/0*e3\n",
    "term_minus": "algebra a\ndim 3\nbracket e1 e2 = 1*e3 - 1*e3\n",
    "algebra_twice": "algebra a\nalgebra b\n",
    "algebra_words": "algebra two words\ndim 2\n",
    "dim_first": "dim 2\nalgebra a\n",
    "dim_twice": "algebra a\ndim 2\ndim 2\n",
    "dim_zero": "algebra a\ndim 0\n",
    "bracket_first": "algebra a\nbracket e1 e2 = 1*e2\n",
    "bracket_late": "algebra a\ndim 2\nstructure J\nJ e1 = 1*e2\nbracket e1 e2 = 1*e2\n",
    "bracket_head": "algebra a\ndim 2\nbracket e1 = 1*e2\n",
    "bracket_index": "algebra a\ndim 2\nbracket e1 e3 = 1*e2\n",
    "bracket_twice": "algebra a\ndim 3\nbracket e1 e2 = 1*e3\nbracket e1 e2 = 1*e3\n",
    "structure_first": "algebra a\nstructure J\n",
    "structure_bare": "algebra a\ndim 2\nstructure\n",
    "structure_twice": "algebra a\ndim 2\nstructure J\nJ e1 = 1*e2\nstructure J\n",
    "j_outside": "algebra a\ndim 2\nJ e1 = 1*e2\n",
    "j_head": "algebra a\ndim 2\nstructure J\nJ 1 = 1*e2\n",
    "j_index": "algebra a\ndim 2\nstructure J\nJ e3 = 1*e1\n",
    "j_twice": "algebra a\ndim 2\nstructure J\nJ e1 = 1*e2\nJ e1 = 1*e2\n",
    "keyword": "algebra a\ndim 2\nbrackets e1 e2 = 1*e2\n",
    "comment_only": "# no algebra here\n",
    "no_dim": "algebra a\n",
    "j_none": "algebra a\ndim 2\nstructure J\n",
    "j_inconsistent": "algebra a\ndim 2\nstructure J\nJ e1 = 1*e2\nJ e2 = 1*e1\n",
    "j_incomplete": "algebra a\ndim 4\nstructure J\nJ e1 = 1*e2\n",
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
    # last, so that the lines before them in GOLDEN stay where they were
    out += [["validate", f"{stem}.alg"] for stem in ERROR_FILES]
    return out


ARGVS = _argvs()

# Raise statements that no argv of ARGVS reaches, by RaiseSite name, and why
# each stays. A reason starts with its kind, which tests/test_package.py
# checks: "test_F.py::T" names the unit test that spells out the whole
# message, for a raise that only the Python API reaches (the names in
# nilcx.__all__, the nilcx.linalg module, and their methods); "roadmap item
# 3(a)" defers the deletion of a raise that no input reaches to that item,
# which names the function.
_API = "test_{}.py::test_api_error_messages"
UNREACHED = {
    "__init__.__getattr__: module {__name__!r} has no attribute {name!r}":
        _API.format("package") + ": a name the package does not export",
    "catalog._rational: {what} must be rational":
        _API.format("catalog") + ": the catalog command reads --s and --t as rationals first",
    "catalog.render: {what} name {label!r} would not parse back (empty, repeated, or with "
    "whitespace or '#')":
        _API.format("catalog") + ": the catalog command renders the catalog's own names",
    "catalog.get: n10 requires rational parameters s and t":
        _API.format("catalog") + ": the catalog command passes the defaults of --s and --t",
    "cli: SystemExit(script())":
        "test_cli.py::test_script_path_matches_main: python -m nilcx.cli exits through it, "
        "and the sweep calls main in-process",
    "cxs.AlmostComplexStructure.__init__: J must be square":
        _API.format("cxs") + ": J from .alg images is square",
    "cxs.AlmostComplexStructure.__init__: J needs an even-dimensional space":
        _API.format("cxs") + ": images in an odd dimension are inconsistent or incomplete",
    "cxs.AlmostComplexStructure.__init__: J must be real":
        _API.format("cxs") + ": .alg coefficients are rational",
    "cxs.AlmostComplexStructure.__init__: J*J != -I":
        _API.format("cxs") + ": J from .alg images squares to -I",
    "cxs.ComplexFrame.__init__: frame size must be half the real dimension":
        _API.format("cxs") + ": a frame given by hand; adapted_frame builds the commands' frames",
    "cxs.ComplexFrame.__init__: frame vectors do not span the complexification":
        _API.format("cxs") + ": a frame given by hand; adapted_frame builds the commands' frames",
    "cxs.ComplexFrame.check_against: frame vector is not a (1,0)-vector of J: X{i + 1}":
        _API.format("cxs") + ": a frame given by hand; adapted_frame checks the frame it "
        "built from b - iJb",
    "dolbeault.VectorForm.__init__: key arity does not match degree":
        _API.format("dolbeault") + ": a form given by hand",
    "dolbeault.VectorForm.__init__: frame index out of range":
        _API.format("dolbeault") + ": a form given by hand",
    "dolbeault.VectorForm.__init__: indices must be strictly increasing":
        _API.format("dolbeault") + ": a form given by hand",
    "dolbeault.VectorForm.__init__: vector index out of range":
        _API.format("dolbeault") + ": a form given by hand",
    "dolbeault.DolbeaultComplex.dbar_matrix: no differential at this degree: dbar_{k} "
    "(differentials are dbar_0..dbar_{self.n - 1})":
        _API.format("dolbeault") + ": the commands ask only for degrees they checked",
    "dolbeault.DolbeaultComplex.dbar_adjoint: frame mismatch":
        _API.format("dolbeault") + ": no command applies the adjoint",
    "dolbeault.DolbeaultComplex.dbar_adjoint: adjoint needs degree at least 1":
        _API.format("dolbeault") + ": no command applies the adjoint",
    "dolbeault.DolbeaultComplex.green: frame mismatch":
        _API.format("dolbeault") + ": no command applies the Green operator",
    "kuranishi.DeformationSeries.__init__: order must be at least 1":
        _API.format("kuranishi") + ": a series given by hand",
    "kuranishi.DeformationSeries.__init__: monomial arity does not match parameter count":
        _API.format("kuranishi") + ": a series given by hand",
    "kuranishi.DeformationSeries.__init__: coefficient degree outside series order":
        _API.format("kuranishi") + ": a series given by hand",
    "kuranishi.DeformationSeries.__init__: series coefficients must be degree-1 chains":
        _API.format("kuranishi") + ": a series given by hand",
    "kuranishi.kuranishi_series: order must be at least 1":
        _API.format("kuranishi") + ": the kuranishi command refuses --order 0 first",
    "kuranishi.deformed_structure: Phi must be a degree-1 chain":
        _API.format("kuranishi") + ": a Phi given by hand",
    "kuranishi.deform_structure: series does not belong to this complex":
        _API.format("kuranishi") + ": the kuranishi command deforms along its own series",
    "lie.LieAlgebra.__init__: dimension must be nonnegative":
        _API.format("lie") + ": the parser refuses a dim below 1 first",
    "lie.LieAlgebra.__init__: bracket key ({i},{j}) must satisfy 1 <= i < j <= dim":
        _API.format("lie") + ": the parser refuses the pair first",
    "lie.LieAlgebra.__init__: bracket target e{k} out of range":
        _API.format("lie") + ": the parser refuses the index first",
    "lie.LieAlgebra.__init__: bracket constant c^{k}_{i}{j} is not real":
        _API.format("lie") + ": .alg coefficients are rational",
    "lie.ascending_series: ValidationError('; '.join(errors))":
        _API.format("lie") + ": the parser refuses an algebra that fails validation first",
    "linalg.Matrix.__init__: ragged rows":
        _API.format("linalg") + ": the package builds rectangular matrices only",
    "linalg.Matrix.from_columns: ragged columns":
        _API.format("linalg") + ": the package builds rectangular matrices only",
    "linalg.Matrix.__mul__: shape mismatch":
        _API.format("linalg") + ": the package multiplies matching shapes only",
    "linalg.Matrix.matvec: shape mismatch":
        _API.format("linalg") + ": the package multiplies matching shapes only",
    "linalg.inverse: matrix not square":
        _API.format("linalg") + ": the package inverts square matrices only",
    "linalg.inverse: matrix not invertible":
        _API.format("linalg") + ": pinv inverts positive definite Gram matrices, and "
        "ComplexFrame reports a singular frame with its own message",
    "poly.coerce_scalar: coefficient is not rational":
        _API.format("poly") + ": the kuranishi command reads --at as rationals first",
    "poly.coerce_point: wrong number of parameters: got {len(pt)}, expected {nvars}":
        _API.format("poly") + ": the kuranishi command checks the arity of --at first",
    "poly.Poly.__init__: monomial arity does not match parameter count":
        _API.format("poly") + ": a polynomial given by hand",
    "poly.Poly.__init__: exponents must be nonnegative integers":
        _API.format("poly") + ": a polynomial given by hand",
    "scalars.GaussianRational.inverse: inverse of zero":
        _API.format("scalars") + ": no command divides by zero",
    "scalars.scalar: not an exact scalar: {type(x).__name__} {x!r}":
        _API.format("scalars") + ": argv and .alg text are read as rationals",
    "errors.Frozen.__setattr__: {type(self).__name__} is immutable":
        "test_package.py::test_records_are_immutable_and_value_records_hash_by_value: "
        "no command assigns to a record",
    "lie.ascending_series: ascending series quotient not abelian at level {ell}":
        "roadmap item 3(a): the quotients of a central series are abelian by definition",
    "dolbeault.orthogonal_complement: span(S) not contained in span(inside)":
        "roadmap item 3(a): its one caller passes im dbar_(k-1) inside ker dbar_k",
    "dolbeault.DolbeaultComplex.harmonic_vectors: dbar_{k} dbar_{k - 1} != 0 in degree {k}: "
    "im dbar_{k - 1} (dimension {len(image)}) is not contained in ker dbar_{k} "
    "(dimension {len(ker)})":
        "roadmap item 3(a): dbar dbar = 0 for an abelian J, which the complex requires",
}

# the profiled sweep: every command in text and --json, --at points that
# are unobstructed, truncated, obstructed, degenerate, of the wrong arity
# or unreadable, help, usage errors, parse errors at a token and between
# tokens, validation and I/O errors, precondition errors, and an abelian
# locus that some direction leaves; one complex on n10, whose Gram-Schmidt
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
    ["validate", "bracket_head.alg"],
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
    ["abelian-locus", "h15.alg"],
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
    for stem, text in {**TEXT_FILES, **ERROR_FILES}.items():
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


class RaiseSite(namedtuple("RaiseSite", "name path first last literals")):
    """One ``raise`` statement under ``src/nilcx/``: its name, the resolved
    path of its module, its first and last line, and the literal text of its
    message (none when the message is not a string or an f-string).

    The name is ``module.function: message``, with the function's qualified
    name (the module's alone at module level), and the message as written:
    a string argument as it reads, each placeholder of an f-string as its
    expression in braces, and anything else as the raised expression.
    """

    __slots__ = ()


def _message(node: ast.Raise) -> tuple[str, list[str]]:
    """A raise's message as its name shows it, and its literal text."""
    exc = node.exc
    arg = exc.args[0] if isinstance(exc, ast.Call) and exc.args else None
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, [arg.value]
    if isinstance(arg, ast.JoinedStr):
        literals = [v.value for v in arg.values if isinstance(v, ast.Constant)]
        return "".join(map(_piece, arg.values)), literals
    return ast.unparse(exc), []


def _piece(v: ast.expr) -> str:
    """One part of an f-string as written: its text, or its placeholder."""
    if isinstance(v, ast.Constant):
        return v.value
    conversion = "" if v.conversion < 0 else f"!{chr(v.conversion)}"
    return f"{{{ast.unparse(v.value)}{conversion}}}"


def raise_sites() -> list[RaiseSite]:
    """Every ``raise`` statement under ``src/nilcx/``, by module and line."""
    out = []

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                message, literals = _message(child)
                name = f"{prefix[:-1]}: {message}"
                out.append(RaiseSite(name, path, child.lineno, child.end_lineno, literals))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            walk(child, f"{prefix}{child.name}." if named else prefix, path)

    for path in sorted((SRC / "nilcx").glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.", str(path.resolve()))
    return out


def raised(argvs: list[list[str]]) -> dict[tuple[str, int], list[str]]:
    """{(path, first line): first argv} for each raise statement that some
    argv of ``argvs`` executes, with path and line as :func:`raise_sites`
    gives them.

    Runs each argv in-process under ``sys.settrace``, with line events off:
    a raise shows as an exception event at one of its own lines, in the
    nilcx frame that executes it.
    """
    sites = raise_sites()
    at = {(s.path, n): (s.path, s.first) for s in sites for n in range(s.first, s.last + 1)}
    ours = {s.path for s in sites}
    resolved: dict[str, str] = {}
    first: dict[tuple[str, int], list[str]] = {}
    argv: list[str] = []

    def local(frame, event, arg):
        if event == "exception":
            site = at.get((resolved[frame.f_code.co_filename], frame.f_lineno))
            if site is not None:
                first.setdefault(site, argv)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in resolved:
            resolved[filename] = str(Path(filename).resolve())
        if resolved[filename] not in ours:
            return None
        frame.f_trace_lines = False
        return local

    for argv in argvs:
        sys.settrace(tracer)
        try:
            run(argv)
        finally:
            sys.settrace(None)
    return first


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


def _raises_report() -> list[str]:
    reached = raised(ARGVS)
    out = []
    for site in raise_sites():
        argv = reached.get((site.path, site.first))
        if argv is not None:
            why = f"<- {shown(argv)}"
        else:
            why = f"-- {UNREACHED.get(site.name, 'NOT REACHED AND NOT LISTED')}"
        out.append(f"{Path(site.path).name}:{site.first} {site.name}\n    {why}")
    return out


def main(args: list[str]) -> int:
    if args not in ([], ["--compiled"], ["--write"], ["--raises"]):
        print(
            "usage: python tests/cli_sweep.py [--compiled | --raises | --write]", file=sys.stderr
        )
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["COLUMNS"] = "80"
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            if args == ["--raises"]:
                lines = _raises_report()
            else:
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
