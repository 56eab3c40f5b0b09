"""The package namespace: public names resolve on first use, a CLI
subcommand loads only the modules it runs, and every library function has
a caller and is entered by a command."""

import ast
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import cli_sweep
import pytest
from conftest import error_of, main_block_calls

import nilcx
from nilcx.catalog import get, render_entry
from nilcx.cli import COMMANDS

SRC = Path(nilcx.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]

# functions and methods that nothing in src/nilcx/ or perfbench/ references,
# and why each stays; reference routines that only tests call live in
# tests/reference.py
UNCALLED: dict = {}

PUBLIC = [
    "AlgebraFile", "AlmostComplexStructure", "CatalogEntry", "CohomologySpace",
    "ComplexFrame", "DeformationReport", "DeformationSeries", "DeformedStructure",
    "DolbeaultComplex", "Flag", "GaussianRational", "LieAlgebra",
    "NotSolvableError", "ObstructionSet", "ParseError", "Poly", "PreconditionError",
    "SelfCheckError", "ValidationError", "ValidationReport", "VectorForm",
    "__version__", "adapted_frame", "ascending_series",
    "classify_deformation", "deform_structure", "get", "gr",
    "infinitesimal_abelian_locus", "is_abelian", "is_integrable",
    "j_ascending_series", "kuranishi_series", "obstructions",
    "parse", "parse_text", "render", "render_entry", "validate_lie",
]


def _python(code: str, *args: str, src: Path = SRC) -> str:
    """Run code in a fresh interpreter that writes no bytecode, with nilcx
    imported from ``src``; its stdout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# standard-library modules a job should not need
STDLIB = (
    "fractions", "decimal", "numbers", "json", "dataclasses", "argparse", "gettext", "locale"
)


def _modules_loaded_by(argv: list[str], code: int = 0, src: Path = SRC) -> set[str]:
    """The nilcx modules, and those of STDLIB, loaded after one CLI run that
    exits with ``code``; nilcx is imported from ``src``."""
    script = (
        "import sys\n"
        "from nilcx.cli import main\n"
        "try:\n"
        "    rc = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        f"names = sorted(m for m in sys.modules if m.startswith('nilcx') or m in {STDLIB})\n"
        "print('loaded', rc, *names)\n"
    )
    last = _python(script, *argv, src=src).splitlines()[-1].split()
    assert last[:2] == ["loaded", str(code)]
    return set(last[2:])


# the nilcx modules each command loads: its own handler module and what that runs
_CORE = {
    "nilcx", "nilcx.cli", "nilcx.errors", "nilcx.cli_common", "nilcx.cxs", "nilcx.lie",
    "nilcx.linalg", "nilcx.scalars",
}
_FILE = _CORE | {"nilcx.algfile"}
_COMPLEX = _FILE | {"nilcx.dolbeault", "nilcx.cli_complex"}
LOADS = {
    "validate": _FILE | {"nilcx.cli_validate"},
    "series": _FILE | {"nilcx.cli_series"},
    "cohomology": _COMPLEX | {"nilcx.cli_cohomology"},
    "abelian-locus": _COMPLEX | {"nilcx.cli_abelian_locus", "nilcx.brackets"},
    "kuranishi": _COMPLEX
    | {"nilcx.cli_kuranishi", "nilcx.brackets", "nilcx.kuranishi", "nilcx.poly"},
    "catalog": _CORE | {"nilcx.cli_catalog", "nilcx.catalog"},
}
HANDLERS = {command: f"nilcx.{row[3]}" for command, row in COMMANDS.items()}
HELP = {"nilcx", "nilcx.cli", "nilcx.errors", "nilcx.cli_help"}


def _check_loads(command: str, loaded: set[str], via_help: bool = False) -> None:
    """A job of ``command`` loads its own handler module and no other, and
    exactly the nilcx modules of LOADS; cli_help only when argparse read argv."""
    nilcx_loaded = {m for m in loaded if m.startswith("nilcx")}
    assert nilcx_loaded & set(HANDLERS.values()) == {HANDLERS[command]}
    assert nilcx_loaded == LOADS[command] | ({"nilcx.cli_help"} if via_help else set())


@pytest.fixture
def h15_file(tmp_path):
    p = tmp_path / "h15.alg"
    p.write_text(render_entry(get("h15")))
    return str(p)


@pytest.mark.parametrize("argv", [["validate"], ["validate", "--json"], ["series"]])
def test_validate_and_series_load_no_heavy_module(h15_file, argv):
    loaded = _modules_loaded_by([argv[0], h15_file, *argv[1:]])
    _check_loads(argv[0], loaded)
    assert not loaded & {"nilcx.dolbeault", "nilcx.brackets", "nilcx.catalog"}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["validate", "--json"],
        ["series"],
        ["cohomology", "--degree", "1"],
        ["kuranishi", "--order", "2", "--at", "0,0,1/10,0,0"],
        ["catalog"],
        ["catalog", "h15"],
        ["catalog", "n10", "--s", "1/2", "--t", "1/3"],
        ["catalog", "torus", "--n", "2"],
        ["abelian-locus"],
        ["kuranishi", "--order", "2", "--json"],
    ],
)
def test_jobs_load_no_fractions_or_decimal(h15_file, argv):
    files = [] if argv[0] == "catalog" else [h15_file]
    loaded = _modules_loaded_by([argv[0], *files, *argv[1:]])
    _check_loads(argv[0], loaded)
    # argv is read from the command table, and --json is written without json
    assert not loaded & set(STDLIB)


def test_help_loads_argparse():
    loaded = _modules_loaded_by(["kuranishi", "--help"])
    assert {m for m in loaded if m.startswith("nilcx")} == HELP
    assert "argparse" in loaded


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["abelian-locus", "-h"], 0),
        ([], 2),
        (["frobnicate"], 2),
        (["kuranishi", "FILE"], 2),
        (["cohomology", "FILE", "--degree", "x"], 2),
    ],
)
def test_only_help_and_usage_errors_load_cli_help(h15_file, argv, code):
    argv = [h15_file if a == "FILE" else a for a in argv]
    assert {m for m in _modules_loaded_by(argv, code) if m.startswith("nilcx")} == HELP


def test_argparse_reads_an_abbreviation_then_runs_only_its_handler(h15_file):
    loaded = _modules_loaded_by(["cohomology", h15_file, "--deg", "1"])
    _check_loads("cohomology", loaded, via_help=True)


def test_cohomology_loads_dolbeault_only(h15_file):
    loaded = _modules_loaded_by(["cohomology", h15_file, "--degree", "1"])
    _check_loads("cohomology", loaded)
    assert not loaded & {"nilcx.brackets", "nilcx.kuranishi", "nilcx.poly", "nilcx.catalog"}


@pytest.mark.parametrize(
    "argv",
    [
        ["kuranishi", "--order", "2"],
        ["kuranishi", "--order", "2", "--json"],
        ["kuranishi", "--order", "2", "--at", "0,0,1/10,0,0"],
        ["abelian-locus"],
    ],
)
def test_deformation_jobs_load_no_forms(h15_file, argv):
    loaded = _modules_loaded_by([argv[0], h15_file, *argv[1:]])
    _check_loads(argv[0], loaded)
    # abelian-locus runs the coform brackets alone: no series, no polynomials
    if argv[0] == "abelian-locus":
        assert not loaded & {"nilcx.kuranishi", "nilcx.poly"}
    # the invariant forms are a test reference now, not a module of the package
    with pytest.raises(ModuleNotFoundError):
        import_module("nilcx.forms")


def test_catalog_loads_no_dolbeault_layer():
    # the catalog command, then what perfbench's set-up calls: get and render
    code = (
        "import sys\n"
        "from nilcx.cli import main\n"
        "main(['catalog'])\n"
        "import nilcx\n"
        "nilcx.render_entry(nilcx.get('h15'))\n"
        "print('loaded', 0, *sorted(m for m in sys.modules if m.startswith('nilcx')))\n"
    )
    loaded = set(_python(code).splitlines()[-1].split()[2:])
    _check_loads("catalog", loaded)
    assert "nilcx.algfile" not in loaded


def test_sweep_reports_the_source_a_job_compiles(h15_file):
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'tests')!r})\n"
        "import cli_sweep\n"
        "for row in cli_sweep.compiled(sys.argv[1:]):\n"
        "    print(*row)\n"
    )
    out = _python(code, "abelian-locus", h15_file, "--json")
    rows = [line.split() for line in out.splitlines()]
    assert {name for name, _, _ in rows} == LOADS["abelian-locus"]
    for name, lines, nodes in rows:
        path = SRC / name.replace(".", "/")
        text = (path / "__init__.py" if path.is_dir() else path.with_suffix(".py")).read_text()
        assert int(lines) == text.count("\n")
        assert int(nodes) == sum(1 for _ in ast.walk(ast.parse(text)))


def _foreign_imports(path: Path) -> set[str]:
    """The CLI modules that one handler module imports, other than the shared
    helpers of cli_common and cli_complex."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("nilcx"):
                continue
            base = base.removeprefix("nilcx").lstrip(".")
            found.update([base] if base else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("nilcx.") for a in node.names)
    return {m for m in found if m == "cli" or m.startswith("cli_")} - {"cli_common", "cli_complex"}


def test_no_handler_module_imports_cli_or_another_handler():
    handlers = sorted((SRC / "nilcx").glob("cli_*.py"))
    assert {f"nilcx.{p.stem}" for p in handlers} == {
        *HANDLERS.values(), "nilcx.cli_common", "nilcx.cli_complex", "nilcx.cli_help"
    }
    for path in handlers:
        assert _foreign_imports(path) == set(), path.name


def test_a_handler_that_imports_another_is_caught(tmp_path, h15_file):
    mutant = tmp_path / "src"
    shutil.copytree(SRC / "nilcx", mutant / "nilcx", ignore=shutil.ignore_patterns("__pycache__"))
    path = mutant / "nilcx" / "cli_cohomology.py"
    path.write_text(path.read_text() + "\nfrom . import cli_kuranishi  # noqa: E402, F401\n")
    assert _foreign_imports(path) == {"cli_kuranishi"}
    loaded = _modules_loaded_by(["cohomology", h15_file, "--degree", "1"], src=mutant)
    assert "nilcx.cli_kuranishi" in loaded
    with pytest.raises(AssertionError):
        _check_loads("cohomology", loaded)


def test_kuranishi_job_imports_no_dataclasses(h15_file):
    code = (
        "import sys\n"
        "from nilcx.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('loaded', rc, *sorted(sys.modules.keys() & {'dataclasses', 'inspect', 'ast', 'dis'}))\n"
    )
    last = _python(code, "kuranishi", h15_file, "--order", "2", "--at", "0,0,1/10,0,0")
    assert last.splitlines()[-1].split() == ["loaded", "0"]


def test_public_names_are_unchanged_and_resolve():
    assert nilcx.__all__ == PUBLIC
    listed = dir(nilcx)
    for name in PUBLIC:
        assert name in listed
        assert getattr(nilcx, name) is not None
    assert nilcx.get is get


def test_star_import_and_submodules_in_a_fresh_interpreter():
    code = (
        "import nilcx, sys\n"
        "assert sys.modules.keys() & {'nilcx.lie', 'nilcx.linalg'} == set()\n"
        "ns = {}\n"
        "exec('from nilcx import *', ns)\n"
        "missing = set(nilcx.__all__) - set(ns)\n"
        "print(sorted(missing), nilcx.linalg.Matrix.__name__, nilcx.linalg.rref.__name__)\n"
    )
    assert _python(code).split() == ["[]", "Matrix", "rref"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nilcx.no_such_name
    assert not hasattr(nilcx, "Matrix")


def _records():
    """(value records built twice from fresh inputs, identity records)."""
    from nilcx.algfile import AlgebraFile
    from nilcx.catalog import get as fetch
    from nilcx.dolbeault import DolbeaultComplex
    from nilcx.kuranishi import (
        DeformedStructure,
        classify_deformation,
        deform_structure,
        kuranishi_series,
        obstructions,
    )
    from nilcx.lie import ascending_series, validate_lie

    def build():
        entry = fetch("h15")
        a, j = entry.algebra, entry.structures[0][1]
        dc = DolbeaultComplex(a, j)
        series = kuranishi_series(dc, order=2)
        deformed = deform_structure(dc, series, (0, 0, Fraction(1, 10), 0, 0))
        report = validate_lie(a)
        values = [
            report,
            ascending_series(a),
            dc.cohomology(1),
            obstructions(series),
            classify_deformation(a, deformed),
        ]
        return entry, series, deformed, values

    entry, series, deformed, values = build()
    _, _, _, again = build()
    a, j = entry.algebra, entry.structures[0][1]
    twins = list(zip(values, again)) + [
        (
            AlgebraFile(name="h15", algebra=a, structures=entry.structures, report=values[0]),
            AlgebraFile("h15", a, entry.structures, again[0]),
        ),
    ]
    hand_fed = DeformedStructure(t_point=(), j_new=j, algebra=a)
    return twins, [entry, series, deformed, hand_fed]


def test_records_are_immutable_and_value_records_hash_by_value():
    twins, identities = _records()
    names = {type(x).__name__ for x, _ in twins} | {type(x).__name__ for x in identities}
    assert names == {
        "AlgebraFile", "ValidationReport", "Flag", "CohomologySpace", "ObstructionSet",
        "DeformationReport", "CatalogEntry", "DeformationSeries",
        "DeformedStructure",
    }
    for x, y in twins:
        assert x is not y and x == y and hash(x) == hash(y)
        field = x._fields[0]
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            x.extra = 1
    for x in identities:
        field = type(x).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            x.extra = 1
    entry, series, deformed, hand_fed = identities
    # every subclass of Frozen, the package's one immutability guard
    from nilcx.errors import Frozen
    from nilcx.scalars import gr

    def subclasses(cls):
        return {s for c in cls.__subclasses__() for s in {c} | subclasses(c)}

    dc, j = series.dolbeault, entry.structures[0][1]
    polys = next(x for x, _ in twins if type(x).__name__ == "ObstructionSet").polys
    frozen = [
        gr(1), j.matrix, entry.algebra, j, dc.frame, dc.cohomology(1).harmonic_basis[0],
        series, deformed, entry, polys[0],
    ]
    assert {type(x) for x in frozen} == subclasses(Frozen)
    for x in frozen:
        message = f"^{type(x).__name__} is immutable$"
        with pytest.raises(AttributeError, match=message):
            setattr(x, type(x).__slots__[0], getattr(x, type(x).__slots__[0]))
        with pytest.raises(AttributeError, match=message):
            x.extra = 1
    # identity records compare by identity, as the dataclasses did (eq=False)
    twin = type(hand_fed)(t_point=(), j_new=hand_fed.j_new, algebra=hand_fed.algebra)
    assert hand_fed == hand_fed and hand_fed != twin
    assert entry.params is None
    assert deformed.algebra is entry.algebra and deformed.t_point[2] == Fraction(1, 10)
    assert hand_fed.algebra is entry.algebra and hand_fed.t_point == ()


def test_records_keep_defaults_and_keyword_construction():
    from nilcx.catalog import CatalogEntry
    from nilcx.lie import Flag

    entry = get("h9")
    bare = CatalogEntry(
        entry.name, entry.algebra, entry.structures, entry.facts, entry.structure_facts
    )
    assert bare.params is None and bare.structures == entry.structures
    flag = Flag(levels=(("a", "b"), ("a", "b", "c")))
    assert flag.dims == (2, 3) and flag.depth == 2 and flag.level(0) == ()


def _references(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each reference in one file: Name loads of names the
    module defines or imports, attribute reads, and imported names."""
    tree = ast.parse(path.read_text())
    bound = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.append((node.attr, node.end_lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((a.name, a.lineno) for a in node.names)
    return refs


def test_every_library_function_has_a_caller():
    library = sorted((ROOT / "src" / "nilcx").glob("*.py"))
    # the export table in __init__ names public functions; naming is not calling
    corpus = [p for p in library if p.name != "__init__.py"]
    corpus += sorted((ROOT / "perfbench").glob("*.py"))
    uses: dict = {}
    for path in corpus:
        for name, line in _references(path):
            uses.setdefault(name, []).append((path, line))
    uncalled = set()
    for path in library:
        for node in ast.parse(path.read_text()).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if not isinstance(fn, ast.FunctionDef) or re.fullmatch(r"__\w+__", fn.name):
                    continue
                own = range(fn.lineno - len(fn.decorator_list), fn.end_lineno + 1)
                if all(p == path and i in own for p, i in uses.get(fn.name, [])):
                    uncalled.add(f"{path.stem}.{fn.name}")
    assert uncalled == set(UNCALLED)


# Functions and methods under src/nilcx/ that the profiled CLI sweep never
# enters. Two rules cover the data model, each once: an immutability guard
# is a __setattr__ whose whole body raises AttributeError; and __repr__,
# __eq__ with __hash__ in a class that defines both, a reflected operator
# __rX__ whose __X__ the sweep enters, and the package's module hooks
# __getattr__ and __dir__ may go unentered. Every other function the sweep
# misses is listed here. A reason starts with its kind, and the kind is
# checked: "perfbench" holds when perfbench/ references the name,
# "roadmap item N" when open item N of ROADMAP.md names it, and "via F"
# when function F references it and F is entered or listed for another
# kind of reason.
UNENTERED = {
    "cli.script": "script: the entry of python -m nilcx.cli and the nilcx console script",
    "dolbeault.DolbeaultComplex._dbar_adjoint_matrix": "via dolbeault.DolbeaultComplex.dbar_adjoint: its matrix",
    "dolbeault.DolbeaultComplex._to_vec": "via dolbeault.DolbeaultComplex.green: its input as a dense vector",
    "dolbeault.DolbeaultComplex.form": "perfbench: the probes build seeded forms with it",
    "dolbeault.DolbeaultComplex.dbar_adjoint": "perfbench: the probes time single adjoint calls",
    "dolbeault.DolbeaultComplex.green": "perfbench: the probes time single Green calls",
    "dolbeault.DolbeaultComplex.green_matrix": "via dolbeault.DolbeaultComplex.green: its matrix",
    "dolbeault.DolbeaultComplex.laplacian_matrix": "perfbench: the probes time the Laplacian's elimination",
    "dolbeault._same_frame": "via dolbeault.DolbeaultComplex.green: it checks the input's frame",
}

MODULE_HOOKS = {"__init__.__getattr__", "__init__.__dir__"}


def _functions(path: Path) -> list:
    """(qualified name, enclosing class or None, def node) of every function
    and method in one module, nested ones included."""
    out = []

    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                out.append((prefix + child.name, cls, child))
                walk(child, f"{prefix}{child.name}.", None)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", child)
            else:
                walk(child, prefix, cls)

    walk(ast.parse(path.read_text()), f"{path.stem}.", None)
    return out


def _is_immutability_guard(fn: ast.FunctionDef) -> bool:
    body = fn.body
    return (
        fn.name == "__setattr__"
        and len(body) == 1
        and isinstance(body[0], ast.Raise)
        and isinstance(body[0].exc, ast.Call)
        and getattr(body[0].exc.func, "id", None) == "AttributeError"
    )


def _is_data_model(name: str, cls, fn: ast.FunctionDef, entered: set) -> bool:
    if fn.name == "__repr__" or name in MODULE_HOOKS:
        return True
    if cls is None:
        return False
    if fn.name in ("__eq__", "__hash__"):
        defined = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
        return {"__eq__", "__hash__"} <= defined
    reflected = re.fullmatch(r"__r(\w+)__", fn.name)
    return bool(reflected) and f"{name.rsplit('.', 1)[0]}.__{reflected[1]}__" in entered


def _open_item(number: str) -> str:
    text = (ROOT / "ROADMAP.md").read_text().split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    items = [item for item in re.split(r"\n(?=\d+\. )", text) if item.startswith(f"{number}. ")]
    assert len(items) == 1, f"ROADMAP.md has no open item {number}"
    return items[0]


def _reason_holds(name: str, reason: str, nodes: dict, entered: set) -> None:
    kind, _, why = reason.partition(": ")
    assert why, f"{name}: the reason {reason!r} gives no kind and explanation"
    short = name.rsplit(".", 1)[1]
    if kind == "perfbench":
        refs = {ref for path in (ROOT / "perfbench").glob("*.py") for ref, _ in _references(path)}
        assert short in refs, f"{name}: perfbench/ does not reference {short}"
    elif kind.startswith("roadmap item "):
        assert f"`{short}`" in _open_item(kind.split()[-1]), f"{name}: {kind} does not name it"
    elif kind.startswith("via "):
        caller = kind[4:]
        body = ast.walk(nodes[caller])
        names = {getattr(n, "attr", getattr(n, "id", None)) for n in body}
        assert short in names, f"{name}: {caller} does not reference it"
        kept = caller in UNENTERED and not UNENTERED[caller].startswith("via ")
        assert caller in entered or kept, f"{name}: {caller} is not run"
    elif kind == "script":
        module = name.split(".", 1)[0]
        called = main_block_calls(ROOT / "src" / "nilcx" / f"{module}.py")
        assert short in called, f"{name}: the __main__ block of {module} does not call it"
    else:
        raise AssertionError(f"{name}: {kind!r} is not a checked kind of reason")


def test_every_library_function_is_entered(tmp_path, monkeypatch):
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    monkeypatch.chdir(tmp_path)
    cli_sweep.write_inputs(tmp_path)
    sys.setprofile(profile)
    try:
        codes = [cli_sweep.run(argv)[0] for argv in cli_sweep.ENTRY_ARGVS]
    finally:
        sys.setprofile(None)
    # every command; help and success, validation, usage and parse errors, preconditions
    assert {argv[0] for argv in cli_sweep.ENTRY_ARGVS if argv} >= set(COMMANDS)
    assert set(codes) == {0, 1, 2, 3}
    assert all(argv in cli_sweep.ARGVS for argv in cli_sweep.ENTRY_ARGVS)

    resolved = {f: str(Path(f).resolve()) for f, _ in calls}
    hits = {(resolved[f], line) for f, line in calls}
    nodes, unentered, entered = {}, {}, set()
    for path in sorted((ROOT / "src" / "nilcx").glob("*.py")):
        for name, cls, fn in _functions(path):
            nodes[name] = fn
            # a decorated function's code starts at its first decorator
            first = min([d.lineno for d in fn.decorator_list] + [fn.lineno])
            if (str(path.resolve()), first) in hits:
                entered.add(name)
            else:
                unentered[name] = (cls, fn)
    ruled = {
        name
        for name, (cls, fn) in unentered.items()
        if _is_immutability_guard(fn) or _is_data_model(name, cls, fn, entered)
    }
    assert set(unentered) - ruled == set(UNENTERED)
    for name, reason in UNENTERED.items():
        _reason_holds(name, reason, nodes, entered)


def test_api_error_messages():
    assert error_of(lambda: nilcx.no_such_name) == (
        AttributeError, "module 'nilcx' has no attribute 'no_such_name'"
    )


def _unreached_reason_holds(site, reason: str) -> None:
    kind, _, why = reason.partition(": ")
    assert why, f"{site.name}: the reason {reason!r} gives no kind and explanation"
    function = site.name.split(": ", 1)[0].rsplit(".", 1)[-1]
    roadmap = re.fullmatch(r"roadmap item (\d+)\((\w)\)", kind)
    if roadmap:
        number, part = roadmap.groups()
        _, found, text = _open_item(number).partition(f"**({part})")
        assert found, f"{site.name}: ROADMAP.md item {number} has no part ({part})"
        named = f"`{function}`" in text.split("**(", 1)[0]
        assert named, f"{site.name}: {kind} does not name {function}"
    elif re.fullmatch(r"test_\w+\.py::test_\w+", kind):
        file, test = kind.split("::")
        text = (ROOT / "tests" / file).read_text()
        defs = [n for n in ast.parse(text).body if isinstance(n, ast.FunctionDef)]
        fn = next((n for n in defs if n.name == test), None)
        assert fn is not None, f"{site.name}: {kind} is not a test"
        body = ast.get_source_segment(text, fn)
        missing = [part for part in site.literals if part not in body]
        assert not missing, f"{site.name}: {kind} does not spell out {missing}"
    else:
        raise AssertionError(f"{site.name}: {kind!r} is not a checked kind of reason")


def test_every_raise_is_reached_or_listed(tmp_path, monkeypatch):
    """Each raise under src/nilcx/ runs in some argv of the golden sweep, so
    its message is pinned there, or cli_sweep.UNREACHED lists it with a
    reason that holds."""
    golden = cli_sweep.GOLDEN.read_text(encoding="utf-8").splitlines()[1:]
    # the package re-raises what it catches, so only runs that exit non-zero
    # raise; `python tests/cli_sweep.py --raises` traces every argv
    failing = [argv for argv, line in zip(cli_sweep.ARGVS, golden) if not line.startswith("0 ")]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    cli_sweep.write_inputs(tmp_path)
    reached = cli_sweep.raised(failing)
    unreached = [s for s in cli_sweep.raise_sites() if (s.path, s.first) not in reached]
    listed = cli_sweep.UNREACHED
    unlisted = [
        f"{Path(s.path).name}:{s.first} {s.name}" for s in unreached if s.name not in listed
    ]
    assert not unlisted, "\n  ".join(
        ["no sweep argv reaches these raises, and UNREACHED does not list them:", *unlisted]
    )
    stale = sorted(set(listed) - {s.name for s in unreached})
    assert not stale, "\n  ".join(
        ["UNREACHED lists raises that a sweep argv reaches or that are gone:", *stale]
    )
    for site in unreached:
        _unreached_reason_holds(site, listed[site.name])
