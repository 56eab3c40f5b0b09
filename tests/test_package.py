"""The package namespace: public names resolve on first use, and a CLI
subcommand loads only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilcx
from nilcx.algfile import render_entry
from nilcx.catalog import get

SRC = Path(nilcx.__file__).resolve().parents[1]

PUBLIC = [
    "AlgebraFile", "AlmostComplexStructure", "CatalogEntry", "CohomologySpace",
    "ComplexFrame", "DeformationReport", "DeformationSeries", "DeformedStructure",
    "DolbeaultComplex", "Flag", "GaussianRational", "InvariantForm", "LieAlgebra",
    "NotSolvableError", "ObstructionSet", "ParseError", "Poly", "PreconditionError",
    "SelfCheckError", "ValidationError", "ValidationReport", "VectorForm",
    "__version__", "adapted_frame", "ascending_series", "center",
    "classify_deformation", "deform_structure", "exterior_derivative", "get", "gr",
    "graded_center", "infinitesimal_abelian_locus", "is_abelian", "is_integrable",
    "j_ascending_series", "kuranishi_series", "mc_residual", "names", "obstructions",
    "parse", "parse_text", "render", "render_entry", "schouten",
    "schouten_with_coform", "validate_lie", "verify_entry",
]


def _python(code: str, *args: str) -> str:
    """Run code in a fresh interpreter that writes no bytecode; its stdout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_loaded_by(argv: list[str]) -> set[str]:
    code = (
        "import sys\n"
        "from nilcx.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('loaded', rc, *sorted(m for m in sys.modules if m.startswith('nilcx')))\n"
    )
    last = _python(code, *argv).splitlines()[-1].split()
    assert last[:2] == ["loaded", "0"]
    return set(last[2:])


@pytest.fixture
def h15_file(tmp_path):
    p = tmp_path / "h15.alg"
    p.write_text(render_entry(get("h15")))
    return str(p)


HEAVY = {"nilcx.dolbeault", "nilcx.kuranishi", "nilcx.poly", "nilcx.catalog"}


@pytest.mark.parametrize("argv", [["validate"], ["validate", "--json"], ["series"]])
def test_validate_and_series_load_no_heavy_module(h15_file, argv):
    loaded = _modules_loaded_by([argv[0], h15_file, *argv[1:]])
    assert {"nilcx.lie", "nilcx.cxs", "nilcx.algfile"} <= loaded
    assert not loaded & HEAVY


def test_cohomology_loads_dolbeault_only(h15_file):
    loaded = _modules_loaded_by(["cohomology", h15_file, "--degree", "1"])
    assert "nilcx.dolbeault" in loaded
    assert not loaded & {"nilcx.kuranishi", "nilcx.poly", "nilcx.catalog"}


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
