"""nilcx: exact Dolbeault cohomology and deformations of nilpotent Lie
algebras with abelian complex structures.

Public names are imported from their modules on first use, so a program
that needs only part of the package loads only that part.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "algfile": ("AlgebraFile", "parse", "parse_text"),
    "brackets": ("infinitesimal_abelian_locus",),
    "catalog": ("CatalogEntry", "get", "render", "render_entry"),
    "cxs": (
        "AlmostComplexStructure",
        "ComplexFrame",
        "adapted_frame",
        "is_abelian",
        "is_integrable",
        "j_ascending_series",
    ),
    "dolbeault": ("CohomologySpace", "DolbeaultComplex", "VectorForm"),
    "errors": (
        "NotSolvableError",
        "ParseError",
        "PreconditionError",
        "SelfCheckError",
        "ValidationError",
    ),
    "kuranishi": (
        "DeformationReport",
        "DeformationSeries",
        "DeformedStructure",
        "ObstructionSet",
        "classify_deformation",
        "deform_structure",
        "kuranishi_series",
        "obstructions",
    ),
    "lie": (
        "Flag",
        "LieAlgebra",
        "ValidationReport",
        "ascending_series",
        "validate_lie",
    ),
    "poly": ("Poly",),
    "scalars": ("GaussianRational", "gr"),
}
_EXPORTS = {name: mod for mod, names in _MODULE_EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_MODULE_EXPORTS) | {"cli", "linalg"}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
