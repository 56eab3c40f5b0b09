"""Command-line front end.

Subcommands operate on ``.alg`` files (see ``algfile``) or on catalog
names.  Reports go to stdout; ``--json`` switches the commands that
compute something to a stable-ordered, schema-versioned JSON document,
byte-identical across runs for identical inputs.

Exit codes: 0 success, 1 validation failure, 2 parse error (bad file or
bad usage), 3 computation precondition failure.
"""

from __future__ import annotations

import argparse
import sys

from .algfile import AlgebraFile, parse, render_entry
from .cxs import adapted_frame, is_abelian, is_integrable, j_ascending_series
from .errors import (
    NotSolvableError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .lie import ascending_series, vector_text as _vector_str
from .scalars import GaussianRational

# dolbeault, kuranishi, poly, catalog and json are imported where they are
# used, so validate and series do not load them

SCHEMA = 1


def _parse_rational(tok: str) -> GaussianRational:
    try:
        return GaussianRational(tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a rational number: {tok.strip()!r}") from None


def _parse_point(text: str) -> tuple[GaussianRational, ...]:
    return tuple(_parse_rational(tok) for tok in text.split(","))


def _pick_structure(af: AlgebraFile, wanted: str | None):
    if not af.structures:
        raise ValidationError("file has no structure block")
    if wanted is None:
        return af.structures[0]
    for name, acs in af.structures:
        if name == wanted:
            return name, acs
    raise ValidationError(f"no structure named {wanted}")


def _emit_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _matrix_rows(m) -> list[list[str]]:
    return [[str(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]


def _print_rows(rows: list[list[str]], indent: str = "  ") -> None:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    for r in rows:
        cells = " ".join(c.rjust(w) for c, w in zip(r, widths))
        print(f"{indent}[{cells}]")


def cmd_validate(args) -> int:
    af = parse(args.file)
    payload = {
        "schema": SCHEMA,
        "command": "validate",
        "algebra": af.name,
        "dim": af.algebra.dim,
        "step": af.report.step,
        "structures": {},
    }
    for name, acs in af.structures:
        integrable = bool(is_integrable(af.algebra, acs))
        abelian = is_abelian(af.algebra, acs)
        _, nilpotent = j_ascending_series(af.algebra, acs)
        payload["structures"][name] = {
            "integrable": integrable,
            "abelian": abelian,
            "nilpotent": nilpotent,
        }
    if args.json:
        _emit_json(payload)
        return 0
    print(f"algebra {af.name} (dim {af.algebra.dim})")
    print("jacobi identity: ok")
    print(f"nilpotent: yes, step {af.report.step}")
    for name, facts in payload["structures"].items():
        print(f"structure {name}:")
        print("  J^2 = -I: ok")
        print(f"  integrable: {_yesno(facts['integrable'])}")
        print(f"  abelian: {_yesno(facts['abelian'])}")
        print(f"  J-nilpotent: {_yesno(facts['nilpotent'])}")
    return 0


def cmd_series(args) -> int:
    af = parse(args.file)
    flag = ascending_series(af.algebra)
    frame = None
    name = None
    if af.structures:
        name, acs = _pick_structure(af, args.structure)
        frame = adapted_frame(af.algebra, acs)
    print(f"algebra {af.name} (dim {af.algebra.dim})")
    print("ascending series dims: " + ", ".join(str(d) for d in flag.dims))
    if frame is not None:
        print(f"adapted frame for structure {name}:")
        for i, v in enumerate(frame.vectors):
            print(f"  X{i + 1} = {_vector_str(v, 'e')}")
    return 0


def cmd_cohomology(args) -> int:
    from .dolbeault import DolbeaultComplex

    af = parse(args.file)
    name, acs = _pick_structure(af, args.structure)
    dc = DolbeaultComplex(af.algebra, acs)
    space = dc.cohomology(args.degree)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "cohomology",
                "algebra": af.name,
                "structure": name,
                "degree": args.degree,
                "dim": space.dimension,
                "basis": [str(h) for h in space.harmonic_basis],
                "gram": _matrix_rows(space.gram),
            }
        )
        return 0
    print(f"algebra {af.name} (dim {af.algebra.dim}), structure {name}")
    print(f"degree {args.degree}")
    print(f"dim = {space.dimension}")
    if space.dimension:
        print("harmonic basis:")
        for i, h in enumerate(space.harmonic_basis):
            print(f"  h{i + 1} = {h}")
        print("gram matrix:")
        _print_rows(_matrix_rows(space.gram))
    return 0


def cmd_kuranishi(args) -> int:
    from .dolbeault import DolbeaultComplex
    from .kuranishi import (
        classify_deformation,
        deform_structure,
        kuranishi_series,
        obstructions,
        residual_by_degree,
    )
    from .poly import mono_str

    af = parse(args.file)
    name, acs = _pick_structure(af, args.structure)
    if args.order < 1:
        raise ValidationError("order must be at least 1")
    point = None if args.at is None else _parse_point(args.at)
    dc = DolbeaultComplex(af.algebra, acs)
    if point is not None and len(point) != dc.cohomology(1).dimension:
        raise ValidationError("wrong number of parameters")
    series = kuranishi_series(dc, order=args.order)
    obs = obstructions(series)
    if point is not None:
        # a degenerate point is refused before any part of the report is printed
        deformed = deform_structure(dc, series, point)
        rep = classify_deformation(af.algebra, deformed)
    linear = [
        series.coeffs[tuple(int(i == k) for i in range(series.params))]
        for k in range(series.params)
    ]
    higher = [(m, f) for m, f in series.coeffs.items() if sum(m) >= 2]
    higher.sort(key=lambda mf: (sum(mf[0]), mf[0]))
    trivial = not higher and all(p.min_degree() is None for p in obs.polys)

    payload = {
        "schema": SCHEMA,
        "command": "kuranishi",
        "algebra": af.name,
        "structure": name,
        "order": args.order,
        "coordinates": [str(h) for h in linear],
        "coefficients": {
            mono_str(m): str(f)
            for m, f in series.coeffs.items()
            if sum(m) >= 2
        },
        "obstructions": [str(p) for p in obs.polys],
    }

    if not args.json:
        print(f"algebra {af.name} (dim {af.algebra.dim}), structure {name}")
        print(f"order {args.order}")
        print(f"coordinates t1..t{series.params} (degree-one harmonic basis):")
        for i, h in enumerate(linear):
            print(f"  t{i + 1}: {h}")
        if trivial:
            print("φ_r = 0 for r ≥ 2; no obstructions")
        else:
            print("phi coefficients of degree >= 2:")
            if higher:
                for m, f in higher:
                    print(f"  {mono_str(m)}: {f}")
            else:
                print("  none")
            print("obstructions:")
            for i, p in enumerate(obs.polys):
                print(f"  f{i + 1} = {p}")

    if point is not None:
        at = ", ".join(str(t) for t in point)
        if not obs.vanishes_at(point):
            live = [f"f{i + 1}" for i, p in enumerate(obs.polys) if p.evaluate(point)]
            print(
                f"note: t = ({at}) is obstructed "
                f"(nonzero there: {', '.join(live)}); the deformed J is not a "
                "Kuranishi deformation",
                file=sys.stderr,
            )
        else:
            residual = residual_by_degree(dc, series, point)
            if residual:
                d, term = next(iter(residual.items()))
                print(
                    f"note: the order-{args.order} series does not solve the "
                    f"Maurer-Cartan equation at t = ({at}): dbar Phi(t) + 1/2 "
                    f"{{Phi(t), Phi(t)}} has the nonzero degree-{d} term {term}; "
                    "the classification is of the truncated structure",
                    file=sys.stderr,
                )
        words = [
            ("integrable" if rep.integrable else "not integrable"),
            ("nilpotent" if rep.nilpotent else "not nilpotent"),
            ("abelian" if rep.abelian else "not abelian"),
        ]
        payload["point"] = [str(t) for t in point]
        payload["deformed_j"] = _matrix_rows(deformed.j_new.matrix)
        payload["classification"] = {
            "integrable": rep.integrable,
            "abelian": rep.abelian,
            "nilpotent": rep.nilpotent,
        }
        if not args.json:
            print(f"at t = ({at})")
            print("deformed J matrix:")
            _print_rows(_matrix_rows(deformed.j_new.matrix))
            print("classification: " + ", ".join(words))

    if args.json:
        _emit_json(payload)
    return 0


def cmd_abelian_locus(args) -> int:
    from .dolbeault import DolbeaultComplex
    from .kuranishi import infinitesimal_abelian_locus

    af = parse(args.file)
    name, acs = _pick_structure(af, args.structure)
    dc = DolbeaultComplex(af.algebra, acs)
    rows = infinitesimal_abelian_locus(dc)
    k = dc.cohomology(1).dimension
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "abelian-locus",
                "algebra": af.name,
                "structure": name,
                "dim": len(rows),
                "basis": [[str(c) for c in row] for row in rows],
            }
        )
        return 0
    print(f"algebra {af.name} (dim {af.algebra.dim}), structure {name}")
    print(f"infinitesimal abelian subspace: dim {len(rows)}")
    if rows:
        print(f"basis (coordinates t1..t{k}):")
        _print_rows([[str(c) for c in row] for row in rows])
    return 0


def cmd_catalog(args) -> int:
    from .catalog import get

    if args.name is None:
        print("h9     dim 6, 3-step, abelian structure J")
        print("h15    dim 6, 3-step, abelian structure J")
        print("n10    dim 10, 2-step, structure J(s,t) with t^2 != s^2")
        print("torus  dim 2n, abelian, standard structure J")
        return 0
    if args.name == "n10":
        entry = get("n10", s=_parse_rational(args.s), t=_parse_rational(args.t))
    elif args.name == "torus":
        entry = get("torus", n=args.n)
    else:
        entry = get(args.name)
    sys.stdout.write(render_entry(entry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcx",
        description="exact invariant complex structures on nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p, structure=True):
        p.add_argument("file", help="path to an .alg file")
        if structure:
            p.add_argument(
                "--structure",
                default=None,
                help="structure block to use (default: first)",
            )

    p = sub.add_parser("validate", help="Jacobi, step, and structure checks")
    with_file(p, structure=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("series", help="ascending series and adapted frame")
    with_file(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("cohomology", help="harmonic basis in one degree")
    with_file(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("kuranishi", help="deformation series and obstructions")
    with_file(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--at",
        default=None,
        help="comma-separated rational coordinates in the printed basis order",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kuranishi)

    p = sub.add_parser("abelian-locus", help="infinitesimal abelian subspace")
    with_file(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_abelian_locus)

    p = sub.add_parser("catalog", help="list built-ins or emit one as .alg")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--s", default="1", help="n10 parameter s (rational)")
    p.add_argument("--t", default="0", help="n10 parameter t (rational)")
    p.add_argument("--n", type=int, default=3, help="torus half-dimension")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, NotSolvableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
