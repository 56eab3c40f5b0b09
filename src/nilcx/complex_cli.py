"""The CLI handlers that build a Dolbeault complex.

``cohomology``, ``kuranishi`` and ``abelian-locus`` run through here; ``cli``
imports this module only for them, so the other commands do not compile
it. The Kuranishi layer and ``poly`` are imported by the handlers that use
them, so ``cohomology`` loads neither.
"""

from __future__ import annotations

import sys

from .algfile import parse
from .cli_common import SCHEMA, emit_json, parse_rational, pick_structure
from .dolbeault import DolbeaultComplex
from .errors import ValidationError
from .scalars import GaussianRational


def _parse_point(text: str) -> tuple[GaussianRational, ...]:
    return tuple(parse_rational(tok) for tok in text.split(","))


def _matrix_rows(m) -> list[list[str]]:
    return [[str(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]


def _print_rows(rows: list[list[str]], indent: str = "  ") -> None:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    for r in rows:
        cells = " ".join(c.rjust(w) for c, w in zip(r, widths))
        print(f"{indent}[{cells}]")


def cmd_cohomology(args) -> int:
    af = parse(args.file)
    name, acs = pick_structure(af, args.structure)
    dc = DolbeaultComplex(af.algebra, acs)
    space = dc.cohomology(args.degree)
    if args.json:
        emit_json(
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
    from .kuranishi import (
        classify_deformation,
        deform_structure,
        kuranishi_series,
        obstructions,
        residual_by_degree,
    )
    from .poly import mono_str

    af = parse(args.file)
    name, acs = pick_structure(af, args.structure)
    if args.order < 1:
        raise ValidationError("order must be at least 1")
    point = None if args.at is None else _parse_point(args.at)
    dc = DolbeaultComplex(af.algebra, acs)
    if point is not None and len(point) != (h1 := dc.cohomology(1).dimension):
        raise ValidationError(
            f"wrong number of parameters: --at has {len(point)} values; H^1 has dimension {h1}"
        )
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
        emit_json(payload)
    return 0


def cmd_abelian_locus(args) -> int:
    from .kuranishi import infinitesimal_abelian_locus

    af = parse(args.file)
    name, acs = pick_structure(af, args.structure)
    dc = DolbeaultComplex(af.algebra, acs)
    rows = infinitesimal_abelian_locus(dc)
    k = dc.cohomology(1).dimension
    if args.json:
        emit_json(
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


COMMANDS = {
    "cohomology": cmd_cohomology,
    "kuranishi": cmd_kuranishi,
    "abelian-locus": cmd_abelian_locus,
}
