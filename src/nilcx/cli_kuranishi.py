"""``nilcx kuranishi``: the deformation series, its obstructions, and the
structure it deforms to at an ``--at`` point."""

import sys

from .algfile import parse
from .cli_common import SCHEMA, emit_json, parse_rational, pick_structure
from .cli_complex import matrix_rows, open_complex, print_rows
from .dolbeault import chain_text
from .errors import ValidationError
from .kuranishi import (
    classify_deformation,
    deform_structure,
    kuranishi_series,
    obstructions,
    residual_by_degree,
)
from .poly import mono_str


def run(args) -> int:
    af = parse(args.file)
    name, acs = pick_structure(af, args.structure)
    if args.order < 1:
        raise ValidationError("order must be at least 1")
    point = None if args.at is None else tuple(map(parse_rational, args.at.split(",")))
    dc = open_complex(af.algebra, name, acs)
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
    coordinates = [
        chain_text(series.coeffs[tuple(int(i == k) for i in range(series.params))])
        for k in range(series.params)
    ]
    higher = sorted((m for m in series.coeffs if sum(m) >= 2), key=lambda m: (sum(m), m))
    trivial = not higher and all(p.min_degree() is None for p in obs.polys)
    # by degree, then monomial: the order the text lists them in
    coefficients = {mono_str(m): chain_text(series.coeffs[m]) for m in higher}
    polys = [str(p) for p in obs.polys]

    payload = {
        "schema": SCHEMA,
        "command": "kuranishi",
        "algebra": af.name,
        "structure": name,
        "order": args.order,
        "coordinates": coordinates,
        "coefficients": coefficients,
        "obstructions": polys,
    }

    if not args.json:
        print(f"algebra {af.name} (dim {af.algebra.dim}), structure {name}")
        print(f"order {args.order}")
        print(f"coordinates t1..t{series.params} (degree-one harmonic basis):")
        for i, text in enumerate(coordinates):
            print(f"  t{i + 1}: {text}")
        if trivial:
            print("φ_r = 0 for r ≥ 2; no obstructions")
        else:
            print("phi coefficients of degree >= 2:")
            for m, text in coefficients.items():
                print(f"  {m}: {text}")
            if not higher:
                print("  none")
            print("obstructions:")
            for i, text in enumerate(polys):
                print(f"  f{i + 1} = {text}")

    if point is not None:
        payload["point"] = [str(t) for t in point]
        at = ", ".join(payload["point"])
        live = [f"f{i + 1}" for i, p in enumerate(obs.polys) if p.evaluate(point)]
        if live:
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
                    f"{{Phi(t), Phi(t)}} has the nonzero degree-{d} term {chain_text(term)}; "
                    "the classification is of the truncated structure",
                    file=sys.stderr,
                )
        payload["deformed_j"] = rows = matrix_rows(deformed.j_new.matrix)
        payload["classification"] = verdict = rep._asdict()
        if not args.json:
            print(f"at t = ({at})")
            print("deformed J matrix:")
            print_rows(rows)
            words = ("integrable", "nilpotent", "abelian")
            print("classification: " + ", ".join([w if verdict[w] else f"not {w}" for w in words]))

    if args.json:
        emit_json(payload)
    return 0
