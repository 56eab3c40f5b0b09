"""``nilcx cohomology``: the harmonic basis of one degree, with its Gram."""

from .algfile import parse
from .cli_common import SCHEMA, emit_json, pick_structure
from .cli_complex import matrix_rows, open_complex, print_rows


def run(args) -> int:
    af = parse(args.file)
    name, acs = pick_structure(af, args.structure)
    dc = open_complex(af.algebra, name, acs)
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
                "gram": matrix_rows(space.gram),
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
        print_rows(matrix_rows(space.gram))
    return 0
