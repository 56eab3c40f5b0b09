"""``nilcx abelian-locus``: the degree-1 directions that stay abelian to first order."""

from .algfile import parse
from .brackets import infinitesimal_abelian_locus
from .cli_common import SCHEMA, emit_json, pick_structure
from .cli_complex import open_complex, print_rows


def run(args) -> int:
    af = parse(args.file)
    name, acs = pick_structure(af, args.structure)
    dc = open_complex(af.algebra, name, acs)
    rows = infinitesimal_abelian_locus(dc)
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
        print(f"basis (coordinates t1..t{len(rows[0])}):")
        print_rows([[str(c) for c in row] for row in rows])
    return 0
