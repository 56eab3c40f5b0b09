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

from .algfile import parse, render_entry
from .cli_common import SCHEMA, emit_json, parse_rational, pick_structure
from .cxs import adapted_frame, is_abelian, is_integrable, j_ascending_series
from .errors import (
    NotSolvableError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .lie import ascending_series, vector_text as _vector_str

# complex_cli (with dolbeault, kuranishi and poly), catalog and json are
# imported where they are used, so validate and series do not load them


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


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
        emit_json(payload)
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
        name, acs = pick_structure(af, args.structure)
        frame = adapted_frame(af.algebra, acs)
    print(f"algebra {af.name} (dim {af.algebra.dim})")
    print("ascending series dims: " + ", ".join(str(d) for d in flag.dims))
    if frame is not None:
        print(f"adapted frame for structure {name}:")
        for i, v in enumerate(frame.vectors):
            print(f"  X{i + 1} = {_vector_str(v, 'e')}")
    return 0


def _complex_command(args) -> int:
    """cohomology, kuranishi and abelian-locus, which build a Dolbeault complex."""
    from .complex_cli import COMMANDS

    return COMMANDS[args.command](args)


def cmd_catalog(args) -> int:
    from .catalog import get

    if args.name is None:
        print("h9     dim 6, 3-step, abelian structure J")
        print("h15    dim 6, 3-step, abelian structure J")
        print("n10    dim 10, 2-step, structure J(s,t) with t^2 != s^2")
        print("torus  dim 2n, abelian, standard structure J")
        return 0
    if args.name == "n10":
        entry = get("n10", s=parse_rational(args.s), t=parse_rational(args.t))
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
    p.set_defaults(func=_complex_command)

    p = sub.add_parser("kuranishi", help="deformation series and obstructions")
    with_file(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--at",
        default=None,
        help="comma-separated rational coordinates in the printed basis order",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_complex_command)

    p = sub.add_parser("abelian-locus", help="infinitesimal abelian subspace")
    with_file(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_complex_command)

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
