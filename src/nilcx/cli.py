"""Command-line front end.

Subcommands operate on ``.alg`` files (see ``algfile``) or on catalog
names.  Reports go to stdout; ``--json`` switches the commands that
compute something to a stable-ordered, schema-versioned JSON document,
byte-identical across runs for identical inputs.

One table, ``COMMANDS``, gives each command's arguments and handler.
``read_argv`` reads a plain argv straight from it. argparse, built from the
same table, is imported only for any other argv (abbreviations, repeats,
``--``) and to print help and usage errors, so no command imports
``json`` or ``argparse``.

Exit codes: 0 success, 1 validation failure, 2 parse error (bad file or
bad usage), 3 computation precondition failure.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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

# complex_cli (with dolbeault, kuranishi and poly) and catalog are imported
# where they are used, so validate and series do not load them


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
        integrable = is_integrable(af.algebra, acs)
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
    from . import complex_cli

    return complex_cli.COMMANDS[args.command](args)


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


# one row per command: help, positionals as (dest, nargs, help), options as
# (name, type, default, required, help), and the handler; the type is int,
# str or bool (a flag), and the dest is the name without its dashes
_FILE = ("file", None, "path to an .alg file")
_STRUCTURE = ("--structure", str, None, False, "structure block to use (default: first)")
_JSON = ("--json", bool, False, False, None)
_AT = (
    "--at", str, None, False, "comma-separated rational coordinates in the printed basis order"
)
COMMANDS = {
    "validate": ("Jacobi, step, and structure checks", [_FILE], [_JSON], cmd_validate),
    "series": ("ascending series and adapted frame", [_FILE], [_STRUCTURE], cmd_series),
    "cohomology": (
        "harmonic basis in one degree",
        [_FILE],
        [_STRUCTURE, ("--degree", int, None, True, None), _JSON],
        _complex_command,
    ),
    "kuranishi": (
        "deformation series and obstructions",
        [_FILE],
        [_STRUCTURE, ("--order", int, None, True, None), _AT, _JSON],
        _complex_command,
    ),
    "abelian-locus": (
        "infinitesimal abelian subspace",
        [_FILE],
        [_STRUCTURE, _JSON],
        _complex_command,
    ),
    "catalog": (
        "list built-ins or emit one as .alg",
        [("name", "?", None)],
        [
            ("--s", str, "1", False, "n10 parameter s (rational)"),
            ("--t", str, "0", False, "n10 parameter t (rational)"),
            ("--n", int, 3, False, "torus half-dimension"),
        ],
        cmd_catalog,
    ),
}


def read_argv(argv: list[str]):
    """The namespace argparse would build from a plain argv, or None.

    Plain means: a command, then its exact option names once each, as
    ``--name=value`` or ``--name value`` with a value that does not start
    with ``-`` (flags without ``=``), the right number of positionals and
    every required option. Anything else, help included, is argparse's.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positionals, options, handler = COMMANDS[argv[0]]
    kinds = {name: kind for name, kind, _, _, _ in options}
    given, words = {}, []
    rest = iter(argv[1:])
    for tok in rest:
        if not tok.startswith("-"):
            words.append(tok)
            continue
        name, eq, value = tok.partition("=")
        kind = kinds.get(name)
        if kind is None or name in given or (kind is bool and eq):
            return None
        if kind is bool:
            value = True
        elif not eq:
            value = next(rest, "-")  # a missing value is declined as a dash
            if value.startswith("-"):
                return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        given[name] = value
    needed = sum(nargs is None for _, nargs, _ in positionals)
    if not needed <= len(words) <= len(positionals):
        return None
    if any(required and name not in given for name, _, _, required, _ in options):
        return None
    ns = {dest: None for dest, _, _ in positionals}
    ns.update(zip((dest for dest, _, _ in positionals), words))
    for name, _, default, _, _ in options:
        ns[name[2:]] = given.get(name, default)
    return SimpleNamespace(command=argv[0], func=handler, **ns)


def build_parser():
    """The argparse parser of the same table: help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nilcx",
        description="exact invariant complex structures on nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, options, handler) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for dest, nargs, help_ in positionals:
            p.add_argument(dest, nargs=nargs, help=help_)
        for name, kind, default, required, help_ in options:
            if kind is bool:
                p.add_argument(name, action="store_true", help=help_)
            else:
                p.add_argument(
                    name,
                    type=int if kind is int else None,
                    default=default,
                    required=required,
                    help=help_,
                )
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv) or build_parser().parse_args(argv)
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
