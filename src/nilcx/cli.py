"""Command-line front end.

Subcommands operate on ``.alg`` files (see ``algfile``) or on catalog
names.  Reports go to stdout; ``--json`` switches the commands that
compute something to a stable-ordered, schema-versioned JSON document,
byte-identical across runs for identical inputs.

This module runs as ``__main__`` in every job, so it holds only the
command table, the argv reader and ``main``. A command's handler is the
``run(args)`` of its own module, named in ``COMMANDS`` (``cli_validate``,
``cli_kuranishi``, ...); ``main`` imports only that one. ``read_argv``
reads a plain argv straight from the table; ``cli_help`` builds argparse
from it for any other argv (abbreviations, repeats, ``--``), help and
usage errors, so no command imports ``json`` or ``argparse``.

Exit codes: 0 success, 1 validation failure, 2 parse error (bad file or
bad usage), 3 computation precondition failure.
"""

import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import NotSolvableError, ParseError, PreconditionError, ValidationError

# one row per command: help, positionals as (dest, nargs, help), options as
# (name, type, default, required, help), and the module of its handler; the
# type is int, str or bool (a flag), and the dest is the name without its dashes
_FILE = ("file", None, "path to an .alg file")
_STRUCTURE = ("--structure", str, None, False, "structure block to use (default: first)")
_JSON = ("--json", bool, False, False, None)
_AT = (
    "--at", str, None, False, "comma-separated rational coordinates in the printed basis order"
)
COMMANDS = {
    "validate": ("Jacobi, step, and structure checks", [_FILE], [_JSON], "cli_validate"),
    "series": ("ascending series and adapted frame", [_FILE], [_STRUCTURE], "cli_series"),
    "cohomology": (
        "harmonic basis in one degree",
        [_FILE],
        [_STRUCTURE, ("--degree", int, None, True, None), _JSON],
        "cli_cohomology",
    ),
    "kuranishi": (
        "deformation series and obstructions",
        [_FILE],
        [_STRUCTURE, ("--order", int, None, True, None), _AT, _JSON],
        "cli_kuranishi",
    ),
    "abelian-locus": (
        "infinitesimal abelian subspace",
        [_FILE],
        [_STRUCTURE, _JSON],
        "cli_abelian_locus",
    ),
    "catalog": (
        "list built-ins or emit one as .alg",
        [("name", "?", None)],
        [
            ("--s", str, "1", False, "n10 parameter s (rational)"),
            ("--t", str, "0", False, "n10 parameter t (rational)"),
            ("--n", int, 3, False, "torus half-dimension"),
        ],
        "cli_catalog",
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
    _, positionals, options, _ = COMMANDS[argv[0]]
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
    return SimpleNamespace(command=argv[0], **ns)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        from .cli_help import build_parser

        args = build_parser(COMMANDS).parse_args(argv)
    handler = import_module(f".{COMMANDS[args.command][3]}", __package__)
    try:
        return handler.run(args)
    except ValidationError as exc:
        code, error = 1, exc
    except (PreconditionError, NotSolvableError) as exc:
        code, error = 3, exc
    except (ParseError, OSError) as exc:
        code, error = 2, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
