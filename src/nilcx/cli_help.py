"""The argparse parser of the CLI's command table.

``cli.main`` imports this module only for an argv that ``read_argv``
declines: help, usage errors, abbreviations, repeats and ``--``.
"""

import argparse


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """The argparse parser of ``commands`` (``cli.COMMANDS``)."""
    parser = argparse.ArgumentParser(
        prog="nilcx",
        description="exact invariant complex structures on nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, options, _) in commands.items():
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
    return parser
