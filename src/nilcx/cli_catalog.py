"""``nilcx catalog``: list the built-ins, or emit one as ``.alg`` text."""

import sys

from .catalog import get, render_entry
from .cli_common import parse_rational


def run(args) -> int:
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
