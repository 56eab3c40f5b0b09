"""``nilcx validate``: Jacobi, step, and structure checks."""

from .algfile import parse
from .cli_common import SCHEMA, emit_json
from .cxs import is_abelian, is_integrable, j_ascending_series


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def run(args) -> int:
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
