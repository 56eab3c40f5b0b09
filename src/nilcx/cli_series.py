"""``nilcx series``: the ascending central series and an adapted frame."""

from .algfile import parse
from .cli_common import pick_structure
from .cxs import adapted_frame
from .lie import ascending_series, vector_text


def run(args) -> int:
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
            print(f"  X{i + 1} = {vector_text(v, 'e')}")
    return 0
