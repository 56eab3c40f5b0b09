"""Every byte the CLI writes, pinned: the sweep of ``tests/cli_sweep.py``
against its committed lines in ``tests/cli_sweep.golden``.

A change that means to move output rewrites the file with
``python tests/cli_sweep.py --write`` and says which argvs moved and why.
"""

import sys

import cli_sweep

# how many of the moved argvs have their new stdout shown
SHOWN = 3


def test_every_cli_byte_matches_the_golden_sweep(tmp_path, monkeypatch):
    head, *golden = cli_sweep.GOLDEN.read_text(encoding="utf-8").splitlines()
    if head != cli_sweep.header():
        here = f"{sys.version_info.major}.{sys.version_info.minor}"
        raise AssertionError(
            f"{cli_sweep.GOLDEN.name} was written on {head.split(';')[0][2:]}, and this is "
            f"python {here}: argparse's help and usage text may differ, so rewrite the "
            "file on this version and check each moved line"
        )
    assert [g.split(" ", 3)[3] for g in golden] == [cli_sweep.shown(a) for a in cli_sweep.ARGVS], (
        "the sweep's argvs are not those of the golden file; rewrite it"
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    cli_sweep.write_inputs(tmp_path)
    moved, shown = [], []
    for argv, want in zip(cli_sweep.ARGVS, golden):
        got = cli_sweep.run(argv)
        now = cli_sweep.line(*got, argv)
        if now == want:
            continue
        parts = [
            name
            for name, a, b in zip(("exit code", "stdout", "stderr"), now.split(), want.split())
            if a != b
        ]
        moved.append(f"  {cli_sweep.shown(argv)}: {', '.join(parts)}")
        if len(shown) < SHOWN:
            shown.append(f"--- new stdout of {cli_sweep.shown(argv)} (exit {got[0]}):\n{got[1]}")
    assert not moved, "\n".join(
        [f"{len(moved)} of {len(golden)} argvs moved:", *moved, *shown]
    )
