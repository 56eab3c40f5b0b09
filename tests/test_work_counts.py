"""The work of fixed command lines, pinned by count: ``tests/work_counts.py``
against its committed table in ``tests/work_counts.golden``.

A change that means to change the work rewrites the file with
``python tests/work_counts.py --write`` and quotes the diff.
"""

import sys

import work_counts


def test_work_counts_match_the_golden_file(tmp_path, monkeypatch):
    golden = work_counts.GOLDEN.read_text(encoding="utf-8")
    head = golden.split("\n", 1)[0]
    if head != work_counts.header():
        here = f"{sys.version_info.major}.{sys.version_info.minor}"
        raise AssertionError(
            f"{work_counts.GOLDEN.name} was written on {head.split(';')[0][2:]}, and this is "
            f"python {here}: the interpreter decides which comprehensions are calls, so "
            "rewrite the file on this version"
        )
    monkeypatch.chdir(tmp_path)
    work_counts.write_inputs(tmp_path)
    got, want = work_counts.counts(), work_counts.read(golden)
    assert list(got) == list(want), "the argvs are not those of the golden file; rewrite it"
    moved = [
        f"  {argv}: {name} {want[argv].get(name)} -> {n}"
        for argv, row in got.items()
        for name, n in row.items()
        if want[argv].get(name) != n
    ]
    assert not moved, "\n".join(["calls that moved (golden -> now):", *moved])
