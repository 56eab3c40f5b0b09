"""Run one command; print its wall time, exit code and peak RSS as JSON.

    python3 -S perfbench/launch.py STDOUT_FILE STDERR_FILE PROGRAM [ARG ...]

On Linux a new process's ``ru_maxrss`` starts at the resident size of the
process that spawned it, so the benchmark spawns every timed child through
this small launcher: the reading is then the child's own peak whenever that
exceeds the launcher's (about 10 MiB), instead of the benchmark's.
"""

import json
import os
import sys
import time


def main() -> int:
    out, err, *argv = sys.argv[1:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "exit_code": code, "maxrss_kib": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
