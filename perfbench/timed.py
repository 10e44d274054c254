"""Run one command; print its wall time, CPU time, peak RSS and exit code as JSON.

Usage: ``python3 perfbench/timed.py LIMIT_S PROGRAM [ARGS...]``. The
command's standard output is discarded and its standard error is this
process's. It is killed after LIMIT_S seconds.

Linux carries the memory high-water mark of the process that calls exec
into the new program's ``ru_maxrss``. Spawned straight from ``run.py``, a
command would report at least the peak of ``run.py``. Spawned
from this small process, whose peak is below any ``instrank`` command's,
it reports its own.
"""

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    limit, command = float(argv[0]), argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawnp(
        command[0],
        command,
        os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )

    def stop(*_) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, limit)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(
        json.dumps(
            {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_kb": usage.ru_maxrss,
                "exit_code": os.waitstatus_to_exitcode(status),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
