"""Run one command; report its exit code, wall seconds and peak RSS.

    python3 -I -S perfbench/launch.py PROGRAM [ARG ...]

Prints "<exit code> <seconds> <max RSS in KiB>" on stdout; the command's
stdout goes to /dev/null and its stderr is inherited. The benchmark
starts every rgsv process through this small one because on Linux a
child's ru_maxrss also counts the memory of the process that forked it:
forked straight from the benchmark, which holds the inputs, every child
would report at least the benchmark's own size.
"""

import os
import sys
import time


def main() -> None:
    argv = sys.argv[1:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    print(os.waitstatus_to_exitcode(status), repr(seconds), usage.ru_maxrss)


if __name__ == "__main__":
    main()
