"""Starts the program's processes for run.py, from a small address space.

A process's ru_maxrss includes the RSS high-water mark of the address space
it replaced at exec, that is, of the process that started it.  Launched from
run.py, which reads and checks megabytes of output, every run would report
run.py's memory as its own.  This process imports almost nothing and keeps
no output, so its own high-water mark stays below any run's.

One JSON line in per launch: [argv, stdout_path, stderr_path, timeout_s];
one JSON line out: [wall_s, ru_maxrss_kb, wait_status].  The launched
process leads a session of its own; on timeout or SIGTERM its whole process
group (pool workers included) is killed.
"""

import json
import os
import signal
import sys
import time

_running = None  # pid of the process being waited for


def _kill_running(signum=None, frame=None) -> None:
    if _running is not None:
        try:
            os.killpg(_running, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if signum == signal.SIGTERM:
        sys.exit(128 + signum)


def main() -> None:
    global _running
    signal.signal(signal.SIGALRM, _kill_running)
    signal.signal(signal.SIGTERM, _kill_running)
    for line in sys.stdin:
        argv, out_path, err_path, timeout = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o600),
        ]
        start = time.perf_counter()
        _running = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions, setsid=True)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        _, status, usage = os.wait4(_running, 0)
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        _running = None
        sys.stdout.write(json.dumps([wall, usage.ru_maxrss, status]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
