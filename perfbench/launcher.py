"""Starts the benchmark's requests from a process that stays small.

A child's ``ru_maxrss`` starts from the peak resident set of the process that
forked it.  The benchmark holds large reference tables while it checks
responses, so it does not fork requests itself: it runs this launcher once,
at start, and sends it one JSON line per command,

    {"argv": [...], "timeout": seconds, "out": path, "err": path}

The launcher runs the command in a new session with standard output and
error sent to the two files, kills the session if the timeout passes, and
answers with one JSON line,

    {"code": exit code or null on timeout, "started": perf_counter at spawn,
     "seconds": spawn to exit, "maxrss_kb": the command's peak resident set}

``started`` is comparable across processes: perf_counter reads the
system-wide monotonic clock.
"""

import json
import os
import select
import signal
import subprocess
import sys
from time import perf_counter


def run(argv: list, timeout: float, out_path: str, err_path: str, cwd: str) -> dict:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd, start_new_session=True
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], max(timeout, 0.0))[0]
            if not exited:
                os.killpg(proc.pid, signal.SIGKILL)  # the command and any workers it started
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - started
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode if exited else None,
        "started": started,
        "seconds": seconds,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    cwd = os.getcwd()
    for line in sys.stdin:
        cmd = json.loads(line)
        reply = run(cmd["argv"], cmd["timeout"], cmd["out"], cmd["err"], cwd)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
