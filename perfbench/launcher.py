"""Spawn child processes from a process that holds no large buffers.

On Linux a child's ``ru_maxrss`` starts from the RSS of the process that
spawned it, so a CLI launched straight from the benchmark (which holds the
generated texts) would report the benchmark's memory, not its own. This
process imports only small stdlib modules and never reads child output.

Protocol: one JSON request per stdin line,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout_s": t}``;
one JSON reply per stdout line,
``{"start_ns", "end_ns", "exit_code", "maxrss_kib"}`` or ``{"error": msg}``.
The clock is ``time.perf_counter_ns``, which on Linux is the system-wide
monotonic clock, so its readings compare with the parent's.
"""

import json
import os
import select
import signal
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(req):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], FLAGS, 0o644),
    ]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], req["timeout_s"])
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    end = time.perf_counter_ns()
    if not ready:
        return {"error": f"timed out after {req['timeout_s']} s: {req['argv']}"}
    return {
        "start_ns": start,
        "end_ns": end,
        "exit_code": os.waitstatus_to_exitcode(status),
        "maxrss_kib": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        try:
            reply = run(json.loads(line))
        except OSError as exc:
            reply = {"error": str(exc)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
