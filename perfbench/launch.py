"""Run one command and report its own exit code, wall time, CPU and peak RSS.

    python3 -S perfbench/launch.py LOG -- COMMAND [ARGS...]

prints ``[exit code, wall s, cpu s, peak RSS KiB]`` as JSON on stdout; the
command's stdout and stderr are appended to LOG.

Linux gives a process that calls ``exec`` the peak RSS of the address
space it replaced, and a spawned child starts from its parent's.  A child
started straight from the benchmark, which holds numpy and the inputs,
would report at least the benchmark's RSS.  This launcher imports almost
nothing, so the peak RSS it reads from ``os.wait4`` is the command's own.
"""

import json
import os
import sys
import time


def main(argv):
    log, sep, command = argv[0], argv[1], argv[2:]
    if sep != "--" or not command:
        sys.stderr.write(__doc__)
        return 2
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    start = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.close(fd)
    sys.stdout.write(json.dumps([os.waitstatus_to_exitcode(status), wall,
                                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
