"""Run one command, then print its wall time, exit code and peak RSS as JSON.

    python3 perfbench/spawn.py TIMEOUT_S STDOUT_FILE STDERR_FILE -- ARGV...

Linux carries a process's peak RSS across exec, so a child started straight
from the benchmark, which holds numpy, scipy and whole instances, would
report at least the benchmark's own peak.  Started from this small process
instead, the child's rusage reflects the child.
"""

import ctypes
import json
import os
import signal
import subprocess
import sys
import threading
import time


PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """In a child before exec: be killed when the parent dies, so that no
    command outlives a benchmark that was itself killed."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def main() -> int:
    timeout, out_path, err_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, preexec_fn=die_with_parent)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "exit_code": proc.returncode, "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
