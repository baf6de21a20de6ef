"""Run one command to its end and print its wall time, exit code and peak RSS as JSON.

    python3 perfbench/launch.py TIMEOUT_S LOG_FILE CMD...

Linux records a process's peak RSS across exec, so a child forked straight
from the benchmark (which holds numpy and the exact spectra) would report
the benchmark's memory.  This small interpreter, which imports nothing
heavy, stands between them.  The peak RSS is the largest of the command and
every descendant it waited for, so it covers the pool workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, log_path, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(log_path, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "rc": proc.returncode, "maxrss_kib": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
