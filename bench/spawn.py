"""Starts the benchmark's commands and reports how each one ended.

``run.py`` starts this as a small process (``python3 -S``, no numpy), and
every CLI command is a child of it. Linux folds the spawning process's peak
RSS into a child's maximum RSS at exec, so spawning from the benchmark's own
process would report that process's peak for every small command.

One JSON object per line on stdin: ``{"argv", "cwd", "log", "timeout"}``;
one per line on stdout: ``{"rc", "wall_s", "max_rss_mb"}``. The process ends
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job: dict) -> dict:
    with open(job["log"] or os.devnull, "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(job["argv"], cwd=job["cwd"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(job["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "max_rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
