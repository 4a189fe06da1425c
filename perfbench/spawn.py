"""Starts the benchmark's processes from a small process of its own.

On Linux a child's ``ru_maxrss`` counts the resident size of the process it was
spawned from, as it stood before the child's ``exec``. ``run.py`` holds the
generated graphs and parsed reports, over 100 MiB, so children spawned from it
would report that instead of their own peak. This process imports only the
standard library and stays near 10 MiB, below any netgeom process.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"stderr", "timeout"}``; one JSON reply per line on stdout, ``{"code",
"wall_s", "cpu_s", "maxrss_kib"}``. The wall time runs from spawn to exit; the
rest comes from the child's own rusage (``wait4``). A child still running at
its timeout is killed. On SIGTERM the running child is killed before exit.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                 stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(0.0, req["timeout"]), child.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"code": child.returncode, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_kib": ru.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
