"""Relay that starts the benchmark's child processes from a small process.

Linux carries the pre-exec memory of a forked process into the child's
ru_maxrss, so a child forked from the benchmark, which holds numpy and
whole output files, would report the benchmark's peak as its own.  This
relay imports nothing heavy; it reads one JSON request per stdin line
({"argv", "env", "cwd", "stdout", "stderr", "timeout"}), runs that process to
completion, and writes one JSON line {"wall_s", "cpu_s", "rss_kb", "exit"}.
It exits when stdin closes; SIGTERM kills the running child first.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "w") as out, open(request["stderr"], "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], env=request["env"], cwd=request["cwd"],
                                stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "exit": proc.returncode}


def main() -> None:
    # Terminating the relay raises SystemExit inside run(), which kills the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
