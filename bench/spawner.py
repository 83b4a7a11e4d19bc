"""Helper process that starts the benchmark's CLI children.

Linux carries the spawning process's peak RSS into a child's ru_maxrss
across exec, and run.py holds numpy arrays (the reference CRPS). This
helper, a fresh interpreter running only the standard library, starts
the children instead, so their figures stay their own.

Protocol: one JSON request per line on stdin, {"args": [...], "work": dir};
one JSON reply per line on stdout, [wall, peak RSS in MB, exit code,
stdout, stderr]. The helper exits at the end of its input; on SIGTERM it
kills and reaps the running child first.
"""
from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMAND_TIMEOUT_S = 150


def _kill(pid: int):
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run_child(args: list, work: str) -> list:
    """One CLI command as a child process, with OPENBLAS_NUM_THREADS=1.
    Its own peak RSS comes from wait4 (RUSAGE_CHILDREN would be a running
    maximum over all children)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("MIXCAST_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out_path, err_path = Path(work) / "child.stdout", Path(work) / "child.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mixcast", *args],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=work)
        killer = threading.Timer(COMMAND_TIMEOUT_S, _kill, (proc.pid,))
        reaped = False
        try:
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            killer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    killer.join()
    return [wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status),
            out_path.read_text(), err_path.read_text()]


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run_child(request["args"], request["work"])), flush=True)


if __name__ == "__main__":
    main()
