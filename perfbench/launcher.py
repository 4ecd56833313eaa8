"""A small process that starts and reaps the benchmark's child processes.

On Linux, exec records the high-water RSS of the address space it replaces
into the new program's ru_maxrss. A child started straight from the
benchmark process would therefore report at least the benchmark's own peak
(hundreds of MB once the serve vectors are built), not its own. This
launcher stays small, so the children it starts report their own peak.

It reads one JSON request per line on stdin and answers each with one JSON
line on stdout:

  {"argv": [...], "env": {...}, "cwd": D, "stdout": F, "stderr": F,
   "cpus": [..] or null}                  -> {"pid": P}
  {"wait": P}                             -> {"returncode": R, "rss_mb": M}

At end of input it kills and reaps every child it has not yet reaped.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys


def main() -> int:
    live = set()
    try:
        for line in sys.stdin:
            req = json.loads(line)
            if "wait" in req:
                pid = req["wait"]
                _, status, usage = os.wait4(pid, 0)
                live.discard(pid)
                reply = {"returncode": os.waitstatus_to_exitcode(status),
                         "rss_mb": usage.ru_maxrss / 1024.0}
            else:
                with open(req["stdout"], "wb") as out, \
                        open(req["stderr"], "wb") as err:
                    proc = subprocess.Popen(req["argv"], stdout=out,
                                            stderr=err, env=req["env"],
                                            cwd=req["cwd"])
                live.add(proc.pid)
                if req.get("cpus"):
                    os.sched_setaffinity(proc.pid, req["cpus"])
                reply = {"pid": proc.pid}
            print(json.dumps(reply), flush=True)
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
