"""Worker process: runs ``clevershopper.cli.main`` one solve at a time.

    python3 perfbench/worker.py <connection fd> <src dir> <trace 0|1>

``run.py`` starts it and talks to it over the inherited connection.

The parent sends ``("solve", solve_id, argv, traced)`` and gets back
``("done", seconds, exit_code, ref_s)`` or ``("raised", seconds, message,
ref_s)``, where ``ref_s`` is ``reference_loop_s()`` timed right after;
``("finish",)`` returns the recorded spans and the process's peak RSS.
Only the ``cli.main`` call is timed.  Its printing goes to the null
device, so it still formats and writes every line.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
from multiprocessing.connection import Connection


def reference_loop_s() -> float:
    """Time a fixed piece of pure-Python work, in seconds.

    A shared host's speed swings by up to 40% over seconds to minutes,
    far more than the changes the benchmark must resolve.  The loop runs
    right after every solve, in the same process and so on the same CPU,
    and ``run.py`` reports each solve's time scaled by the loop's: seconds
    at a reference speed.  The loop builds tuples and a set, as the
    solvers do.  On a 2-vCPU KVM guest, over five or six runs per
    workload, it cut the spread of ``suite_s`` from 0.12-0.36 to
    0.02-0.04.  A loop of integer arithmetic alone reached only
    0.05-0.09, and timed in the parent process, which may sit on the
    other CPU, 0.11.

    The garbage collector is off during the loop, so a heap the program
    leaves behind does not change its time, and each round's set is
    small (about 200 KB), so the loop does not raise the peak RSS.  Work the program left
    running in this process between solves would slow it, and be partly
    divided out.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for base in range(0, 60_000, 2_000):
            seen = {(i, i * 7 % 1000) for i in range(base, base + 2_000)}
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def serve(conn, src: str, trace: bool) -> None:
    sys.path.insert(0, src)
    from clevershopper import cli

    from spans import Tracer

    tracer = Tracer() if trace else None
    installed = False
    with open(os.devnull, "w") as sink:
        sys.stdout = sys.stderr = sink
        conn.send("ready")
        while True:
            message = conn.recv()
            if message[0] == "finish":
                break
            _, solve_id, argv, traced = message
            if tracer is not None:
                if traced and not installed:
                    tracer.install()
                elif installed and not traced:
                    tracer.uninstall()
                installed = traced
                tracer.solve_id = solve_id
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                reply = ("done", time.perf_counter() - start, exc.code)
            except Exception as exc:
                reply = ("raised", time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
            else:
                reply = ("done", time.perf_counter() - start, code)
            conn.send(reply + (reference_loop_s(),))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    conn.send((tracer.spans if tracer is not None else [], peak_mb))
    conn.close()


if __name__ == "__main__":
    fd, src, trace = sys.argv[1:]
    serve(Connection(int(fd)), src, trace == "1")
