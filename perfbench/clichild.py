"""Run one classlab command as `python -m classlab.cli ARGS` would, after
timing the host-speed probe in this process.

    python3 perfbench/clichild.py ARGS...

The first line on stderr is `probe <seconds> <cost seconds>`: the median of
three runs of the probe loop on the vCPU the command runs on, and the time
they took, which the cli workload takes out of the command's time.
"""
import os
import runpy
import statistics
import sys
import time

t0 = time.perf_counter()
from probe import probe_loop  # noqa: E402  (the import is part of the cost)

probe = statistics.median(probe_loop() for _ in range(3))
sys.stderr.write(f"probe {probe!r} {time.perf_counter() - t0!r}\n")
sys.stderr.flush()
sys.path[0] = os.getcwd()  # as with -m: the working directory, not this one
runpy.run_module("classlab.cli", run_name="__main__", alter_sys=True)
