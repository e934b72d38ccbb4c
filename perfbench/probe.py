"""The host-speed probe: a fixed integer loop, and its samples over a pass.

The loop allocates nothing, so its time follows the speed of the vCPU it
runs on at that moment and not the state the program left behind.  `run.py`
scales each op's time by the samples taken around it.
"""
from __future__ import annotations

import signal
import time

PROBE_LOOPS = 60_000
PROBE_EVERY_S = 0.2


def probe_loop() -> float:
    """Seconds one run of a fixed integer loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFF
    return time.perf_counter() - t0


class HostProbe:
    """Probe samples over a pass, with the time each was taken.

    With the timer on, a SIGALRM handler samples every `PROBE_EVERY_S`
    seconds of wall time, inside the ops.  Ops that run in a child process
    record the child's own sample instead (`record`).  `cost_s` is the time
    the samples took, for the caller to take out of what it timed."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self.cost_s = 0.0
        self.timer = False
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def record(self, at: float, seconds: float, cost_s: float) -> None:
        self.samples.append(seconds)
        self.times.append(at)
        self.cost_s += cost_s

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = probe_loop()
        self.record(t0, seconds, time.perf_counter() - t0)

    def start(self, timer: bool) -> None:
        self.samples, self.times, self.cost_s = [], [], 0.0
        self.timer = timer
        if timer:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if not self.samples:  # a pass shorter than PROBE_EVERY_S
            self.sample()
