"""Machine-speed sampler, run as its own process beside the measured one.

On the shared 2-vCPU virtual machine (Intel Xeon) this benchmark was built
on, the speed of each vCPU was measured to change by up to 2x within a
fraction of a second, independently of the other vCPU and with no steal
time.  So while rabsim runs, this process wakes every ``PERIOD_S``, pins
itself to each watched CPU in turn and times a fixed kernel there in its own
CPU time (so waiting for the CPU is not counted).  The kernel mixes
interpreter arithmetic with 12x12 NumPy calls, like a rabsim trial, and
shares no code with rabsim.  It takes about 1 ms, some 4% of each CPU.

The kernel under-reacts: while the same rabsim invocation (same input,
about 1 s long) was repeated beside it, the log of the invocation's wall
time rose with the log of the kernel's mean time at a slope of 1.25 to 1.45
(M=12 and M=40 scenarios, and fresh-process start-up), and kernels with
40x40 solves or 160x160 products fitted 1.2 to 1.5 as well.  So the speed
scale is the kernel's time ratio raised to ``SPEED_EXPONENT``.

``Probe`` starts and stops the process; ``speed_scale`` turns the samples
taken during one timed span into the factor that rescales the span's wall
time to a machine on which the kernel takes ``REFERENCE_S``.

Run directly as ``python3 probe.py CPU[,CPU...] FOLLOW_PID``: it samples
until its standard input closes, then prints the samples as JSON.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.025
REFERENCE_S = 0.001
SPEED_EXPONENT = 1.3
KERNEL_ITERATIONS = 65


def _kernel(np, matrix) -> float:
    start = time.thread_time()
    v = np.ones(12, dtype=complex)
    acc = 0.0
    for _ in range(KERNEL_ITERATIONS):
        u = matrix @ v
        v = u / np.linalg.norm(u)
        acc += abs(np.vdot(v, u))
        for j in range(40):
            acc += j * 0.5
    return time.thread_time() - start


def _cpu_of(pid: int) -> int:
    """The CPU that process ``pid``'s main thread last ran on."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def sample(cpus, follow: int) -> list:
    """``[monotonic time, cpu, kernel CPU seconds, counted]`` until stdin
    closes.  A sample is counted unless ``follow`` names a process that was
    on another CPU when the round of samples began."""
    import numpy as np

    matrix = np.exp(0.1j * np.outer(np.arange(12), np.arange(12))) / 12 + np.eye(12)
    samples = []
    while True:
        on = _cpu_of(follow) if follow else None
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            cost = _kernel(np, matrix)
            samples.append([time.monotonic(), cpu, cost, on in (None, cpu)])
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            if not sys.stdin.buffer.read1(1):
                return samples


class Probe:
    """The sampler process for ``cpus``; ``stop`` returns its samples.

    With ``follow``, a process id, only the samples taken on the CPU that
    process was running on count: a serial measurement runs on one CPU at a
    time, and the CPUs change speed independently.
    """

    def __init__(self, cpus, follow: int = 0):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), ",".join(map(str, cpus)),
             str(follow)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def stop(self) -> list:
        out, _ = self.proc.communicate(timeout=30)
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed probe exited {self.proc.returncode}")
        return json.loads(out)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def speed_scale(samples: list, start: float, end: float) -> float:
    """Mean kernel time of the counted samples in ``[start, end]`` (or of
    the counted sample nearest to the span, if none fell in it), divided by
    ``REFERENCE_S`` and raised to ``SPEED_EXPONENT``.  A wall time measured
    in the span is divided by it."""
    counted = [s for s in samples if s[3]]
    inside = [cost for t, _, cost, _ in counted if start <= t <= end]
    if not inside:
        middle = (start + end) / 2
        inside = [min(counted, key=lambda s: abs(s[0] - middle))[2]]
    return (statistics.fmean(inside) / REFERENCE_S) ** SPEED_EXPONENT


if __name__ == "__main__":
    print(json.dumps(sample([int(c) for c in sys.argv[1].split(",")], int(sys.argv[2]))))
