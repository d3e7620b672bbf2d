"""Run a Python program while sampling the speed of the core it runs on.

    python3 benchmark/probe.py SAMPLES.txt -m confmass <arguments>
    python3 benchmark/probe.py SAMPLES.txt -c <code>
    python3 benchmark/probe.py SAMPLES.txt <script.py> <arguments>

The cores of a shared machine do not run at one speed: a neighbour on
the same physical core can slow a process by half, and the scheduler
may move it from core to core.  So this wrapper times a fixed probe
(small-array NumPy work, the pattern of a jet product) once at start,
then every ``PERIOD`` seconds from a timer signal, and once at exit,
and writes the probe durations to SAMPLES.txt.  The probe runs in the
measured process itself, so it sees the core the program sees.  The
benchmark scales the process's time, net of probes, by
``REFERENCE_S / mean(probe)`` (see ``speed_factor``).

The wrapped program runs as ``python -m``/``-c``/a script would: same
``sys.argv`` tail, same stdout, same exit code.
"""

from __future__ import annotations

import atexit
import runpy
import signal
import sys
import time

import numpy as np

PERIOD = 0.1
# the probe's duration on an uncontended core of a 2-vCPU Xeon VM
REFERENCE_S = 0.0025

_rng = np.random.default_rng(0)
_X = _rng.random((10, 32))
_Y = _rng.random((10, 32))
_I = _rng.integers(0, 10, 35)
_J = _rng.integers(0, 10, 35)
_S = np.arange(0, 35, 4)


def probe() -> float:
    t0 = time.perf_counter()
    for _ in range(200):
        np.add.reduceat(_X[_I] * _Y[_J], _S, axis=0)
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """Multiplier that maps this process's times to the reference core."""
    return REFERENCE_S / (sum(samples) / len(samples))


def main() -> None:
    out, target = sys.argv[1], sys.argv[2:]
    samples = [probe()]

    def on_alarm(signum, frame):
        samples.append(probe())

    def finish():
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        samples.append(probe())
        with open(out, "w") as f:
            f.write(" ".join(repr(s) for s in samples) + "\n")

    atexit.register(finish)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
    if target[0] == "-m":
        sys.argv = [target[1]] + target[2:]
        runpy.run_module(target[1], run_name="__main__", alter_sys=True)
    elif target[0] == "-c":
        sys.argv = ["-c"] + target[2:]
        exec(compile(target[1], "<string>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = target
        runpy.run_path(target[0], run_name="__main__")


if __name__ == "__main__":
    main()
