"""The machine's speed, sampled while a workload runs.

On a shared machine the speed of one core drifts by a quarter and more,
over seconds and over hours, and process CPU time drifts with wall time.
A `SpeedProbe` times a fixed pure-Python loop every SAMPLE_EVERY_CPU_S of
CPU time the process spends inside it, from a SIGPROF handler, so the
samples fall across the measured work itself. `slowdown()` is their median
over REFERENCE_LOOP_S: 1.2 means the machine ran the loop 20 % slower than
the reference speed. Dividing a measured time by it gives the time at the
reference speed. The loop's code and data are the same in every version of
the program, so the program's own changes do not move it.
"""

import signal
import statistics
import time

# about the loop's median time on the machine the baseline was measured on;
# it sets only the scale of the adjusted figures
REFERENCE_LOOP_S = 60e-6
SAMPLE_EVERY_CPU_S = 0.02


def _reference_loop():
    # dict, tuple and str work, the kind the program does most
    table = {}
    for i in range(150):
        key = (i, i & 7)
        table[key] = table.get(key, 0) + len(str(i))


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self._left = SAMPLE_EVERY_CPU_S  # CPU time until the next sample

    def __enter__(self):
        # resumed where the last exit stopped, so work shorter than the
        # sampling period, entered many times, is still sampled
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self._left, SAMPLE_EVERY_CPU_S)
        return self

    def __exit__(self, *exc):
        self._left = signal.setitimer(signal.ITIMER_PROF, 0, 0)[0] or SAMPLE_EVERY_CPU_S
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _sample(self, signum, frame):
        _reference_loop()  # untimed, so that the timed run finds its caches warm
        start = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - start)

    def slowdown(self):
        return statistics.median(self.samples) / REFERENCE_LOOP_S
