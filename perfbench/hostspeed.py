"""Host speed, measured by a fixed reference computation in a process of its own.

On a shared host the speed of the whole machine wanders: the same tansec job
takes 0.55 s in one second and 0.9 s in the next, and slow phases last from
seconds to minutes.  The timed run asks this process for a reference
measurement before its first job and then after a job every SAMPLE_EVERY_S
or so, and divides every job time of the run by

    (median of the run's reference times) / REFERENCE_S

so that a run made in a slow phase reads as it would have on a host where the
reference takes REFERENCE_S.  The reference is a small mix of what tansec
spends its time on (dict updates, Fraction arithmetic, small numpy solves) and
shares no code with tansec.  It runs in its own process so that nothing tansec
leaves behind in the benchmark process (garbage, caches, threads' state) can
change it.  It runs only while the benchmark process waits for it, never at the
same time as a job.  Each measurement runs the reference twice and times only
the second run: the first one brings back into the caches what the job just
pushed out.  Timed cold, the reference slowed about twice as much as the jobs
did in the host's slow phases; timed warm, it slows about as much.

Run as a script, it serves requests: for each line read on stdin it runs the
reference twice and writes the seconds the second run took on stdout.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# Reference time of a quiet host; it only sets the scale of the reported times.
REFERENCE_S = 0.0125
# Seconds between host-speed samples in a timed run.
SAMPLE_EVERY_S = 0.5


def reference() -> Fraction:
    table: dict = {}
    acc = Fraction(0)
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7, 1 + i % 5)
    import numpy as np

    a = np.arange(16.0).reshape(4, 4) + np.eye(4)
    for _ in range(300):
        np.linalg.solve(a, a[0])
    return acc


class HostSpeed:
    """The reference process; a context manager that stops it on exit."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def sample(self) -> float:
        """Seconds one reference run takes now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed reference process ended")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> int:
    reference()  # first-call costs (numpy import, LAPACK set-up)
    for _ in sys.stdin:
        reference()
        t0 = time.perf_counter()
        reference()
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
