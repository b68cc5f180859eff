"""Machine-speed calibration of a run.

On a shared host the speed of the benchmark's core drifts with what the
other tenants run: on a 2-core x86 host whole 20 s runs of the same
operations read 30-50 % apart, and so did the fastest repeats of an
operation, by up to 28 % between 20 s windows.  A fixed kernel that does
not touch the package, run between the operations, sees the same drift,
and the closer in time the better: over ten 40 s runs of ``spectra-deep``
the spread of ``ops_per_s`` (quartile distance over median, with every
execution charged its operation's median) was 0.18 as measured, 0.08
scaled by the kernel's median over the whole run, and 0.055 scaled
operation by operation by the kernel's median over the 21 samples nearest
to each operation; on ``cli-session`` 0.12, 0.047 and 0.042.

``Calibration.sample`` runs the kernel once; ``scales`` gives the factors
that take times measured meanwhile to the speed at which the kernel takes
``REFERENCE_S``.  The kernel mixes what the
package spends its time on: FFTs of complex samples of a rational function
on a circle, a small dense eigensolve, interpreted Python arithmetic, and
one FFT of 65536 points, the size of the largest column transforms, whose
speed follows the memory traffic that the cache-resident parts miss.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median wall time of one kernel on a quiet 2-core x86 host (numpy 2, one
# BLAS thread).  A constant, so that the scaled times of two runs compare
# whatever the host's speed during each.
REFERENCE_S = 0.006


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20130613)
        self.matrix = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.circle = np.exp(2j * np.pi * rng.uniform(size=4096))
        self.fine_circle = np.exp(2j * np.pi * rng.uniform(size=1 << 16))
        self.wall: list[float] = []
        self.cpu: list[float] = []
        for _ in range(3):  # first use of the FFT plan and LAPACK work arrays
            self._kernel()

    def _kernel(self) -> float:
        z = self.circle
        acc = 0.0
        for _ in range(3):
            acc += abs(np.fft.fft(z * (z - 0.3) / (2 - 0.5 * z))[3])
        acc += float(np.abs(np.linalg.eigvals(self.matrix)).sum())
        for k in range(1000):
            acc += k * 0.5
        acc += abs(np.fft.fft(self.fine_circle)[1])
        return acc

    def sample(self, times: int = 1):
        """Run the kernel ``times`` times and keep each wall and CPU time."""
        for _ in range(times):
            t0, c0 = time.perf_counter(), time.process_time()
            self._kernel()
            self.wall.append(time.perf_counter() - t0)
            self.cpu.append(time.process_time() - c0)

    def mark(self) -> int:
        return len(self.wall)

    def scales(self, start: int = 0, stop: int | None = None):
        """(wall scale, CPU scale) of the samples in [start, stop): the
        factor that takes a time measured meanwhile to reference speed."""
        wall, cpu = self.wall[start:stop], self.cpu[start:stop]
        return REFERENCE_S / statistics.median(wall), REFERENCE_S / statistics.median(cpu)

    def local_scales(self, start: int, count: int, window: int = 10):
        """Scales of ``count`` operations each followed by one sample, from
        sample ``start`` on: operation i takes the median of the samples
        from i - ``window`` to i + ``window`` (sample i - 1 ran just before
        it, sample i just after)."""
        return [self.scales(start + max(0, i - window), start + min(count, i + window + 1))
                for i in range(count)]
