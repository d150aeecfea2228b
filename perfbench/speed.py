"""Machine-speed gauge: timed operations are reported at a reference speed.

On the 2-core machine this benchmark was written on, the same work runs up
to 1.6x slower for seconds at a time and about 25% slower for minutes at a
time, while the guest sees no steal time: the host's other tenants change
the speed of the CPU. Raw wall times of identical passes spread by 20-30%
between runs. Each timed operation is therefore bracketed by a short fixed
kernel (interpreter arithmetic, small complex matrix products, a phase
contraction like a series evaluation), and its wall time is scaled by
``REFERENCE_KERNEL_S`` over the mean of the kernel times just before and just
after it. A scaled time reads as the wall time on a machine whose kernel
takes ``REFERENCE_KERNEL_S``; raw wall times are printed on the pass lines.
"""

import time

import numpy as np

# median kernel time on the reference machine (2 cores, Python 3.11, numpy 2.4)
REFERENCE_KERNEL_S = 0.0075

_RNG = np.random.default_rng(12345)
_UNITARY = np.linalg.qr(_RNG.normal(size=(9, 9)) + 1j * _RNG.normal(size=(9, 9)))[0]
_PHASES = np.exp(0.37j * np.arange(400))
_COEFFS = _RNG.normal(size=(400, 3, 3)) + 0j


def kernel_seconds():
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    acc = 0
    for k in range(60_000):
        acc += k * k
    a = _UNITARY
    for _ in range(600):
        a = a @ _UNITARY
    for _ in range(200):
        np.tensordot(_PHASES, _COEFFS, axes=(0, 0))
    return time.perf_counter() - start


class Gauge:
    """Scales each measured interval by the kernel times around it."""

    def __init__(self):
        self.last = kernel_seconds()

    def scale(self, raw, before):
        """Measure the kernel after an interval of ``raw`` seconds that
        started right after the kernel sample ``before``; return the scaled
        interval."""
        self.last = kernel_seconds()
        return raw * REFERENCE_KERNEL_S / (0.5 * (before + self.last))
