"""Host speed, from a fixed calibration kernel timed between operations.

The machine the benchmark was built on changes speed with the load of its
host: the same `flowmatch.train` call took 450 ms in one 20-second window
and 950 ms three minutes later, and single operations flip between a fast
and a slow state within a run.  No run length averages that away.  The
kernel below is benchmark code only, a fixed mix of interpreter work and
small numpy calls like the program's own, so a change to the program does
not change its time.  Timed just before and just after each round, it
says how fast the host ran during that round, and the round's times are
scaled to a host on which the kernel takes ``KERNEL_REF_S``.  In a
three-minute probe of back-to-back `train` calls, the median over 20 s
windows spread 54% in wall time and 7% scaled.
"""

import time

import numpy as np

# The kernel's time on the reference machine in its fast state, so scaled
# figures read close to the wall time of a quiet host.
KERNEL_REF_S = 0.030
_ITERATIONS = 3000

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 64))
_X = _rng.standard_normal((10, 64))
_Q = np.array([1.0, 0.1, 0.2, 0.3])


def kernel_s() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        h = np.tanh(_X @ _W)
        q = _Q / np.linalg.norm(_Q)
        acc += float(h[0, 0]) + float(q[1]) + (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that takes times measured between two kernel runs to the
    reference host."""
    return 2.0 * KERNEL_REF_S / (before + after)
