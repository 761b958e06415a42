"""Fixed reference kernels that calibrate the machine's current speed.

The shared machine's speed drifts by up to 2x over seconds, so raw wall
times of the same work spread 20-60% from run to run.  Every timed span is
therefore divided by a kernel's time, measured right before and right after
the span, and multiplied by the kernel's nominal time: a reference-scaled
second is the time the span would take on a machine where the kernel takes
exactly its nominal time.  The kernels never import modleak, and changing
one changes every time scaled by it, so they stay fixed.

Two kernels, because the drift does not slow all work alike.  COMPUTE
does what the Gaussian layer does at 5 modes (assemble blocks, complex
eigenvalues of i Omega gamma, a 2x2 inverse); STREAM streams a 1 MB array
through a matmul and moment estimates, like Monte-Carlo sampling.  In logs
of 4-5 minutes cut into 25 s windows, the rates spread (IQR over median)
1.2% on the sweep and 5.6% on table1 scaled by COMPUTE, against 7.4% and
9.7% scaled by 200 eigvalsh calls on a 10x10 matrix; the Monte-Carlo rate
spread 2.5-3.7% scaled by STREAM and 9-13% scaled by eigvalsh.
"""

from __future__ import annotations

import time

import numpy as np

_SYMMETRIC = np.add.outer(np.arange(10.0), np.arange(10.0)) / 10.0 + np.eye(10)
_OMEGA = np.kron(np.eye(5), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_SAMPLES = np.random.default_rng(0).standard_normal((20_000, 6))


def _compute():
    for i in range(60):
        g = _SYMMETRIC + i * 1e-3 * np.eye(10)
        s = np.block([[g[:5, :5], g[:5, 5:]], [g[5:, :5], g[5:, 5:]]])
        np.linalg.eigvals(1j * _OMEGA @ s)
        np.linalg.inv(s[:2, :2] + np.eye(2))


def _stream():
    for _ in range(3):
        x = _SAMPLES @ _SYMMETRIC[:6, :6]
        np.var(x, axis=0)
        np.cov(x[:, 0], x[:, 1])


class Kernel:
    def __init__(self, body, nominal_s: float):
        self.body = body
        self.nominal_s = nominal_s

    def time_s(self) -> float:
        start = time.perf_counter()
        self.body()
        return time.perf_counter() - start

    def scaled(self, wall_s: float, before_s: float, after_s: float) -> float:
        """Reference-scaled seconds of a span bracketed by two kernel timings."""
        return wall_s * self.nominal_s / (0.5 * (before_s + after_s))


# 60 x (block assembly, eigvals of a complex 10x10, 2x2 inverse)
COMPUTE = Kernel(_compute, 0.005)
# 3 x (20000x6 @ 6x6, column variances, one covariance)
STREAM = Kernel(_stream, 0.005)
