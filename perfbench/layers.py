"""Per-layer counters and spans, recorded around calls into modleak's public functions.

The tracer swaps each traced function for a wrapper while it is installed
and restores the original afterwards, so untraced rounds run the package
unchanged.  Spans are inclusive: the time of `key_rate` contains that of
`build_scheme`, which contains the two-mode ops and their physicality checks.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from modleak import config, gaussian, modulator, montecarlo, security

# (owner, attribute, layer key); a module that binds a function under its own
# name is listed as well, so that calls through either binding are seen.
# Owners or attributes that a version of modleak lacks are skipped.
TRACED = (
    (modulator, "rho_to_k", "modulator.rho_to_k"),
    (config, "rho_to_k", "modulator.rho_to_k"),
    (security, "key_rate", "security.key_rate"),
    (security, "build_scheme", "security.build_scheme"),
    (security, "optimize_vm", "security.optimize_vm"),
    (security, "max_additional_loss", "security.max_additional_loss"),
    (security, "leakage_penalty", "security.leakage_penalty"),
    (security, "trusted_noise_viability", "security.trusted_noise_viability"),
    (getattr(gaussian, "CovMatrix", None), "__post_init__", "gaussian.covmatrix"),
    (gaussian, "symplectic_eigenvalues", "gaussian.symplectic_eigenvalues"),
    (gaussian, "heterodyne_condition", "gaussian.heterodyne_condition"),
    (gaussian, "beamsplitter", "gaussian.two_mode_ops"),
    (gaussian, "two_mode_squeezer", "gaussian.two_mode_ops"),
    (montecarlo, "sample", "montecarlo.sample"),
    (montecarlo, "estimate_params", "montecarlo.estimate_params"),
)


class Tracer:
    """Call counts, inclusive busy time and a few sizes per layer key."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.points: set = set()
        self.modes = 0
        self.sample_bytes = 0
        self._saved: list = []

    def _note(self, key, args, kwargs, result):
        first = args[0] if args else next(iter(kwargs.values()), None)
        if key == "security.key_rate":
            self.points.add(first)
        elif key == "gaussian.symplectic_eigenvalues":
            self.modes += np.shape(getattr(first, "data", first))[-1] // 2
        elif key == "montecarlo.sample":
            self.sample_bytes += sum(a.nbytes for a in result.data.values())

    def _wrap(self, fn, key):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds[key] += time.perf_counter() - start
            self.calls[key] += 1
            self._note(key, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, key in TRACED:
            if hasattr(owner, attr):
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, key))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
