from typing import NamedTuple

import numpy as np
import pytest

from modleak import gaussian as g
from modleak import montecarlo as mc
from modleak import security as sec


def _record_evaluations(monkeypatch, keep):
    """Hand each batch that security._evaluate is given to `keep`, then evaluate it."""
    real = sec._evaluate

    def recorded(group):
        keep(group)
        return real(group)

    monkeypatch.setattr(sec, "_evaluate", recorded)


@pytest.fixture
def evaluated_points(monkeypatch):
    """Every ProtocolParams that security.drive evaluates during the test, in order.

    drive evaluates the distinct new points of each round once each, in one
    batched pass; this records the points of every such pass.
    """
    points = []
    _record_evaluations(monkeypatch, points.extend)
    return points


@pytest.fixture
def evaluated_batches(monkeypatch):
    """The distinct points of every batched pass of security.drive during the test, in order."""
    batches = []
    _record_evaluations(monkeypatch, lambda group: batches.append(list(group)))
    return batches


class CheckedStates(NamedTuple):
    """One batch of states that gaussian.checked_spectrum checked: a copy of its
    x blocks, its signs and its batch shape, the x blocks' shape without the
    last two axes."""

    x: np.ndarray
    signs: tuple[float, ...]
    shape: tuple[int, ...]


@pytest.fixture
def checked_states(monkeypatch):
    """Every batch of states checked during the test, in order, as CheckedStates.

    gaussian.checked_spectrum is the one physicality check: every CovMatrix
    construction and every key-rate pass checks its states through it.
    """
    states = []
    check = g.checked_spectrum

    def recorded(x, signs):
        states.append(CheckedStates(x.copy(), tuple(signs.tolist()), x.shape[:-2]))
        return check(x, signs)

    monkeypatch.setattr(g, "checked_spectrum", recorded)
    return states


@pytest.fixture
def sampled_blocks(monkeypatch):
    """(x, signs, modes, n, seed) of every block that montecarlo.sample_moments samples
    during the test, in order, with copies of x and signs."""
    blocks = []
    sample = mc.sample_moments

    def recorded(x, signs, modes, n, seed):
        blocks.append((x.copy(), signs.copy(), modes, n, seed))
        return sample(x, signs, modes, n, seed)

    monkeypatch.setattr(mc, "sample_moments", recorded)
    return blocks
