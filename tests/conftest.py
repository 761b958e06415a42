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


@pytest.fixture
def checked_states(monkeypatch):
    """(modes, batch shape) of every CovMatrix built during the test, in order.

    Every construction checks its states, so this lists the checked states;
    the batch shape is the x blocks' shape without the last two axes.
    """
    states = []
    check = g.CovMatrix.__post_init__

    def recorded(state):
        check(state)
        states.append((state.modes, state.x.shape[:-2]))

    monkeypatch.setattr(g.CovMatrix, "__post_init__", recorded)
    return states


@pytest.fixture
def sampled_blocks(monkeypatch):
    """(x, signs, modes, n, seed) of every block that montecarlo._sample_block samples
    during the test, in order, with copies of x and signs."""
    blocks = []
    sample = mc._sample_block

    def recorded(x, signs, modes, n, seed):
        blocks.append((x.copy(), signs.copy(), modes, n, seed))
        return sample(x, signs, modes, n, seed)

    monkeypatch.setattr(mc, "_sample_block", recorded)
    return blocks
