import pytest

from modleak import security as sec


@pytest.fixture
def evaluated_points(monkeypatch):
    """Every ProtocolParams that security.key_rates evaluates during the test, in order.

    key_rates evaluates the distinct points of a call once each, in one
    batched pass; this records the points of every such pass.
    """
    points = []
    real = sec._evaluate

    def recorded(group):
        points.extend(group)
        return real(group)

    monkeypatch.setattr(sec, "_evaluate", recorded)
    return points
