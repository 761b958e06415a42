import pytest

from modleak import security as sec


@pytest.fixture
def key_rate_calls(monkeypatch):
    """The ProtocolParams of every security.key_rate call made during the test."""
    calls = []
    real = sec.key_rate

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(sec, "key_rate", counted)
    return calls
