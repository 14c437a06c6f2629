import pytest

from fftasca import design


@pytest.fixture()
def stream_draws(monkeypatch):
    """Arguments ``(n, count, seed)`` of every permutation stream drawn while
    the test runs."""
    calls = []
    draw = design._draw_stream
    monkeypatch.setattr(design, "_draw_stream", lambda *args: calls.append(args) or draw(*args))
    yield calls
