import pytest

from fftasca import design


@pytest.fixture()
def stream_draws(monkeypatch):
    """Arguments ``(n, count, seed)`` of every permutation stream drawn, not
    served from the cache, while the test runs; the cache starts empty."""
    calls = []
    draw = design._draw_stream
    monkeypatch.setattr(design, "_draw_stream", lambda *args: calls.append(args) or draw(*args))
    design._cached_stream.cache_clear()
    yield calls
    design._cached_stream.cache_clear()
