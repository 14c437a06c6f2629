import os
from pathlib import Path

import pytest

import fftasca
from fftasca import design


@pytest.fixture()
def stream_draws(monkeypatch):
    """Arguments ``(n, count, seed)`` of every permutation stream drawn while
    the test runs."""
    calls = []
    draw = design._draw_stream
    monkeypatch.setattr(design, "_draw_stream", lambda *args: calls.append(args) or draw(*args))
    yield calls


@pytest.fixture()
def child_env():
    """Environment of a fresh interpreter that imports this ``fftasca``, with
    no BLAS thread count chosen."""
    src = str(Path(fftasca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for name in [k for k in env if k.endswith("_NUM_THREADS")]:
        del env[name]
    return env
