import os
from concurrent import futures

import pytest


class _InlineFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


@pytest.fixture
def inline_pool(monkeypatch):
    """A two-core machine whose process pools run jobs inline.

    Returns the list of max_workers each pool was asked for; no process is
    started.
    """
    requested = []

    class InlinePool:
        def __init__(self, max_workers=None):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return _InlineFuture(fn(*args))

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", InlinePool)
    return requested
