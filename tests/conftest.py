import builtins
import contextlib
import errno
import io
import sys

import pytest


class _HalfWriteThenFail:
    """A file whose first write stores half its bytes, then hits a full disk."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, data):
        self._stream.write(bytes(data[: len(data) // 2]))
        self._stream.flush()
        raise OSError(errno.ENOSPC, "no space left on device")

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stream.close()


@pytest.fixture
def failing_writes(monkeypatch):
    """``with failing_writes():`` makes every opened file fail halfway through its first write."""

    @contextlib.contextmanager
    def patched():
        real_open = io.open

        def failing_open(*args, **kwargs):
            return _HalfWriteThenFail(real_open(*args, **kwargs))

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", failing_open)
            patch.setattr(io, "open", failing_open)
            yield

    return patched


def pytest_terminal_summary(terminalreporter):
    # stdout inside tests is captured; re-emit the acceptance checklist so a
    # plain `pytest -v` run still shows one line per release property
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "GATE_LINES", None)
    if lines:
        terminalreporter.section("acceptance checklist")
        for line in lines:
            terminalreporter.write_line(line)
