"""Test-suite settings and shared fixtures.

Every `hypothesis` test runs without the explain phase, which re-runs a
failing example many times to annotate it: a failure in a slow property
test then reports in seconds rather than minutes.  The tests still generate
and shrink the same examples.  Per-test `@settings(...)` inherit this
profile, so it is loaded here, before the test modules are imported.
"""

import os
import threading

import pytest
from hypothesis import Phase, settings

settings.register_profile(
    "belieffit", phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("belieffit")


@pytest.fixture()
def pipe_of(tmp_path):
    """`pipe_of(data)`: a named pipe from which `data` can be read once.  A
    thread writes it; each thread must have finished by the test's end."""
    writers = []

    def make(data: bytes):
        fifo = tmp_path / f"pipe{len(writers)}"
        os.mkfifo(fifo)
        writers.append(threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True))
        writers[-1].start()
        return fifo

    yield make
    for writer in writers:
        writer.join(timeout=10)
    assert not any(writer.is_alive() for writer in writers)
