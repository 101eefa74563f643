"""Known-negative cases for ``resource-lifetime``: the sanctioned shapes.

Each pattern here is the cure for a positive in ``resource_bad.py`` —
``with`` blocks, ``try/finally`` release, deliberate escape (the caller
owns the handle), the ``weakref.finalize`` deferred-close idiom,
daemon threads, and the close-then-rename tempfile publish from
``stream/refitter.py``; plus a closure capture and a constructor
retried in its own ``except`` handler.  The checker must stay silent.
"""

import os
import socket
import tempfile
import threading
import weakref
from multiprocessing.shared_memory import SharedMemory

import numpy as np

_REGISTRY: dict[str, object] = {}


def managed_read(path: str) -> int:
    with open(path) as handle:
        return len(handle.read())


def finally_read(path: str) -> int:
    handle = open(path)
    try:
        return len(handle.read())
    finally:
        handle.close()


def escape_by_return(path: str):
    handle = open(path)
    return handle  # caller owns the handle now


def escape_by_registry(name: str) -> None:
    sock = socket.socket()
    _REGISTRY[name] = sock  # ownership moves to the registry


def deferred_close(name: str) -> "np.ndarray":
    """Close rides on the view's finalizer, never under a live view."""
    shm = SharedMemory(name=name)
    table = np.ndarray((16,), dtype=np.float64, buffer=shm.buf)
    weakref.finalize(table, shm.close)
    return table


def daemon_watch(work) -> None:
    worker = threading.Thread(target=work, daemon=True)
    worker.start()


def prepared_thread(work) -> "threading.Thread":
    worker = threading.Thread(target=work)
    return worker  # never started here; the caller runs it


def publish_atomic(payload: bytes, destination: str) -> None:
    """The refitter._publish shape: close, then rename into place."""
    handle = tempfile.NamedTemporaryFile(
        mode="wb", delete=False, dir=os.path.dirname(destination)
    )
    try:
        handle.write(payload)
    finally:
        handle.close()
    os.replace(handle.name, destination)


def captured_by_closure(path: str):
    """The nested function owns the handle once it captures it."""
    handle = open(path)

    def read_and_close() -> str:
        try:
            return handle.read()
        finally:
            handle.close()

    return read_and_close


def replace_stale_block(name: str) -> int:
    """A failed constructor created nothing: the handler's retry is the
    only live block, not a second one leaking the first."""
    try:
        shm = SharedMemory(create=True, name=name, size=64)
    except FileExistsError:
        stale = SharedMemory(name=name)
        stale.close()
        stale.unlink()
        shm = SharedMemory(create=True, name=name, size=64)
    try:
        return shm.size
    finally:
        shm.close()
