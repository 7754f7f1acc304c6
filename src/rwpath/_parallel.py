"""The CPU count, the one worker pool and the BLAS pin of the process.

``join`` runs on the caller a task the pool has not started, so nested work
cannot deadlock. The one heavy BLAS call left unpinned is the plain power,
until it runs as row panels on this pool.
"""

import contextlib
import contextvars
import ctypes
import functools
import os
import threading
from concurrent import futures
from pathlib import Path

import numpy as np


def usable_cpus() -> int:
    """CPUs this process may run on: the worker count of a reweighted ratio."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# bound here, so that patching usable_cpus changes how work is split, not the pool
@functools.lru_cache(maxsize=1)
def _pool(cpus=usable_cpus) -> futures.ThreadPoolExecutor:
    return futures.ThreadPoolExecutor(max(1, cpus() - 1), thread_name_prefix="rwpath")


def submit(fn, *args):
    """Starts fn(*args) on the pool in a copy of the caller's context, which
    carries numpy's errstate; returns the task for ``join``."""
    return _pool().submit(contextvars.copy_context().run, fn, *args), functools.partial(fn, *args)


def join(tasks) -> list:
    """The results of ``submit``'s tasks, each awaited, or run here if the
    pool has not started it; the first exception is raised once all end."""
    results, errors = [], []
    for future, fn in tasks:
        try:
            results.append(fn() if future.cancel() else future.result())
        except BaseException as exc:
            errors.append(exc)
    if errors:
        raise errors[0]
    return results


@functools.lru_cache(maxsize=1)
def blas_pin():
    """``openblas_set_num_threads_local`` of the OpenBLAS that numpy bundles
    (``numpy.libs/libscipy_openblas*.so``), looked up once; None where numpy
    bundles no such library or it lacks the symbol."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


# the BLAS thread count is the process's, and so is its pin count:
# [pins active, the count the first of them replaced]
_pin_lock = threading.Lock()
_pins = [0, 0]


@contextlib.contextmanager
def one_blas_thread():
    """Runs the block on single-threaded BLAS, set once on entry and
    restored on exit; without ``blas_pin`` the block runs at the process's
    thread count. In the pthreads build numpy bundles, the setter sets the
    count of the whole process (the call returns the count it replaced), so
    pins nest across threads: the first to enter saves the count, every one
    sets 1 and the last to leave restores it."""
    setter = blas_pin()
    if setter is None:
        yield
        return
    with _pin_lock:
        previous = setter(1)
        if _pins[0] == 0:
            _pins[1] = previous
        _pins[0] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins[0] -= 1
            if _pins[0] == 0:
                setter(_pins[1])
