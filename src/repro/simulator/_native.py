"""Build-on-first-use loader for the native FCFS dispatch loop (``_fcfs.c``).

The C source ships inside the package.  On the first native simulation
the loader compiles it with the system ``cc`` into a per-user cache
directory (``$XDG_CACHE_HOME`` or ``~/.cache``, under ``repro-ribbon/``)
and loads it with :mod:`ctypes`; no build step or extra package is
needed.  The shared object's name carries the sha256 of the source, the
compiler flags and the machine type, so an edited source or changed flags
build a fresh library, and concurrent processes compile to private
temporary files that ``os.replace`` moves into place atomically.

The flags pin the floating-point semantics: ``-O2`` with no fast-math and
``-ffp-contract=off`` (no fused multiply-adds), which keeps every result
bit-identical to the pure-Python fallback in :mod:`repro.simulator.engine`.

If the library cannot be built or loaded, :meth:`NativeLoader.function`
returns None, the reason is kept in :attr:`NativeLoader.error`, and the
engine falls back to its Python loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable

import numpy as np

SOURCE = Path(__file__).with_name("_fcfs.c")

FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)


def cache_dir() -> Path:
    """The per-user build directory, created 0700 and checked for ownership."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro-ribbon"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = os.lstat(path)
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid():
        raise PermissionError(f"{path} is not a directory owned by this user")
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError(f"{path} is writable by other users")
    return path


def library_path(directory: Path) -> Path:
    """Where the build of the current source and flags lives."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join((*FLAGS, platform.machine())).encode())
    return directory / f"_fcfs-{digest.hexdigest()[:16]}.so"


def compile_library(target: Path) -> None:
    """Compile :data:`SOURCE` to ``target`` via a private temporary file."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise FileNotFoundError("no C compiler ('cc') on PATH")
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise OSError(
                f"cc exited with status {proc.returncode}: {proc.stderr.strip()}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(path: Path) -> Callable:
    # CDLL (not PyDLL): ctypes releases the GIL for the duration of the call.
    fn = ctypes.CDLL(str(path)).fcfs_dispatch
    fn.restype = ctypes.c_double
    fn.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 11
    return fn


class NativeLoader:
    """Builds and loads the library once per process, lazily, under a lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tried = False
        self._fn: Callable | None = None
        self._error: str | None = None

    @property
    def error(self) -> str | None:
        """Why the library is unavailable (None when it loaded or before
        the first attempt)."""
        return self._error

    def function(self) -> Callable | None:
        """The bound ``fcfs_dispatch`` symbol, or None if it cannot load."""
        if self._tried:
            return self._fn
        with self._lock:
            if not self._tried:
                try:
                    target = library_path(cache_dir())
                    if not target.exists():
                        compile_library(target)
                    self._fn = _bind(target)
                except (OSError, AttributeError) as exc:
                    self._error = f"{type(exc).__name__}: {exc}"
                self._tried = True
        return self._fn


LOADER = NativeLoader()


def _check(arr: np.ndarray, dtype: np.dtype, name: str) -> None:
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {dtype} array")


def fcfs_dispatch(
    fn: Callable,
    arrivals: np.ndarray,
    matrix: np.ndarray,
    type_of_instance: np.ndarray,
    track_queue: bool,
):
    """Run the native loop; returns ``(start, service, wait, latency,
    chosen, busy, queue_len, makespan)`` as freshly allocated arrays
    (``queue_len`` is None when ``track_queue`` is off).

    The boundary checks are O(m), so no input reaches the C loop that
    could make it read or write out of bounds: dtypes and contiguity of
    every array, the matrix shape against the trace length, and every
    instance's type index against the matrix rows.
    """
    _check(arrivals, _F64, "arrivals")
    _check(matrix, _F64, "service matrix")
    _check(type_of_instance, _I64, "type_of_instance")
    if arrivals.ndim != 1 or type_of_instance.ndim != 1 or matrix.ndim != 2:
        raise ValueError("arrivals and type_of_instance must be 1-D, matrix 2-D")
    n = arrivals.shape[0]
    m = type_of_instance.shape[0]
    if matrix.shape[1] != n:
        raise ValueError(f"matrix shape {matrix.shape} does not match {n} arrivals")
    if m < 1:
        raise ValueError("the pool needs at least one instance")
    if type_of_instance.min() < 0 or type_of_instance.max() >= matrix.shape[0]:
        raise ValueError(f"type indices must lie in [0, {matrix.shape[0]})")
    free_at, busy = np.empty(m), np.empty(m)
    start, service, wait, latency = (np.empty(n) for _ in range(4))
    chosen = np.empty(n, dtype=np.int64)
    queue_len = np.empty(n, dtype=np.int64) if track_queue else None
    makespan = fn(
        n,
        m,
        arrivals.ctypes.data,
        matrix.ctypes.data,
        type_of_instance.ctypes.data,
        free_at.ctypes.data,
        busy.ctypes.data,
        start.ctypes.data,
        service.ctypes.data,
        wait.ctypes.data,
        latency.ctypes.data,
        chosen.ctypes.data,
        None if queue_len is None else queue_len.ctypes.data,
    )
    return start, service, wait, latency, chosen, busy, queue_len, makespan
