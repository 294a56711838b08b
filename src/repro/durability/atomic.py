"""Crash-consistent file writes: same-directory scratch + fsync + replace.

Every durable artifact this repo writes — ``.npz`` sidecars and CSR
archives, experiment journals, answer-cache snapshots — goes through one
of these helpers, so a writer killed at *any* instruction leaves either
the old file (intact) or the new file (complete), never a torn hybrid:

1. the payload is written to a hidden scratch file **in the same
   directory** as the target (``os.replace`` must not cross
   filesystems);
2. the scratch is flushed and ``fsync``\\ ed, so its bytes are durable
   before it becomes reachable under the real name;
3. ``os.replace`` swaps it in atomically (POSIX rename semantics);
4. the directory entry is ``fsync``\\ ed, so the rename itself survives
   power loss.

Scratch names embed the writer's pid
(``.{name}.pid{pid}.{uuid}.tmp``), which is what lets
:func:`repro.graph.store.sweep_orphan_spills` reclaim scratch files
whose writer died between steps 1 and 3 — the only garbage this
protocol can leave behind.
"""

from __future__ import annotations

import os
import re
import uuid
from pathlib import Path
from typing import Callable, Union

PathLike = Union[str, os.PathLike]

#: Scratch files produced by :func:`scratch_path`; group 1 is the pid.
SCRATCH_PATTERN = re.compile(r"^\..+\.pid(?P<pid>\d+)\.[0-9a-f]+\.tmp$")


def scratch_path(target: PathLike) -> Path:
    """A fresh pid-stamped scratch name next to *target*."""
    target = Path(target)
    return target.with_name(
        f".{target.name}.pid{os.getpid()}.{uuid.uuid4().hex}.tmp"
    )


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory entry table (best effort off-POSIX)."""
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. Windows directories
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def commit_scratch(scratch: PathLike, target: PathLike) -> None:
    """Durably promote a finished *scratch* file to *target* (steps 2-4)."""
    scratch, target = Path(scratch), Path(target)
    fd = os.open(scratch, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(scratch, target)
    fsync_directory(target.parent)


def atomic_write(
    target: PathLike, writer: Callable[[Path], None]
) -> Path:
    """Run *writer(scratch)* then atomically promote the scratch to *target*.

    *writer* receives the scratch :class:`~pathlib.Path` and must leave
    the complete payload there.  On any failure the scratch is removed
    and *target* is untouched.
    """
    target = Path(target)
    scratch = scratch_path(target)
    try:
        writer(scratch)
        commit_scratch(scratch, target)
    finally:
        scratch.unlink(missing_ok=True)
    return target


def atomic_write_bytes(target: PathLike, payload: bytes) -> Path:
    """Atomically (re)write *target* with *payload*."""

    def writer(scratch: Path) -> None:
        with open(scratch, "wb") as sink:
            sink.write(payload)
            sink.flush()

    return atomic_write(target, writer)


__all__ = [
    "SCRATCH_PATTERN",
    "atomic_write",
    "atomic_write_bytes",
    "commit_scratch",
    "fsync_directory",
    "scratch_path",
]
