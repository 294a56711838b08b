"""Shared-memory publication of :class:`~repro.graph.csr.CSRGraph` buffers.

A CSR graph is, at bottom, a handful of flat numpy arrays.  They live
in one of two buffer stores:

* ``"ram"`` — plain process-private numpy arrays (the default);
* ``"shm"`` — one POSIX shared-memory segment
  (:mod:`multiprocessing.shared_memory`) holding every buffer, so a
  fleet of worker processes can attach the *same physical pages*
  instead of each receiving a multi-hundred-megabyte pickle.

There is no out-of-core store.  A paper-budget walk fleet reads a
uniformly random adjacency slot per step at stationarity, so the share
of 4 KB pages of ``indices`` it leaves untouched is about
``exp(-R·f·1024/d̄)`` (R walkers, budget fraction f, mean degree d̄):
``exp(-7.3)`` for the smallest paper cell, independent of |V|.  Every
walk pages in the whole adjacency, so a graph must fit in memory.

The unit of exchange is a :class:`CSRHandle`: a tiny, picklable
descriptor (segment name plus per-array dtype, shape and byte offset)
that reattaches **zero-copy** in another process via
:func:`attach_csr`.  Shipping the handle to a ``ProcessPoolExecutor``
worker costs O(1) bytes regardless of graph size — the difference
between "each worker deserialises Orkut" and "each worker opens Orkut".
The graph itself always pickles by value, attached or not.  Only the
defining buffers are published: label masks and ``T(u)`` are derived
per call from them, and the edge-label histogram once per process that
asks for a ground truth.

Ownership and cleanup semantics
-------------------------------

:func:`publish_csr` returns a :class:`CSRPublication`, which *owns* the
segment:

* workers that :func:`attach_csr` a handle own nothing — their mapping
  dies with the process (attachments deliberately bypass the
  ``resource_tracker``, which would otherwise unlink a segment the
  moment the *first* worker exits);
* the publisher must call :meth:`CSRPublication.unlink` (or use the
  publication as a context manager) when the fleet is done;
* a publication garbage-collected without ``unlink`` emits a
  :class:`ResourceWarning` *and* cleans up best-effort, so leak bugs
  are loud in ``-W error::ResourceWarning`` runs (CI sets exactly that
  flag) instead of silently filling ``/dev/shm``.

:func:`save_csr_npz` / :func:`load_csr_npz` write and read a graph's
defining buffers as a checksummed uncompressed ``.npz``.
"""

from __future__ import annotations

import os
import re
import uuid
import warnings
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.durability import (
    JOURNAL_SUFFIX,
    SCRATCH_PATTERN,
    journal_is_committed,
    verify_artifact,
)
from repro.durability import write_npz as _write_checksummed_npz
from repro.exceptions import ConfigurationError, StoreAttachError
from repro.graph.csr import CSRGraph
from repro.resilience.faults import fire

#: Buffer stores a CSR graph can live in, and the value set of the
#: service's ``graph_store`` knob.
GRAPH_STORES: Tuple[str, ...] = ("ram", "shm")

#: Buffer alignment inside a shared-memory segment (numpy is happiest
#: on cache-line-or-better boundaries; 64 covers every dtype here).
_SHM_ALIGN = 64


def validate_graph_store(store: str) -> str:
    """Return *store* or raise the shared unknown-graph-store error."""
    if store not in GRAPH_STORES:
        raise ConfigurationError(
            f"unknown graph store {store!r}; available: {', '.join(GRAPH_STORES)}"
        )
    return store


@dataclass(frozen=True)
class ArraySpec:
    """Where one named buffer lives inside a shared-memory segment.

    ``offset`` is a byte offset into the segment.
    """

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class CSRHandle:
    """O(1)-picklable descriptor of a shm-backed CSR graph.

    ``location`` is the shared-memory segment name; ``arrays``
    describes the buffers by key — ``"indptr"`` and ``"indices"``
    always, plus ``"label_array"`` / ``"node_ids"`` when the graph
    carries them.  :func:`attach_csr` turns a handle back into a
    zero-copy :class:`~repro.graph.csr.CSRGraph` in any process on the
    same host.  Only the defining buffers travel: an attached graph
    derives its masks and ``T(u)`` per call, like any other.
    """

    location: str
    arrays: Tuple[ArraySpec, ...]

    def spec(self, key: str) -> Optional[ArraySpec]:
        """The :class:`ArraySpec` named *key*, or ``None``."""
        for spec in self.arrays:
            if spec.key == key:
                return spec
        return None


def is_publishable(csr: CSRGraph) -> bool:
    """Whether :func:`publish_csr` takes *csr*: no label sets, no object node ids."""
    node_ids = csr._node_ids
    return csr._label_sets is None and (node_ids is None or isinstance(node_ids, np.ndarray))


def _publishable_arrays(csr: CSRGraph) -> List[Tuple[str, np.ndarray]]:
    """The (key, array) payload of *csr*, or raise if it has any.

    Python-object state (per-node label *sets*, non-array node ids)
    cannot live in a flat buffer; such graphs predate the array-native
    plane and must be re-labeled with a ``label_array`` first.
    """
    payload: List[Tuple[str, np.ndarray]] = [
        ("indptr", csr.indptr),
        ("indices", csr.indices),
    ]
    if csr._label_sets is not None:
        raise ConfigurationError(
            "set-labeled CSR graphs cannot be published to shared "
            "memory; relabel with a label_array (the array labelers) first"
        )
    label_array = csr.label_array()
    if label_array is not None:
        payload.append(("label_array", np.ascontiguousarray(label_array)))
    node_ids = csr._node_ids
    if node_ids is not None:
        if not isinstance(node_ids, np.ndarray):
            raise ConfigurationError(
                "CSR graphs with Python-object node ids cannot be published "
                "to shared memory; use identity or numpy node ids"
            )
        payload.append(("node_ids", np.ascontiguousarray(node_ids)))
    return payload


def _align(offset: int) -> int:
    return (offset + _SHM_ALIGN - 1) // _SHM_ALIGN * _SHM_ALIGN


def _build_csr(arrays: Dict[str, np.ndarray], owner) -> CSRGraph:
    """Assemble an attached CSRGraph from named buffers (zero-copy)."""
    csr = CSRGraph(
        arrays.get("node_ids"),
        arrays["indptr"],
        arrays["indices"],
        label_array=arrays.get("label_array"),
        validate=False,
    )
    csr.store = "shm"
    csr._buffer_owner = owner
    csr.seal_buffers("attached from shm")
    return csr


# ----------------------------------------------------------------------
# shared-memory backend
# ----------------------------------------------------------------------
def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker registration.

    On 3.8–3.12 attaching registers the segment with the process's
    ``resource_tracker``, which *unlinks it* when that process exits —
    the first worker to finish would tear the graph out from under the
    rest of the fleet (and print a spurious leak warning).  3.13 grew
    ``track=False`` for exactly this; older interpreters get the
    documented unregister workaround.  Lifetime stays with the
    publisher, where it belongs.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except FileNotFoundError as exc:
        raise StoreAttachError(
            f"shared-memory segment {name!r} does not exist (unlinked by its "
            f"publisher, or published on another host)",
            location=name,
        ) from exc
    except TypeError:  # Python < 3.13: no track parameter
        # Suppress the tracker registration rather than unregistering
        # afterwards: an unregister would also knock out the *creator's*
        # registration when publisher and attacher share a process.
        original_register = resource_tracker.register

        def _skip_shared_memory(name, rtype):  # pragma: no branch
            if rtype != "shared_memory":
                original_register(name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError as exc:
            raise StoreAttachError(
                f"shared-memory segment {name!r} does not exist (unlinked by "
                f"its publisher, or published on another host)",
                location=name,
            ) from exc
        finally:
            resource_tracker.register = original_register


def _publish_shm(
    payload: List[Tuple[str, np.ndarray]],
) -> Tuple[shared_memory.SharedMemory, CSRHandle]:
    specs: List[ArraySpec] = []
    offset = 0
    for key, array in payload:
        offset = _align(offset)
        specs.append(ArraySpec(key, array.dtype.str, tuple(array.shape), offset))
        offset += array.nbytes
    segment = shared_memory.SharedMemory(
        name=f"repro-{os.getpid()}-{uuid.uuid4().hex[:12]}", create=True, size=max(1, offset)
    )
    for spec, (_, array) in zip(specs, payload):
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=segment.buf, offset=spec.offset
        )
        view[...] = array
    return segment, CSRHandle(segment.name, tuple(specs))


def _attach_shm(handle: CSRHandle) -> CSRGraph:
    segment = _attach_segment(handle.location)
    arrays: Dict[str, np.ndarray] = {}
    for spec in handle.arrays:
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=segment.buf, offset=spec.offset
        )
        view.setflags(write=False)
        arrays[spec.key] = view
    return _build_csr(arrays, segment)


def save_csr_npz(csr: CSRGraph, path: Union[str, Path]) -> Path:
    """Write *csr*'s buffers to a checksummed uncompressed ``.npz``.

    Atomic (pid-stamped scratch file, fsync, rename; see
    :func:`repro.durability.write_npz`).  Only the defining buffers are
    written, as in :func:`publish_csr`.  Read it back with
    :func:`load_csr_npz`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return _write_checksummed_npz(path, dict(_publishable_arrays(csr)))


def load_csr_npz(path: Union[str, Path]) -> CSRGraph:
    """Load a :func:`save_csr_npz` archive into a RAM :class:`CSRGraph`.

    The manifest is verified first, so a torn or bit-flipped file
    raises :class:`~repro.exceptions.ArtifactCorruptError`.
    """
    path = Path(path)
    verify_artifact(path)
    with np.load(path) as payload:
        arrays = {key: np.ascontiguousarray(payload[key]) for key in payload.files}
    return CSRGraph(
        arrays.get("node_ids"),
        arrays["indptr"],
        arrays["indices"],
        label_array=arrays.get("label_array"),
        validate=False,
    )


# ----------------------------------------------------------------------
# publication lifecycle
# ----------------------------------------------------------------------
class CSRPublication:
    """Ownership token for one published shared-memory segment.

    The publisher-side half of the handle protocol: holds the segment
    alive while workers attach, and releases it on :meth:`unlink`.
    Usable as a context manager; a publication that is
    garbage-collected before :meth:`unlink` emits a
    :class:`ResourceWarning` (and cleans up best-effort) so leaks fail
    ``-W error::ResourceWarning`` runs.
    """

    def __init__(self, handle: CSRHandle, segment: shared_memory.SharedMemory) -> None:
        self.handle = handle
        self._segment = segment
        self._owns = True

    def attach(self) -> CSRGraph:
        """Attach this publication in the current process (zero-copy)."""
        return attach_csr(self.handle)

    def close(self) -> None:
        """Drop this process's mapping (workers get this implicitly at exit)."""
        try:
            self._segment.close()
        except BufferError:
            # Attached arrays still alive in this process; the mapping
            # goes when they do.
            pass

    def unlink(self) -> None:
        """Unlink the shared-memory segment (idempotent).

        Attached views in *other* processes stay valid until those
        processes drop their mappings (POSIX unlink semantics), so the
        publisher can unlink as soon as every worker has attached.
        """
        if not self._owns:
            return
        self._owns = False
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "CSRPublication":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.unlink()

    def __del__(self) -> None:
        if getattr(self, "_owns", False):
            # Release first, warn second: under ``-W error::ResourceWarning``
            # the warn call raises, and cleanup must already have happened
            # by then (the raised error surfaces as an unraisable
            # exception, which CI escalates — see ci.yml).
            self.close()
            self.unlink()
            warnings.warn(
                f"CSRPublication({self.handle.location}) "
                "was never unlinked; it was released in __del__",
                ResourceWarning,
                source=self,
            )


def _owner_dead(pid: int) -> bool:
    """Whether no process *pid* exists any more."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # pragma: no cover - other-user process
        pass
    return False


def sweep_orphan_spills(directory: Union[str, Path], dry_run: bool = False) -> List[Path]:
    """Delete durability leftovers under *directory*; return the victims.

    Exposed as ``repro-osn sweep-spills --directory``:

    * an atomic-write scratch file (``.<name>.pid<pid>.<uuid>.tmp`` —
      the only garbage the durability layer's write protocol can leave)
      is an orphan when its writer pid is dead — that covers sidecar,
      checkpoint and snapshot temps alike;
    * an experiment journal (``*.journal.jsonl``) is an orphan only
      when it recorded a ``commit`` — its run completed and delivered.
      **Uncommitted journals are never swept**: they are the resume
      state of a crashed sweep, exactly what ``--resume`` needs.

    Every other file is left alone.  ``dry_run=True`` reports without
    deleting.
    """
    target = Path(directory)
    if not target.is_dir():
        return []
    victims: List[Path] = []
    for path in sorted(target.iterdir()):
        if not path.is_file():
            continue
        name = path.name
        scratch = SCRATCH_PATTERN.match(name)
        if scratch is not None:
            orphaned = _owner_dead(int(scratch.group("pid")))
        elif name.endswith(JOURNAL_SUFFIX):
            orphaned = journal_is_committed(path)
        else:
            continue
        if orphaned:
            victims.append(path)
            if not dry_run:
                path.unlink(missing_ok=True)
    return victims


#: ``_publish_shm``'s segment names, ``repro-<publisher pid>-<hex>``.
_SEGMENT_PATTERN = re.compile(r"^repro-(?P<pid>\d+)-[0-9a-f]+$")


def sweep_orphan_segments(
    directory: Union[None, str, Path] = None,
    dry_run: bool = False,
) -> List[Path]:
    """Unlink shared-memory segments whose publisher is gone; return them.

    A SIGKILL of a whole process group, ``multiprocessing`` resource
    tracker included, leaves the publisher's segments behind.  Under
    *directory* (default ``/dev/shm``, where Linux lists segments as
    files) a ``repro-<pid>-<hex>`` segment whose pid is dead is unlinked
    (only reported under ``dry_run``); other names are never touched.
    """
    target = Path(directory) if directory is not None else Path("/dev/shm")
    if not target.is_dir():
        return []
    victims: List[Path] = []
    for path in sorted(target.iterdir()):
        match = _SEGMENT_PATTERN.match(path.name)
        if match is None:
            continue
        if not _owner_dead(int(match.group("pid"))):
            continue
        victims.append(path)
        if not dry_run:
            path.unlink(missing_ok=True)
    return victims


def publish_csr(csr: CSRGraph) -> CSRPublication:
    """Publish *csr*'s buffers to shared memory; return the ownership token.

    The defining buffers (``indptr``, ``indices`` and any
    ``label_array`` / ``node_ids``) are copied once into a fresh
    shared-memory segment that the returned publication owns.  Every
    call makes a new segment, so re-publishing an attached graph leaves
    the segment it was attached from alone.
    """
    payload = _publishable_arrays(csr)
    # The publisher's own copy must match what workers attached: freeze
    # it so a post-publish in-place write raises instead of silently
    # diverging from the shared buffers (and from version-stamped
    # cached answers in the serving layer).
    csr.seal_buffers("published to shm")
    segment, handle = _publish_shm(payload)
    return CSRPublication(handle, segment)


def attach_csr(handle: CSRHandle) -> CSRGraph:
    """Reattach a published CSR graph from its :class:`CSRHandle`.

    Zero-copy: the returned graph's ``indptr`` / ``indices`` /
    ``label_array`` are read-only views over the shared segment.  The
    attachment owns no external resource — cleanup stays with the
    :class:`CSRPublication`.
    """
    if not isinstance(handle, CSRHandle):
        raise ConfigurationError(f"attach_csr needs a CSRHandle, got {type(handle).__name__}")
    fire("store.attach", location=handle.location)
    return _attach_shm(handle)


__all__ = [
    "GRAPH_STORES",
    "validate_graph_store",
    "is_publishable",
    "ArraySpec",
    "CSRHandle",
    "CSRPublication",
    "publish_csr",
    "attach_csr",
    "save_csr_npz",
    "load_csr_npz",
    "sweep_orphan_spills",
    "sweep_orphan_segments",
]
