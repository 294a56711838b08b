"""Loaders and writers for on-disk graph formats.

The paper uses SNAP and KONECT datasets (edge lists) together with label
information scraped from user profiles.  This module parses

* SNAP-style edge lists (whitespace separated ``u v`` pairs, ``#``
  comments) via :func:`load_edge_list`,
* node-label files (``node label1 label2 ...`` per line) via
  :func:`load_node_labels`,
* a simple combined TSV format written by :func:`save_labeled_graph` /
  read by :func:`load_labeled_graph`, used by the dataset cache.

All loaders funnel through
:func:`repro.graph.cleaning.simplify_osn_graph`, so anything loaded from
disk arrives as the paper prepares it: undirected, simple, largest
connected component.

For paper-scale crawls the line-by-line parser is the bottleneck, so
there is a numpy fast path: :func:`load_edge_array` slurps a whole edge
list with ``np.loadtxt`` (or ``np.fromfile`` for raw binary pairs) and
:func:`load_edge_list_csr` assembles it straight into a cleaned
:class:`~repro.graph.csr.CSRGraph` — optionally memoised in a ``.npz``
sidecar so the parse cost is paid once per file, not once per run.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.durability import verify_artifact, write_npz
from repro.exceptions import DatasetError
from repro.graph.cleaning import largest_connected_component_csr, simplify_osn_graph
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import Edge, Label, LabeledGraph, Node

PathLike = Union[str, Path]


def _open_text(path: PathLike) -> io.TextIOBase:
    """Open a possibly gzip-compressed text file for reading."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"file not found: {path}")
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def iter_edge_list(path: PathLike, comment: str = "#") -> Iterator[Edge]:
    """Yield ``(u, v)`` integer pairs from a SNAP-style edge-list file."""
    with _open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(comment):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise DatasetError(
                    f"{path}:{line_number}: expected at least two columns, got {stripped!r}"
                )
            try:
                yield (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise DatasetError(
                    f"{path}:{line_number}: node ids must be integers, got {stripped!r}"
                ) from exc


def load_edge_list(
    path: PathLike,
    labels: Optional[Dict[Node, Iterable[Label]]] = None,
    keep_largest_component: bool = True,
) -> LabeledGraph:
    """Load a SNAP-style edge list into a cleaned :class:`LabeledGraph`."""
    return simplify_osn_graph(
        iter_edge_list(path), labels=labels, keep_largest_component=keep_largest_component
    )


def load_node_labels(path: PathLike, comment: str = "#") -> Dict[Node, List[Label]]:
    """Load node labels from a ``node label [label ...]`` text file.

    Labels are parsed as integers when possible (the paper encodes all
    labels as integers), otherwise kept as strings.
    """
    result: Dict[Node, List[Label]] = {}
    with _open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(comment):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise DatasetError(
                    f"{path}:{line_number}: expected 'node label...', got {stripped!r}"
                )
            try:
                node: Node = int(parts[0])
            except ValueError as exc:
                raise DatasetError(
                    f"{path}:{line_number}: node id must be an integer"
                ) from exc
            labels: List[Label] = []
            for token in parts[1:]:
                try:
                    labels.append(int(token))
                except ValueError:
                    labels.append(token)
            result[node] = labels
    return result


def load_snap_dataset(
    edge_path: PathLike,
    label_path: Optional[PathLike] = None,
    keep_largest_component: bool = True,
) -> LabeledGraph:
    """Load a SNAP dataset: an edge list plus an optional label file."""
    labels = load_node_labels(label_path) if label_path is not None else None
    return load_edge_list(
        edge_path, labels=labels, keep_largest_component=keep_largest_component
    )


def load_edge_array(path: PathLike, comment: str = "#") -> np.ndarray:
    """Whole-file numpy parse of an edge list into an ``(m, 2)`` array.

    Text files (optionally ``.gz``) go through ``np.loadtxt`` — C-level
    tokenising, no Python per-line loop; a ``.bin`` suffix is read with
    ``np.fromfile`` as raw little-endian ``int64`` pairs (the fastest
    interchange format for repeated large loads).  Only the first two
    columns are read, matching :func:`iter_edge_list`.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"file not found: {path}")
    if path.suffix == ".bin":
        flat = np.fromfile(path, dtype=np.int64)
        if flat.size % 2:
            raise DatasetError(f"{path}: raw binary edge file has an odd entry count")
        return flat.reshape(-1, 2)
    try:
        edges = np.loadtxt(
            path, dtype=np.int64, comments=comment, usecols=(0, 1), ndmin=2
        )
    except ValueError as exc:
        raise DatasetError(f"{path}: not a parseable integer edge list ({exc})") from exc
    return edges


def save_edge_array(edges: np.ndarray, path: PathLike) -> None:
    """Write an ``(m, 2)`` edge array as raw ``int64`` pairs (``.bin``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.ascontiguousarray(edges, dtype=np.int64).tofile(path)


def _npz_cache_path(path: Path, cache: Union[bool, PathLike]) -> Optional[Path]:
    if cache is False or cache is None:
        return None
    if cache is True:
        return path.with_name(path.name + ".npz")
    return Path(cache)


def _source_fingerprint(path: Path) -> Tuple[int, int]:
    """Identity of the source file's current contents: (mtime_ns, size).

    Nanosecond mtime alone is not enough everywhere — coarse filesystem
    timestamp granularity (FAT, some network mounts, container overlay
    quirks) can stamp two rewrites within one tick identically — so the
    size rides along as a second discriminator.  A sidecar is reusable
    only when **both** match what they were at write time; comparing
    recorded-vs-current beats the old "sidecar newer than source" test,
    which used second-resolution ``st_mtime`` and served stale caches
    for sources rewritten within the same second.
    """
    stat = path.stat()
    return int(stat.st_mtime_ns), int(stat.st_size)


def _sidecar_matches_source(payload, path: Path) -> bool:
    """Whether a loaded sidecar was written from *path*'s current bytes."""
    if not path.exists():
        # Source gone: the sidecar is all there is; serve it.
        return True
    if "source_mtime_ns" not in payload or "source_size" not in payload:
        # Legacy sidecar without a fingerprint: cannot prove freshness,
        # rebuild (costs one parse, never serves stale data).
        return False
    mtime_ns, size = _source_fingerprint(path)
    return (
        int(payload["source_mtime_ns"]) == mtime_ns
        and int(payload["source_size"]) == size
    )


def load_edge_list_csr(
    path: PathLike,
    keep_largest_component: bool = True,
    cache: Union[bool, PathLike] = False,
    comment: str = "#",
) -> CSRGraph:
    """Load an edge list straight into a cleaned :class:`CSRGraph`.

    The CSR-native twin of :func:`load_edge_list`: numpy parse
    (:func:`load_edge_array`), dense re-indexing of the raw node
    identifiers, array-level symmetrise/dedupe, and the CSR BFS
    component cleaner — the dict graph is never materialised, which is
    what makes the paper's million-node crawls loadable.  ``cache=True``
    memoises the final arrays in a ``.npz`` sidecar next to the file
    (or at an explicit path) and reuses it while the source's recorded
    fingerprint (``st_mtime_ns`` **and** file size) still matches — so
    rewriting the edge list always invalidates the sidecar, even twice
    within one second.  A stale sidecar (fingerprint mismatch, or
    written under the other cleaning setting) is rebuilt.  Node labels are not handled here; attach them
    afterwards with :meth:`CSRGraph.with_labels` (e.g. from
    :func:`load_node_labels` or a vectorized labeler).
    """
    path = Path(path)
    cache_path = _npz_cache_path(path, cache)
    if cache_path is not None and cache_path.exists():
        # Integrity before freshness: a torn or bit-flipped sidecar
        # raises a typed ArtifactCorruptError here (see the corrupt-
        # artifact runbook in docs/operations.md) instead of being
        # np.load-ed as garbage.
        verify_artifact(cache_path)
        with np.load(cache_path) as payload:
            # The sidecar records whether the component cleaner ran and
            # a fingerprint of the source bytes it was built from; a
            # cache written under the other cleaning setting or from
            # different source contents is rebuilt.
            fresh = bool(
                payload.get("cleaned", True)
            ) == keep_largest_component and _sidecar_matches_source(payload, path)
            if fresh:
                return CSRGraph(
                    payload["node_ids"],
                    payload["indptr"],
                    payload["indices"],
                )
    edges = load_edge_array(path, comment=comment)
    # Dense indices from arbitrary node identifiers; unique_ids is the
    # sorted identifier vocabulary, inverse the per-endpoint index.
    unique_ids, inverse = np.unique(edges, return_inverse=True)
    csr = CSRGraph.from_edge_array(
        inverse.reshape(-1, 2), num_nodes=int(unique_ids.size), node_ids=unique_ids
    )
    if keep_largest_component and csr.num_nodes:
        csr = largest_connected_component_csr(csr)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        mtime_ns, size = _source_fingerprint(path)
        # Atomic, checksummed sidecar write (scratch + fsync + rename):
        # a writer killed mid-write leaves any existing sidecar intact
        # instead of a torn archive the next load would try to read.
        write_npz(
            cache_path,
            dict(
                node_ids=np.asarray(csr.node_ids),
                indptr=csr.indptr,
                indices=csr.indices,
                cleaned=np.bool_(keep_largest_component),
                source_mtime_ns=np.int64(mtime_ns),
                source_size=np.int64(size),
            ),
        )
    return csr


def save_labeled_graph(graph: LabeledGraph, path: PathLike) -> None:
    """Write *graph* to a single TSV file (edges then labels).

    Format::

        # repro labeled graph v1
        E <u> <v>
        L <node> <label> [<label> ...]
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro labeled graph v1\n")
        for u, v in graph.edges():
            handle.write(f"E\t{u}\t{v}\n")
        for node in graph.nodes():
            labels = sorted(graph.labels_of(node), key=repr)
            if labels:
                rendered = "\t".join(str(label) for label in labels)
                handle.write(f"L\t{node}\t{rendered}\n")


def load_labeled_graph(path: PathLike) -> LabeledGraph:
    """Read a graph written by :func:`save_labeled_graph`."""
    edges: List[Edge] = []
    labels: Dict[Node, List[Label]] = {}
    with _open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split("\t")
            kind = parts[0]
            if kind == "E":
                if len(parts) != 3:
                    raise DatasetError(f"{path}:{line_number}: malformed edge line")
                edges.append((int(parts[1]), int(parts[2])))
            elif kind == "L":
                if len(parts) < 3:
                    raise DatasetError(f"{path}:{line_number}: malformed label line")
                node = int(parts[1])
                parsed: List[Label] = []
                for token in parts[2:]:
                    try:
                        parsed.append(int(token))
                    except ValueError:
                        parsed.append(token)
                labels[node] = parsed
            else:
                raise DatasetError(
                    f"{path}:{line_number}: unknown record type {kind!r}"
                )
    graph = LabeledGraph.from_edges(edges, labels)
    return graph


__all__ = [
    "iter_edge_list",
    "load_edge_list",
    "load_edge_array",
    "save_edge_array",
    "load_edge_list_csr",
    "load_node_labels",
    "load_snap_dataset",
    "save_labeled_graph",
    "load_labeled_graph",
]
