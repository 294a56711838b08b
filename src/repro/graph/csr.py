"""Compressed-sparse-row (CSR) graph substrate.

Historically :class:`CSRGraph` was only a frozen *view* of a
:class:`~repro.graph.labeled_graph.LabeledGraph`; since the
million-node scale path it is a first-class data plane of its own:
synthetic generators and the numpy edge-list loader assemble it
directly from edge arrays (:meth:`CSRGraph.from_edge_array`) without
ever materialising the dict-of-sets graph, and the experiment layer can
run fleets straight on it.  The dict graph remains the reference
substrate for the restricted-API simulation; :meth:`to_labeled_graph`
is the (lazy, Python-loop) escape hatch back to it.

Representation notes:

* ``indptr`` is always ``int64``; ``indices`` is stored as ``int32``
  whenever ``num_nodes < 2**31`` — half the adjacency footprint at
  LiveJournal scale.  The dtype is invisible to the walk engines (node
  positions are upcast to ``int64`` on the fly) and does not change any
  random draw, so exact-RNG replay equivalence is preserved.
* ``node_ids=None`` declares the identity mapping (node ``i`` *is*
  index ``i``), which is what the CSR-native generators produce; no
  per-node Python objects are allocated in that case.
* labels, whether built from per-node sets (the dict-graph view) or a
  numpy ``label_array`` (the vectorized labelers), are held in one CSR
  form: ``int32`` ``label_codes``, their rows ``label_indptr`` (``None``
  when every node carries exactly one label) and ``label_values``, the
  table a code indexes.
* the only label-derived state a graph keeps is one edge-label
  histogram (:meth:`CSRGraph.label_pair_counts`), computed on first
  use; masks and ``T(u)`` are recomputed per call from the labels and
  the neighbor lists they concern.

Two properties are load-bearing for replaying the dict reference
engine over a view frozen from a dict graph:

* node index ``i`` corresponds to the ``i``-th node of the graph's
  iteration order, which is also the order
  :meth:`RestrictedGraphAPI.random_node` draws from, and
* each adjacency row preserves the exact order of
  :meth:`LabeledGraph.neighbors`, which is the order
  ``random.Random.choice`` indexes into on the reference path.

Together they let :func:`repro.walks.batched.csr_walk` reproduce the
dict engine step for step from the same seed.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union
from weakref import WeakKeyDictionary

import numpy as np

from repro.exceptions import ArtifactCorruptError, GraphError, NodeNotFoundError
from repro.graph.labeled_graph import Label, LabeledGraph, Node

#: Nodes beyond which ``indices`` must fall back to int64.
_INT32_LIMIT = 2**31

#: Largest node count whose directed pair codes (``u·n + v``) fit int64:
#: ``floor(sqrt(2**63)) - 1``.
_PAIR_CODE_NODE_LIMIT = 3_037_000_498

#: Window (in ``indices`` entries) of the streamed range and row-order
#: checks in :meth:`CSRGraph.validate_invariants`: 4M entries is a 32 MB
#: int64 copy.
_FSCK_CHUNK = 1 << 22


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array.

    ``np.sort`` plus an adjacent-inequality pass — semantically
    ``np.unique`` without its (surprisingly expensive) extra machinery;
    on the multi-million-element code arrays of the CSR builders this is
    an order of magnitude faster.
    """
    if values.size == 0:
        return values
    ordered = np.sort(values)
    flags = np.empty(ordered.size, dtype=bool)
    flags[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=flags[1:])
    return ordered[flags]


def canonical_pair(a: Label, b: Label) -> Tuple[Label, Label]:
    """Order a label pair deterministically so ``(a, b)`` and ``(b, a)`` collapse."""
    try:
        return (a, b) if a <= b else (b, a)  # type: ignore[operator]
    except TypeError:
        return (a, b) if repr(a) <= repr(b) else (b, a)


def indices_dtype(num_nodes: int) -> np.dtype:
    """Smallest integer dtype that can index *num_nodes* nodes.

    ``int32`` halves the adjacency footprint for every real-world OSN
    (LiveJournal: 4.8M nodes, 85.6M directed entries); graphs beyond
    ``2**31`` nodes keep ``int64``.
    """
    return np.dtype(np.int32 if num_nodes < _INT32_LIMIT else np.int64)


def gather_rows(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values[starts[i] : starts[i] + lengths[i]]`` for every ``i``,
    concatenated in one gather (no per-row arrays)."""
    # positions[j] = j + (start of j's row - offset of that row in the
    # output): one repeat instead of one per term.
    shifts = starts - (np.cumsum(lengths) - lengths)
    return values[np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(shifts, lengths)]


def exact_array(values: Sequence[object]) -> Optional[np.ndarray]:
    """``np.asarray(values)`` if its ``tolist()`` gives *values* back with their
    types (numpy would turn mixed ints and strings into strings), else ``None``."""
    try:
        array = np.asarray(values)
    except ValueError:  # sequences of uneven lengths
        return None
    given = [v.item() if isinstance(v, np.generic) else v for v in values]
    held = array.tolist() if array.dtype != object and array.ndim == 1 else None
    exact = held is not None and all(type(h) is type(g) and h == g for h, g in zip(held, given))
    return array if exact else None


def _encode_sets(label_sets: Sequence[Iterable[Label]]):
    """``(codes, label_indptr, values)`` of per-node label sets, codes in
    first-seen order; ``values`` is typed when numpy holds it exactly."""
    code_of: Dict[Label, int] = {}
    lengths = np.empty(len(label_sets), dtype=np.int64)
    flat: List[int] = []
    for node, labels in enumerate(label_sets):
        row = {code_of.setdefault(label, len(code_of)) for label in labels}
        flat.extend(row)
        lengths[node] = len(row)
    codes = np.fromiter(flat, dtype=np.int32, count=len(flat))
    label_indptr = None if np.all(lengths == 1) else np.concatenate(([0], np.cumsum(lengths)))
    values = [v.item() if isinstance(v, np.generic) else v for v in code_of]
    table = exact_array(values)
    if table is None:
        table = np.fromiter(values, dtype=object, count=len(values))
    return codes, label_indptr, table


class CSRGraph:
    """Immutable numpy CSR adjacency plus per-node labels.

    Parameters
    ----------
    node_ids:
        Original node identifiers; index ``i`` in every array refers to
        ``node_ids[i]``.  ``None`` declares the identity mapping
        (node ``i`` is its own identifier) without allocating anything.
    indptr:
        ``int64`` array of length ``n + 1``; the neighbors of node ``i``
        are ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        Array of neighbor indices (length ``2|E|``); stored as ``int32``
        when the node count allows it.
    label_sets:
        One label set per node, aligned with the node indices.  Mutually
        exclusive with *label_array*; omit both for an unlabeled graph.
    label_array:
        One label per node as a numpy array (the vectorized labelers'
        output).  Either form is encoded into label codes once, here.
    validate:
        When false, skip the O(|E|) range scan of ``indices``.  The
        attach paths of :mod:`repro.graph.store` pass this: re-opening
        a trusted shared-memory segment must not stream the whole
        adjacency just to re-check bounds the publisher already
        checked.

    The arrays need not be process-private RAM: :attr:`store` names the
    backing buffer store (``"ram"`` by default; ``"shm"`` when
    :mod:`repro.graph.store` attached them).  Either way the graph
    pickles by value; ship the O(1) :class:`~repro.graph.store.CSRHandle`
    instead to share one segment across processes.
    """

    def __init__(
        self,
        node_ids: Optional[Sequence[Node]],
        indptr: np.ndarray,
        indices: np.ndarray,
        label_sets: Optional[Sequence[Iterable[Label]]] = None,
        *,
        label_array: Optional[np.ndarray] = None,
        validate: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphError("indptr must be a non-empty 1-d array")
        n = int(self.indptr.size - 1)
        if node_ids is None:
            self._node_ids: Optional[Union[np.ndarray, List[Node]]] = None
        elif isinstance(node_ids, np.ndarray):
            self._node_ids = np.ascontiguousarray(node_ids)
        else:
            self._node_ids = list(node_ids)
        if self._node_ids is not None and len(self._node_ids) != n:
            raise GraphError(
                f"indptr must have length num_nodes + 1 = {len(self._node_ids) + 1}, "
                f"got {self.indptr.shape}"
            )
        self._num_nodes = n
        self.indices = np.ascontiguousarray(indices, dtype=indices_dtype(n))
        if label_sets is not None and label_array is not None:
            raise GraphError("pass label_sets or label_array, not both")
        if label_array is not None:
            label_array = np.asarray(label_array)
            if label_array.shape != (n,):
                raise GraphError("label_array must provide one entry per node")
            if label_array.dtype == object:  # np.unique cannot sort mixed types
                label_sets = label_array.reshape(n, 1).tolist()
            else:
                values, codes = np.unique(label_array, return_inverse=True)
                self._set_labels(codes.reshape(-1), None, values)
        if label_sets is not None:
            self._set_labels(*_encode_sets(list(label_sets)))
        elif label_array is None:
            self._set_labels(np.empty(0, np.int32), np.zeros(n + 1, np.int64), np.empty(0))
        if n and (self.indptr[0] != 0 or self.indptr[-1] != self.indices.size):
            raise GraphError("indptr must start at 0 and end at len(indices)")
        if validate and self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise GraphError("indices contains out-of-range node indices")
        self.degrees = np.diff(self.indptr)
        #: Which buffer store backs the arrays ("ram" | "shm");
        #: repro.graph.store sets "shm" on attach.
        self.store: str = "ram"
        # Keeps an attached shared-memory segment mapped while any view
        # into it is alive; None for ram-backed graphs.
        self._buffer_owner: Optional[object] = None
        self._index_of: Optional[Dict[Node, int]] = None
        self._label_pair_counts: Optional[Dict[Tuple[Label, Label], int]] = None
        self._indptr_list: Optional[List[int]] = None
        self._indices_list: Optional[List[int]] = None
        self._degrees_list: Optional[List[int]] = None

    def _set_labels(self, codes, label_indptr: Optional[np.ndarray], values: np.ndarray) -> None:
        self.label_codes = np.ascontiguousarray(codes, dtype=np.int32)
        self.label_indptr = label_indptr
        n = self._num_nodes
        rows = (n + 1, n) if label_indptr is None else (len(label_indptr), label_indptr[-1])
        if rows != (n + 1, self.label_codes.size):
            raise GraphError("label codes must come in one row per node")
        self.label_values = values
        # code -> value, and value -> code (where 1.0 finds the label 1)
        self._value_list: List[Label] = values.tolist()
        self._code_of = {value: code for code, value in enumerate(self._value_list)}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_label_codes(
        cls, node_ids, indptr, indices, label_codes, label_indptr, label_values, *, validate=True
    ) -> "CSRGraph":
        """A graph from labels already encoded, zero-copy (stores, cleaning)."""
        graph = cls(node_ids, indptr, indices, validate=validate)
        graph._set_labels(label_codes, label_indptr, label_values)
        return graph

    @classmethod
    def from_labeled_graph(cls, graph: LabeledGraph) -> "CSRGraph":
        """Freeze *graph* into CSR arrays (order-preserving, see module doc)."""
        node_ids = list(graph.nodes())
        index_of = {nid: i for i, nid in enumerate(node_ids)}
        indptr = np.zeros(len(node_ids) + 1, dtype=np.int64)
        flat: List[int] = []
        for i, nid in enumerate(node_ids):
            neighbors = graph.neighbors(nid)
            indptr[i + 1] = indptr[i] + len(neighbors)
            flat.extend(index_of[v] for v in neighbors)
        indices = np.fromiter(flat, dtype=np.int64, count=len(flat))
        label_sets = [graph.labels_of(nid) for nid in node_ids]
        return cls(node_ids, indptr, indices, label_sets)

    @classmethod
    def from_edge_array(
        cls,
        edges: np.ndarray,
        num_nodes: Optional[int] = None,
        node_ids: Optional[Sequence[Node]] = None,
        label_array: Optional[np.ndarray] = None,
    ) -> "CSRGraph":
        """Assemble a simple undirected CSR graph from a raw edge array.

        The paper's preprocessing (§5.1) in pure array arithmetic:
        *edges* is an ``(m, 2)`` integer array of endpoint indices in
        ``[0, num_nodes)``; self-loops are dropped, parallel edges (in
        either direction) are collapsed, and the adjacency is
        symmetrised.  Rows come out sorted by neighbor index — a
        deterministic order that becomes the graph's reference order.
        Isolated indices keep empty rows (run the component cleaner to
        drop them).  ``O(|E| log |E|)`` in numpy, no Python loop.
        """
        edges = np.ascontiguousarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
        if num_nodes is None:
            num_nodes = int(edges.max()) + 1 if edges.size else 0
        if num_nodes > _PAIR_CODE_NODE_LIMIT:
            raise GraphError(
                f"from_edge_array supports up to {_PAIR_CODE_NODE_LIMIT} nodes "
                "(directed pair codes must fit int64)"
            )
        if edges.size:
            if int(edges.min()) < 0 or int(edges.max()) >= num_nodes:
                raise GraphError("edge endpoints out of range [0, num_nodes)")
        u, v = edges[:, 0], edges[:, 1]
        keep = u != v
        u, v = u[keep], v[keep]
        # One int64 code per *directed* pair (n < 2**31 keeps n² < 2**62):
        # symmetrise first, then a single sort both deduplicates parallel
        # edges (in either direction) and lands every row in neighbor
        # order.  src/dst fall back out of the codes by divmod, so no
        # argsort/gather is needed.
        codes = np.concatenate([u * np.int64(num_nodes) + v, v * np.int64(num_nodes) + u])
        codes = sorted_unique(codes)
        src, dst = codes // num_nodes, codes % num_nodes
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return cls(node_ids, indptr, dst, label_array=label_array)

    def with_labels(
        self,
        label_array: Optional[np.ndarray] = None,
        label_sets: Optional[Sequence[Iterable[Label]]] = None,
    ) -> "CSRGraph":
        """Return a graph sharing this adjacency but carrying new labels.

        CSR graphs are immutable, so labeling is re-wrapping: the
        ``indptr`` / ``indices`` buffers are shared (no copy), only the
        label storage and the edge-label histogram are fresh.  The
        buffer store carries over, so an attached segment stays mapped.
        """
        relabeled = CSRGraph(
            self._node_ids,
            self.indptr,
            self.indices,
            label_sets,
            label_array=label_array,
            validate=False,
        )
        relabeled.store = self.store
        relabeled._buffer_owner = self._buffer_owner
        return relabeled

    def __getstate__(self):
        """By-value pickles must not drag a segment mapping along.

        ``_buffer_owner`` (a ``SharedMemory`` attachment) is
        process-local: its own pickle protocol *re-attaches by name* in
        the receiver — registering with the resource tracker on
        Python < 3.13, whose exit would then unlink the segment out
        from under every other process.  The pickle carries the array
        *data* instead, so the owner is dropped and the copy lives in
        RAM.
        """
        state = dict(self.__dict__)
        state["_buffer_owner"] = None
        state["store"] = "ram"
        return state

    def to_labeled_graph(self) -> LabeledGraph:
        """Materialise the dict-of-sets reference graph (escape hatch).

        Node insertion order follows the CSR index order and labels are
        carried over, so ``csr_view(csr.to_labeled_graph())`` indexes
        nodes identically to this graph (adjacency-row *order* may
        differ — the dict substrate stores neighbor sets).  This is a
        Python-level ``O(|V| + |E|)`` loop by design: it exists so the
        dict reference engine can audit a CSR-native dataset, not as a
        hot path.
        """
        graph = LabeledGraph()
        ids = self.node_id_list()
        for i, nid in enumerate(ids):
            graph.add_node(nid, self.labels_of(i))
        indptr, indices, _ = self.adjacency_lists()
        for i, nid in enumerate(ids):
            for j in indices[indptr[i] : indptr[i + 1]]:
                if i < j:
                    graph.add_edge(nid, ids[j])
        return graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> Sequence[Node]:
        """Original node identifiers, indexable by dense node index.

        The identity mapping is represented as a :class:`range` — O(1)
        memory, supports indexing/len/iteration like the explicit list.
        """
        if self._node_ids is None:
            return range(self._num_nodes)
        return self._node_ids

    def node_id_list(self) -> List[Node]:
        """Node identifiers as a plain Python list (ints, not numpy scalars)."""
        if self._node_ids is None:
            return list(range(self._num_nodes))
        if isinstance(self._node_ids, np.ndarray):
            return self._node_ids.tolist()
        return list(self._node_ids)

    @property
    def num_nodes(self) -> int:
        """Number of nodes, ``|V|``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``|E|``."""
        return int(self.indices.size // 2)

    def __len__(self) -> int:
        return self._num_nodes

    def index_of(self, node: Node) -> int:
        """Dense index of an original node identifier."""
        if self._node_ids is None:
            index = int(node) if isinstance(node, (int, np.integer)) else -1
            if not 0 <= index < self._num_nodes or index != node:
                raise NodeNotFoundError(node)
            return index
        if self._index_of is None:
            self._index_of = {nid: i for i, nid in enumerate(self.node_ids)}
        try:
            return self._index_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors(self, index: int) -> np.ndarray:
        """Neighbor indices of node *index* (a view, do not mutate)."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def degree(self, index: int) -> int:
        """Degree of node *index*."""
        return int(self.degrees[index])

    def labels_of(self, index: int) -> FrozenSet[Label]:
        """Label set of node *index*."""
        rows = self.label_indptr
        lo, hi = (index, index + 1) if rows is None else (rows[index], rows[index + 1])
        return frozenset(self._value_list[code] for code in self.label_codes[lo:hi].tolist())

    def label_array(self) -> Optional[np.ndarray]:
        """One label per node (``label_values[label_codes]``, read-only),
        or ``None`` unless every node carries exactly one label."""
        if self.label_indptr is not None:
            return None
        array = self.label_values[self.label_codes]
        array.setflags(write=False)
        return array

    def all_labels(self) -> set:
        """Union of every node's labels (Table 1 reporting)."""
        carried = np.bincount(self.label_codes, minlength=len(self._value_list))
        return {self._value_list[code] for code in np.flatnonzero(carried).tolist()}

    def label_mask(self, label: Label) -> np.ndarray:
        """Boolean array: ``mask[i]`` iff node ``i`` carries *label*.

        Recomputed on every call (one comparison over the label codes),
        so asking about many labels leaves nothing behind on the graph;
        a label no node carries, or an unhashable one, matches nothing.
        """
        try:
            code = self._code_of.get(label)
        except TypeError:
            code = None
        if code is None:
            return np.zeros(self._num_nodes, dtype=bool)
        hits = self.label_codes == code
        if self.label_indptr is None:
            return hits
        mask = np.zeros(self._num_nodes, dtype=bool)
        mask[np.searchsorted(self.label_indptr, np.flatnonzero(hits), side="right") - 1] = True
        return mask

    def adjacency_lists(self) -> Tuple[List[int], List[int], List[int]]:
        """``(indptr, indices, degrees)`` as plain Python lists (cached).

        The scalar single-walker loops index these a few million times a
        second; list indexing beats numpy scalar indexing there.  Note
        this **densifies** the adjacency into Python lists — it belongs
        to the scalar reference paths only; the fleet engines gather
        straight from the (possibly shm-backed) numpy arrays and
        never call it.
        """
        if self._indptr_list is None:
            self._indptr_list = self.indptr.tolist()
            self._indices_list = self.indices.tolist()
            self._degrees_list = self.degrees.tolist()
        return self._indptr_list, self._indices_list, self._degrees_list

    def gather_neighbors(self, node_indices: np.ndarray) -> np.ndarray:
        """Concatenated neighbor indices of many nodes, in one gather.

        Equivalent to ``np.concatenate([self.neighbors(i) for i in
        node_indices])`` but without the per-node array creation — the
        multi-range gather is built from ``repeat`` / ``cumsum``
        arithmetic, so exploring thousands of neighborhoods (the fleet
        NeighborExploration accounting) stays vectorized.
        """
        node_indices = np.atleast_1d(np.asarray(node_indices, dtype=np.int64))
        return gather_rows(self.indices, self.indptr[node_indices], self.degrees[node_indices])

    # ------------------------------------------------------------------
    # vectorized label statistics
    # ------------------------------------------------------------------
    def target_incident_counts(self, t1: Label, t2: Label, nodes: np.ndarray) -> np.ndarray:
        """``T(u)`` of each node in *nodes*: its incident target edges.

        Read off the neighbor lists of *nodes* only — the pages a
        NeighborExploration crawler downloads around its labeled
        samples (§4.2) — so the cost follows the nodes asked about, not
        ``|V|``.  Matches :meth:`LabeledGraph.target_edges_incident_to`:
        a neighbor is counted once even when both branch conditions
        hold, hence the inclusion–exclusion term for nodes carrying
        both labels.  Returns ``int64`` aligned with *nodes*.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        m1 = self.label_mask(t1)
        m2 = self.label_mask(t2) if t1 != t2 else m1

        def neighbors_in(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
            # Per-row counts by a cumulative sum over the gathered rows,
            # which handles empty rows (np.add.reduceat does not).
            acc = np.concatenate(([0], np.cumsum(mask[self.gather_neighbors(rows)])))
            bounds = np.concatenate(([0], np.cumsum(self.degrees[rows])))
            return acc[bounds[1:]] - acc[bounds[:-1]]

        counts = np.zeros(nodes.size, dtype=np.int64)
        u1, u2 = m1[nodes], m2[nodes]
        counts[u1] += neighbors_in(nodes[u1], m2)
        if t1 != t2:
            counts[u2] += neighbors_in(nodes[u2], m1)
            both = u1 & u2
            if both.any():
                counts[both] -= neighbors_in(nodes[both], m1 & m2)
        return counts

    def seal_buffers(self, reason: str = "buffers are sealed") -> None:
        """Make the CSR arrays read-only in place (idempotent).

        Published buffers are shared: workers that attached the
        shared-memory segment (and the serving layer's answer caches,
        which stamp answers with the graph version) all assume the
        arrays never change after publication.  Sealing clears the
        numpy ``WRITEABLE`` flag on every buffer this graph owns, so a
        stray in-place write raises ``ValueError: assignment destination
        is read-only`` at the write site instead of silently corrupting
        every attached view.  Attached graphs are already read-only
        (shm views are sealed on attach);
        :func:`repro.graph.store.publish_csr` seals the publisher's
        copy too, closing the mutate-after-publish gap.  *reason* is
        recorded for diagnostics (:attr:`sealed`).
        """
        buffers = (self.indptr, self.indices, self.label_codes, self.label_indptr)
        for array in buffers + (self.label_values, self._node_ids):
            if isinstance(array, np.ndarray):
                try:
                    array.setflags(write=False)
                except ValueError:  # pragma: no cover - non-owning view
                    pass
        if getattr(self, "_sealed", None) is None:
            self._sealed = str(reason)

    @property
    def sealed(self) -> Optional[str]:
        """Why the buffers are read-only, or ``None`` when still writable."""
        return getattr(self, "_sealed", None)

    def label_pair_counts(self) -> Mapping[Tuple[Label, Label], int]:
        """Edges per unordered label pair: the graph's edge-label histogram.

        For an edge ``(u, v)`` every pair ``(a, b)`` with ``a`` a label
        of ``u`` and ``b`` a label of ``v`` counts once toward its
        canonical (sorted) pair.  Computed on first use and memoised —
        the one piece of label-derived state a graph keeps, a few
        entries per distinct label pair however many pairs are asked
        about.  Returned read-only; ``edge_label_histogram`` hands out
        copies.
        """
        if self._label_pair_counts is None:
            self._label_pair_counts = self._count_label_pairs()
        return MappingProxyType(self._label_pair_counts)

    def _count_label_pairs(self) -> Dict[Tuple[Label, Label], int]:
        """Count directed adjacency entries (so twice per edge) by label-code
        pair ``lo · k + hi``.  With several labels per node an entry expands
        to every pair of its endpoints' label rows, deduplicated per entry:
        an edge between two ``{1, 2}`` nodes counts ``(1, 2)`` once."""
        values = self._value_list
        k = max(len(values), 1)
        codes, label_indptr = self.label_codes, self.label_indptr
        entry = None
        if label_indptr is None:
            if k * k >= _INT32_LIMIT:
                codes = codes.astype(np.int64)
            hi = np.repeat(codes, self.degrees)
            other = codes[self.indices]
        else:
            sizes = np.diff(label_indptr)
            src = np.repeat(np.arange(self._num_nodes), self.degrees)
            rows_a, rows_b = sizes[src], sizes[self.indices]
            per_a = np.repeat(rows_b, rows_a)  # each source label meets a whole target row
            hi = np.repeat(gather_rows(codes, label_indptr[src], rows_a), per_a).astype(np.int64)
            other = gather_rows(codes, np.repeat(label_indptr[self.indices], rows_a), per_a)
            entry = np.repeat(np.arange(rows_a.size), rows_a * rows_b)
        lo = np.minimum(hi, other)
        np.maximum(hi, other, out=hi)
        del other
        lo *= k
        lo += hi
        del hi
        if entry is not None:  # each distinct pair once per entry
            lo = np.unique(np.stack([entry, lo]), axis=1)[1]
        distinct, counts = np.unique(lo, return_counts=True)
        # Set-built codes are in first-seen order, not label order.
        return {
            canonical_pair(values[code // k], values[code % k]): count // 2
            for code, count in zip(distinct.tolist(), counts.tolist())
        }

    def count_target_edges(self, t1: Label, t2: Label) -> int:
        """Exact ground-truth count ``F`` for ``(t1, t2)``.

        A lookup in :meth:`label_pair_counts`: an edge is a target edge
        exactly when ``(t1, t2)`` is one of its label pairs.  After the
        first call on a graph, a new pair costs no pass over it.
        """
        return self.label_pair_counts().get(canonical_pair(t1, t2), 0)

    def validate_invariants(
        self,
        *,
        check_sorted_rows: bool = True,
        symmetry_samples: int = 1024,
        seed: int = 0,
        chunk_size: int = _FSCK_CHUNK,
    ) -> Dict[str, object]:
        """Structural fsck of the CSR arrays; raise on any inconsistency.

        The deep check behind ``repro-osn fsck``, complementing the
        byte-level manifest verification in :mod:`repro.durability`:
        a file whose checksums match can still describe an impossible
        graph if it was written by a buggy or hostile producer.  Checks

        * ``indptr`` starts at 0, ends at ``len(indices)``, and is
          monotone non-decreasing;
        * every entry of ``indices`` lies in ``[0, num_nodes)``
          (streamed in :data:`_FSCK_CHUNK` windows, so the check never
          holds an |E|-sized int64 copy);
        * rows are strictly increasing (*check_sorted_rows*; the
          invariant of every artifact writer —
          :meth:`from_edge_array` sorts and dedupes — but not of dict
          :func:`csr_view` freezes, which preserve reference neighbor
          order: pass ``False`` for those);
        * symmetry, spot-checked on *symmetry_samples* seeded random
          adjacency slots: ``v ∈ row(u)`` must imply ``u ∈ row(v)``;
        * label codes index the label table; ``label_indptr`` never decreases.

        Returns a small report dict on success and raises
        :class:`~repro.exceptions.ArtifactCorruptError` (typed,
        retryable — see the class docstring) on the first violation.
        """

        def corrupt(detail: str) -> None:
            raise ArtifactCorruptError(
                f"CSR invariant violated: {detail} "
                f"(num_nodes={self.num_nodes}, store={self.store!r})"
            )

        indptr, indices = self.indptr, self.indices
        total = int(indices.size)
        if int(indptr[0]) != 0:
            corrupt(f"indptr[0] == {int(indptr[0])}, expected 0")
        if int(indptr[-1]) != total:
            corrupt(
                f"indptr[-1] == {int(indptr[-1])}, expected len(indices) "
                f"== {total}"
            )
        if np.any(np.diff(indptr) < 0):
            position = int(np.argmax(np.diff(indptr) < 0))
            corrupt(f"indptr decreases at node {position}")
        for lo in range(0, total, chunk_size):
            hi = min(lo + chunk_size, total)
            window = np.asarray(indices[lo:hi], dtype=np.int64)
            if window.size == 0:
                continue
            low, high = int(window.min()), int(window.max())
            if low < 0 or high >= self._num_nodes:
                corrupt(
                    f"indices[{lo}:{hi}] contains {low if low < 0 else high}, "
                    f"outside [0, {self._num_nodes})"
                )
            if check_sorted_rows:
                # Include the last entry of the previous window so pairs
                # spanning a chunk boundary are checked too.
                prev = (
                    np.asarray(indices[lo - 1 : lo], dtype=np.int64)
                    if lo
                    else window[:0]
                )
                joined = np.concatenate([prev, window]) if lo else window
                drops = np.flatnonzero(joined[1:] <= joined[:-1]) + (lo - 1 if lo else 0) + 1
                if drops.size:
                    # A non-increase is legal exactly at a row start.
                    starts = np.searchsorted(indptr, drops, side="right")
                    is_row_start = indptr[starts - 1] == drops
                    bad = drops[~np.asarray(is_row_start)]
                    if bad.size:
                        position = int(bad[0])
                        corrupt(
                            f"row containing indices[{position}] is not "
                            "strictly increasing (unsorted or duplicate "
                            "neighbors)"
                        )
        symmetry_checked = 0
        if symmetry_samples > 0 and total:
            rng = np.random.default_rng(seed)
            slots = rng.integers(0, total, size=min(symmetry_samples, total))
            rows = np.searchsorted(indptr, slots, side="right") - 1
            for slot, u in zip(slots.tolist(), rows.tolist()):
                v = int(indices[slot])
                row_v = indices[indptr[v] : indptr[v + 1]]
                if not np.any(np.asarray(row_v) == u):
                    corrupt(
                        f"edge ({u}, {v}) has no reverse entry — the "
                        "adjacency is not symmetric"
                    )
                symmetry_checked += 1
        codes, rows = self.label_codes, self.label_indptr
        if (codes.size and not 0 <= codes.min() <= codes.max() < len(self._value_list)) or (
            rows is not None and np.any(np.diff(rows) < 0)
        ):
            corrupt("label codes fall outside the label table, or their rows run backwards")
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "checked_sorted_rows": bool(check_sorted_rows),
            "symmetry_samples": symmetry_checked,
            "store": self.store,
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def ensure_same_graph(csr: CSRGraph, graph: LabeledGraph) -> CSRGraph:
    """Cheap shape check that *csr* was frozen from *graph*.

    Guards every place that accepts an externally-supplied CSR view for
    a given graph (wrapper adoption, fleet cells): a view of a different
    graph would silently sample the wrong arrays.  Returns *csr*.
    """
    if isinstance(graph, CSRGraph):
        if csr is graph:
            return csr
        matches = (
            csr.num_nodes == graph.num_nodes and csr.num_edges == graph.num_edges
        )
    else:
        matches = (
            csr.num_nodes == graph.num_nodes
            and csr.num_edges == graph.num_edges
            and (csr.num_nodes == 0 or csr.node_ids[0] in graph)
        )
    if not matches:
        from repro.exceptions import ConfigurationError

        raise ConfigurationError(
            f"CSRGraph was not frozen from this graph ({csr!r} vs {graph!r})"
        )
    return csr


#: One frozen CSR view per live LabeledGraph (version-checked, weakly keyed).
_CSR_VIEWS: "WeakKeyDictionary[LabeledGraph, Tuple[int, CSRGraph]]" = WeakKeyDictionary()


def csr_view(graph: Union[LabeledGraph, CSRGraph]) -> CSRGraph:
    """Return a frozen CSR view of *graph*, cached across callers.

    Freezing is O(|V| + |E|) Python-level work, so the ground-truth
    counters, the experiment harness and the restricted-API wrappers all
    share one view per graph instead of re-freezing.  The cache is keyed
    weakly (graphs are collectable) and validated against
    :attr:`LabeledGraph.version`, so mutating the graph after a freeze
    transparently produces a fresh view.  A :class:`CSRGraph` is its own
    view and passes through untouched.
    """
    if isinstance(graph, CSRGraph):
        return graph
    version = getattr(graph, "version", None)
    if version is None:
        # Graph-likes without mutation tracking cannot be cached safely.
        return CSRGraph.from_labeled_graph(graph)
    entry = _CSR_VIEWS.get(graph)
    if entry is not None and entry[0] == version:
        return entry[1]
    csr = CSRGraph.from_labeled_graph(graph)
    _CSR_VIEWS[graph] = (version, csr)
    return csr


__all__ = [
    "CSRGraph",
    "canonical_pair",
    "csr_view",
    "ensure_same_graph",
    "exact_array",
    "gather_rows",
    "indices_dtype",
    "sorted_unique",
]
