"""Dataset registry: scaled stand-ins for the paper's five OSN crawls.

Each entry of :data:`DATASET_SPECS` describes how to synthesise a graph
whose shape mirrors one of the paper's datasets (Table 1) at laptop
scale, which label model it uses, and which target-label pairs its
experiments evaluate.  :func:`load_dataset` builds (and caches) the
graph, applies the labels and selects the target pairs.

The paper's exact node/edge counts are recorded in the spec
(``paper_num_nodes`` / ``paper_num_edges``) so reports can show the
original scale next to the reproduced one.  To run on the real data
instead, load it with :mod:`repro.graph.io` and bypass this registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import DatasetError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import Label, LabeledGraph
from repro.graph.statistics import (
    count_target_edges,
    edge_label_histogram,
    summarize_graph,
    GraphSummary,
)
from repro.utils.rng import RandomSource, derive_seed, ensure_numpy_rng, ensure_rng
from repro.utils.validation import check_positive

from repro.datasets.labeling import (
    assign_binary_labels,
    assign_degree_bucket_labels,
    assign_zipf_labels,
    binary_fraction_for_cross_edge_share,
    binary_label_array,
    degree_bucket_label_array,
    zipf_label_array,
)
from repro.datasets.synthetic import (
    chung_lu_csr,
    powerlaw_cluster_osn,
    powerlaw_degree_sequence,
)

#: Graph substrates :func:`load_dataset` can synthesise.
REPRESENTATIONS: Tuple[str, ...] = ("dict", "csr")


@dataclass(frozen=True)
class DatasetSpec:
    """How to synthesise one dataset stand-in.

    Attributes
    ----------
    name:
        Registry key (``"facebook"``, ``"googleplus"``, ...).
    paper_name:
        Name used in the paper's Table 1.
    paper_num_nodes / paper_num_edges:
        The original crawl's size, for reporting.
    paper_mixing_time:
        The mixing time the paper measured at ε = 1e-3, for EXPERIMENTS.md.
    num_nodes / edges_per_node / triangle_probability:
        Parameters of the Holme–Kim generator at scale 1.0.
    label_model:
        ``"gender"``, ``"location"`` or ``"degree"``.
    label_params:
        Parameters of the label model (e.g. ``cross_share`` for gender,
        ``num_labels`` and ``exponent`` for locations).
    num_target_pairs:
        How many target-label pairs the paper evaluates on this dataset.
    """

    name: str
    paper_name: str
    paper_num_nodes: int
    paper_num_edges: int
    paper_mixing_time: int
    num_nodes: int
    edges_per_node: int
    triangle_probability: float
    label_model: str
    label_params: Dict[str, float] = field(default_factory=dict)
    num_target_pairs: int = 1
    description: str = ""


@dataclass
class Dataset:
    """A generated dataset: graph + labels + selected target pairs.

    ``graph`` is either the dict :class:`LabeledGraph`
    (``representation="dict"``, the reference substrate) or an
    array-native :class:`CSRGraph` (``representation="csr"``, the
    million-node scale path, which never materialises per-node Python
    objects).  :meth:`to_labeled_graph` is the lazy escape hatch from
    the latter back to the former.
    """

    spec: DatasetSpec
    graph: Union[LabeledGraph, CSRGraph]
    target_pairs: List[Tuple[Label, Label]]
    target_counts: Dict[Tuple[Label, Label], int]
    seed: int
    scale: float
    _labeled: Optional[LabeledGraph] = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        """Registry name of the underlying spec."""
        return self.spec.name

    @property
    def representation(self) -> str:
        """Which substrate :attr:`graph` uses (``"dict"`` or ``"csr"``)."""
        return "csr" if isinstance(self.graph, CSRGraph) else "dict"

    def to_labeled_graph(self) -> LabeledGraph:
        """The dict-of-sets view of this dataset's graph (lazy, cached).

        For a dict dataset this is :attr:`graph` itself; a CSR dataset
        is converted once (a Python ``O(|V| + |E|)`` loop) and the
        result cached, so the dict reference engine can audit the same
        topology and labels the CSR arrays encode.
        """
        if isinstance(self.graph, LabeledGraph):
            return self.graph
        if self._labeled is None:
            self._labeled = self.graph.to_labeled_graph()
        return self._labeled

    def summary(self) -> GraphSummary:
        """Table 1-style summary of the generated graph."""
        return summarize_graph(self.graph, name=self.spec.paper_name)

    def fraction(self, pair: Tuple[Label, Label]) -> float:
        """Relative target-edge count ``F/|E|`` for *pair*."""
        return self.target_counts[pair] / self.graph.num_edges


DATASET_SPECS: Dict[str, DatasetSpec] = {
    "facebook": DatasetSpec(
        name="facebook",
        paper_name="Facebook",
        paper_num_nodes=4_000,
        paper_num_edges=88_200,
        paper_mixing_time=3_200,
        num_nodes=4_000,
        edges_per_node=22,
        triangle_probability=0.5,
        label_model="gender",
        label_params={"cross_share": 0.424},
        num_target_pairs=1,
        description="Gender labels; abundant target edges (42.4% of all edges).",
    ),
    "googleplus": DatasetSpec(
        name="googleplus",
        paper_name="Google+",
        paper_num_nodes=108_000,
        paper_num_edges=12_200_000,
        paper_mixing_time=200,
        num_nodes=12_000,
        edges_per_node=40,
        triangle_probability=0.3,
        label_model="gender",
        label_params={"cross_share": 0.2689},
        num_target_pairs=1,
        description="Gender labels; abundant target edges (26.9% of all edges).",
    ),
    "pokec": DatasetSpec(
        name="pokec",
        paper_name="Pokec",
        paper_num_nodes=1_600_000,
        paper_num_edges=22_300_000,
        paper_mixing_time=100,
        num_nodes=20_000,
        edges_per_node=14,
        triangle_probability=0.2,
        label_model="location",
        label_params={"num_labels": 150, "exponent": 1.1},
        num_target_pairs=4,
        description="Zipf location labels; very rare target edges (Tables 6-9).",
    ),
    "orkut": DatasetSpec(
        name="orkut",
        paper_name="Orkut",
        paper_num_nodes=3_080_000,
        paper_num_edges=117_000_000,
        paper_mixing_time=800,
        num_nodes=24_000,
        edges_per_node=19,
        triangle_probability=0.2,
        label_model="degree",
        label_params={},
        num_target_pairs=4,
        description="Degree-bucket labels; frequencies span 0.001%-0.7% (Tables 10-13).",
    ),
    "livejournal": DatasetSpec(
        name="livejournal",
        paper_name="Livejournal",
        paper_num_nodes=4_800_000,
        paper_num_edges=42_800_000,
        paper_mixing_time=900,
        num_nodes=24_000,
        edges_per_node=9,
        triangle_probability=0.25,
        label_model="degree",
        label_params={},
        num_target_pairs=4,
        description="Degree-bucket labels; frequencies span 0.001%-4.1% (Tables 14-17).",
    ),
}


def dataset_names() -> List[str]:
    """Registry keys in Table 1 order."""
    return list(DATASET_SPECS)


def _apply_labels(graph: LabeledGraph, spec: DatasetSpec, rng) -> None:
    if spec.label_model == "gender":
        cross_share = spec.label_params.get("cross_share", 0.42)
        probability = binary_fraction_for_cross_edge_share(cross_share)
        homophily = float(spec.label_params.get("homophily", 0.0))
        assign_binary_labels(
            graph, probability, labels=(1, 2), rng=rng, homophily=homophily
        )
    elif spec.label_model == "location":
        assign_zipf_labels(
            graph,
            num_labels=int(spec.label_params.get("num_labels", 150)),
            exponent=float(spec.label_params.get("exponent", 1.1)),
            rng=rng,
        )
    elif spec.label_model == "degree":
        assign_degree_bucket_labels(graph)
    else:
        raise DatasetError(f"unknown label model {spec.label_model!r}")


def select_target_pairs(
    graph: LabeledGraph,
    count: int = 4,
    min_target_edges: int = 20,
    exclude_same_label: bool = True,
) -> List[Tuple[Label, Label]]:
    """Pick *count* label pairs spanning the frequency range (paper §5.2).

    The paper orders all edge labels by target-edge count, splits them
    into ``count`` equal parts and picks one label pair per part.  We do
    the same, deterministically (the median entry of each part), after
    discarding pairs with fewer than *min_target_edges* target edges —
    at the reproduced scale an NRMSE over pairs with a handful of edges
    would be pure noise.
    """
    histogram = [
        (pair, edge_count)
        for pair, edge_count in edge_label_histogram(graph).items()
        if edge_count >= min_target_edges and (not exclude_same_label or pair[0] != pair[1])
    ]
    if not histogram:
        raise DatasetError(
            "no label pair has enough target edges; lower min_target_edges "
            "or enlarge the graph"
        )
    histogram.sort(key=lambda item: (item[1], repr(item[0])))
    if len(histogram) <= count:
        return [pair for pair, _ in histogram]
    pairs: List[Tuple[Label, Label]] = []
    part_size = len(histogram) / count
    for part in range(count):
        start = int(part * part_size)
        end = max(start + 1, int((part + 1) * part_size))
        if part == 0:
            # Take the rarest qualifying pair so the sweep reaches the
            # low-frequency regime the paper studies (Tables 6, 10, 14).
            position = start
        elif part == count - 1:
            # And the most frequent pair at the other end (Tables 9, 13, 17).
            position = end - 1
        else:
            position = (start + end - 1) // 2
        pairs.append(histogram[position][0])
    return pairs


#: Keyed by (name, seed, scale, representation).
_CACHE: Dict[Tuple[str, int, float, str], Dataset] = {}


def _synthesize_csr(spec: DatasetSpec, seed: int, num_nodes: int, edges_per_node: int) -> CSRGraph:
    """CSR-native synthesis of one dataset stand-in (no dict graph).

    Topology is a Chung–Lu graph over a power-law expected-degree
    sequence with the spec's average degree — the vectorized stand-in
    for the Holme–Kim generator of the dict path (same heavy-tailed
    degree law; no tunable clustering, which none of the estimators
    read).  Labels come from the array labelers.
    """
    nprng = ensure_numpy_rng(derive_seed(seed, spec.name, "csr-topology"))
    weights = powerlaw_degree_sequence(num_nodes, 2.0 * edges_per_node)
    graph = chung_lu_csr(weights, rng=nprng)

    label_rng = ensure_numpy_rng(derive_seed(seed, spec.name, "csr-labels"))
    if spec.label_model == "gender":
        if float(spec.label_params.get("homophily", 0.0)):
            raise DatasetError(
                "the homophilous gender model is sequential; use "
                "representation='dict' for specs with homophily > 0"
            )
        cross_share = spec.label_params.get("cross_share", 0.42)
        probability = binary_fraction_for_cross_edge_share(cross_share)
        labels = binary_label_array(graph.num_nodes, probability, rng=label_rng)
    elif spec.label_model == "location":
        labels = zipf_label_array(
            graph.num_nodes,
            num_labels=int(spec.label_params.get("num_labels", 150)),
            exponent=float(spec.label_params.get("exponent", 1.1)),
            rng=label_rng,
        )
    elif spec.label_model == "degree":
        labels = degree_bucket_label_array(np.asarray(graph.degrees))
    else:
        raise DatasetError(f"unknown label model {spec.label_model!r}")
    return graph.with_labels(label_array=labels)


def load_dataset(
    name: str,
    seed: int = 0,
    scale: float = 1.0,
    use_cache: bool = True,
    representation: str = "dict",
) -> Dataset:
    """Generate (or fetch from cache) one dataset stand-in.

    Parameters
    ----------
    name:
        One of :func:`dataset_names`.
    seed:
        Seed controlling both the topology and the label assignment.
    scale:
        Multiplier on the spec's node count; 1.0 reproduces the default
        laptop-scale size, smaller values speed up tests.
    use_cache:
        Datasets are deterministic in ``(name, seed, scale,
        representation)``, so they are cached in-process by default.
    representation:
        ``"dict"`` (default) builds the reference :class:`LabeledGraph`
        via networkx; ``"csr"`` assembles a :class:`CSRGraph` with the
        vectorized generator/labeler pipeline — orders of magnitude
        faster and the only practical substrate at paper scale
        (``scale`` large enough for ≥10⁶ nodes).  The two substrates
        sample the same dataset *shape* (degree law, label model,
        target-pair selection) but draw from different random streams,
        so their graphs are statistically, not bitwise, alike.  A CSR
        dataset lives in process RAM; an ``n_jobs`` worker pool
        publishes it to shared memory by itself.
    """
    if name not in DATASET_SPECS:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(DATASET_SPECS)}"
        )
    if representation not in REPRESENTATIONS:
        raise DatasetError(
            f"unknown representation {representation!r}; "
            f"available: {', '.join(REPRESENTATIONS)}"
        )
    check_positive(scale, "scale")
    key = (name, int(seed), float(scale), representation)
    if use_cache and key in _CACHE:
        return _CACHE[key]

    spec = DATASET_SPECS[name]
    num_nodes = max(64, int(round(spec.num_nodes * scale)))
    edges_per_node = min(spec.edges_per_node, max(2, num_nodes // 4))
    graph: Union[LabeledGraph, CSRGraph]
    if representation == "csr":
        graph = _synthesize_csr(spec, int(seed), num_nodes, edges_per_node)
    else:
        rng = ensure_rng(seed)
        graph = powerlaw_cluster_osn(
            num_nodes, edges_per_node, spec.triangle_probability, rng=rng
        )
        _apply_labels(graph, spec, rng)

    if spec.label_model == "gender":
        pairs: List[Tuple[Label, Label]] = [(1, 2)]
    else:
        pairs = select_target_pairs(graph, count=spec.num_target_pairs)
    counts = {pair: count_target_edges(graph, pair[0], pair[1]) for pair in pairs}

    dataset = Dataset(
        spec=spec,
        graph=graph,
        target_pairs=pairs,
        target_counts=counts,
        seed=int(seed),
        scale=float(scale),
    )
    if use_cache:
        _CACHE[key] = dataset
    return dataset


def clear_dataset_cache() -> None:
    """Drop all cached datasets (used by tests that tweak specs)."""
    _CACHE.clear()


__all__ = [
    "DatasetSpec",
    "Dataset",
    "DATASET_SPECS",
    "REPRESENTATIONS",
    "dataset_names",
    "select_target_pairs",
    "load_dataset",
    "clear_dataset_cache",
]
