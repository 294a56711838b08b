"""Random-walk engines, transition kernels, mixing-time and thinning utilities."""

from repro.walks.engine import RandomWalk, WalkResult, NeighborProvider
from repro.walks.batched import (
    BatchedWalkEngine,
    FleetWalkResult,
    KernelSpec,
    BASELINE_CSR_KERNELS,
    SUPPORTED_CSR_KERNELS,
    charge_distinct_pages,
    csr_walk,
    draw_start_index,
    kernel_move_probabilities,
    kernel_stationary_weights,
    resolve_csr_kernel,
    resolve_kernel_spec,
)
from repro.walks.line_batched import BatchedLineWalkEngine, LineFleetResult
from repro.walks.kernels import (
    TransitionKernel,
    SimpleRandomWalkKernel,
    NonBacktrackingKernel,
    MetropolisHastingsKernel,
    MaximumDegreeKernel,
    RejectionControlledMHKernel,
    GeneralMaximumDegreeKernel,
)
from repro.walks.mixing import (
    exact_mixing_time,
    spectral_mixing_bound,
    total_variation_distance,
    transition_matrix,
    stationary_distribution,
)
from repro.walks.thinning import thin_indices, thinning_interval

__all__ = [
    "RandomWalk",
    "WalkResult",
    "NeighborProvider",
    "BatchedWalkEngine",
    "FleetWalkResult",
    "BatchedLineWalkEngine",
    "LineFleetResult",
    "KernelSpec",
    "BASELINE_CSR_KERNELS",
    "SUPPORTED_CSR_KERNELS",
    "charge_distinct_pages",
    "csr_walk",
    "draw_start_index",
    "kernel_move_probabilities",
    "kernel_stationary_weights",
    "resolve_csr_kernel",
    "resolve_kernel_spec",
    "TransitionKernel",
    "SimpleRandomWalkKernel",
    "NonBacktrackingKernel",
    "MetropolisHastingsKernel",
    "MaximumDegreeKernel",
    "RejectionControlledMHKernel",
    "GeneralMaximumDegreeKernel",
    "exact_mixing_time",
    "spectral_mixing_bound",
    "total_variation_distance",
    "transition_matrix",
    "stationary_distribution",
    "thin_indices",
    "thinning_interval",
]
