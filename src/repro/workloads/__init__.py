"""Benchmark substrate: kernels generating the paper's reference strings."""

from .base import WorkloadInstance, combine_windows, matrix_data_ids
from .bitonic import bitonic_workload
from .fft import fft_workload
from .floyd import floyd_workload
from .code_kernel import code_workload, reversed_code_workload
from .combos import BENCHMARK_NAMES, benchmark, combine
from .loopnest import Loop, LoopNest
from .lu import lu_workload
from .sor import sor_workload
from .matmul import matmul_workload
from .paper import PaperInstance, paper_instance
from .partition import (
    PARTITION_SCHEMES,
    block_cyclic_owners,
    block_owners,
    column_wise_owners,
    owner_map,
    row_wise_owners,
)
from .synthetic import (
    drifting_hotspot_workload,
    hotspot_workload,
    trace_from_counts,
    uniform_random_workload,
)

__all__ = [
    "WorkloadInstance",
    "matrix_data_ids",
    "combine_windows",
    "lu_workload",
    "fft_workload",
    "sor_workload",
    "floyd_workload",
    "bitonic_workload",
    "EXTENDED_KERNELS",
    "Loop",
    "LoopNest",
    "matmul_workload",
    "code_workload",
    "reversed_code_workload",
    "combine",
    "benchmark",
    "BENCHMARK_NAMES",
    "PaperInstance",
    "paper_instance",
    "owner_map",
    "row_wise_owners",
    "column_wise_owners",
    "block_owners",
    "block_cyclic_owners",
    "PARTITION_SCHEMES",
    "uniform_random_workload",
    "hotspot_workload",
    "drifting_hotspot_workload",
    "trace_from_counts",
]

#: Extended-suite kernels (beyond the paper's five benchmarks), keyed by
#: name -> (factory, default size).  Factories take (n, topology).
EXTENDED_KERNELS = {
    "fft": (fft_workload, 256),
    "sor": (sor_workload, 16),
    "floyd": (floyd_workload, 16),
    "bitonic": (bitonic_workload, 128),
}
