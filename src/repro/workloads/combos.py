"""The paper's combined benchmarks 3, 4 and 5.

* Benchmark 3 = benchmark 1 (LU) followed by CODE;
* Benchmark 4 = benchmark 2 (matrix square) followed by CODE;
* Benchmark 5 = CODE followed by CODE in reverse execution order.

Both halves share the same ``n x n`` datum universe and processor array;
the combined trace is their temporal concatenation and the combined
window set is the union of both halves' boundaries.  Mixing kernels with
different reference loci is what makes these benchmarks "complicated
data reference patterns" — where the paper found movement-aware
scheduling most effective.
"""

from __future__ import annotations

from ..grid import Topology
from ..trace import concat_traces
from .base import WorkloadInstance, combine_windows
from .code_kernel import code_workload, reversed_code_workload
from .lu import lu_workload
from .matmul import matmul_workload

__all__ = ["combine", "benchmark", "BENCHMARK_NAMES"]

BENCHMARK_NAMES = {
    1: "lu",
    2: "matsq",
    3: "lu+code",
    4: "matsq+code",
    5: "code+rev",
}


def combine(
    first: WorkloadInstance, second: WorkloadInstance, name: str | None = None
) -> WorkloadInstance:
    """Run ``second`` after ``first`` over the same data universe."""
    if first.data_shape != second.data_shape:
        raise ValueError("combined benchmarks must share a datum universe")
    if first.topology != second.topology:
        raise ValueError("combined benchmarks must share a processor array")
    return WorkloadInstance(
        name=name or f"{first.name}+{second.name}",
        trace=concat_traces(first.trace, second.trace),
        windows=combine_windows(first.windows, second.windows),
        data_shape=first.data_shape,
        topology=first.topology,
    )


def benchmark(
    number: int,
    n: int,
    topology: Topology,
    scheme: str = "row_wise",
    seed: int = 1998,
) -> WorkloadInstance:
    """The paper's benchmark ``number`` (1-5) at matrix size ``n x n``."""
    if number == 1:
        return lu_workload(n, topology, scheme)
    if number == 2:
        return matmul_workload(n, topology, scheme)
    if number == 3:
        return combine(
            lu_workload(n, topology, scheme),
            code_workload(n, topology, scheme, seed=seed),
            name=BENCHMARK_NAMES[3],
        )
    if number == 4:
        return combine(
            matmul_workload(n, topology, scheme),
            code_workload(n, topology, scheme, seed=seed),
            name=BENCHMARK_NAMES[4],
        )
    if number == 5:
        return combine(
            code_workload(n, topology, scheme, seed=seed),
            reversed_code_workload(n, topology, scheme, seed=seed),
            name=BENCHMARK_NAMES[5],
        )
    known = ", ".join(str(b) for b in BENCHMARK_NAMES)
    raise ValueError(f"unknown benchmark {number!r}; known: {known}")
