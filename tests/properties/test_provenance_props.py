"""Provenance properties: observational recording, exact attribution.

Two load-bearing contracts, on random instances:

1. provenance-on solves are **bit-identical** to dark solves — turning
   the explanation machinery on can never change a schedule;
2. the per-datum attributed costs sum to ``evaluate_schedule()``'s
   ``CostBreakdown`` with exact float equality (the attribution
   invariant of ``docs/explain.md``), and the recorded log equals the
   scalar reference derivation on the solver's own inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import schedule
from repro.core import CostModel, evaluate_schedule
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.obs import Instrumentation
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts
from tests.reference_pairs import (
    assert_derivations_match,
    recorded_derivations,
)

TOPO = Mesh2D(2, 3)
ALGORITHMS = ("SCDS", "LOMCDS", "GOMCDS")


@st.composite
def instances(draw, max_data=4, max_windows=5):
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(1, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, TOPO.n_procs),
            elements=st.integers(0, 3),
        )
    )
    trace, windows = trace_from_counts(counts, TOPO)
    return build_reference_tensor(trace, windows)


@given(instances(), st.sampled_from(ALGORITHMS), st.booleans())
@settings(max_examples=60, deadline=None)
def test_provenance_on_is_bit_identical_to_dark(tensor, algorithm, constrained):
    model = CostModel(TOPO)
    capacity = (
        CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
        if constrained
        else None
    )
    dark = schedule(tensor, model, algorithm=algorithm, capacity=capacity)
    instr = Instrumentation.started(provenance=True)
    with recorded_derivations() as calls:
        lit = schedule(
            tensor,
            model,
            algorithm=algorithm,
            capacity=capacity,
            instrument=instr,
        )
    assert np.array_equal(dark.centers, lit.centers)

    (log,) = instr.provenance.logs
    assert_derivations_match(calls)
    truth = evaluate_schedule(lit, tensor, model)
    ref, move = log.attributed_costs()
    assert ref.shape == move.shape == (tensor.n_data,)
    claimed = log.attribution()
    # exact float equality, not approx: the attribution invariant
    assert claimed.reference_cost == truth.reference_cost
    assert claimed.movement_cost == truth.movement_cost
    assert claimed.total == truth.total
    assert float(ref.sum()) == truth.reference_cost
    assert float(move.sum()) == truth.movement_cost
