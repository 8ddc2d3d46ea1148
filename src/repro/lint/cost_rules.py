"""CST0xx: cost-accounting consistency checks.

The repo computes a schedule's cost two independent ways: the vectorized
analytic evaluator (:func:`repro.core.evaluate_schedule`) and the paper's
Algorithm-2 cost-graph formulation, whose edge weights spell out the
same objective term by term.  CST001 walks the schedule's own center
path through the cost graph (without materializing it) and demands the
accumulated edge weight equal the evaluator's answer — a static
differential test of the whole cost stack.  CST002 cross-checks
any cost the *producer* recorded in ``schedule.meta`` against the
evaluator, catching archives whose centers were edited after the fact.
"""

from __future__ import annotations

import numpy as np

from ..diagnostics import CST001, CST002, Diagnostic, Severity
from .registry import rule

__all__ = []

#: Above this many (datum, window, proc^2) graph cells, CST001 checks a
#: deterministic sample of data instead of all of them.
_MAX_EXHAUSTIVE_CELLS = 2_000_000
_SAMPLE = 128
_TOL = 1e-6

#: meta keys a producer may use to record the expected total cost.
_META_COST_KEYS = ("cost", "expected_cost", "total_cost")


def _graph_path_cost(window_costs, move_costs, centers) -> float:
    """Edge-weight sum of the schedule's path through the Algorithm-2 DAG.

    Follows the cost-graph construction literally (source edge carries
    window 0's reference cost; each transition edge carries movement plus
    the next window's reference cost) without materializing the graph.
    """
    total = float(window_costs[0, centers[0]])
    for w in range(1, len(centers)):
        total += float(move_costs[centers[w - 1], centers[w]])
        total += float(window_costs[w, centers[w]])
    return total


@rule(
    CST001,
    "evaluator/cost-graph mismatch",
    severity=Severity.ERROR,
    requires=("schedule", "trace", "model"),
)
def check_costgraph_agreement(context):
    """The analytic evaluator disagrees with the cost-graph formulation."""
    from ..core.evaluate import per_datum_costs

    tensor = context.tensor
    if tensor is None:
        return
    schedule = context.schedule
    model = context.model
    if schedule.n_data != tensor.n_data or schedule.n_windows != tensor.n_windows:
        return  # SCH004 owns the mismatch
    if schedule.centers.size and schedule.centers.max() >= model.n_procs:
        return  # SCH001 owns out-of-range centers
    costs = model.all_placement_costs(tensor)
    ref, move = per_datum_costs(schedule, tensor, model)
    analytic = ref + move

    n_data, n_windows = schedule.n_data, schedule.n_windows
    cells = n_data * n_windows * model.n_procs**2
    data_ids = np.arange(n_data)
    if cells > _MAX_EXHAUSTIVE_CELLS:
        rng = np.random.default_rng(0)
        data_ids = np.sort(rng.choice(n_data, size=min(_SAMPLE, n_data), replace=False))

    for d in data_ids:
        d = int(d)
        graph_cost = _graph_path_cost(
            costs[d], model.movement_cost_matrix(d), schedule.centers[d]
        )
        if abs(graph_cost - analytic[d]) > _TOL * max(1.0, abs(graph_cost)):
            yield Diagnostic(
                code=CST001,
                severity=Severity.ERROR,
                message=(
                    f"evaluate_schedule charges {analytic[d]:g} but the "
                    f"cost-graph path sums to {graph_cost:g}"
                ),
                datum=d,
                hint="the evaluator and Algorithm 2 disagree — one of the "
                "cost paths is corrupted",
            )


@rule(
    CST002,
    "meta-recorded cost mismatch",
    severity=Severity.WARNING,
    requires=("schedule", "trace", "model"),
)
def check_meta_cost(context):
    """A cost recorded by the producer disagrees with re-evaluation."""
    from ..core.evaluate import evaluate_schedule

    schedule = context.schedule
    recorded = None
    for key in _META_COST_KEYS:
        if key in schedule.meta:
            recorded = float(schedule.meta[key])
            break
    if recorded is None:
        return
    tensor = context.tensor
    if tensor is None:
        return
    if schedule.n_data != tensor.n_data or schedule.n_windows != tensor.n_windows:
        return
    if schedule.centers.size and schedule.centers.max() >= context.model.n_procs:
        return
    actual = evaluate_schedule(schedule, tensor, context.model).total
    if abs(actual - recorded) > _TOL * max(1.0, abs(actual)):
        yield Diagnostic(
            code=CST002,
            severity=Severity.WARNING,
            message=(
                f"schedule meta records cost {recorded:g} but re-evaluation "
                f"gives {actual:g}"
            ),
            hint="the archive's centers were modified after the cost was "
            "recorded",
        )
