"""Fault-tolerance experiments: degradation sweeps over failure rates.

The paper's tables assume a fault-free array; these experiments measure
how each scheduler's cost and completion rate degrade as nodes, links
and messages start failing, and what fault-aware rescheduling
(:func:`~repro.core.reschedule_around_faults`) buys back.  Consumed by
the ``repro faults`` CLI subcommand and ``benchmarks/bench_faults.py``.
"""

from __future__ import annotations

from ..core import evaluate_schedule
from ..faults import FaultPlan, RetryPolicy
from ..sim import replay_schedule
from ..workloads import PaperInstance

__all__ = ["run_fault_replay", "fault_sweep", "DEFAULT_FAULT_RATES"]

DEFAULT_FAULT_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)


def run_fault_replay(
    plan: FaultPlan,
    instance: PaperInstance,
    scheduler: str = "GOMCDS",
    reschedule: bool = False,
    retry: RetryPolicy | None = None,
    evacuate: bool = True,
) -> dict:
    """Replay ``instance`` under ``plan`` and summarize the degradation.

    With ``reschedule`` the centers are recomputed around ``plan`` first
    (:meth:`~repro.workloads.PaperInstance.solve` with the plan);
    otherwise ``scheduler`` solves the fault-free instance.  Returns a
    flat row with the fault-free analytic cost, the degraded replay's
    costs and the per-outcome reference accounting.
    """
    tensor, model = instance.tensor, instance.model
    plan.validate_for(model.topology, tensor.n_windows)
    schedule = instance.solve(scheduler, faults=plan if reschedule else None)
    analytic = evaluate_schedule(schedule, tensor, model)
    report = replay_schedule(
        instance.workload.trace,
        schedule,
        model,
        capacity=instance.capacity,
        faults=plan,
        retry=retry,
        evacuate=evacuate,
    )
    return {
        "bench": instance.bench,
        "size": instance.size,
        "scheduler": schedule.method,
        "analytic_cost": analytic.total,
        "replayed_cost": report.total_cost,
        "degraded_cost": report.degraded_cost,
        "evacuation_cost": report.evacuation_cost,
        "retry_cost": report.retry_cost,
        "delivered": report.n_delivered,
        "retried": report.n_retries,
        "dropped": report.n_dropped,
        "unreachable": report.n_unreachable,
        "evacuated": report.n_evacuated,
        "lost": report.n_lost,
        "skipped_moves": report.n_skipped_moves,
        "completion_pct": 100.0 * report.completion_rate,
    }


def fault_sweep(
    instance: PaperInstance,
    node_rates=DEFAULT_FAULT_RATES,
    link_rate: float = 0.0,
    drop_rate: float = 0.0,
    scheduler: str = "GOMCDS",
    reschedule: bool = False,
    fault_seed: int = 0,
) -> list[dict]:
    """Sweep node-failure rates on ``instance`` and report the
    cost/completion degradation, one row per rate."""
    rows = []
    for rate in node_rates:
        plan = FaultPlan.random(
            instance.model.topology,
            instance.tensor.n_windows,
            node_rate=float(rate),
            link_rate=link_rate,
            drop_rate=drop_rate,
            seed=fault_seed,
        )
        row = run_fault_replay(
            plan, instance, scheduler, reschedule and not plan.is_empty
        )
        rows.append(
            {
                "node_rate": float(rate),
                "n_node_faults": len(plan.node_faults),
                "n_link_faults": len(plan.link_faults),
                **{
                    k: row[k]
                    for k in (
                        "scheduler",
                        "replayed_cost",
                        "degraded_cost",
                        "evacuation_cost",
                        "delivered",
                        "retried",
                        "dropped",
                        "unreachable",
                        "completion_pct",
                    )
                },
            }
        )
    return rows
