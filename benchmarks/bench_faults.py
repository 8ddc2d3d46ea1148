"""Fault-tolerance benches: degradation sweeps and recovery overhead.

Sweeps node-failure rates over the paper's benchmark 1 and reports how
replayed cost and completion rate degrade, what evacuation costs, and
what fault-aware rescheduling (:func:`repro.core.reschedule_around_faults`)
buys back.  Run with ``pytest benchmarks/bench_faults.py --benchmark-only -s``.
"""

import pytest

from repro.analysis import fault_sweep
from repro import schedule
from repro.core import reschedule_around_faults
from repro.faults import FaultPlan
from repro.sim import replay_schedule


def _render(rows):
    keys = list(rows[0].keys())
    fmt = lambda v: f"{v:.1f}" if isinstance(v, float) else str(v)  # noqa: E731
    widths = {k: max(len(k), *(len(fmt(r[k])) for r in rows)) for k in keys}
    lines = ["  ".join(f"{k:>{widths[k]}}" for k in keys)]
    for r in rows:
        lines.append("  ".join(f"{fmt(r[k]):>{widths[k]}}" for k in keys))
    return "\n".join(lines)


def bench_fault_sweep(benchmark, instances):
    """Time the full failure-rate sweep; print the degradation table."""
    rows = benchmark(
        fault_sweep,
        instances(1, 16),
        node_rates=(0.0, 0.1, 0.2, 0.3),
        drop_rate=0.02,
    )
    print()
    print("Fault sweep (benchmark 1, 16x16, GOMCDS, evacuation on):")
    print(_render(rows))
    # rate 0.0 must reproduce the fault-free path: everything delivered
    assert rows[0]["unreachable"] == 0 and rows[0]["dropped"] == 0
    assert rows[0]["completion_pct"] == 100.0


def bench_fault_replay_overhead(benchmark, instances):
    """Overhead of the degraded replay loop vs the vectorized exact path."""
    inst = instances(1, 16)
    sched = schedule(inst.tensor, inst.model, algorithm="gomcds", capacity=inst.capacity)
    plan = FaultPlan.random(
        inst.model.topology, inst.tensor.n_windows, node_rate=0.2, seed=3
    )

    def run():
        return replay_schedule(
            inst.workload.trace,
            sched,
            inst.model,
            capacity=inst.capacity,
            faults=plan,
        )

    report = benchmark(run)
    assert report.accounts_for_all_fetches()


@pytest.mark.parametrize("node_rate", [0.1, 0.3])
def bench_reschedule_around_faults(benchmark, instances, node_rate):
    """Time the fault-aware rescheduling pass; assert it helps the replay."""
    inst = instances(1, 16)
    plan = FaultPlan.random(
        inst.model.topology, inst.tensor.n_windows, node_rate=node_rate, seed=3
    )
    sched = benchmark(
        reschedule_around_faults, inst.tensor, inst.model, plan, inst.capacity
    )
    degraded = replay_schedule(
        inst.workload.trace, sched, inst.model,
        capacity=inst.capacity, faults=plan,
    )
    naive = replay_schedule(
        inst.workload.trace,
        schedule(inst.tensor, inst.model, algorithm="gomcds", capacity=inst.capacity),
        inst.model,
        capacity=inst.capacity,
        faults=plan,
    )
    print()
    print(
        f"node rate {node_rate}: rescheduled degraded cost "
        f"{degraded.degraded_cost:.0f} vs naive {naive.degraded_cost:.0f}, "
        f"completion {100 * degraded.completion_rate:.1f}% vs "
        f"{100 * naive.completion_rate:.1f}%"
    )
    assert degraded.completion_rate >= naive.completion_rate
