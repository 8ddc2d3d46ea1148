"""Scheduling an irregular kernel: where run-time data movement pays.

The paper's motivating case: a kernel whose reference locus roams the
array (the CODE substitute, benchmark 5's building block).  This example

1. follows one hot datum across execution windows, printing the local
   optimal center of every window and the center tracks chosen by each
   scheduler;
2. shows the cost split (references vs movement) of all three schedulers;
3. applies Algorithm 3 window grouping and reports the improvement.

Run:  python examples/irregular_kernel.py
"""

import numpy as np

from repro import (
    CostModel,
    Mesh2D,
    ScheduleRequest,
    code_workload,
    evaluate_schedule,
    grouped_schedule,
    schedule_many,
)


def main() -> None:
    topo = Mesh2D(4, 4)
    workload = code_workload(16, topo, seed=1998)
    tensor = workload.reference_tensor()
    model = CostModel(topo)

    # --- 1. follow the hottest datum ------------------------------------
    hot = int(tensor.data_priority_order()[0])
    costs = model.all_placement_costs(tensor)[hot]
    print(f"hottest datum: id {hot} = element "
          f"{np.unravel_index(hot, workload.data_shape)}")
    # one batch solves all three algorithms (docs/performance.md)
    names = ("SCDS", "LOMCDS", "GOMCDS")
    solved = schedule_many(
        [ScheduleRequest(tensor, model, algorithm=n) for n in names]
    )
    schedules = dict(zip(names, solved))
    print(f"\n{'window':>6}{'refs':>6}{'local opt':>11}"
          + "".join(f"{name:>9}" for name in schedules))
    for w in range(tensor.n_windows):
        refs = int(tensor.counts[hot, w].sum())
        local = topo.coords(int(costs[w].argmin())) if refs else "-"
        row = f"{w:>6}{refs:>6}{str(local):>11}"
        for sched in schedules.values():
            row += f"{str(topo.coords(int(sched.centers[hot, w]))):>9}"
        print(row)

    # --- 2. cost split ---------------------------------------------------
    print(f"\n{'method':<10}{'total':>8}{'refs':>8}{'moves':>8}{'#moves':>8}")
    for name, sched in schedules.items():
        cost = evaluate_schedule(sched, tensor, model)
        print(
            f"{name:<10}{cost.total:>8.0f}{cost.reference_cost:>8.0f}"
            f"{cost.movement_cost:>8.0f}{sched.n_movements():>8}"
        )

    # --- 3. window grouping (Algorithm 3) --------------------------------
    grouped = grouped_schedule(tensor, model, center_method="local")
    before = evaluate_schedule(schedules["LOMCDS"], tensor, model).total
    after = evaluate_schedule(grouped, tensor, model).total
    groups_hot = grouped.meta["partitions"][hot]
    print(
        f"\nAlgorithm 3 grouping: LOMCDS {before:.0f} -> {after:.0f} "
        f"({100 * (before - after) / before:.1f}% better)"
    )
    print(f"hot datum's window groups: {groups_hot}")

    # --- 4. where the hot datum roams (trajectory maps) ------------------
    from repro.analysis import render_trajectory, trajectory_summary

    print()
    for name, sched in (("LOMCDS", schedules["LOMCDS"]), ("GOMCDS", schedules["GOMCDS"])):
        summary = trajectory_summary(sched, hot, topo)
        print(
            render_trajectory(
                sched,
                hot,
                topo,
                title=f"{name} trajectory of datum {hot} "
                f"({summary['moves']} moves, {summary['hops_traveled']} hops):",
            )
        )
        print()


if __name__ == "__main__":
    main()
