"""THY0xx: theory-backed schedule quality warnings (paper §4).

The paper's Lemma 1 / Theorem 2 show a window's placement cost is
separable convex in the center coordinates, increasing strictly
monotonically away from the local-optimum set.  Two consequences are
statically checkable:

* **THY001** — if replacing one center by a neighbor-in-cost processor
  lowers ``reference + movement`` cost (capacity permitting), the
  schedule is provably improvable: an optimal path never leaves a
  one-step improvement on the table.  This is a *warning*, not an error
  — such schedules are valid, just demonstrably suboptimal.
* **THY002** — a cost row that is not separable convex cannot come from
  a Manhattan metric with positive volumes; it indicates a corrupted
  cost model or reference tensor and voids the §4 guarantees.
"""

from __future__ import annotations

import numpy as np

from ..diagnostics import THY001, THY002, Diagnostic, Severity
from ..grid import Mesh1D, Mesh2D
from .registry import rule

__all__ = []

_TOL = 1e-9
#: cap on separable-convexity spot checks per run (rows are independent).
_THY002_SAMPLE = 64


@rule(
    THY001,
    "one-step improvable center",
    severity=Severity.WARNING,
    requires=("schedule", "trace", "model"),
)
def check_one_step_optimality(context):
    """Moving one center strictly lowers total cost — schedule improvable."""
    tensor = context.tensor
    if tensor is None:
        return
    schedule, model = context.schedule, context.model
    if schedule.n_data != tensor.n_data or schedule.n_windows != tensor.n_windows:
        return  # SCH004 owns the mismatch
    centers = schedule.centers
    if centers.size == 0 or centers.max() >= model.n_procs:
        return  # SCH001 owns out-of-range centers

    n_data, n_windows = schedule.n_data, schedule.n_windows
    costs = model.all_placement_costs(tensor)  # (D, W, m)
    dist = model.distances.astype(np.float64)
    vols = model.volume_vector(n_data)

    headroom = None
    if context.capacity is not None and context.capacity.n_procs == model.n_procs:
        occupancy = schedule.occupancy(model.n_procs)  # (W, m)
        headroom = context.capacity.capacities[None, :] - occupancy

    d_idx = np.arange(n_data)
    for w in range(n_windows):
        current = centers[:, w]
        # delta[d, p]: total-cost change of re-centering datum d to p in w
        delta = costs[:, w, :] - costs[d_idx, w, current][:, None]
        if w > 0:
            prev = centers[:, w - 1]
            delta += vols[:, None] * (dist[prev] - dist[prev, current][:, None])
        if w < n_windows - 1:
            nxt = centers[:, w + 1]
            delta += vols[:, None] * (dist[:, nxt].T - dist[current, nxt][:, None])
        if headroom is not None:
            # an "improvement" into a full memory is not realizable
            delta = np.where(headroom[w][None, :] > 0, delta, np.inf)
            delta[d_idx, current] = 0.0
        best = delta.min(axis=1)
        for d in np.nonzero(best < -_TOL)[0]:
            p = int(delta[d].argmin())
            yield Diagnostic(
                code=THY001,
                severity=Severity.WARNING,
                message=(
                    f"re-centering to processor {p} saves {-best[d]:g} cost; "
                    "the §4 monotonicity argument shows an optimal path "
                    "never strands a center like this"
                ),
                datum=int(d),
                window=w,
                processor=int(centers[d, w]),
                hint="run GOMCDS to close the gap",
            )


@rule(
    THY002,
    "non-convex cost row",
    severity=Severity.WARNING,
    requires=("trace", "model"),
)
def check_separable_convexity(context):
    """A placement-cost row violates the Lemma 1 convexity precondition."""
    from ..theory.convexity import is_separable_convex

    topology = context.topology
    if not isinstance(topology, (Mesh1D, Mesh2D)):
        return  # the lemma is stated for 1-D/2-D meshes only
    tensor = context.tensor
    if tensor is None:
        return
    costs = context.model.all_placement_costs(tensor)  # (D, W, m)
    n_data, n_windows = costs.shape[0], costs.shape[1]
    rows = [(d, w) for d in range(n_data) for w in range(n_windows)]
    if len(rows) > _THY002_SAMPLE:
        rng = np.random.default_rng(0)
        picks = rng.choice(len(rows), size=_THY002_SAMPLE, replace=False)
        rows = [rows[int(i)] for i in picks]
    data, windows = np.array(rows, dtype=np.intp).reshape(-1, 2).T
    convex = is_separable_convex(costs[data, windows], topology)
    for d, w in zip(data[~convex].tolist(), windows[~convex].tolist()):
        yield Diagnostic(
            code=THY002,
            severity=Severity.WARNING,
            message=(
                "placement-cost row is not separable convex; the cost "
                "model or reference tensor is corrupted and the §4 "
                "monotonicity guarantees do not apply"
            ),
            datum=d,
            window=w,
        )
