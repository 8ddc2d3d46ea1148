"""Scalar references for the vectorized solver layers (test oracles).

Each scheduler runs one path: cost-tensor construction, the window merge,
the per-window argmin and the DP sweeps are numpy array ops over all
``(window, processor)`` nodes at once.  The functions here are
deliberately scalar, loop-by-loop transcriptions of the same arithmetic,
one per layer where that path forks from the paper's pseudocode.  No
production code calls them: the test suite calls each one directly and
asserts it is *bit-identical* to the layer it mirrors on the same
inputs.

Bit-identity holds because both sides perform the same elementary
operations in the same per-element order: reference costs are exact
integer sums (the float64 matmul is exact below 2**53) before the single
volume multiply, and each DP cell is one multiply plus one add per
transition (the L1 step on meshes reaches the same integer values by
exact repeated adds).  Ties break toward the lowest index on both sides
(scalar strict-``<`` scans mirror ``argmin``).
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityError, first_available

__all__ = [
    "placement_cost_tensor_python",
    "merged_totals_python",
    "local_argmin_python",
    "hold_position_python",
    "lomcds_walk_python",
    "omcds_walk_python",
    "shortest_center_path_python",
]

# ---------------------------------------------------------------------------
# cost-tensor construction
# ---------------------------------------------------------------------------


def placement_cost_tensor_python(tensor, model) -> np.ndarray:
    """Test reference for ``CostModel.all_placement_costs``.

    ``C[d, w, p] = vol(d) * sum_q R[d, w, q] * Dist[q, p]`` with the
    inner sum accumulated in exact integer arithmetic — the same value
    the float64 matmul produces, exactly while its sums stay below
    2**53, before its one float multiply.
    """
    if tensor.n_procs != model.n_procs:
        raise ValueError("reference tensor does not match the processor array")
    counts = tensor.counts
    dist = model.distances
    n_data, n_windows, n_procs = counts.shape
    out = np.empty((n_data, n_windows, n_procs), dtype=np.float64)
    for d in range(n_data):
        vol = model.volume(d)
        for w in range(n_windows):
            row = counts[d, w]
            for p in range(n_procs):
                acc = 0
                for q in range(n_procs):
                    c = int(row[q])
                    if c:
                        acc += c * int(dist[q, p])
                out[d, w, p] = float(acc) * vol
    return out


def merged_totals_python(cost_tensor: np.ndarray) -> np.ndarray:
    """Test reference for SCDS's window merge: ``t[d, p] = sum_w C[d, w, p]``."""
    n_data, n_windows, n_procs = cost_tensor.shape
    out = np.empty((n_data, n_procs), dtype=np.float64)
    for d in range(n_data):
        for p in range(n_procs):
            acc = 0.0
            for w in range(n_windows):
                acc += float(cost_tensor[d, w, p])
            out[d, p] = acc
    return out


# ---------------------------------------------------------------------------
# LOMCDS: per-window local argmin + idle hold
# ---------------------------------------------------------------------------


def local_argmin_python(cost_tensor: np.ndarray) -> np.ndarray:
    """Test reference for LOMCDS's per-window argmin (ties toward the
    lowest pid)."""
    n_data, n_windows, n_procs = cost_tensor.shape
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    for d in range(n_data):
        for w in range(n_windows):
            best, best_cost = 0, float(cost_tensor[d, w, 0])
            for p in range(1, n_procs):
                c = float(cost_tensor[d, w, p])
                if c < best_cost:
                    best, best_cost = p, c
            centers[d, w] = best
    return centers


def hold_position_python(centers: np.ndarray, referenced: np.ndarray) -> None:
    """Test reference for LOMCDS's idle hold
    (:func:`repro.core.lomcds._hold_position`): forward-fill centers
    across idle windows (in place, scalar).

    Windows before a datum's first reference copy the first referenced
    center backward; a datum never referenced keeps its window-0 center.
    """
    n_data, n_windows = centers.shape
    for d in range(n_data):
        refs = [w for w in range(n_windows) if referenced[d, w]]
        if not refs:
            centers[d, :] = centers[d, 0]
            continue
        first = refs[0]
        centers[d, :first] = centers[d, first]
        last_center = centers[d, first]
        for w in range(first + 1, n_windows):
            if referenced[d, w]:
                last_center = centers[d, w]
            else:
                centers[d, w] = last_center


def lomcds_walk_python(
    costs, referenced, order, tracker, masks=None, evictions=None
):
    """Test reference for LOMCDS's capacity walk
    (:func:`repro.core.lomcds._capacity_walk`): one processor-list scan
    per cell.

    Data are taken in ``order``; each reads the availability once and
    claims its whole row with one path claim (it never claims a window
    twice, so no cell it reads changes before its own claim).  Window 0
    and every referenced window take the first free processor on the
    datum's list; an idle window holds the previous center if its slot is
    free, and otherwise is an eviction that walks the list after all.
    ``masks`` (if given) receives each datum's availability,
    ``evictions`` the ``(datum, window)`` of every eviction.

    Returns ``(centers, idle_holds, idle_evictions)``.
    """
    n_data, n_windows, _ = costs.shape
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    idle_holds = idle_evictions = 0
    for d in order:
        available = tracker.available_mask()
        if masks is not None:
            masks[d] = available
        prev: int | None = None
        for w in range(n_windows):
            if referenced[d, w] or prev is None:
                proc = first_available(costs[d, w], available[w])
            elif available[w, prev]:
                proc = prev  # idle window: stay put if there is room
                idle_holds += 1
            else:
                # eviction: the held slot was claimed by a higher-priority
                # datum, so the idle datum walks its processor list after all
                proc = first_available(costs[d, w], available[w])
                idle_evictions += 1
                if evictions is not None:
                    evictions.append((d, w))
            centers[d, w] = proc
            prev = proc
        tracker.claim_path(centers[d])
    return centers, idle_holds, idle_evictions


# ---------------------------------------------------------------------------
# OMCDS: online hysteresis walk
# ---------------------------------------------------------------------------


def omcds_walk_python(costs, dist, vols, order, capacity, hysteresis):
    """Test reference for OMCDS's window walk
    (:func:`repro.core.online._online_walk`): one datum at a time, on a
    plain per-window load vector.

    In window 0 every datum takes the first free processor on its list.
    In each later window its regret grows by what staying costs over the
    window's local optimum; it wants to move there once the regret
    reaches ``hysteresis`` times the move's price.  It then takes the
    wanted processor if that has a free slot, else its current center if
    that has one, else the first free processor on its list, and its
    regret restarts when it wanted to move and got the optimum.  With
    ``capacity`` ``None`` every slot is free.
    """
    n_data, n_windows, n_procs = costs.shape
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    regret = [0.0] * n_data
    for w in range(n_windows):
        load = np.zeros(n_procs, dtype=np.int64)
        for d in order:
            available = (
                np.ones(n_procs, dtype=bool)
                if capacity is None
                else load < capacity.capacities
            )
            best = 0
            for p in range(1, n_procs):
                if costs[d, w, p] < costs[d, w, best]:
                    best = p
            current, wants_move = best, False
            if w > 0:
                current = int(centers[d, w - 1])
                regret[d] += float(costs[d, w, current]) - float(costs[d, w, best])
                if hysteresis != np.inf and best != current:
                    price = float(vols[d]) * float(dist[current, best])
                    wants_move = regret[d] >= hysteresis * price
            target = best if wants_move else current
            if available[target]:
                proc = target
            elif available[current]:
                proc = current  # can't move where it wants: stay
            else:
                proc = first_available(costs[d, w], available)
            if wants_move and proc == best:
                regret[d] = 0.0
            load[proc] += 1
            centers[d, w] = proc
    return centers


# ---------------------------------------------------------------------------
# GOMCDS: scalar shortest-path DP over the cost graph
# ---------------------------------------------------------------------------


def shortest_center_path_python(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    allowed: np.ndarray | None = None,
    return_potentials: bool = False,
):
    """Test reference for the Algorithm 2 forward DP.

    Mirrors :func:`repro.core.gomcds.shortest_center_path` cell by cell:
    ``f_w[k] = min_j (f_{w-1}[j] + move[j][k]) + C[w][k]`` with each
    cell computed as exactly one add for the transition and one add for
    the reference term, minima scanning ``j``/``k`` ascending with a
    strict ``<`` (= numpy's lowest-index argmin tie-break).

    Raises
    ------
    CapacityError
        If no admissible path exists under the memory constraint.
    """
    n_windows, n_procs = window_costs.shape
    inf = float("inf")
    costs = [
        [
            inf
            if allowed is not None and not allowed[w, p]
            else float(window_costs[w, p])
            for p in range(n_procs)
        ]
        for w in range(n_windows)
    ]
    move = [[float(move_costs[j, k]) for k in range(n_procs)] for j in range(n_procs)]
    back = np.zeros((n_windows, n_procs), dtype=np.int64)
    potentials = (
        np.empty((n_windows, n_procs), dtype=np.float64)
        if return_potentials
        else None
    )
    f = list(costs[0])
    if potentials is not None:
        potentials[0] = f
    for w in range(1, n_windows):
        nxt = [0.0] * n_procs
        for k in range(n_procs):
            best_j, best = 0, f[0] + move[0][k]
            for j in range(1, n_procs):
                value = f[j] + move[j][k]
                if value < best:
                    best_j, best = j, value
            back[w, k] = best_j
            nxt[k] = best + costs[w][k]
        f = nxt
        if potentials is not None:
            potentials[w] = f
    end, total = 0, f[0]
    for k in range(1, n_procs):
        if f[k] < total:
            end, total = k, f[k]
    if total == inf or total != total:  # inf or nan: no admissible path
        raise CapacityError("no feasible center path under the memory constraint")
    path = np.empty(n_windows, dtype=np.int64)
    path[-1] = end
    for w in range(n_windows - 1, 0, -1):
        path[w - 1] = back[w, path[w]]
    if return_potentials:
        return path, float(total), potentials
    return path, float(total)
