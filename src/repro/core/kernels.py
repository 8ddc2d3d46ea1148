"""Solver kernels: the vectorized numpy path and its scalar Python oracle.

Every scheduler in :mod:`repro.core` accepts a ``kernel=`` keyword:

* ``"numpy"`` (the default) — cost-tensor construction and the DP
  sweeps run as array ops over all ``(window, processor)`` nodes at
  once.  This is the production path the batch engine
  (:mod:`repro.engine`) fans out over.
* ``"python"`` — a deliberately scalar, loop-by-loop reference
  implementation of the same arithmetic.  It exists as a readable
  transcription of the paper's pseudocode and as a differential-testing
  oracle: property tests assert both kernels produce *bit-identical*
  costs and centers on every instance.

Bit-identity holds because both kernels perform the same elementary
operations in the same per-element order: reference costs accumulate in
exact integer arithmetic before the single volume multiply, and each DP
cell is one multiply plus one add per transition.  Ties break toward
the lowest index in both kernels (scalar strict-``<`` scans mirror
``argmin``).
"""

from __future__ import annotations

import numpy as np

from ..mem import CapacityError, first_available

__all__ = [
    "KERNELS",
    "resolve_kernel",
    "placement_cost_tensor",
    "placement_cost_tensor_python",
    "merged_totals_python",
    "local_argmin_python",
    "hold_position_python",
    "hold_position_numpy",
    "lomcds_walk_python",
    "shortest_center_path_python",
]

#: Recognized kernel names, in preference order.
KERNELS = ("numpy", "python")


def resolve_kernel(kernel: str | None) -> str:
    """Canonical kernel name (``None`` means the numpy default)."""
    if kernel is None:
        return "numpy"
    name = str(kernel).lower()
    if name not in KERNELS:
        known = ", ".join(KERNELS)
        raise ValueError(f"unknown kernel {kernel!r}; known kernels: {known}")
    return name


# ---------------------------------------------------------------------------
# cost-tensor construction
# ---------------------------------------------------------------------------


def placement_cost_tensor(tensor, model, kernel: str) -> np.ndarray:
    """The ``(D, W, m)`` placement cost tensor, built by ``kernel``."""
    if kernel == "python":
        return placement_cost_tensor_python(tensor, model)
    return model.all_placement_costs(tensor)


def placement_cost_tensor_python(tensor, model) -> np.ndarray:
    """Scalar transcription of ``CostModel.all_placement_costs``.

    ``C[d, w, p] = vol(d) * sum_q R[d, w, q] * Dist[q, p]`` with the
    inner sum accumulated in exact integer arithmetic — the same value
    the int64 matmul produces before its one float multiply.
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
    """Scalar window merge for SCDS: ``t[d, p] = sum_w C[d, w, p]``."""
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
    """Scalar per-window argmin (ties toward the lowest pid)."""
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
    """Forward-fill centers across idle windows (in place, scalar).

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


def hold_position_numpy(centers: np.ndarray, referenced: np.ndarray) -> None:
    """Vectorized idle hold: one gather instead of a loop over data.

    For each ``(d, w)`` the source window is the last referenced window
    at or before ``w`` (forward fill), or the first referenced window
    when none precedes it (backward fill of the initial placement).
    Bit-identical to :func:`hold_position_python` by construction.
    """
    n_data, n_windows = centers.shape
    if n_data == 0 or n_windows == 0:
        return
    w_idx = np.arange(n_windows, dtype=np.int64)
    marked = np.where(referenced, w_idx[None, :], -1)
    last_ref = np.maximum.accumulate(marked, axis=1)  # (D, W), -1 = none yet
    # argmax of a boolean row is its first True; all-False rows give 0,
    # which matches the scalar rule "keep the window-0 center".
    first_ref = referenced.argmax(axis=1).astype(np.int64)
    source = np.where(last_ref >= 0, last_ref, first_ref[:, None])
    centers[:] = centers[np.arange(n_data)[:, None], source]


def lomcds_walk_python(
    costs, referenced, order, tracker, masks=None, evictions=None
):
    """Scalar LOMCDS capacity walk: one processor-list scan per cell.

    Data are taken in ``order`` and claim one slot per window.  Window 0
    and every referenced window take the first free processor on the
    datum's list; an idle window holds the previous center if its slot is
    free, and otherwise is an eviction that walks the list after all.
    ``masks`` (if given) receives each datum's per-window availability,
    ``evictions`` the ``(datum, window)`` of every eviction.

    Returns ``(centers, idle_holds, idle_evictions)``.
    """
    n_data, n_windows, _ = costs.shape
    centers = np.empty((n_data, n_windows), dtype=np.int64)
    idle_holds = idle_evictions = 0
    for d in order:
        prev: int | None = None
        for w in range(n_windows):
            available = tracker.available_in_window(w)
            if masks is not None:
                masks[d, w] = available
            if referenced[d, w] or prev is None:
                proc = first_available(costs[d, w], available)
            elif available[prev]:
                proc = prev  # idle window: stay put if there is room
                idle_holds += 1
            else:
                # eviction: the held slot was claimed by a higher-priority
                # datum, so the idle datum walks its processor list after all
                proc = first_available(costs[d, w], available)
                idle_evictions += 1
                if evictions is not None:
                    evictions.append((d, w))
            tracker.claim(proc, w)
            centers[d, w] = proc
            prev = proc
    return centers, idle_holds, idle_evictions


# ---------------------------------------------------------------------------
# GOMCDS: scalar shortest-path DP over the cost graph
# ---------------------------------------------------------------------------


def shortest_center_path_python(
    window_costs: np.ndarray,
    move_costs: np.ndarray,
    allowed: np.ndarray | None = None,
    return_potentials: bool = False,
):
    """Scalar transcription of the Algorithm 2 forward DP.

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
