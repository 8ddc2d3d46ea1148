"""Separable convexity of placement-cost rows.

The structural fact behind the paper's Lemma 1 / Theorems 2-3: a
window's placement cost as a function of the center,

    ``cost(r, c) = Σ_p refs[p] · (|r - r_p| + |c - c_p|) = F(r) + G(c)``,

is *separable* (a row function plus a column function) and each part is
convex piecewise-linear, flat exactly on the local-optimum interval.
This module verifies those properties on concrete cost rows; the
property suite runs the checks on random instances, which is what makes
the monotonicity checkers in :mod:`repro.theory.monotonicity`
trustworthy rather than vacuous.
"""

from __future__ import annotations

import numpy as np

from ..grid import Mesh1D, Mesh2D

__all__ = [
    "is_convex_sequence",
    "separable_components",
    "is_separable_convex",
]


def is_convex_sequence(values: np.ndarray, tol: float = 1e-9):
    """True when second differences are non-negative (discrete convexity).

    A stack ``(..., n)`` is judged along its last axis, giving a boolean
    array of shape ``(...)``; one sequence gives a ``bool``.
    """
    values = np.asarray(values, dtype=np.float64)
    convex = np.all(np.diff(values, 2, axis=-1) >= -tol, axis=-1)
    return convex if convex.ndim else bool(convex)


def separable_components(cost_row: np.ndarray, topology: Mesh2D):
    """Decompose a 2-D cost row into ``F(r) + G(c)`` parts.

    Returns ``(F, G, residual)`` where the decomposition is anchored at
    ``F(0) = 0`` and ``residual`` is the max absolute reconstruction
    error (0 for true Manhattan cost rows).  A stack ``(..., m)`` of rows
    is split row by row: ``F`` is ``(..., rows)``, ``G`` ``(..., cols)``
    and ``residual`` an array of shape ``(...)``; one row gives a float.
    """
    rows = np.asarray(cost_row, dtype=np.float64)
    grid = rows.reshape(*rows.shape[:-1], *topology.shape)
    f = grid[..., :, 0] - grid[..., :1, 0]
    g = grid[..., 0, :]
    residual = np.abs(grid - (f[..., :, None] + g[..., None, :])).max(
        axis=(-2, -1)
    )
    return f, g, residual if residual.ndim else float(residual)


def is_separable_convex(cost_row: np.ndarray, topology, tol: float = 1e-9):
    """Check the Lemma-1/Theorem-2 preconditions on a cost row.

    1-D rows must be convex; 2-D rows must decompose exactly into
    ``F(r) + G(c)`` with both parts convex.  A stack ``(..., m)`` of rows
    gives a boolean array of shape ``(...)``; one row gives a ``bool``.
    """
    if isinstance(topology, Mesh1D):
        return is_convex_sequence(cost_row, tol)
    if isinstance(topology, Mesh2D):
        f, g, residual = separable_components(cost_row, topology)
        convex = (
            (np.asarray(residual) <= tol)
            & is_convex_sequence(f, tol)
            & is_convex_sequence(g, tol)
        )
        return convex if convex.ndim else bool(convex)
    raise TypeError("separable convexity is defined for 1-D/2-D meshes")
