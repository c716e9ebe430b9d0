"""Correctness checks computed by the benchmark apart from the program.

Every check returns a list of failure messages (empty when the output is
correct).  None of them compares against a stored copy of an earlier
output: each recomputes a quantity from the program's products with its
own code, or tests a property the method must have.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-6


def _net_spans(net_ptr: np.ndarray, px: np.ndarray, py: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-net (x span, y span, degree) of the given pin coordinates."""
    degree = np.diff(net_ptr)
    starts = net_ptr[:-1][degree > 0]
    span_x = np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
    span_y = np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts)
    return span_x, span_y, degree[degree > 0]


def pin_positions(design, cell_x: np.ndarray, cell_y: np.ndarray):
    """Absolute pin coordinates for the given cell positions."""
    return (cell_x[design.pin_cell] + design.pin_dx,
            cell_y[design.pin_cell] + design.pin_dy)


def hpwl_of(design, cell_x: np.ndarray, cell_y: np.ndarray) -> float:
    """Half-perimeter wirelength over nets with at least two pins."""
    px, py = pin_positions(design, cell_x, cell_y)
    span_x, span_y, degree = _net_spans(design.net_ptr, px, py)
    return float((span_x + span_y)[degree >= 2].sum())


def check_placement(design, product) -> tuple[list[str], int]:
    """Legality of a placement product for the *unplaced* input design.

    Movable cells lie inside the die and on rows, and overlap neither
    each other within a row nor a fixed cell; fixed cells did not move;
    the HPWL recomputed from pin positions equals the reported final
    HPWL.  Returns the failures and the number of *spilled* movable
    cells, those outside the die or over a fixed cell.
    """
    errors = []
    x, y = np.asarray(product.cell_x), np.asarray(product.cell_y)
    w, h = design.cell_w, design.cell_h
    fixed = design.cell_fixed
    if not (np.array_equal(x[fixed], design.cell_x[fixed])
            and np.array_equal(y[fixed], design.cell_y[fixed])):
        errors.append(f"{design.name}: fixed cells moved")
    xl, yl, xh, yh = design.die
    mov = np.flatnonzero(~fixed)
    mx, my, mw, mh = x[mov], y[mov], w[mov], h[mov]
    rows = (my - yl) / design.row_height
    if np.abs(rows - np.round(rows)).max(initial=0.0) > _TOL:
        errors.append(f"{design.name}: movable cell off the row grid")
    order = np.lexsort((mx, np.round(rows)))
    same_row = np.round(rows[order][1:]) == np.round(rows[order][:-1])
    gap = mx[order][1:] - (mx[order][:-1] + mw[order][:-1])
    if (same_row & (gap < -_TOL)).any():
        errors.append(f"{design.name}: movable cells overlap within a row")
    outside = ((mx < xl - _TOL) | (mx + mw > xh + _TOL) | (my < yl - _TOL)
               | (my + mh > yh + _TOL))
    fx, fy, fw, fh = x[fixed], y[fixed], w[fixed], h[fixed]
    ox = (np.minimum(mx[:, None] + mw[:, None], fx + fw)
          - np.maximum(mx[:, None], fx))
    oy = (np.minimum(my[:, None] + mh[:, None], fy + fh)
          - np.maximum(my[:, None], fy))
    over_fixed = ((ox > _TOL) & (oy > _TOL)).any(axis=1)
    spilled = int((outside | over_fixed).sum())
    if spilled:
        errors.append(f"{design.name}: {spilled} movable cells outside "
                      "the die or over a fixed cell")
    recomputed = hpwl_of(design, x, y)
    if not np.isclose(recomputed, product.hpwl_final, rtol=1e-9, atol=_TOL):
        errors.append(f"{design.name}: reported HPWL {product.hpwl_final} "
                      f"!= recomputed {recomputed}")
    return errors, spilled


def routed_wirelength(routing) -> float:
    """Total routed edge usage (tracks) of a routing product."""
    return float(routing.h_usage.sum() + routing.v_usage.sum())


def check_routing(design, placement, routing) -> list[str]:
    """Usage is a non-negative integer on every edge; the reported total
    overflow equals Σ max(usage − capacity, 0); the routed wirelength is
    at least Σ over nets of the half-perimeter of the net's terminal
    G-cells (no routing of a net can be shorter)."""
    errors = []
    usage = np.concatenate([routing.h_usage.ravel(), routing.v_usage.ravel()])
    if (usage < 0).any() or np.abs(usage - np.round(usage)).max() > 1e-9:
        errors.append(f"{design.name}: edge usage not a non-negative integer")
    overflow = float(
        np.maximum(routing.h_usage - routing.h_capacity, 0.0).sum()
        + np.maximum(routing.v_usage - routing.v_capacity, 0.0).sum())
    if not np.isclose(overflow, routing.total_overflow, rtol=1e-9, atol=_TOL):
        errors.append(f"{design.name}: reported overflow "
                      f"{routing.total_overflow} != recomputed {overflow}")
    xl, yl, xh, yh = design.die
    px, py = pin_positions(design, np.asarray(placement.cell_x),
                           np.asarray(placement.cell_y))
    gx = np.clip(np.floor((px - xl) / ((xh - xl) / routing.nx)),
                 0, routing.nx - 1)
    gy = np.clip(np.floor((py - yl) / ((yh - yl) / routing.ny)),
                 0, routing.ny - 1)
    span_x, span_y, _ = _net_spans(design.net_ptr, gx, gy)
    lower_bound = float((span_x + span_y).sum())
    if routed_wirelength(routing) < lower_bound:
        errors.append(f"{design.name}: routed wirelength "
                      f"{routed_wirelength(routing)} < terminal half-"
                      f"perimeter bound {lower_bound}")
    return errors


def _incident_sum(edges: np.ndarray, axis: int, shape) -> tuple:
    """Per-G-cell sum and count of the incident edges along ``axis``."""
    total = np.zeros(shape)
    count = np.zeros(shape)
    lo = [slice(None)] * 2
    hi = [slice(None)] * 2
    lo[axis], hi[axis] = slice(0, -1), slice(1, None)
    total[tuple(lo)] += edges
    total[tuple(hi)] += edges
    count[tuple(lo)] += 1
    count[tuple(hi)] += 1
    return total, count


def labels_from_routing(routing) -> np.ndarray:
    """(nx·ny, 2) H/V congestion labels from edge usage and capacity.

    A G-cell is congested in a direction when the mean usage of its
    incident edges in that direction exceeds their mean capacity.
    """
    shape = (routing.nx, routing.ny)
    out = []
    for axis, usage, cap in ((0, routing.h_usage, routing.h_capacity),
                             (1, routing.v_usage, routing.v_capacity)):
        demand, count = _incident_sum(usage, axis, shape)
        capacity, _ = _incident_sum(cap, axis, shape)
        count = np.maximum(count, 1.0)
        out.append((demand / count > capacity / count).ravel())
    return np.stack(out, axis=-1)


def check_labels(name: str, congestion: np.ndarray, routing) -> list[str]:
    """The LH-graph's labels equal those recomputed from the routing."""
    expected = labels_from_routing(routing)
    got = np.asarray(congestion)
    if got.shape[0] != expected.shape[0] or not np.array_equal(
            got.astype(bool), expected[:, :got.shape[1]]):
        return [f"{name}: congestion labels differ from the routing product"]
    return []


def check_probabilities(name: str, grids: dict) -> list[str]:
    """Every served probability is finite and lies in [0, 1]."""
    for channel, grid in grids.items():
        grid = np.asarray(grid)
        if not np.isfinite(grid).all() or grid.min() < 0 or grid.max() > 1:
            return [f"{name}: channel {channel} probability outside [0, 1]"]
    return []


def f1_pct(prob: np.ndarray, truth: np.ndarray, threshold: float = 0.5
           ) -> float:
    """F1 (%) of thresholded probabilities; 0 when degenerate."""
    pred = np.asarray(prob).ravel() >= threshold
    target = np.asarray(truth).ravel() > 0.5
    tp = float(np.sum(pred & target))
    fp = float(np.sum(pred & ~target))
    fn = float(np.sum(~pred & target))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)
