import numpy as np
import pytest

from eann.geom import (
    AlignedBox,
    BbdCell,
    EuclideanBall,
    PointGrid,
    dist_point_cell,
    enclosing_ball,
    is_separated,
    separation_ratio,
)


def test_separation_ratio_values():
    b = EuclideanBall(np.zeros(2), 1.0)
    assert separation_ratio([10.0, 0.0], b) == pytest.approx(4.5)
    assert separation_ratio([0.5, 0.0], b) == 0.0
    assert separation_ratio([5.0, 0.0], EuclideanBall([1.0, 0.0], 1.0)) == pytest.approx(1.5)


def test_separation_degenerate_ball():
    with pytest.raises(ValueError, match="degenerate ball"):
        separation_ratio([1.0, 0.0], EuclideanBall(np.zeros(2), 0.0))


def test_is_separated():
    b = EuclideanBall(np.zeros(2), 1.0)
    assert is_separated([10.0, 0.0], b, 4.0)
    assert not is_separated([10.0, 0.0], b, 5.0)
    assert not is_separated([0.0, 0.0], b, 1.0)


def test_separation_rigid_motion_invariance(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        p = rng.standard_normal(d) * 3
        c = rng.standard_normal(d)
        r = rng.uniform(0.1, 2.0)
        base = separation_ratio(p, EuclideanBall(c, r))
        a = rng.standard_normal((d, d))
        q, rr = np.linalg.qr(a)
        q = q * np.sign(np.diag(rr))[None, :]
        t = rng.standard_normal(d)
        moved = separation_ratio(q @ p + t, EuclideanBall(q @ c + t, r))
        assert moved == pytest.approx(base, abs=1e-12)


def test_dist_point_cell_box():
    cell = BbdCell(AlignedBox([0.0, 0.0], [1.0, 1.0]))
    assert dist_point_cell([3.0, 0.0], cell) == pytest.approx(2.0)
    assert dist_point_cell([0.5, 0.7], cell) == 0.0


def test_dist_point_cell_inside_hole():
    cell = BbdCell(AlignedBox([0.0, 0.0], [1.0, 1.0]),
                   AlignedBox([0.25, 0.25], [0.75, 0.75]))
    # Frozen via brute force over a dense boundary sample of the cell region.
    assert dist_point_cell([0.5, 0.5], cell) == pytest.approx(0.25)
    # On the hole boundary the point still belongs to the cell.
    assert dist_point_cell([0.25, 0.5], cell) == 0.0


def test_dist_point_cell_brute_force_oracle(rng):
    outer = AlignedBox([0.0, 0.0], [1.0, 1.0])
    inner = AlignedBox([0.25, 0.25], [0.75, 0.75])
    cell = BbdCell(outer, inner)
    # Dense sample of the cell region as an independent oracle.
    xs = np.linspace(0, 1, 201)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    in_cell = np.array([cell.contains(g, tol=0.0) for g in grid])
    pts_in_cell = grid[in_cell]
    for _ in range(25):
        p = rng.uniform(-0.5, 1.5, size=2)
        expected = np.min(np.linalg.norm(pts_in_cell - p[None, :], axis=1))
        got = dist_point_cell(p, cell)
        assert got <= expected + 1e-9
        assert got >= expected - 0.01  # grid resolution slack


def test_dist_point_cell_zero_iff_member(rng):
    cell = BbdCell(AlignedBox([0.0, 0.0], [1.0, 1.0]),
                   AlignedBox([0.5, 0.5], [1.0, 1.0]))
    for _ in range(200):
        p = rng.uniform(-0.2, 1.2, size=2)
        inside = cell.contains(p, tol=0.0)
        dist = dist_point_cell(p, cell)
        if inside:
            assert dist == 0.0
        else:
            assert dist > 0.0


def test_empty_cell_rejected():
    box = AlignedBox([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        dist_point_cell([0.0, 0.0], BbdCell(box, box))


def test_enclosing_ball_examples():
    ball = enclosing_ball(BbdCell(AlignedBox([0.0, 0.0], [2.0, 2.0])))
    assert np.allclose(ball.center, [1.0, 1.0])
    assert ball.radius == pytest.approx(np.sqrt(2))
    flat = enclosing_ball(BbdCell(AlignedBox([0.0, 0.0], [1.0, 0.0])))
    assert np.allclose(flat.center, [0.5, 0.0])
    assert flat.radius == pytest.approx(0.5)
    cube = enclosing_ball(BbdCell(AlignedBox([0.0] * 3, [1.0] * 3)))
    assert cube.radius == pytest.approx(np.sqrt(3) / 2)


def test_enclosing_ball_contains_corners(rng):
    for _ in range(30):
        d = int(rng.integers(1, 5))
        low = rng.standard_normal(d)
        high = low + rng.uniform(0.1, 2.0, size=d)
        cell = BbdCell(AlignedBox(low, high))
        ball = enclosing_ball(cell)
        for corner_bits in range(2**d):
            corner = np.where([(corner_bits >> j) & 1 for j in range(d)], high, low)
            assert np.linalg.norm(corner - ball.center) <= ball.radius + 1e-12


def _grid_reference(grid, points, low, high, reach):
    """Every id whose grid cell meets the box [low, high] widened on every
    side by the grid's margin about ``reach``, from each point's cell."""
    grid_low, shape = np.array(grid.low), np.array(grid.shape)

    def cells(x):
        return np.clip(np.floor((x - grid_low) / grid.side), 0, shape - 1)

    w = reach * (1.0 + 1e-12) + 1e-12 * np.maximum(np.abs(low), np.abs(high)) + 1e-150
    own = cells(points)
    inside = (own >= cells(low - w)) & (own <= cells(high + w))
    return np.flatnonzero(inside.all(axis=1))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_point_grid_near_equals_the_cells_that_meet_the_box(d, rng):
    """``PointGrid.within`` returns, in id order, exactly the ids whose cell
    meets the widened query box: for random points, points on cell
    boundaries and duplicates, about boxes that are a single point (at
    points, at the grid's low and high edges and beyond them) and boxes
    with a corner there, with zero and positive reaches."""
    n = 300
    points = rng.random((n, d))
    grid = PointGrid(points)
    # Points exactly on cell boundaries, and duplicates of other points.
    k = rng.integers(0, 4, size=(40, d))
    boundary = np.array(grid.low) + k * grid.side
    points = np.concatenate([points, boundary, points[rng.integers(0, n, 30)]])
    grid = PointGrid(points)
    low = np.array(grid.low)
    high = points.max(axis=0)
    centers = [points[i] for i in rng.integers(0, len(points), 40)]
    centers += [low, high, low - 0.5, high + 0.5, boundary[0], rng.random(d)]
    for center in centers:
        for top in (center, center + 0.3 * rng.random(d)):
            for reach in (0.0, 1e-12, grid.side, 0.5 * rng.random(), 2.0):
                got = grid.within(center.tolist(), top.tolist(), reach)
                assert got.dtype == np.int32
                np.testing.assert_array_equal(
                    got, _grid_reference(grid, points, center, top, reach))
    # Every point lies in the cells that meet a box of radius 0 about it.
    for i in rng.integers(0, len(points), 20):
        x = points[i].tolist()
        assert i in grid.within(x, x, 0.0)
