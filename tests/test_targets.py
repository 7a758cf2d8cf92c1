import math

import numpy as np
import pytest

from amala.rng import split
from amala.targets import (
    NEG_INF,
    GaussianMixture,
    ParticleBox2D,
    TargetDensity,
    make_target,
    standard_normal,
)

BOX22 = ParticleBox2D(1.0, 1.0, 2, 2)
BOX11 = ParticleBox2D(1.0, 1.0, 1, 1)


def central_fd(f, point, h=1e-6):
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    for i in range(point.size):
        up = point.copy()
        dn = point.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2 * h)
    return grad


class TestBoxLogDensity:
    def test_mode_center_value(self):
        # p(0.25, 0.25) = 4 for the (2,2) state on the unit box
        assert BOX22.log_density([0.25, 0.25]) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_nodal_line_is_zero_density(self):
        assert BOX22.log_density([0.5, 0.25]) == NEG_INF

    def test_outside_box_is_zero_density(self):
        assert BOX22.log_density([-0.1, 0.5]) == NEG_INF
        assert BOX22.log_density([0.25, 1.0]) == NEG_INF

    def test_normalization_by_quadrature(self):
        # Simpson rule on a 401 x 401 grid; nodal points contribute exp(-inf)=0
        m = 400
        xs = np.linspace(0.0, 1.0, m + 1)
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= 1.0 / (3.0 * m)
        total = 0.0
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                lp = BOX22.log_density([x, y])
                if lp != NEG_INF:
                    total += w[i] * w[j] * math.exp(lp)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_reflection_symmetry(self):
        stream = split(99, 0)
        for _ in range(50):
            x, y = stream.next_uniform(), stream.next_uniform()
            lp = BOX22.log_density([x, y])
            if lp == NEG_INF:
                continue
            assert BOX22.log_density([1.0 - x, y]) == pytest.approx(lp, abs=1e-9)
            assert BOX22.log_density([x, 1.0 - y]) == pytest.approx(lp, abs=1e-9)


class TestBoxGradient:
    def test_zero_at_mode_center(self):
        np.testing.assert_allclose(BOX22.grad_log_density([0.25, 0.25]), [0.0, 0.0], atol=1e-12)

    def test_known_value_and_fd_agreement(self):
        g = BOX11.grad_log_density([0.3, 0.5])
        assert g[0] == pytest.approx(2.0 * math.pi / math.tan(0.3 * math.pi), rel=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-12)
        fd = central_fd(BOX11.log_density, [0.3, 0.5])
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-4)

    def test_clamped_near_node(self):
        # the clamped gradient keeps its direction: away from the node
        box = ParticleBox2D(1.0, 1.0, 2, 2, gmax=1e6)
        assert box.grad_log_density([0.5 + 1e-12, 0.25])[0] == 1e6
        assert box.grad_log_density([0.5 - 1e-12, 0.25])[0] == -1e6

    def test_error_at_zero_density_point(self):
        with pytest.raises(ValueError):
            BOX22.grad_log_density([0.5, 0.25])
        with pytest.raises(ValueError):
            BOX22.grad_log_density([-0.1, 0.25])

    def test_fd_agreement_away_from_nodes(self):
        stream = split(7, 0)
        checked = 0
        while checked < 100:
            x, y = stream.next_uniform(), stream.next_uniform()
            # stay clear of nodal lines so the FD stencil is well-defined
            if min(abs(2 * x - round(2 * x)), abs(2 * y - round(2 * y))) < 2e-3:
                continue
            g = BOX22.grad_log_density([x, y])
            if np.max(np.abs(g)) > 1e4:
                continue
            fd = central_fd(BOX22.log_density, [x, y])
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-6)
            assert rel < 1e-4
            checked += 1


class TestBoxEnergy:
    def test_ground_state_value(self):
        # model units: E = (1/2)(1 + 1)
        assert ParticleBox2D(1.0, 1.0, 1, 1).energy() == 1.0

    def test_degeneracy(self):
        a = ParticleBox2D(1.0, 1.0, 2, 1).energy()
        b = ParticleBox2D(1.0, 1.0, 1, 2).energy()
        assert a == pytest.approx(b)

    def test_doubling_lx_quarters_x_term(self):
        base = ParticleBox2D(1.0, 1.0, 3, 1).energy()
        wide = ParticleBox2D(2.0, 1.0, 3, 1).energy()
        # E = (1/2)(nx^2/Lx^2 + ny^2/Ly^2): x-term 9 -> 9/4
        assert base == pytest.approx(0.5 * (9.0 + 1.0))
        assert wide == pytest.approx(0.5 * (9.0 / 4.0 + 1.0))


class TestAnalyticGrid:
    @pytest.mark.parametrize("spec", [(1.0, 1.0, 1, 1), (2.0, 0.5, 2, 3), (1.0, 1.0, 4, 4)])
    def test_sums_to_one(self, spec):
        grid = ParticleBox2D(*spec).analytic_grid(32)
        assert abs(grid.sum() - 1.0) < 1e-9
        assert np.all(grid >= 0)

    def test_center_reflection_symmetry(self):
        grid = BOX22.analytic_grid(16)
        np.testing.assert_allclose(grid, grid[::-1, ::-1], atol=1e-12)

    def test_ground_state_res2_quarters(self):
        np.testing.assert_allclose(BOX11.analytic_grid(2), 0.25 * np.ones((2, 2)), atol=1e-12)

    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2), (2, 3)])
    def test_mode_count(self, nx, ny):
        box = ParticleBox2D(1.0, 1.0, nx, ny)
        # odd resolution keeps mode centers off cell boundaries (no ties)
        res = 8 * max(nx, ny) + 1
        grid = box.analytic_grid(res)
        padded = np.pad(grid, 1, constant_values=-1.0)
        maxima = 0
        for i in range(1, res + 1):
            for j in range(1, res + 1):
                patch = padded[i - 1 : i + 2, j - 1 : j + 2]
                if grid[i - 1, j - 1] == patch.max() and np.sum(patch == patch.max()) == 1:
                    maxima += 1
        assert maxima == nx * ny

    def test_res_below_two_rejected(self):
        with pytest.raises(ValueError):
            BOX11.analytic_grid(1)


class TestBoxValidation:
    def test_bad_sides(self):
        with pytest.raises(ValueError):
            ParticleBox2D(0.0, 1.0, 1, 1)

    def test_bad_quantum_numbers(self):
        with pytest.raises(ValueError):
            ParticleBox2D(1.0, 1.0, 0, 1)

    def test_mode_centers(self):
        np.testing.assert_allclose(BOX22.first_mode_center(), [0.25, 0.25])
        centers = BOX22.mode_centers()
        assert centers.shape == (4, 2)
        for c in centers:
            assert BOX22.log_density(c) == pytest.approx(math.log(4.0), abs=1e-12)


class TestGaussianMixture:
    def test_standard_normal_at_mode(self):
        target = standard_normal(1)
        assert target.log_density([0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_symmetric_midpoint(self):
        target = GaussianMixture([(0.5, [-1.0], [1.0]), (0.5, [1.0], [1.0])])
        # both components contribute the same term at the midpoint
        common = -0.5 * math.log(2 * math.pi) - 0.5
        assert target.log_density([0.0]) == pytest.approx(math.log(2 * 0.5) + common, abs=1e-12)

    def test_far_tail_finite(self):
        target = GaussianMixture([(1.0, [0.0, 0.0], [1.0, 2.0])])
        lp = target.log_density([1e6, -1e6])
        assert lp < -1e9
        assert math.isfinite(lp)

    def test_grad_at_mode_and_known_point(self):
        target = standard_normal(1)
        np.testing.assert_allclose(target.grad_log_density([0.0]), [0.0], atol=1e-15)
        np.testing.assert_allclose(target.grad_log_density([2.0]), [-2.0], atol=1e-12)

    def test_grad_matches_fd(self):
        target = GaussianMixture(
            [(0.3, [0.0, 0.0], [1.0, 0.5]), (0.7, [2.0, -1.0], [2.0, 1.5])]
        )
        stream = split(13, 0)
        for _ in range(20):
            point = np.array([4.0 * stream.next_uniform() - 1.0 for _ in range(2)])
            g = target.grad_log_density(point)
            fd = central_fd(target.log_density, point)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
            assert rel < 1e-5

    def test_weights_normalized(self):
        target = GaussianMixture([(2.0, [0.0], [1.0]), (6.0, [1.0], [1.0])])
        np.testing.assert_allclose(target.weights, [0.25, 0.75])

    def test_dimension_mismatch(self):
        target = standard_normal(2)
        with pytest.raises(ValueError):
            target.log_density([0.0])
        with pytest.raises(ValueError):
            target.grad_log_density([0.0, 0.0, 0.0])

    def test_invalid_components(self):
        with pytest.raises(ValueError):
            GaussianMixture([])
        with pytest.raises(ValueError):
            GaussianMixture([(1.0, [0.0], [0.0])])
        with pytest.raises(ValueError):
            GaussianMixture([(-1.0, [0.0], [1.0])])


BOX_3X2 = ParticleBox2D(1.3, 0.7, 3, 2)
MIX2 = GaussianMixture([(0.3, [-1.0, -1.0], [0.5, 0.5]), (0.7, [1.0, 1.0], [1.0, 1.0])])
ZERO_DENSITY_POINTS = [
    # walls
    (BOX22, [0.0, 0.25]),
    (BOX22, [1.0, 0.25]),
    (BOX22, [0.25, 0.0]),
    (BOX22, [0.25, 1.0]),
    (BOX22, [0.0, 0.0]),
    (BOX_3X2, [1.3, 0.2]),
    (BOX_3X2, [0.4, 0.7]),
    # nodal lines
    (BOX22, [0.5, 0.25]),
    (BOX22, [0.25, 0.5]),
    (BOX22, [0.5, 0.5]),
    (BOX_3X2, [0.4, 0.35]),
    # outside the box
    (BOX22, [-0.1, 0.25]),
    (BOX22, [0.25, 1.2]),
    (BOX22, [-1e-300, 0.25]),
    (BOX22, [math.inf, 0.25]),
    (BOX22, [0.25, -math.inf]),
    # quadratic forms that overflow in the far tails of the Gaussians
    (standard_normal(2), [1e200, 0.0]),
    (MIX2, [0.0, -1e200]),
]


class TestTargetContract:
    """grad_log_density raises ValueError exactly where log_density is -inf."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("target,point", ZERO_DENSITY_POINTS)
    def test_zero_density_point_has_no_gradient(self, target, point):
        assert target.log_density(point) == NEG_INF
        with pytest.raises(ValueError):
            target.grad_log_density(point)
        with pytest.raises(ValueError):
            target.grad_log_density(np.array(point))

    @pytest.mark.parametrize("target", [BOX22, BOX_3X2, BOX11])
    def test_interior_points_have_finite_density_and_gradient(self, target):
        stream = split(31, 0)
        for _ in range(2000):
            point = [target.lx * stream.next_uniform(), target.ly * stream.next_uniform()]
            assert math.isfinite(target.log_density(point))
            assert np.all(np.isfinite(target.grad_log_density(point)))

    @pytest.mark.parametrize("target", [standard_normal(2), MIX2])
    def test_gaussian_tails_have_finite_density_and_gradient(self, target):
        for point in ([1e6, -1e6], [1e100, 0.0], [-3.0, 40.0]):
            assert math.isfinite(target.log_density(point))
            assert np.all(np.isfinite(target.grad_log_density(point)))


class HalfPlaneTarget(TargetDensity):
    """p(x) proportional to x0 exp(-x0) N(x1; 0, 1) on x0 > 0: a custom
    target that keeps the base-class grad_log_density_rows loop."""

    name = "half_plane"
    dim = 2

    def log_density(self, point) -> float:
        x0, x1 = float(point[0]), float(point[1])
        return math.log(x0) - x0 - 0.5 * x1 * x1 if x0 > 0.0 else NEG_INF

    def grad_log_density(self, point) -> np.ndarray:
        x0, x1 = float(point[0]), float(point[1])
        if x0 <= 0.0:
            raise ValueError("gradient requested at a zero-density point")
        return np.array([1.0 / x0 - 1.0, -x1])


HALF_PLANE = HalfPlaneTarget()


def interior_point(target):
    if isinstance(target, ParticleBox2D):
        return target.first_mode_center()
    if isinstance(target, GaussianMixture):
        return target.means[0]
    return np.array([1.5, 0.5])


def assert_rows_match_points(target, points):
    # a tolerance, not bit equality: numpy's vectorized sin/cos/exp may
    # round the last bit differently from the one-point path on some hosts
    rows = target.grad_log_density_rows(points)
    stacked = np.array([target.grad_log_density(p) for p in points])
    assert rows.shape == stacked.shape == points.shape
    np.testing.assert_allclose(rows, stacked, rtol=1e-12, atol=1e-12 * np.abs(stacked).max())


class TestGradRows:
    """grad_log_density_rows is grad_log_density of every row, under the same contract."""

    @pytest.mark.parametrize("target", [BOX22, BOX_3X2, BOX11])
    def test_box_rows_match_points(self, target):
        stream = split(37, 0)
        unit = np.array([[stream.next_uniform(), stream.next_uniform()] for _ in range(500)])
        # and points 1e-12 off the walls and nodal lines, where the gradient is clamped
        edge = np.array([[k / target.nx + 1e-12, 0.3] for k in range(target.nx)] + [[0.3, 1.0 - 1e-12]])
        points = np.vstack([unit, edge]) * [target.lx, target.ly]
        assert np.any(np.abs(target.grad_log_density_rows(points)) == target.gmax)
        assert_rows_match_points(target, points)

    @pytest.mark.parametrize("target", [standard_normal(3), MIX2])
    def test_mixture_rows_match_points(self, target):
        stream = split(41, 0)
        points = np.array([stream.normals(target.dim) for _ in range(500)]) * 3.0
        assert_rows_match_points(target, points)

    def test_base_class_loop_matches_points(self):
        stream = split(43, 0)
        points = np.array([[0.01 + 5.0 * stream.next_uniform(), stream.next_normal()] for _ in range(200)])
        assert_rows_match_points(HALF_PLANE, points)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "target,point", ZERO_DENSITY_POINTS + [(HALF_PLANE, [0.0, 0.5]), (HALF_PLANE, [-2.0, 0.0])]
    )
    def test_one_zero_density_row_raises(self, target, point):
        inside = interior_point(target)
        with pytest.raises(ValueError):
            target.grad_log_density_rows(np.array([inside, point, inside]))

    @pytest.mark.parametrize("target", [BOX22, standard_normal(2), MIX2, HALF_PLANE])
    def test_wrong_shape_rejected(self, target):
        inside = interior_point(target)
        for points in (inside, np.array([[*inside, 0.0]]), np.array([[inside]]), np.array([inside[:1]])):
            with pytest.raises(ValueError):
                target.grad_log_density_rows(points)


class TestRegistry:
    def test_particle_box(self):
        target = make_target("particle_box", {"Lx": 1.0, "Ly": 2.0, "nx": 2, "ny": 1})
        assert isinstance(target, ParticleBox2D)
        assert target.ly == 2.0
        assert target.gmax == 1e6

    def test_gauss_mix(self):
        target = make_target(
            "gauss_mix",
            {"components": [{"weight": 1.0, "mean": [0.0], "variance": [1.0]}]},
        )
        assert isinstance(target, GaussianMixture)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_target("banana", {})
