import math
import pickle
import re

import numpy as np
import pytest

from amala.diagnostics import build_report
from amala.rng import split
from amala.samplers import run_chain
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

    def test_whole_float_res_rejected(self):
        # the config's grid_res rule: a whole float is no integer
        with pytest.raises(ValueError, match=r"^grid_res must be an integer >= 2, got 4\.0$"):
            BOX11.analytic_grid(4.0)


class TestBoxValidation:
    def test_bad_sides(self):
        with pytest.raises(ValueError):
            ParticleBox2D(0.0, 1.0, 1, 1)

    @pytest.mark.parametrize("field", ["nx", "ny"])
    @pytest.mark.parametrize("value", [0, 2.0, 2.5, True, "2"])
    def test_bad_quantum_numbers(self, field, value):
        # the package's one integer rule, as for n_leap: a whole float is no integer
        numbers = {"nx": 2, "ny": 2, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1, got {re.escape(repr(value))}$"):
            ParticleBox2D(1.0, 1.0, numbers["nx"], numbers["ny"])

    @pytest.mark.parametrize("side", [1e200, 1e-200, 1e-160], ids=["area-overflows", "area-underflows", "normaliser-overflows"])
    def test_sides_without_a_finite_normaliser_rejected(self, side):
        # these used to fail as a math domain error, a ZeroDivisionError
        # and a log density of +inf
        message = f"Lx * Ly must give a finite normaliser 4 / (Lx * Ly), got Lx = {side!r}, Ly = {side!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ParticleBox2D(side, side, 2, 2)

    @pytest.mark.parametrize("field", ["nx", "ny"])
    def test_quantum_number_too_large_for_a_float_rejected(self, field):
        # 10**400 used to raise OverflowError
        numbers = {"nx": 2, "ny": 2, field: 10**400}
        length = {"nx": "Lx", "ny": "Ly"}[field]
        with pytest.raises(ValueError, match=rf"^2 {field} pi / {length} overflows, got {field} = 1000"):
            ParticleBox2D(1.0, 1.0, numbers["nx"], numbers["ny"])

    def test_side_whose_wave_number_overflows_rejected(self):
        with pytest.raises(ValueError, match=r"^2 nx pi / Lx overflows, got nx = 2, Lx = 1e-308$"):
            ParticleBox2D(1e-308, 1e10, 2, 2)

    def test_side_too_large_for_a_float_rejected(self):
        with pytest.raises(ValueError, match=r"^Lx must be a finite number, got 1000"):
            ParticleBox2D(10**400, 1.0, 2, 2)

    def test_mode_centers(self):
        np.testing.assert_allclose(BOX22.mode_centers()[0], [0.25, 0.25])
        centers = BOX22.mode_centers()
        assert centers.shape == (4, 2)
        for c in centers:
            assert BOX22.log_density(c) == pytest.approx(math.log(4.0), abs=1e-12)


UNIT2 = (0.5, [0.0, 0.0], [1.0, 1.0])


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

    @pytest.mark.parametrize(
        "component",
        [(1.0, [0.0]), {"weight": 1.0, "mean": [0.0], "variance": [1.0]}],
        ids=["pair", "dict"],
    )
    def test_component_that_is_not_a_triple_rejected(self, component):
        # these used to raise IndexError and KeyError: 0
        message = f"component 1 must be a (weight, mean, variance) triple, got {component!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaussianMixture([(1.0, [0.0], [1.0]), component])

    def test_weight_that_normalizes_to_zero_rejected(self):
        # 5e-324 / 2 rounds to 0.0, whose log used to fail as a math domain error
        with pytest.raises(ValueError, match=r"^component 0 weight 5e-324 normalizes to 0$"):
            GaussianMixture([(5e-324, [0.0], [1.0]), (2.0, [0.0], [1.0])])

    @pytest.mark.parametrize("index", [0, 1])
    def test_empty_mean_names_the_component(self, index):
        components = [UNIT2, UNIT2]
        components[index] = (0.5, [], [])
        with pytest.raises(ValueError, match=rf"^component {index} mean is empty$"):
            GaussianMixture(components)

    @pytest.mark.parametrize(
        "components,message",
        [
            ([UNIT2, (0.5, [0.0] * 3, [1.0] * 3)], "component 1 mean has length 3, component 0 mean has length 2"),
            ([UNIT2, (0.5, [0.0], [1.0, 1.0])], "component 1 mean has length 1, component 0 mean has length 2"),
            ([UNIT2, (0.5, [0.0, 0.0], [1.0])], "component 1 variance has length 1, component 0 mean has length 2"),
            ([(1.0, [0.0, 0.0], [1.0] * 3)], "component 0 variance has length 3, component 0 mean has length 2"),
        ],
        ids=["longer-mean", "shorter-mean", "shorter-variance", "first-variance"],
    )
    def test_component_lengths_must_agree(self, components, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GaussianMixture(components)


BOX_3X2 = ParticleBox2D(1.3, 0.7, 3, 2)
BOX_1P7 = ParticleBox2D(1.7, 1.0, 3, 2)
MIX2_COMPONENTS = [(0.3, [-1.0, -1.0], [0.5, 0.5]), (0.7, [1.0, 1.0], [1.0, 1.0])]
MIX2 = GaussianMixture(MIX2_COMPONENTS)
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
    (BOX22, [math.nan, 0.25]),
    (BOX22, [0.25, math.nan]),
    # quadratic forms that overflow in the far tails of the Gaussians
    (standard_normal(2), [1e200, 0.0]),
    (MIX2, [0.0, -1e200]),
    # one ulp inside the wall x = 1.7, where nx * x / Lx rounds to exactly 3.0
    (BOX_1P7, [math.nextafter(1.7, 0.0), 0.25]),
]


class TestTargetContract:
    """grad_log_density raises ValueError exactly where log_density is -inf."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("target,point", ZERO_DENSITY_POINTS)
    def test_zero_density_point_has_no_gradient(self, target, point):
        assert target.log_density(point) == NEG_INF
        with pytest.raises(ValueError, match="zero-density point"):
            target.grad_log_density(point)
        with pytest.raises(ValueError, match="zero-density point"):
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

    @pytest.mark.parametrize("target", [BOX22, BOX_3X2, BOX11, BOX_1P7])
    def test_finite_density_exactly_where_gradient_exists(self, target):
        # every wall and nodal line on both axes, one and two ulps either
        # side, subnormal coordinates of both signs and seeded interior ones
        stream = split(11, 0)
        axes = []
        for n, length in ((target.nx, target.lx), (target.ny, target.ly)):
            coords = [0.0, 5e-324, 2.5e-323, 1e-310, 2.2250738585072014e-308, -5e-324, -1e-310]
            for k in range(n + 1):
                line = k * length / n
                coords += [line, math.nextafter(line, 0.0), math.nextafter(line, math.inf)]
                coords += [math.nextafter(math.nextafter(line, v), v) for v in (0.0, math.inf)]
            axes.append(coords + [length * stream.next_uniform() for _ in range(8)])
        for x in axes[0]:
            for y in axes[1]:
                log_p = target.log_density([x, y])
                assert log_p < math.inf
                if log_p == NEG_INF:
                    with pytest.raises(ValueError, match="zero-density point"):
                        target.grad_log_density([x, y])
                else:
                    assert all(math.isfinite(g) for g in target.grad_log_density([x, y]))

    @pytest.mark.parametrize("target", [BOX22, MIX2])
    @pytest.mark.parametrize("point", [[0.2], [0.2, 0.3, 0.9]])
    def test_point_of_wrong_length_rejected(self, target, point):
        for method in (target.log_density, target.grad_log_density):
            with pytest.raises(ValueError):
                method(point)
            with pytest.raises(ValueError):
                method(np.array(point))


# the mix_chains benchmark mixture
MIX4_COMPONENTS = [(0.3, [-1.0] * 4, [0.5] * 4), (0.7, [1.0] * 4, [1.0] * 4)]


def fresh(components, method, point):
    """method's result at point from a mixture that has never been called."""
    return getattr(GaussianMixture(components), method)(point)


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("components", [MIX2_COMPONENTS, MIX4_COMPONENTS], ids=["mix2", "mix4"])
class TestMixtureMemo:
    """A mixture shares one point's component terms between its two methods;
    every result must be the bits a never-called mixture gives."""

    @staticmethod
    def points(components, seed=5, count=200):
        stream = split(seed, 0)
        dim = len(components[0][1])
        return [2.0 * np.array(stream.normals(dim)) for _ in range(count)]

    def test_log_density_then_gradient(self, components):
        target = GaussianMixture(components)
        for p in self.points(components):
            assert bits(target.log_density(p)) == bits(fresh(components, "log_density", p))
            assert bits(target.grad_log_density(p)) == bits(fresh(components, "grad_log_density", p))

    def test_gradient_then_log_density(self, components):
        target = GaussianMixture(components)
        for p in self.points(components):
            assert bits(target.grad_log_density(p)) == bits(fresh(components, "grad_log_density", p))
            assert bits(target.log_density(p)) == bits(fresh(components, "log_density", p))

    def test_two_gradients_in_a_row(self, components):
        target = GaussianMixture(components)
        for p in self.points(components):
            want = bits(fresh(components, "grad_log_density", p))
            first = target.grad_log_density(p)
            assert bits(first) == want
            first[0] *= 3.0  # the caller owns the returned gradient
            assert bits(target.grad_log_density(p)) == want

    def test_log_density_at_p_then_gradient_at_q(self, components):
        target = GaussianMixture(components)
        points = self.points(components)
        for p, q in zip(points, points[1:]):
            assert bits(target.log_density(p)) == bits(fresh(components, "log_density", p))
            assert bits(target.grad_log_density(q)) == bits(fresh(components, "grad_log_density", q))

    def test_list_changed_after_the_call(self, components):
        # leapfrog hands over its working position list and moves it in place
        target = GaussianMixture(components)
        points = self.points(components)
        position = points[0].tolist()
        target.grad_log_density(position)
        for q in points[1:]:
            position[:] = q.tolist()
            assert bits(target.grad_log_density(position)) == bits(fresh(components, "grad_log_density", q))
            assert bits(target.log_density(np.array(position))) == bits(fresh(components, "log_density", q))

    def test_array_edited_after_the_call(self, components):
        target = GaussianMixture(components)
        for p in self.points(components):
            point = p.copy()
            target.log_density(point)
            point[0] += 0.5
            assert bits(target.grad_log_density(point)) == bits(fresh(components, "grad_log_density", point))
            assert bits(target.log_density(point)) == bits(fresh(components, "log_density", point))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("gradient_first", [False, True])
    def test_overflowing_point(self, components, gradient_first):
        target = GaussianMixture(components)
        far = np.zeros(len(components[0][1]))
        far[-1] = -1e200  # every component's quadratic form overflows
        near = self.points(components, count=1)[0]
        for _ in range(2):
            if gradient_first:
                with pytest.raises(ValueError):
                    target.grad_log_density(far)
            assert target.log_density(far) == NEG_INF
            with pytest.raises(ValueError):
                target.grad_log_density(far)
            assert bits(target.grad_log_density(near)) == bits(fresh(components, "grad_log_density", near))

    def test_pickled_warm_target(self, components):
        # the process pool pickles the target its parent already called
        target = GaussianMixture(components)
        points = self.points(components)
        target.log_density(points[0])
        target.grad_log_density(points[0])
        copy = pickle.loads(pickle.dumps(target))
        for p in points:
            assert bits(copy.grad_log_density(p)) == bits(fresh(components, "grad_log_density", p))
            assert bits(copy.log_density(p)) == bits(fresh(components, "log_density", p))


class HalfPlaneTarget(TargetDensity):
    """p(x) proportional to x0 exp(-x0) N(x1; 0, 1) on x0 > 0: a custom
    target with nothing beyond the two interface methods."""

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


class ListGradientHalfPlane(HalfPlaneTarget):
    """HalfPlaneTarget whose gradient is a float list instead of a numpy vector."""

    def grad_log_density(self, point) -> list:
        return super().grad_log_density(point).tolist()


class ShortGradientTarget(HalfPlaneTarget):
    """HalfPlaneTarget whose gradient is a 1-element list at a 2-D point."""

    def grad_log_density(self, point) -> list:
        return super().grad_log_density(point)[:1].tolist()


class TestCustomTarget:
    @pytest.mark.parametrize(
        "cfg", [{"name": "adaptive", "eps": 0.5}, {"name": "hmc", "eps_leap": 0.3, "n_leap": 5}]
    )
    def test_run_chain_and_report(self, cfg):
        chain = run_chain(cfg, HALF_PLANE, 2000, 100, [1.0, 0.0], 17, 0)
        assert np.all(chain.samples[:, 0] > 0.0)
        report = build_report(chain, HALF_PLANE, max_lag=20)
        assert report.acf.shape == (2, 21) and np.all(report.ess > 0)
        assert report.tv_distance is None and report.mode_coverage is None

    @pytest.mark.parametrize(
        "cfg",
        [
            {"name": "adaptive", "eps": 0.5},
            {"name": "mala", "eps": 0.5},
            {"name": "hmc", "eps_leap": 0.3, "n_leap": 5},
        ],
        ids=["adaptive", "mala", "hmc"],
    )
    def test_numpy_and_list_gradients_give_the_same_chain(self, cfg):
        # the kernels carry lists; a custom target may still return a numpy vector
        a = run_chain(cfg, HALF_PLANE, 500, 50, [1.0, 0.0], 17, 0)
        b = run_chain(cfg, ListGradientHalfPlane(), 500, 50, [1.0, 0.0], 17, 0)
        assert 0.0 < a.acceptance_rate < 1.0
        for field in ("samples", "log_ps", "accepted"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"name": "adaptive", "eps": 0.5},
            {"name": "mala", "eps": 0.5},
            {"name": "hmc", "eps_leap": 0.3, "n_leap": 5},
        ],
        ids=["adaptive", "mala", "hmc"],
    )
    def test_gradient_of_the_wrong_shape_is_rejected(self, cfg):
        # unchecked, numpy broadcasting lets the Langevin kernels run on and
        # HMC's leapfrog fails with an IndexError
        with pytest.raises(ValueError, match=r"gradient has shape \(1,\) at a point of shape \(2,\)"):
            run_chain(cfg, ShortGradientTarget(), 200, 0, [1.0, 0.0], 17, 0)


class TestRegistry:
    def test_particle_box(self):
        target = make_target("particle_box", {"Lx": 1.0, "Ly": 2.0, "nx": 2, "ny": 1})
        assert isinstance(target, ParticleBox2D)
        assert target.ly == 2.0
        assert target.gmax == 1e6

    def test_particle_box_block_is_the_constructor(self):
        # the block's fields are ParticleBox2D's keyword arguments, gmax's default included
        block = {"Lx": 1.0, "Ly": 1.0, "nx": 2, "ny": 2}
        positional = ParticleBox2D(1.0, 1.0, 2, 2)
        for box in (make_target("particle_box", {"name": "particle_box", **block}), ParticleBox2D(**block)):
            for attr in ("lx", "ly", "nx", "ny", "gmax"):
                assert getattr(box, attr) == getattr(positional, attr)

    def test_gauss_mix(self):
        target = make_target(
            "gauss_mix",
            {"components": [{"weight": 1.0, "mean": [0.0], "variance": [1.0]}]},
        )
        assert isinstance(target, GaussianMixture)

    @pytest.mark.parametrize(
        "component,message",
        [
            # these used to build a 2-D and a 1-D target
            ({"mean": [[0.0, 0.0]], "variance": [1.0, 1.0]}, "component 1 mean must be a flat list of numbers"),
            ({"mean": 0.5, "variance": [1.0]}, "component 1 mean must be a flat list of numbers"),
            ({"mean": [0.0, 0.0], "variance": [[1.0], [1.0]]}, "component 1 variance must be a flat list of numbers"),
        ],
        ids=["nested-mean", "scalar-mean", "nested-variance"],
    )
    def test_gauss_mix_vectors_must_be_flat(self, component, message):
        first = {"weight": 0.5, "mean": [0.0, 0.0], "variance": [1.0, 1.0]}
        with pytest.raises(ValueError, match=f"^{message}, got ") as info:
            make_target("gauss_mix", {"components": [first, {"weight": 0.5, **component}]})
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "components,message",
        [
            # unchecked, the keys or characters are read as components, or iteration fails
            ({"weight": 1}, "gauss_mix field 'components' must be a list of JSON objects, got {'weight': 1}"),
            ("mean", "gauss_mix field 'components' must be a list of JSON objects, got 'mean'"),
            (5, "gauss_mix field 'components' must be a list of JSON objects, got 5"),
            ([[1.0, [0.0], [1.0]]], "gauss_mix component 0 must be a JSON object, got [1.0, [0.0], [1.0]]"),
        ],
        ids=["object", "string", "number", "list-component"],
    )
    def test_gauss_mix_components_must_be_a_list_of_objects(self, components, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_target("gauss_mix", {"components": components})

    def test_gauss_mix_weights_with_an_infinite_sum_rejected(self):
        # used to warn of a numpy overflow, then fail as a math domain error
        component = {"weight": 1e308, "mean": [0.0], "variance": [1.0]}
        message = "component weights must have a finite sum, got [1e+308, 1e+308]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_target("gauss_mix", {"components": [component, component]})

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_target("banana", {})
