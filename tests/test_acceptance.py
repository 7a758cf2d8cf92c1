"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Oracles are implemented locally (finite differences, brute-force
sums, hand Gaussian densities, exact inverse-CDF draws) so every asserted
number is independent of the code path it checks.
"""

import json
import math
import time

import numpy as np

from amala.cli import ExperimentConfig, run_experiment
from amala.diagnostics import autocorrelation, empirical_fisher, ess, tv_distance
from amala.rng import split
from amala.samplers import (
    HmcParams,
    Proposal,
    init_state,
    leapfrog,
    log_accept_ratio,
    run_chain,
)
from amala.targets import NEG_INF, GaussianMixture, ParticleBox2D, standard_normal

BOX22 = ParticleBox2D(1.0, 1.0, 2, 2)
NORMAL1 = standard_normal(1)

# benchmark settings: eps tuned for criterion 7 (beta/xi at defaults),
# matching configs/benchmark.json
BENCH_EPS = 0.03
BENCH_N = 50_000
BENCH_BURN_IN = 1000
BENCH_SEEDS = (1, 2, 3, 4, 5)


def _criterion(num: int, label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def _fd_gradient(log_density, point, h=1e-6):
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    for i in range(point.size):
        up, dn = point.copy(), point.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (log_density(up) - log_density(dn)) / (2 * h)
    return grad


def _gauss_lp(x, mean, scale):
    """Test-local isotropic Gaussian log density (the independent oracle)."""
    x = np.asarray(x, dtype=float)
    diff = x - np.asarray(mean, dtype=float)
    return -0.5 * len(x) * math.log(2 * math.pi * scale) - float(diff @ diff) / (2 * scale)


def test_criterion_1_gradient_consistency():
    rng = np.random.default_rng(101)
    targets = {
        "particle_box": BOX22,
        "gauss_mix": GaussianMixture(
            [(0.4, [0.0, 0.0], [1.0, 0.5]), (0.6, [1.5, -1.0], [2.0, 1.0])]
        ),
        "std_normal": standard_normal(1),
    }
    t0 = time.perf_counter()
    worst = 0.0
    for name, target in targets.items():
        checked = 0
        while checked < 100:
            if name == "particle_box":
                point = rng.random(2)
                if target.log_density(point) == NEG_INF:
                    continue
                # the gradient-consistency contract excludes near-nodal points
                if min(abs(2 * point - np.round(2 * point))) < 1e-3:
                    continue
            else:
                point = rng.normal(size=target.dim) * 1.5
            g = target.grad_log_density(point)
            fd = _fd_gradient(target.log_density, point)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name}: rel={rel:.2e} at {point}"
            checked += 1
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        "gradient vs central finite difference (100 points/target, rel < 1e-4)",
        worst < 1e-4 and elapsed < 1.0,
        f"worst rel={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_detailed_balance_identity():
    rng = np.random.default_rng(202)

    def box_point():
        while True:
            p = rng.random(2)
            if BOX22.log_density(p) != NEG_INF:
                return p

    def proposal(target, a, b, drift_scale, cov_scale):
        mean_fwd = a + 0.5 * drift_scale * target.grad_log_density(a)
        mean_rev = b + 0.5 * drift_scale * target.grad_log_density(b)
        return Proposal(
            theta_star=b,
            cov_scale_fwd=cov_scale,
            log_q_fwd=_gauss_lp(b, mean_fwd, cov_scale),
            log_q_rev=_gauss_lp(a, mean_rev, cov_scale),
            log_p_star=target.log_density(b),
        )

    gauss = standard_normal(2)
    t0 = time.perf_counter()
    worst = 0.0
    for target, draw in ((gauss, lambda: rng.normal(size=2)), (BOX22, box_point)):
        for _ in range(500):
            a, b = draw(), draw()
            # MALA coupling and adaptive shared-scale coupling
            for drift_scale, cov_scale in ((0.09, 0.09), (0.09, 0.27)):
                fwd = proposal(target, a, b, drift_scale, cov_scale)
                rev = proposal(target, b, a, drift_scale, cov_scale)
                lhs = target.log_density(a) + fwd.log_q_fwd + min(
                    0.0, log_accept_ratio(init_state(target, a), fwd)
                )
                rhs = target.log_density(b) + rev.log_q_fwd + min(
                    0.0, log_accept_ratio(init_state(target, b), rev)
                )
                rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
                worst = max(worst, rel)
                assert rel <= 1e-10
    elapsed = time.perf_counter() - t0
    _criterion(
        2,
        "detailed-balance identity p(a)q(b|a)a(a->b) = p(b)q(a|b)a(b->a)",
        worst <= 1e-10 and elapsed < 1.0,
        f"1000 pairs, worst rel={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_mala_standard_normal():
    t0 = time.perf_counter()
    chain = run_chain({"name": "mala", "eps": 0.5}, NORMAL1, 50_000, 0, [0.0], 42, 0)
    series = chain.samples[:, 0]
    sample_ess = ess(series)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(series.mean()) <= 0.05
        and 0.9 <= series.var() <= 1.1
        and sample_ess > 1000
        and elapsed < 10.0
    )
    _criterion(
        3,
        "MALA on N(0,1): eps=0.5, n=50000",
        ok,
        f"mean={series.mean():+.4f}, var={series.var():.4f}, ess={sample_ess:.0f}, {elapsed:.1f}s",
    )


def test_criterion_4_mala_small_step_acceptance():
    chain = run_chain({"name": "mala", "eps": 1e-3}, NORMAL1, 10_000, 0, [0.0], 9, 0)
    _criterion(
        4,
        "MALA acceptance at eps=1e-3 over 1e4 steps >= 0.99",
        chain.acceptance_rate >= 0.99,
        f"rate={chain.acceptance_rate:.4f}",
    )


def test_criterion_5_hmc_integrator():
    normal2 = standard_normal(2)
    params = HmcParams(eps_leap=0.05, n_leap=30)
    theta0 = np.array([0.8, -1.1])
    p0 = np.array([0.4, 0.9])
    theta1, p1, _ = leapfrog(theta0, p0, params, normal2)
    theta2, p2, _ = leapfrog(theta1, -p1, params, normal2)
    reversible = np.max(np.abs(theta2 - theta0)) < 1e-10 and np.max(np.abs(p2 + p0)) < 1e-10

    def mean_abs_dh(eps):
        p = HmcParams(eps_leap=eps, n_leap=10)
        stream = split(515, 0)
        total = 0.0
        for _ in range(1000):
            q0 = np.array(stream.normals(1))
            m0 = np.array(stream.normals(1))
            q1, m1, _ = leapfrog(q0, m0, p, NORMAL1)
            h0 = -NORMAL1.log_density(q0) + 0.5 * float(m0 @ m0)
            h1 = -NORMAL1.log_density(q1) + 0.5 * float(m1 @ m1)
            total += abs(h1 - h0)
        return total / 1000

    ratio = mean_abs_dh(0.2) / mean_abs_dh(0.1)
    _criterion(
        5,
        "leapfrog reversibility 1e-10; |dH| shrinks >= 3.5x when eps halves",
        reversible and ratio >= 3.5,
        f"ratio={ratio:.2f}",
    )


def test_criterion_6_diagnostics_oracles():
    # ACF vs O(n^2) brute-force definition sum
    rng = np.random.default_rng(606)
    series = np.cumsum(rng.normal(size=512))
    xc = series - series.mean()
    denom = sum(v * v for v in xc)
    brute = np.array(
        [sum(xc[t] * xc[t + k] for t in range(512 - k)) / denom for k in range(51)]
    )
    acf_err = np.max(np.abs(autocorrelation(series, 50) - brute))

    # ESS of i.i.d. draws
    iid_ess = ess(rng.normal(size=10_000))

    # TV identities
    grid = BOX22.analytic_grid(8)
    tv_same = tv_distance(grid, grid)
    tv_disjoint = tv_distance(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))

    # empirical Fisher of N(0, var) from exact i.i.d. samples
    fisher_ok = True
    details = []
    for var in (1.0, 4.0):
        target = GaussianMixture([(1.0, [0.0], [var])])
        samples = (math.sqrt(var) * rng.normal(size=100_000)).reshape(-1, 1)
        estimate = empirical_fisher(target, samples)[0, 0]
        rel = abs(estimate - 1.0 / var) * var
        fisher_ok &= rel < 0.05
        details.append(f"J(var={var:g})={estimate:.4f}")

    ok = (
        acf_err <= 1e-12
        and 8000 <= iid_ess <= 12_000
        and tv_same == 0.0
        and tv_disjoint == 1.0
        and fisher_ok
    )
    _criterion(
        6,
        "diagnostics oracles (ACF sum, ESS of i.i.d., TV identities, Fisher)",
        ok,
        f"acf_err={acf_err:.1e}, ess={iid_ess:.0f}, {', '.join(details)}",
    )


def test_criterion_7_benchmark_reproduction(tmp_path):
    t0 = time.perf_counter()
    per_seed = {}
    for seed in BENCH_SEEDS:
        config = ExperimentConfig(
            target={"name": "particle_box", "Lx": 1.0, "Ly": 1.0, "nx": 2, "ny": 2},
            samplers=[
                {"name": "adaptive", "eps": BENCH_EPS},
                {"name": "mala", "eps": BENCH_EPS},
            ],
            n=BENCH_N,
            burn_in=BENCH_BURN_IN,
            chains=1,
            seed=seed,
            init="mode_center",
            outputs=str(tmp_path / f"seed{seed}"),
            grid_res=32,
        )
        manifest = run_experiment(config)
        # the tuned eps is part of the recorded manifest config, and the
        # full-scale diagnostics carry the box-only fields
        written = json.loads((tmp_path / f"seed{seed}" / "manifest.json").read_text())
        assert written == manifest
        assert written["config"]["samplers"][0]["eps"] == BENCH_EPS
        stats = {}
        for name in ("adaptive", "mala"):
            diag = json.loads((tmp_path / f"seed{seed}" / f"{name}_chain0_diag.json").read_text())
            assert diag["tv_distance"] is not None and diag["mode_coverage"] is not None
            stats[name] = diag
        per_seed[seed] = stats
    elapsed = time.perf_counter() - t0

    adaptive_cov = [per_seed[s]["adaptive"]["mode_coverage"] for s in BENCH_SEEDS]
    adaptive_tv = [per_seed[s]["adaptive"]["tv_distance"] for s in BENCH_SEEDS]
    mala_cov = [per_seed[s]["mala"]["mode_coverage"] for s in BENCH_SEEDS]

    full_coverage_seeds = sum(1 for c in adaptive_cov if c == 1.0)
    mean_tv = float(np.mean(adaptive_tv))
    ok_a = full_coverage_seeds >= 4 and mean_tv <= 0.15
    ok_b = all(m <= a for m, a in zip(mala_cov, adaptive_cov))
    ok_c = elapsed < 300.0
    _criterion(
        7,
        "N=50000 box benchmark over 5 seeds (adaptive covers, MALA does not exceed it)",
        ok_a and ok_b and ok_c,
        f"adaptive cov={adaptive_cov}, mean tv={mean_tv:.3f}, "
        f"mala cov={mala_cov}, total {elapsed:.0f}s",
    )


def test_criterion_8_reproducibility(tmp_path):
    def make_config(out, seed=33):
        return ExperimentConfig(
            target={"name": "particle_box", "Lx": 1.0, "Ly": 1.0, "nx": 2, "ny": 2},
            samplers=[
                {"name": "adaptive", "eps": 0.05},
                {"name": "mala", "eps": 0.05},
            ],
            n=500,
            burn_in=50,
            chains=2,
            seed=seed,
            init="mode_center",
            outputs=str(tmp_path / out),
            grid_res=16,
            max_lag=50,
        )

    manifests = {
        "a": run_experiment(make_config("a"), workers=1),
        "b": run_experiment(make_config("b"), workers=1),
        "w2": run_experiment(make_config("w2"), workers=2),
    }
    hashes = {k: m["files"] for k, m in manifests.items()}
    identical = hashes["a"] == hashes["b"] == hashes["w2"]
    bytes_equal = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        and (tmp_path / "a" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
        for name in hashes["a"]
        if name.endswith(".csv")
    )
    different_seed = run_experiment(make_config("c", seed=34))["files"] != hashes["a"]
    _criterion(
        8,
        "reruns and worker counts give byte-identical chain CSVs and manifest hashes",
        identical and bytes_equal and different_seed,
        f"{len(hashes['a'])} hashed files",
    )
