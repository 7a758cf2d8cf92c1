"""Benchmark workloads: experiment configs generated from (workload, seed).

Each workload stresses a different layer of amala:

- ``box_compare`` is ``configs/benchmark.json``: the (2,2) particle box with
  adaptive, MALA and HMC, one chain each. The samplers and the scalar
  target path do most of the work; HMC alone is most of the wall time.
- ``mix_chains`` is a bimodal diagonal Gaussian mixture in d = 4 with eight
  chains per sampler on two workers. The numpy mixture path of the targets
  dominates, and it is the only workload that runs the CLI process pool.
- ``gauss_hd`` is a standard normal in d = 32. Each step draws 32
  Box-Muller normals, so the RNG dominates, and chain CSV rows are wide.
  It is where the adaptive kernel's bias on E[x^2] shows clearly. It runs
  on request but is not in BENCHMARK.json: a run of box_compare needs three
  full commands (about 70 s on a 2-vCPU host), which leaves the
  benchmark's time budget no room for a third workload.

The seed is the only input that varies between runs of one workload; it
becomes the experiment's chain seed.
"""

import copy

import numpy as np

BOX_COMPARE = {
    "target": {"name": "particle_box", "Lx": 1.0, "Ly": 1.0, "nx": 2, "ny": 2, "gmax": 1e6},
    "samplers": [
        {"name": "adaptive", "eps": 0.03},
        {"name": "mala", "eps": 0.03},
        {"name": "hmc", "eps_leap": 0.05, "n_leap": 20},
    ],
    "n": 50000,
    "burn_in": 1000,
    "chains": 1,
    "init": "mode_center",
    "grid_res": 32,
    "max_lag": 200,
}

MIX_CHAINS = {
    "target": {
        "name": "gauss_mix",
        "components": [
            {"weight": 0.3, "mean": [-1.0] * 4, "variance": [0.5] * 4},
            {"weight": 0.7, "mean": [1.0] * 4, "variance": [1.0] * 4},
        ],
    },
    "samplers": [{"name": "adaptive", "eps": 0.6}, {"name": "mala", "eps": 0.6}],
    "n": 5000,
    "burn_in": 500,
    "chains": 8,
    "init": "mode_center",
    "grid_res": 32,
    "max_lag": 200,
}

GAUSS_HD = {
    "target": {
        "name": "gauss_mix",
        "components": [{"weight": 1.0, "mean": [0.0] * 32, "variance": [1.0] * 32}],
    },
    "samplers": [{"name": "adaptive", "eps": 0.8}, {"name": "mala", "eps": 0.8}],
    "n": 10000,
    "burn_in": 1000,
    "chains": 2,
    "init": "mode_center",
    "grid_res": 32,
    "max_lag": 200,
}

# workload name -> (config without seed/outputs, CLI --workers)
WORKLOADS = {
    "box_compare": (BOX_COMPARE, 1),
    "mix_chains": (MIX_CHAINS, 2),
    "gauss_hd": (GAUSS_HD, 1),
}

SEED_MAX = (1 << 64) - 1


def make_config(workload: str, seed: int) -> tuple[dict, int]:
    """Experiment config and worker count for one (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if not 0 <= seed <= SEED_MAX:
        raise ValueError("seed must be an unsigned 64-bit integer")
    base, workers = WORKLOADS[workload]
    config = copy.deepcopy(base)
    config["seed"] = seed
    config["outputs"] = "out"
    return config, workers


def mixture_moments(target_cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-dimension E[x] and E[x^2] of a diagonal ``gauss_mix`` target.

    With normalized weights w_k, means m_k and variances v_k:
    E[x_j] = sum_k w_k m_kj and E[x_j^2] = sum_k w_k (v_kj + m_kj^2).
    """
    if target_cfg.get("name") != "gauss_mix":
        raise ValueError("moments are only defined for gauss_mix targets")
    comps = target_cfg["components"]
    w = np.array([float(c["weight"]) for c in comps])
    w = w / w.sum()
    mean = np.array([c["mean"] for c in comps], dtype=float)
    var = np.array([c["variance"] for c in comps], dtype=float)
    return w @ mean, w @ (var + mean * mean)
