"""Adaptive-scale Langevin MCMC with MALA and HMC baselines.

Targets expose log densities and gradients, samplers advance ChainStates
from per-chain deterministic random streams, and the diagnostics quantify
mixing against the analytic box density. The `amala` CLI drives seeded,
reproducible experiments from a JSON config.

The package exports what a library user needs to run and score a chain;
everything else is importable from its submodule (amala.samplers,
amala.rng, amala.targets, amala.diagnostics, amala.cli).
"""

from .diagnostics import build_report
from .samplers import run_chain
from .targets import GaussianMixture, ParticleBox2D, standard_normal

__all__ = [
    "GaussianMixture",
    "ParticleBox2D",
    "build_report",
    "run_chain",
    "standard_normal",
]

__version__ = "0.1.0"
