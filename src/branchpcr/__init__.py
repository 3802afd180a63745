"""Confidence intervals and simulation for branching amplification processes.

A population of particles grows by random duplication (efficiency lambda_k in
cycle k); each duplication hands the copy its parent's state plus a random
increment with mean mu and variance nu. The package computes certified
envelopes for the moments of sampled states, exact small-instance references,
estimators for mu with finite-population corrections, and reproducible
Monte Carlo simulation.

``import branchpcr`` loads no layer and no numpy: each exported name and each
layer module is imported on first use (PEP 562), so a caller pays only for
the layers it touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the layer module that defines it
_EXPORTS = {
    "EstimateReport": "estimator",
    "chebyshev_interval": "estimator",
    "estimate_report": "estimator",
    "finite_population_bracket": "estimator",
    "point_estimate": "estimator",
    "poisson_interval": "estimator",
    "MMParams": "kinetics",
    "w_bounds": "kinetics",
    "MomentEnvelope": "moments",
    "MutationLaw": "moments",
    "exact_sample_moments": "moments",
    "moment_envelope": "moments",
    "poisson_law": "moments",
    "size_law": "moments",
    "DerivedSequences": "schedule",
    "EfficiencySchedule": "schedule",
    "build_schedule": "schedule",
    "derived_sequences": "schedule",
    "PopulationCapExceeded": "simulator",
    "ProcessSpec": "simulator",
    "enumerate_tiny": "simulator",
    "monte_carlo_moments": "simulator",
    "simulate": "simulator",
}
_LAYERS = ("cli", "estimator", "harmonic", "kinetics", "moments", "schedule", "simulator")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _LAYERS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAYERS))
