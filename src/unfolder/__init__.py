"""Linear iterative unfolding of histogrammed distributions.

Measured spectra are smeared by detector response; recovering the original
distribution is an ill-posed inverse problem.  This package solves it with a
damped fixed-point iteration whose only regularization parameter is the
stopping order: the bias of the estimate falls with the order while the
propagated statistical and systematic errors grow, and stopping at the
trade-off gives an estimate with a fully quantified error budget.

Main entry points:

* :class:`Histogram` / :class:`Axis` - binned data with error vectors;
* :class:`ResponseMatrix` - discretized folding operators, from an analytic
  kernel or from Monte Carlo (true, measured) pairs;
* :func:`run` with a :class:`StoppingPolicy` - the unfolding itself;
* :func:`naive_invert` - the unregularized baseline for comparison;
* :mod:`unfolder.simulate` - synthetic scenarios and pseudo-experiments.

Public names are resolved on first use (PEP 562), so ``import unfolder``
does not load numpy until one of them is needed.
"""

__version__ = "0.1.0"

__all__ = [
    "Axis", "Histogram", "l1_distance", "normalize", "rebin_axes",
    "ResponseMatrix", "compute_k", "read_pairs_csv", "write_pairs_csv",
    "IterateState", "ErrorBudget", "StoppingPolicy", "UnfoldResult",
    "init", "step", "run", "bias_bound", "syst_bound", "stat_summary",
    "covariance_sqrt", "harmonic_number", "l2_density_norm",
    "naive_invert", "kernel_projection", "kernel_projector", "condition_number",
    "Scenario", "CauchyTruth", "GaussianTruth", "PowerlawTruth",
    "GaussianSmearing", "CalorimeterSmearing", "GenerateResult",
    "EnsembleStats", "generate", "pseudo_experiments",
    "UnfoldingError", "DimensionError", "NormalizationError",
    "InvalidKernelError", "ConstructionError", "DegenerateOperatorError",
    "DecompositionError", "NumericalFailureError", "ParameterError", "ConfigError",
    "__version__",
]


def _public_names():
    from .baseline import condition_number, kernel_projection, kernel_projector, naive_invert
    from .errors import (ConfigError, ConstructionError, DecompositionError,
                         DegenerateOperatorError, DimensionError, InvalidKernelError,
                         NormalizationError, NumericalFailureError, ParameterError,
                         UnfoldingError)
    from .histogram import Axis, Histogram, l1_distance, normalize, rebin_axes
    from .response import ResponseMatrix, compute_k, read_pairs_csv, write_pairs_csv
    from .simulate import (CalorimeterSmearing, CauchyTruth, EnsembleStats,
                           GaussianSmearing, GaussianTruth, GenerateResult,
                           PowerlawTruth, Scenario, generate, pseudo_experiments)
    from .unfold import (ErrorBudget, IterateState, StoppingPolicy, UnfoldResult,
                         bias_bound, covariance_sqrt, harmonic_number, init,
                         l2_density_norm, run, stat_summary, step, syst_bound)
    return locals()


def __getattr__(name):
    # runs once: afterwards every public name is a module global, which
    # attribute lookup finds before it falls back to this hook
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(_public_names())
    return globals()[name]


def __dir__():
    return __all__
