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

Public names are resolved on first use (PEP 562), and each loads only the
module that defines it, so ``import unfolder`` does not load numpy until a
name that needs it is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# the one list of public names, by the module that defines them
_NAMES = {
    "errors": ("UnfoldingError", "DimensionError", "NormalizationError", "InvalidKernelError",
               "ConstructionError", "DegenerateOperatorError", "DecompositionError",
               "NumericalFailureError", "ParameterError", "ConfigError"),
    "histogram": ("Axis", "Histogram", "l1_distance", "normalize", "rebin_axes"),
    "response": ("ResponseMatrix", "compute_k", "read_pairs_csv", "write_pairs_csv"),
    "unfold": ("IterateState", "ErrorBudget", "StoppingPolicy", "UnfoldResult", "init",
               "step", "run", "bias_bound", "syst_bound", "stat_summary", "covariance_sqrt",
               "harmonic_number", "l2_density_norm"),
    "baseline": ("naive_invert", "kernel_projection", "kernel_projector", "condition_number"),
    "simulate": ("Scenario", "CauchyTruth", "GaussianTruth", "PowerlawTruth",
                 "GaussianSmearing", "CalorimeterSmearing", "GenerateResult", "EnsembleStats",
                 "generate", "pseudo_experiments"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    # a submodule becomes a global when it is imported, and so does every
    # public name of the module loaded here: attribute lookup finds a
    # global before it falls back to this hook
    module = name if name in _NAMES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f"{__name__}.{module}")
    globals().update({n: getattr(loaded, n) for n in _NAMES[module]})
    return globals()[name]


def __dir__():
    return __all__
