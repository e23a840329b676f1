"""rlab: exact laws, concentration bounds, and reproducible Monte Carlo for
one-dimensional random walks with deterministic step sizes and fair signs.

Every name below resolves on first access (PEP 562), so `import rlab` loads
no engine: a command pays only for the layers it runs, and mpmath, the Monte
Carlo layer and the verify suites load only where they are used.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name; `__all__` and `dir()` read it too
_EXPORTS = {
    "errors": ("ConfigurationError", "DomainError", "InfeasibleError", "RlabError"),
    "sequences": ("SequenceCounts", "StepSequenceSpec", "check_ints_conditions",
                  "check_sparse_conditions", "generate", "log_power_counts",
                  "log_power_ratio_bounds", "log_power_ratio_window",
                  "recurrence_event_window", "sqrt_block_start", "sqrt_block_window",
                  "value_counts"),
    "exact": ("ConcentrationQuery", "ExactPMF", "ModularPMF", "SummaryMoments",
              "abs_tail_prob", "concentration_q", "convolve", "modular_walk_pmf",
              "pmf_from_atoms", "q1_profile", "summary_moments", "tail_prob",
              "walk_pmf"),
    "bounds": ("BoundReport", "ExponentQuery", "anti_exponent_f", "branch_boundary",
               "combine_scales_rhs", "cosine_product_bound", "elo_bound",
               "hoeffding_tail", "kochen_stone_ratio", "local_clt_approx",
               "lower_anti_floor", "make_report", "modular_elo_bound",
               "rademacher_point_mass"),
    "mc": ("CoupledPair", "FitResult", "McRunManifest", "Q1Estimate", "RecurrenceStats",
           "TwoDEmbedding", "block_pair_trace", "embed_2d", "estimate_interval_hits",
           "estimate_q1", "fit_exponent", "kochen_stone_estimate", "replay_final_gap",
           "simulate_coupling", "simulate_walk"),
    "verify": ("SUITES", "VerifySuiteResult", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
# submodules that resolve as attributes after a bare `import rlab`, as `rlab.mc`
_SUBMODULES = (*_EXPORTS, "streams")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
