"""rlab: exact laws, concentration bounds, and reproducible Monte Carlo for
one-dimensional random walks with deterministic step sizes and fair signs."""

__version__ = "0.1.0"

from .errors import ConfigurationError, DomainError, InfeasibleError, RlabError
from .sequences import (SequenceCounts, StepSequenceSpec, check_ints_conditions,
                        check_sparse_conditions, generate, log_power_counts,
                        log_power_ratio_bounds, log_power_ratio_window,
                        recurrence_event_window, sqrt_block_start,
                        sqrt_block_window, value_counts)
from .exact import (ConcentrationQuery, ExactPMF, ModularPMF, SummaryMoments,
                    abs_tail_prob, concentration_q, convolve, modular_walk_pmf,
                    pmf_from_atoms, q1_profile, summary_moments, tail_prob,
                    walk_pmf)
from .bounds import (BoundReport, ExponentQuery, anti_exponent_f,
                     branch_boundary, combine_scales_rhs, cosine_product_bound,
                     elo_bound, hoeffding_tail, kochen_stone_ratio,
                     local_clt_approx, lower_anti_floor, make_report,
                     modular_elo_bound, rademacher_point_mass)
from .mc import (CoupledPair, FitResult, McRunManifest, Q1Estimate,
                 RecurrenceStats, TwoDEmbedding, block_pair_trace, embed_2d,
                 estimate_interval_hits, estimate_q1, fit_exponent,
                 kochen_stone_estimate, replay_final_gap, simulate_coupling,
                 simulate_walk)
from .verify import SUITES, VerifySuiteResult, run_suite
