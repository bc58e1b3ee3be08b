"""Search-space pruning for parameter-exploration experiments.

Learns cheap surrogates from evaluated jobs, matches them against a
knowledge base of previous experiments via normalized cross-correlation,
and prunes non-promising parameter values before spending more budget.
"""

from .space import (ExperimentRecord, Job, ParamDomain, Point, SearchSpace,
                    SpaceError, enumerate_points, feasible_size, space_size,
                    validate_point)
from .surrogate import Surrogate, fit
from .matcher import MatchResult, n_corr, pairwise_best_correlations, select_previous
from .pruner import AUTO, PruneConfig, PruneOutcome, prune, reduction_fraction
from .variogram import Variogram, empirical_variogram, suggest_aggressiveness
from .optimizers import PsoOptimizer, SaOptimizer, create_optimizer
from .orchestrator import AppCommand, RunConfig, RunReport, resolve_budget, run
from .kbstore import KbEntry, load_kb, save, save_record
from .bench import (LandscapeFamily, confidence_interval, generate_family,
                    percent_diff, preset_family, run_study)

__version__ = "0.1.0"
