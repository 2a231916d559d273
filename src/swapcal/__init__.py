"""Online swap-multicalibration engines for elicitable properties.

The package splits into small layers:

    properties   identification residuals, label laws, assumption checks
    hypotheses   contexts, test functions, per-bin supremum correlations
    experts      two-layer expert subroutine (second-order regret)
    learners     banks of online agnostic learners (finite MWU, unit-ball OGD)
    engine       the two forecasters and their round machinery
    metrics      cal / mcal / smcal computed exactly from transcripts
    adversaries  stochastic and history-adaptive stream generators
    harness      seeded runs, sweeps with rate fits, hedging audits
    cli          `swapcal run | sweep | audit | metrics`
"""

from .adversaries import BetaAdversary, DeficitAdversary, LogisticAdversary, sample_label
from .engine import (
    EfficientForecaster,
    GridConfig,
    InefficientForecaster,
    default_bin_count,
    gains_efficient,
    gains_inefficient,
    phi_from_class,
    phi_from_learners,
    sample_and_round,
    solve_distribution,
)
from .experts import ExpertState, expert_init, expert_update, expert_weights
from .harness import (
    ExperimentConfig,
    audit_result,
    audit_run_dir,
    component_streams,
    fit_power_law,
    run,
    sweep,
)
from .hypotheses import (
    ConstantOne,
    Context,
    GroupIndicator,
    HypothesisClass,
    TestFunction,
    generate_group_indicators,
    parse_class,
    sup_correlation,
)
from .learners import FiniteLearnerBank, LinearLearnerBank
from .metrics import BinAggregate, Transcript, aggregate, cal, mcal, mcal_is_exact, smcal
from .properties import (
    AssumptionReport,
    LabelLaw,
    Property,
    bernoulli_law,
    beta_law,
    check_assumption,
    eval_identification,
    expectile_property,
    identification_values,
    marginal_identification,
    mean_property,
    parse_property,
    point_mass_law,
    quantile_property,
    raw_moment_property,
)

__version__ = "0.1.0"
