"""dockalloc: dock and bike capacity allocation for bike-share systems.

Estimates censoring-corrected demand rates, prices station configurations
by their expected out-of-stock events, and reallocates docks and bikes by a
provably optimal discrete gradient descent, with scaled and budgeted
variants, independent verification oracles, and after-the-fact impact
estimation.
"""

from .allocator import (
    Allocation,
    Constraints,
    DockMove,
    LogEntry,
    OptimizeResult,
    PhaseStats,
    TradeoffResult,
    bike_optimal,
    dock_move_distance,
    optimize,
    optimize_tradeoff,
)
from .demand import (
    Horizon,
    PoissonProfile,
    estimate_rates,
    load_profiles,
    load_status_csv,
    load_trips_csv,
    save_profiles,
)
from .errors import CapacityLimitError, InfeasibleError, ValidationError
from .longrun import DayChain, LongrunCost, day_chain, stationary
from .oracle import (
    InstanceSpec,
    StationSpec,
    brute_force_optimum,
    brute_force_tradeoff,
    counterexample_fixtures,
    load_instance,
    random_instance,
    save_instance,
    simulate_cost,
    synthetic_scenario,
)
from .posterior import (
    ImpactEstimate,
    ObservedDay,
    added_capacity_impact,
    censored_subsequence,
    decreased_capacity_impact,
    posterior_report,
    rebalancing_adjustment,
)
from .scaling import PhasePlan, optimize_scaled, optimize_scaled_constrained
from .udf import (
    CostTable,
    FiniteProfile,
    LazyDailyCost,
    check_multimodular,
    cost_table_from_finite,
    count_stockouts,
    interval_cost_poisson,
    load_cost_table,
    save_cost_table,
)
from .verify import run_verification

__version__ = "0.1.0"
