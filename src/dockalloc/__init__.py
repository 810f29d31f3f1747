"""dockalloc: dock and bike capacity allocation for bike-share systems.

Estimates censoring-corrected demand rates, prices station configurations
by their expected out-of-stock events, and reallocates docks and bikes by a
provably optimal discrete gradient descent, with scaled and budgeted
variants, and after-the-fact impact estimation.  The independent
verification oracles live in ``dockalloc.oracle`` and the suite that drives
them in ``dockalloc.verify``; neither is imported here.
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
from .instance import InstanceSpec, StationSpec, load_instance, save_instance
from .longrun import DayChain, LongrunCost, day_chain, stationary
from .posterior import (
    ImpactEstimate,
    ObservedDay,
    added_capacity_impact,
    censored_subsequence,
    decreased_capacity_impact,
    posterior_report,
    rebalancing_adjustment,
)
from .scaling import PhasePlan, optimize_scaled
from .udf import (
    CostTable,
    FiniteProfile,
    LazyDailyCost,
    check_multimodular,
    cost_table_from_finite,
    count_stockouts,
    load_cost_table,
    save_cost_table,
)

__version__ = "0.1.0"
