"""CSMA-SIC: a carrier-sense MAC protocol with successive interference cancellation.

Exact engine (independent-set enumeration, product-form Markov steady state,
capacity region) and a continuous-time protocol simulator with distributed
feasibility checking and gradient rate adaptation, each cross-validating
the other.
"""

from ._kernel import KERNEL_BACKEND
from .phy import (ChannelMatrix, Link, NetworkTopology, Node, PhyConfig,
                  build_channel_matrix, sic_decodable)
from .localstate import (CoeffTable, MissingGainError, TxTable,
                         check_all_feasible, check_feasible, overhear_ack,
                         overhear_cts, overhear_rts, warm_coeff_table)
from .setspace import (CompiledNetwork, EnumerationCapError, FeasibleFamily,
                       LinkSet, capacity_contains, compile_network,
                       enumerate_feasible, eta, is_independent,
                       reachable_subfamily)
from .ctmc import (RateParams, SteadyState, detailed_balance_residual,
                   expected_throughput, global_balance_residual, steady_state)
from .sim import SimConfig, SimStats, Simulator, empirical_throughput, run
from .adapt import AdaptConfig, AdaptTrace, adapt_run, update_rates
from .scenario import Scenario, ScenarioError, dump_scenario, load_scenario

__version__ = "0.1.0"
