"""Community detection on multigraphs via cooperative games.

Two engines over a shared partition substrate: Myerson-value best
response on a path-discounted coalition worth, and hedonic better
response on symmetric pair values (alpha model and modularity family).
All game arithmetic is exact (fractions), so stability thresholds and
sweep breakpoints come out as exact rationals.

The reference paths that tests compare the engines against live in
coopgraph.reference; their names here, and in the modules they came
from, load that module on first use.
"""

from .errors import EdgeListError, PartitionError, SizeGateError, _reference_hook
from .multigraph import (
    Multigraph,
    NodePathProfile,
    PathProfile,
    coalition_path_counts,
    connected_components,
    induced_subgraph,
    node_path_counts,
    parse_edge_list,
    serialize_edge_list,
)
from .partition import (
    CAP_REACHED,
    CYCLE_DETECTED,
    GREEDY_BEST,
    ROUND_ROBIN,
    SEEDED_RANDOM,
    STABLE,
    Move,
    Partition,
    Schedule,
    Trace,
    TraceStep,
    canonical_form,
)
from .myerson import (
    ORACLE_MAX_NODES,
    CharPoly,
    MyersonModel,
    characteristic_value,
    component_characteristic,
    external_stability_check,
    myerson_allocation,
    myerson_better_response,
    myerson_nash_stable,
)
from .hedonic import (
    BRUTEFORCE_MAX_NODES,
    AlphaModel,
    HedonicModel,
    Modularity,
    Potential,
    SweepRow,
    SweepTable,
    alpha_sweep,
    better_response,
    nash_stable,
    partition_threshold,
    potential,
    potential_form,
)
from .datasets import (
    dataset_info,
    dataset_names,
    example2_clique_partition,
    karate_split_15_19,
    karate_split_16_18,
    karate_split_17_17,
    load_dataset,
)

__version__ = "0.1.0"

__getattr__ = _reference_hook(
    __name__, "apply_move", "enumerate_deviations", "run_dynamics", "geodesic_profile", "pair_value",
    "move_gain", "iter_set_partitions", "bruteforce_max_partition", "myerson_shapley_oracle", "myerson_gain",
)

__all__ = [
    "EdgeListError",
    "PartitionError",
    "SizeGateError",
    "Multigraph",
    "PathProfile",
    "NodePathProfile",
    "parse_edge_list",
    "serialize_edge_list",
    "induced_subgraph",
    "connected_components",
    "geodesic_profile",
    "coalition_path_counts",
    "node_path_counts",
    "Partition",
    "Move",
    "Schedule",
    "Trace",
    "TraceStep",
    "apply_move",
    "canonical_form",
    "enumerate_deviations",
    "run_dynamics",
    "ROUND_ROBIN",
    "SEEDED_RANDOM",
    "GREEDY_BEST",
    "STABLE",
    "CAP_REACHED",
    "CYCLE_DETECTED",
    "CharPoly",
    "MyersonModel",
    "characteristic_value",
    "component_characteristic",
    "myerson_allocation",
    "myerson_shapley_oracle",
    "myerson_gain",
    "myerson_better_response",
    "myerson_nash_stable",
    "external_stability_check",
    "ORACLE_MAX_NODES",
    "AlphaModel",
    "Modularity",
    "HedonicModel",
    "Potential",
    "SweepRow",
    "SweepTable",
    "pair_value",
    "potential",
    "potential_form",
    "move_gain",
    "nash_stable",
    "better_response",
    "partition_threshold",
    "alpha_sweep",
    "bruteforce_max_partition",
    "iter_set_partitions",
    "BRUTEFORCE_MAX_NODES",
    "load_dataset",
    "dataset_names",
    "dataset_info",
    "example2_clique_partition",
    "karate_split_15_19",
    "karate_split_16_18",
    "karate_split_17_17",
]
