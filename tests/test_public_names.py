"""The public surface, spelled out: the names `omegacount` exports and
`omegacount.constructions.__all__`.  A name added or dropped fails here,
so the surface changes only on purpose, with this list."""

import types

import omegacount
import omegacount.constructions as constructions

PACKAGE = [
    "ArityError", "Block", "BlockDecomposition", "BuchiAutomaton",
    "BuildScaleError", "Built", "CodingSpec", "Configuration", "CountedQueue",
    "CounterMachine", "EncodedStack", "FormatError", "FreshLetterError",
    "HCoding", "HShapeViolation", "LassoWord", "MachineError", "PhiCoding",
    "PrefixReach", "Run", "RunStep", "RunViolation", "ThetaCoding",
    "Transition", "UnderflowError", "Witness", "WordSpec", "add_rear_bound",
    "add_rear_itemized_bound", "bounded_explore", "buchi_visit_count",
    "coded_prefix", "d34_witness_scan", "dump_automaton", "dump_run",
    "dump_word", "exact_prefix_reach", "front_bound", "h_block_decompose",
    "h_prefix", "h_shape_check", "intersect_det_buchi", "is_real_time",
    "lambda_burst_bound", "lasso_prefix", "lift_run_intersection",
    "lift_run_union", "load_automaton", "load_run", "load_word",
    "nba_lasso_member", "pad_counters", "pad_run", "phi_prefix",
    "prime_valuation", "queue_add_rear", "queue_empty", "queue_front",
    "queue_remove_front", "stack_decode", "stack_encode", "stack_pop",
    "stack_push", "stack_top", "step", "theta_extract", "theta_positions",
    "theta_prefix", "union", "validate_run",
]

CONSTRUCTIONS = [
    "BlockSpan", "RunCertificate",
    "build_theta_acceptor",
    "theta_certificate",
    "build_d1", "build_d2", "build_d3", "build_d4", "build_h_complement",
    "build_script_l_guard", "build_script_L", "covered_prefix_length",
    "lift_run_script_L", "project_run_script_L",
    "build_phi_wrapper", "lift_run_phi",
    "build_realtime8", "checked_pad_factor", "lift_run_theta",
    "realtime8_pad_factor", "theta_walk_length",
    "PipelineOutput", "compose_pipeline", "lift_run_pipeline",
    "wadge_sum",
]


def _exported(module) -> list[str]:
    """The module's public names other than its submodules, sorted."""
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def test_the_package_exports_exactly_its_listed_names():
    assert _exported(omegacount) == PACKAGE


def test_constructions_exports_exactly_its_listed_names():
    assert constructions.__all__ == CONSTRUCTIONS
    assert _exported(constructions) == sorted(CONSTRUCTIONS)
