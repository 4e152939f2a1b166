"""Counter automata on infinite words: codings, constructions, certificates."""

from .errors import (ArityError, BuildScaleError, FormatError, FreshLetterError,
                     MachineError, UnderflowError)
from .machines import (BuchiAutomaton, Built, Configuration, CounterMachine,
                       Run, RunStep, RunViolation, Transition, buchi_visit_count,
                       intersect_det_buchi, is_real_time, lambda_burst_bound,
                       lift_run_intersection, lift_run_union, pad_counters,
                       pad_run, step, union, validate_run)
from .words import (Block, BlockDecomposition, CodingSpec, HCoding,
                    HShapeViolation, LassoWord, PhiCoding, ThetaCoding,
                    coded_prefix, h_block_decompose, h_shape_check,
                    lasso_prefix, prime_valuation, theta_extract,
                    theta_positions)
from .storage import (CountedQueue, EncodedStack, add_rear_bound,
                      add_rear_itemized_bound, front_bound, queue_add_rear,
                      queue_empty, queue_front, queue_remove_front, stack_decode,
                      stack_encode, stack_pop, stack_push)
from .engine import (PrefixReach, Witness, bounded_explore, d34_witness_scan,
                     exact_prefix_reach, nba_lasso_member)
from .fileio import (WordSpec, dump_automaton, dump_run, dump_word,
                     load_automaton, load_run, load_word)

__version__ = "0.1.0"
