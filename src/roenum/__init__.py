"""Random-order enumeration for self-reducible search problems."""

from .exact import SparsePermutation, ara_enumerate, raccess
from .fptas import aia_enumerate, bernoulli_less, fptas_trie
from .fpras import PrefixDictionary, axa_enumerate, fpras_trie
from .parallel import (ParallelResult, RangeAssignment, master_phase1,
                       prefill_target, run_parallel, slave_session)
from .problem import (BudgetExceeded, SelfReducibleProblem,
                      brute_force_solutions, verify_self_reducibility)
from .problems import (AllBitstrings, Knapsack, KnapsackInstance,
                       SimulatedOracleConfig, SimulatedOracles,
                       generate_knapsack)
from .record import EmissionRecord
from .swor import swor_enumerate
from .trie import SelfReductionTrie

__all__ = [
    "AllBitstrings", "BudgetExceeded", "EmissionRecord",
    "Knapsack", "KnapsackInstance", "ParallelResult",
    "PrefixDictionary", "RangeAssignment", "SelfReducibleProblem",
    "SelfReductionTrie", "SimulatedOracleConfig", "SimulatedOracles",
    "SparsePermutation", "aia_enumerate", "ara_enumerate",
    "axa_enumerate", "bernoulli_less", "brute_force_solutions",
    "fpras_trie", "fptas_trie", "generate_knapsack", "master_phase1",
    "prefill_target", "raccess", "run_parallel", "slave_session",
    "swor_enumerate", "verify_self_reducibility",
]
