"""Solver library for coalition profitability and formability over
capacity-weighted argumentation frameworks with group attacks."""

from .core import (
    Arg,
    Framework,
    NotConflictEliminable,
    SizeLimitExceeded,
    StrengthModel,
    ValidationReport,
    Violation,
    instantiated_closure,
    validate_axioms,
    validate_coherent,
)
from .semantics import (
    View,
    attacks,
    c_attacks,
    c_defeats,
    defeats,
    enumerate_c_admissible,
    enumerate_c_preferred,
    enumerate_conflict_eliminable,
    intrinsic,
    is_c_admissible,
    is_conflict_eliminable,
    max_attack_strength,
    view,
)
from .coalition import (
    FormabilityResult,
    ProfitVerdict,
    StateRank,
    attackers,
    coalition_permitted,
    crit_leq,
    formability,
    is_continuous,
    is_one_directionally_attacked,
    is_weakly_continuous,
    max_profitable,
    max_sets,
    pref_supersets,
    profitable,
    state_leq,
    state_rank,
    undefeated_external,
)
from .npreduction import (
    NPFramework,
    check_reduction,
    np_attacks,
    np_minimal,
    np_semantics,
    to_np,
)
from .oracle import RandomModelSpec, TheoremReport, check_theorem, generate_random

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
