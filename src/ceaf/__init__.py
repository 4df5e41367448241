"""Solver library for coalition profitability and formability over
capacity-weighted argumentation frameworks with group attacks.

``import ceaf`` loads no submodule: each public name is imported from its
defining module when first used (PEP 562), so a caller pays only for the
modules it touches.  The vocabularies below are the one definition the
modules and the command-line parser share.
"""

from importlib import import_module

SIZE_LIMIT_DEFAULT = 16
FORMABILITY_KINDS = ("W", "M", "WS", "S")
FEWER_BASES = ("own", "shared")
NP_KINDS = ("conflict-free", "admissible", "preferred")

_EXPORTS = {
    "core": "Arg Framework NotConflictEliminable SizeLimitExceeded StrengthModel "
    "ValidationReport Violation instantiated_closure validate_axioms validate_coherent",
    "semantics": "View attacks c_attacks c_defeats defeats enumerate_c_admissible "
    "enumerate_c_preferred enumerate_conflict_eliminable intrinsic is_c_admissible "
    "is_conflict_eliminable max_attack_strength view",
    "coalition": "FormabilityResult ProfitVerdict StateRank attackers coalition_permitted "
    "crit_leq formability is_continuous is_one_directionally_attacked is_weakly_continuous "
    "max_profitable max_sets pref_supersets profitable state_leq state_rank undefeated_external",
    "npreduction": "NPFramework check_reduction np_attacks np_minimal np_semantics to_np",
    "oracle": "RandomModelSpec TheoremReport check_theorem generate_random",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_HOME, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
