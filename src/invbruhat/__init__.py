"""Bruhat order on involutions of the symmetric group.

Permutation plumbing, the dot-criterion Bruhat order, covering moves on
involutions, saturated chains, fixed-point classes with gradedness and
rank machinery, and EL-labelling verification, plus a CLI front end.
"""

from .perms import (
    Perm,
    compose,
    enumerate_involutions,
    format_perm,
    identity,
    is_involution,
    parse_perm,
    reversal,
    statistics,
)
from .bruhat import PosetView, bruhat_leq, poset_view
from .moves import RiseClass, classify_rise, covers, ct
from .chains import (
    Chain,
    all_saturated_chains,
    decreasing_chain,
    increasing_chain,
)
from .fpclasses import (
    FixedPointSpec,
    enumerate_class,
    gapped_counts_witness,
    is_graded_bruteforce,
    is_graded_rule,
    isolated_count_witness,
    make_spec,
    minimal_elements,
    rank_in_involutions,
    rank_value,
    top_element,
)
from .elshell import (
    ELReport,
    LabelOrder,
    el_check,
    find_escaping_interval,
    fpf_decreasing_chain,
    labelled_class_view,
)

__all__ = [
    "Chain",
    "ELReport",
    "FixedPointSpec",
    "LabelOrder",
    "Perm",
    "PosetView",
    "RiseClass",
    "all_saturated_chains",
    "bruhat_leq",
    "classify_rise",
    "compose",
    "covers",
    "ct",
    "decreasing_chain",
    "el_check",
    "enumerate_class",
    "enumerate_involutions",
    "find_escaping_interval",
    "format_perm",
    "fpf_decreasing_chain",
    "gapped_counts_witness",
    "identity",
    "increasing_chain",
    "is_graded_bruteforce",
    "is_graded_rule",
    "is_involution",
    "isolated_count_witness",
    "labelled_class_view",
    "make_spec",
    "minimal_elements",
    "parse_perm",
    "poset_view",
    "rank_in_involutions",
    "rank_value",
    "reversal",
    "statistics",
    "top_element",
]
