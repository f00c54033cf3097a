"""The package surface: each library module's `__all__`, re-exported once."""

import pkgutil

import pytest

import ncposet
from ncposet import (
    commutative,
    errors,
    ideals,
    ncorder,
    posets,
    series,
    termorders,
    variants,
    words,
)

MODULES = (commutative, errors, ideals, ncorder, posets, series, termorders, variants, words)

SURFACE = [
    "CoconnectionReport", "CoefficientTable", "CommMonomial", "DEFAULT_LIMIT",
    "DEG_LEFT_LEX", "DEG_RIGHT_LEX", "EQ", "FAMILIES", "GT", "HasseGraph",
    "INCOMPARABLE", "IdealGens", "LT", "LawCheck", "LimitError", "MultiRank",
    "OrderValidationReport", "ParseError", "Partition", "PosetHandle",
    "StabilityCheck", "TermOrderSpec", "Word", "abelianize", "canonical_key",
    "check_coconnection", "comm_leq", "comm_leq_oracle", "compare",
    "contains_poset", "covers_down", "covers_up", "degree", "enumerate_by_rank",
    "format_monomial", "format_multirank", "format_word", "from_partition",
    "hasse", "ideal_member", "is_factor", "is_strongly_stable", "leq",
    "minimalize", "monomial_canonical_key", "monomial_product", "monomial_rank",
    "monomials_up_to_rank", "multirank", "nc_leq", "nc_leq_oracle",
    "normalize_monomial", "order_compare", "p_leq", "parse_monomial",
    "parse_order_spec", "parse_word", "principal_down_set", "q_leq",
    "raise_letter", "rank", "rank_coefficients", "sort_word", "sorted_form",
    "strongly_stable_closure", "to_partition", "validate_order", "walk",
    "weight_deg", "words_of_degree", "words_up_to_degree", "words_up_to_rank",
]


def test_surface_is_pinned():
    assert len(SURFACE) == 72
    assert sorted(ncposet.__all__) == SURFACE


def test_every_library_module_is_re_exported():
    # the command line and the entry point export nothing
    found = {m.name for m in pkgutil.iter_modules(ncposet.__path__)} - {"cli", "__main__"}
    assert found == {m.__name__.rpartition(".")[2] for m in MODULES}


def test_no_name_is_exported_by_two_modules():
    # a star import would let the later module shadow the earlier one silently
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: found for name, found in owners.items() if len(found) > 1} == {}


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_names_reach_the_package(module):
    for name in module.__all__:
        assert name in vars(module), name
        assert getattr(ncposet, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_surface():
    namespace = {}
    exec("from ncposet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == SURFACE
