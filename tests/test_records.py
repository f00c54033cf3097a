"""The nine result types are frozen records (`words._Record`).

They were ``@dataclass(frozen=True)`` classes.  Each test pins one behaviour
the dataclasses had, against values taken from them: construction, the
`__post_init__` checks, repr, equality, hashing, immutability, pickling and
copying.  Hash literals are pinned only for records of ints, whose hash does
not change from one process to the next.
"""

import copy
import pickle

import pytest

from ncposet import (
    CoconnectionReport,
    CoefficientTable,
    HasseGraph,
    IdealGens,
    LawCheck,
    OrderValidationReport,
    PosetHandle,
    StabilityCheck,
    TermOrderSpec,
    check_coconnection,
    hasse,
    ideal_member,
    is_strongly_stable,
    minimalize,
    parse_order_spec,
    rank_coefficients,
    validate_order,
    words,
)

TYPES = (
    CoconnectionReport, CoefficientTable, HasseGraph, IdealGens, LawCheck,
    OrderValidationReport, PosetHandle, StabilityCheck, TermOrderSpec,
)


def _records():
    """One record of each type, and its repr under the dataclasses."""
    laws = (
        "(LawCheck(law='abelianize-monotone', checked=5, witness=None), "
        "LawCheck(law='sort-monotone', checked=5, witness=None), "
        "LawCheck(law='word-roundtrip-ascends', checked=4, witness=None), "
        "LawCheck(law='monomial-roundtrip-identity', checked=4, witness=None))"
    )
    return [
        (PosetHandle("nc", 3), "PosetHandle(family='nc', n=3)"),
        (TermOrderSpec("weight_deg", [1, 2, 3]),
         "TermOrderSpec(kind='weight_deg', weights=(1, 2, 3))"),
        (hasse(PosetHandle("p", 2), 1),
         "HasseGraph(family='p', n=2, max_rank=1, vertices=(((), 0, ()), ((1,), 1, (1,))), "
         "labels=('1', 'x1'), edges=((0, 1),))"),
        (hasse(PosetHandle("comm", 2), 1),
         "HasseGraph(family='comm', n=2, max_rank=1, vertices=(({}, 0, ()), ({1: 1}, 1, (1,))), "
         "labels=('1', 'x1'), edges=((0, 1),))"),
        (IdealGens(2, [(1, 1)]), "IdealGens(n=2, gens=((1, 1),))"),
        (is_strongly_stable(IdealGens(2, [(2,)]), 2),
         "StabilityCheck(rank_bound=2, window_closed=True, window_witness=None, "
         "generators_closed=True, generator_witness=None)"),
        (validate_order(parse_order_spec("deglex"), 2, 2),
         "OrderValidationReport(spec=TermOrderSpec(kind='deg_left_lex', weights=None), n=2, "
         "max_degree=2, is_total=True, one_minimal=True, is_multiplicative=True, "
         "is_standard=True, is_sorted=False, is_degree_compatible=True, "
         "witnesses={'sorted': ((2, 1), (1, 2))})"),
        (check_coconnection(2, 2), f"CoconnectionReport(n=2, max_rank=2, laws={laws})"),
        (LawCheck("sort-monotone", 5), "LawCheck(law='sort-monotone', checked=5, witness=None)"),
        (rank_coefficients(3, 2), "CoefficientTable(n=2, coefficients=(1, 1, 2, 3))"),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record, _ in RECORDS]


def test_the_nine_types_are_the_records():
    assert {*words._Record.__subclasses__()} == {*TYPES}
    assert {type(record) for record, _ in RECORDS} == {*TYPES}
    assert not any(hasattr(cls, "__dataclass_fields__") for cls in TYPES)


def test_fields_are_the_annotations_in_order():
    assert PosetHandle._fields == PosetHandle.__match_args__ == ("family", "n")
    assert OrderValidationReport._fields[-1] == "witnesses"
    assert "_lookup" not in IdealGens._fields


def test_construction_by_position_and_keyword_with_defaults():
    assert PosetHandle("q") == PosetHandle(family="q") == PosetHandle("q", None)
    assert PosetHandle(n=2, family="q") == PosetHandle("q", 2) == PosetHandle("q", n=2)
    assert LawCheck("law", 1).witness is None
    assert CoefficientTable(n=None, coefficients=(1,)).coefficients == (1,)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # missing
    ((), {"n": 2}),  # missing, with a default given
    (("nc",), {"m": 2}),  # unknown
    (("nc", 2), {"m": 2}),  # unknown, all fields given
    (("nc",), {"family": "q"}),  # repeated
    (("nc", 2, 3), {}),  # too many
])
def test_a_missing_unknown_or_repeated_argument_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        PosetHandle(*args, **kwargs)


def test_post_init_still_runs():
    with pytest.raises(ValueError, match="unknown poset family"):
        PosetHandle("zz")
    with pytest.raises(ValueError, match="unknown poset family"):
        PosetHandle(family="zz", n=2)
    with pytest.raises(ValueError, match="takes no weights"):
        TermOrderSpec("deg_left_lex", (1,))
    with pytest.raises(ValueError, match="not an antichain"):
        IdealGens(2, [(1,), (1, 1)])
    assert TermOrderSpec("weight_deg", [1, 2]).weights == (1, 2)
    assert IdealGens(2, [[2, 1]]).gens == ((2, 1),)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


def test_equality_compares_fields_within_one_class():
    assert PosetHandle("nc", 3) == PosetHandle("nc", 3)
    assert PosetHandle("nc", 3) != PosetHandle("nc", 2)
    assert PosetHandle("nc", 3) != ("nc", 3)
    assert PosetHandle("nc", 3).__eq__(("nc", 3)) is NotImplemented
    assert IdealGens(2, ((1,),)) != CoefficientTable(2, ((1,),))


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(PosetHandle("nc", 3)) == hash(("nc", 3))
    assert hash(TermOrderSpec("deg_left_lex")) == hash(("deg_left_lex", None))
    # records of ints hash alike in every process; the values are the dataclasses'
    assert hash(IdealGens(2, ((1, 1),))) == -6412788314914267886
    assert hash(CoefficientTable(2, (1, 1, 2, 3))) == 4559071018773532607


def test_witnesses_are_compared_but_not_hashed():
    report = validate_order(parse_order_spec("deglex"), 2, 2)
    values = [getattr(report, name) for name in OrderValidationReport._fields]
    other = OrderValidationReport(*values[:-1], {"other": ()})
    assert hash(other) == hash(report) == hash(tuple(values[:-1]))
    assert other != report
    assert OrderValidationReport(*values) == report


def test_a_comm_graph_does_not_hash():
    graph = hasse(PosetHandle("comm", 2), 1)
    with pytest.raises(TypeError):
        hash(graph)
    assert graph == hasse(PosetHandle("comm", 2), 1)


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_setting_or_deleting_an_attribute_raises(record, _):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = None


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, _):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_a_minimalized_ideal_is_the_constructed_one():
    built, found = IdealGens(2, ((1, 1),)), minimalize([(1, 1)], 2)
    assert found == built and hash(found) == hash(built)
    assert ideal_member((1, 1, 2), found) and ideal_member((2, 1, 1), built)
    # the generator lookup is cached on the instance, outside the fields
    assert "_lookup" in vars(found) and "_lookup" in vars(built)
    assert found == built and hash(found) == hash(built) == hash((2, ((1, 1),)))
    assert repr(found) == "IdealGens(n=2, gens=((1, 1),))"
    assert pickle.loads(pickle.dumps(found)) == built


def test_equal_specs_share_one_certifier_report():
    first, second = parse_order_spec("weight:1,2,3"), parse_order_spec("weight:1,2,3")
    assert first is not second and first == second
    assert validate_order(first, 2, 2) == validate_order(second, 2, 2)
    assert len(words._REPORTS) == 1
