"""The twelve immutable records: constructors, equality and hashing,
immutability, pickling and repr, pinned to what they did as frozen
dataclasses."""

import copy
import pickle

import pytest

from cslab import (
    ConjectureCheck,
    Graph,
    MultiplicityForm,
    Partition,
    PositivityReport,
    SchurCoefficientTrace,
    SpecialRimHookTabloid,
    SuiteReport,
    SweepResult,
    SweepRow,
    SymFunc,
    Witness,
    parse_graph_spec,
    schur_positivity,
)
from cslab.graphs import StablePartitionCount

EDGES = frozenset({(0, 1), (1, 2)})
GRAPH = Graph(3, EDGES, "path:3")
WITNESS = Witness("e", Partition((2, 1)), -1)
REPORT = PositivityReport(GRAPH, "no", None, WITNESS, (("screener", False, "detail"),))

# Each record with a value for every field, in constructor order; the
# fields a call may omit, with their defaults; and one field with a
# different value that must make the record unequal.
RECORDS = [
    (Graph, {"n": 3, "edges": EDGES, "label": "path:3"},
     {"edges": frozenset(), "label": ""}, ("n", 4)),
    (StablePartitionCount, {"type": Partition((2, 1)), "count": 3, "semi_ordered_count": 3},
     {}, ("type", Partition((3,)))),
    (MultiplicityForm, {"pairs": ((2, 1), (1, 2))}, {}, ("pairs", ((2, 2),))),
    (SymFunc, {"basis": "e", "degree": 3, "terms": {Partition((2, 1)): 2}},
     {}, ("basis", "s")),
    (Witness, {"basis": "e", "partition": Partition((2, 1)), "coefficient": -1},
     {}, ("coefficient", -2)),
    (PositivityReport,
     {"graph": GRAPH, "e_positive": "no", "schur_positive": None, "witness": WITNESS,
      "screener_trace": (("screener", False, "detail"),)},
     {"e_positive": None, "schur_positive": None, "witness": None, "screener_trace": ()},
     ("e_positive", "yes")),
    (SweepRow,
     {"param": 4, "e_report": REPORT, "schur_report": None, "error": None,
      "contradiction": False},
     {"error": None, "contradiction": False}, ("param", 5)),
    (SweepResult,
     {"family": "spider:a,2,1", "variable": "a", "lower": 4, "upper": 4,
      "rows": (SweepRow(4, None, None, "bad"),)},
     {}, ("upper", 5)),
    (ConjectureCheck,
     {"conjecture": "sporadic-head", "instances": ("spider:3,2,1",), "counterexamples": (),
      "notes": ("note",)},
     {"notes": ()}, ("counterexamples", ("spider:4,2,1",))),
    (SpecialRimHookTabloid,
     {"shape": Partition((2, 1)), "hooks": (((1, 1), (1, 2)), ((2, 1),)), "content": (2, 1),
      "sign_exponent": 0},
     {}, ("sign_exponent", 1)),
    (SchurCoefficientTrace,
     {"shape": Partition((2, 1)), "tabloids": (((2, 1), 1, 1),), "total": 1},
     {}, ("shape", Partition((3,)))),
    (SuiteReport, {"suite": "wolfe", "seed": 0, "cases": 40, "failures": ()},
     {}, ("seed", 1)),
]

# Recorded from the frozen dataclasses, built from RECORDS' fields; SweepRow's
# contradiction field was added to the record later.
REPRS = {
    Graph: "Graph(n=3, edges=[(0, 1), (1, 2)], label='path:3')",
    StablePartitionCount:
        "StablePartitionCount(type=Partition((2, 1)), count=3, semi_ordered_count=3)",
    MultiplicityForm: "MultiplicityForm(pairs=((2, 1), (1, 2)))",
    SymFunc: "SymFunc(basis='e', degree=3, terms=mappingproxy({Partition((2, 1)): 2}))",
    Witness: "Witness(basis='e', partition=Partition((2, 1)), coefficient=-1)",
    PositivityReport:
        "PositivityReport(graph=Graph(n=3, edges=[(0, 1), (1, 2)], label='path:3'), "
        "e_positive='no', schur_positive=None, "
        "witness=Witness(basis='e', partition=Partition((2, 1)), coefficient=-1), "
        "screener_trace=(('screener', False, 'detail'),))",
    SweepRow:
        "SweepRow(param=4, e_report=PositivityReport(graph=Graph(n=3, edges=[(0, 1), (1, 2)], "
        "label='path:3'), e_positive='no', schur_positive=None, "
        "witness=Witness(basis='e', partition=Partition((2, 1)), coefficient=-1), "
        "screener_trace=(('screener', False, 'detail'),)), schur_report=None, error=None, "
        "contradiction=False)",
    SweepResult:
        "SweepResult(family='spider:a,2,1', variable='a', lower=4, upper=4, "
        "rows=(SweepRow(param=4, e_report=None, schur_report=None, error='bad', "
        "contradiction=False),))",
    ConjectureCheck:
        "ConjectureCheck(conjecture='sporadic-head', instances=('spider:3,2,1',), "
        "counterexamples=(), notes=('note',))",
    SpecialRimHookTabloid:
        "SpecialRimHookTabloid(shape=Partition((2, 1)), hooks=(((1, 1), (1, 2)), ((2, 1),)), "
        "content=(2, 1), sign_exponent=0)",
    SchurCoefficientTrace:
        "SchurCoefficientTrace(shape=Partition((2, 1)), tabloids=(((2, 1), 1, 1),), total=1)",
    SuiteReport: "SuiteReport(suite='wolfe', seed=0, cases=40, failures=())",
}


@pytest.mark.parametrize(
    "cls, fields, defaults, change", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
class TestRecordContract:
    def test_positional_and_keyword_constructors_agree(self, cls, fields, defaults, change):
        record = cls(*fields.values())
        assert cls(**fields) == record
        assert cls(*list(fields.values())[:1], **dict(list(fields.items())[1:])) == record
        for name, value in fields.items():
            assert getattr(record, name) == value

    def test_omitted_fields_take_their_defaults(self, cls, fields, defaults, change):
        required = {name: value for name, value in fields.items() if name not in defaults}
        record = cls(**required)
        assert cls(*required.values()) == record
        for name, value in defaults.items():
            assert getattr(record, name) == value

    def test_bad_calls_are_type_errors(self, cls, fields, defaults, change):
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        with pytest.raises(TypeError):
            cls(**fields, unknown=None)
        with pytest.raises(TypeError):
            cls(fields[first], **fields)
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in fields.items() if name != first})

    def test_equality_and_hash_follow_the_fields(self, cls, fields, defaults, change):
        record, twin = cls(**fields), cls(**fields)
        assert record == twin and not record != twin
        name, other = change
        assert record != cls(**{**fields, name: other})
        assert record != tuple(fields.values())
        if cls is SymFunc:
            # Its terms are a read-only mapping view, which has no hash.
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin)

    def test_fields_refuse_assignment_and_deletion(self, cls, fields, defaults, change):
        record = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(**fields)

    def test_pickle_and_copy_round_trips(self, cls, fields, defaults, change):
        record = cls(**fields)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is cls and back == record
            assert repr(back) == repr(record)
        assert copy.deepcopy(record) == record
        with pytest.raises(AttributeError):
            setattr(back, next(iter(fields)), None)

    def test_repr_is_unchanged(self, cls, fields, defaults, change):
        assert repr(cls(**fields)) == REPRS[cls]


class TestGraphRecord:
    def test_label_is_left_out_of_equality_and_hash(self):
        labelled = Graph(3, EDGES, label="x")
        assert labelled == Graph(3, EDGES)
        assert hash(labelled) == hash(Graph(3, EDGES))
        assert labelled != Graph(3, frozenset({(0, 1)}), label="x")

    def test_edges_normalize_before_comparing(self):
        assert Graph(3, {(1, 0), (2, 1), (0, 1)}) == Graph(3, EDGES)

    def test_repr_with_and_without_a_label(self):
        assert repr(Graph(3, EDGES)) == "Graph(n=3, edges=[(0, 1), (1, 2)])"
        assert repr(Graph(3, EDGES, label="x")) == "Graph(n=3, edges=[(0, 1), (1, 2)], label='x')"


def test_a_computed_report_keeps_its_repr():
    report = schur_positivity(parse_graph_spec("claw"))
    assert repr(report) == (
        "PositivityReport(graph=Graph(n=4, edges=[(0, 3), (1, 3), (2, 3)], label='claw'), "
        "e_positive=None, schur_positive='no', "
        "witness=Witness(basis='s', partition=Partition((2, 2)), coefficient=-1), "
        "screener_trace=(('balanced-stable-bipartition', False, "
        "'class sizes differ by two or more'),))"
    )
