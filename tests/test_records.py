"""The eleven record types: construction, equality, hash, repr, read-only
fields and pickling, pinned type by type.

Each case builds one record from its fields in ``__init__`` order and
names what the type promises: which fields take part in equality (and
so in the hash and the repr), its defaults, and its exact repr text.
"""

import copy
import pickle
from typing import NamedTuple

import pytest

from sexakit.corpus import (
    CheckRow,
    ExpectedStep,
    ProcedureSpec,
    ReplayReport,
    TabletProblem,
)
from sexakit.geometry import CanalConstant
from sexakit.procedures import (
    QuadraticProblem,
    Step,
    StepTrace,
    SumDifferenceProblem,
)
from sexakit.sexa import Sexa
from sexakit.units import Dimension, Quantity

NINDAN = Dimension.LENGTH_NINDAN
VOLUME = Dimension.VOLUME_SAR
HALF = Quantity(Sexa("0;30"), NINDAN)
HALF_REPR = ("Quantity(magnitude=Sexa('0;30'), "
             "dim=<Dimension.LENGTH_NINDAN: 'nindan'>)")
STEP = Step("u", Sexa(5))
STEP_REPR = "Step(label='u', value=Sexa('5'), source='derived')"
# Builtins pickle by name and repr without an address.
SPEC = ProcedureSpec("p", ("A",), (), len, max)
SPEC_REPR = ("ProcedureSpec(name='p', params=('A',), givens=(), "
             "run=<built-in function len>, verify=<built-in function max>, "
             "optional_params=(), optional_givens=())")
EXPECTED = ExpectedStep("u", Sexa(5), "obv.33")
EXPECTED_REPR = "ExpectedStep(label='u', value=Sexa('5'), line='obv.33', " \
                "uncertain=False)"
ROW = CheckRow("step", "u", "MATCH", "5", "5")
ROW_REPR = "CheckRow(kind='step', label='u', status='MATCH', expected='5', " \
           "got='5', line=None, uncertain=False)"


class Case(NamedTuple):
    cls: type
    #: Every field, in ``__init__`` order, with a value for each.
    fields: dict
    #: The defaulted fields: given only their required fields, the type
    #: fills these in.
    defaults: dict
    #: A value that makes each compared field differ.
    other: dict
    #: Fields outside equality and repr, with a differing value.
    ignored: dict
    repr: str
    #: Whether hash() succeeds, given hashable field values.
    hashable: bool = True


CASES = [
    Case(Quantity, {"magnitude": Sexa("0;30"), "dim": NINDAN}, {},
         {"magnitude": Sexa(1), "dim": Dimension.LENGTH_KUS}, {}, HALF_REPR),
    Case(Step, {"label": "u", "value": Sexa(5), "source": "tablet"},
         {"source": "derived"},
         {"label": "v", "value": HALF, "source": "derived"}, {},
         "Step(label='u', value=Sexa('5'), source='tablet')"),
    Case(StepTrace, {"steps": [STEP]}, {"steps": []}, {"steps": []}, {},
         f"StepTrace(steps=[{STEP_REPR}])", hashable=False),
    Case(QuadraticProblem, {"a": Sexa(1), "b": Sexa(2), "c": Sexa(3)}, {},
         {"a": Sexa(2), "b": Sexa(3), "c": Sexa(4)}, {},
         "QuadraticProblem(a=Sexa('1'), b=Sexa('2'), c=Sexa('3'))"),
    Case(SumDifferenceProblem, {"diff": Sexa(1), "prod": Sexa("0;30")}, {},
         {"diff": Sexa(2), "prod": Sexa(3)}, {},
         "SumDifferenceProblem(diff=Sexa('1'), prod=Sexa('0;30'))"),
    Case(CanalConstant, {"ratio": Sexa("0;48")}, {}, {"ratio": Sexa(1)}, {},
         "CanalConstant(ratio=Sexa('0;48'))"),
    Case(ProcedureSpec, {"name": "p", "params": ("A",), "givens": (),
                         "run": len, "verify": max, "optional_params": ("B",),
                         "optional_givens": (("V", VOLUME),)},
         {"optional_params": (), "optional_givens": ()},
         {"name": "q", "params": (), "givens": (("V", VOLUME),), "run": min,
          "verify": len, "optional_params": (),
          "optional_givens": (("W", NINDAN),)},
         {}, "ProcedureSpec(name='p', params=('A',), givens=(), "
             "run=<built-in function len>, verify=<built-in function max>, "
             "optional_params=('B',), optional_givens=(('V', "
             "<Dimension.VOLUME_SAR: 'volume-sar'>),))"),
    Case(ExpectedStep, {"label": "u", "value": Sexa(5), "line": "obv.33",
                        "uncertain": True, "text": "5"},
         {"uncertain": False, "text": "5"},
         {"label": "v", "value": Sexa(6), "line": "rev.1",
          "uncertain": False}, {"text": "five"},
         "ExpectedStep(label='u', value=Sexa('5'), line='obv.33', "
         "uncertain=True)"),
    # Mapping fields, held as read-only views of the record's own copies:
    # frozen all the way down, and declared unhashable as a dict is.
    Case(TabletProblem, {"id": "t.1", "procedure": SPEC,
                         "givens": {"V": HALF}, "parameters": {"A": Sexa(2)},
                         "expected_steps": (EXPECTED,),
                         "expected_answers": {"u": HALF},
                         "answer_texts": {"u": "0;30 nindan"}},
         {"answer_texts": {"u": "0;30 nindan"}},
         {"id": "t.2", "procedure": ProcedureSpec("q", (), (), len, len),
          "givens": {}, "parameters": {}, "expected_steps": (),
          "expected_answers": {}}, {"answer_texts": {"u": "30 nindan"}},
         f"TabletProblem(id='t.1', procedure={SPEC_REPR}, "
         f"givens=mappingproxy({{'V': {HALF_REPR}}}), "
         f"parameters=mappingproxy({{'A': Sexa('2')}}), "
         f"expected_steps=({EXPECTED_REPR},), "
         f"expected_answers=mappingproxy({{'u': {HALF_REPR}}}))",
         hashable=False),
    Case(CheckRow, {"kind": "answer", "label": "u", "status": "MISMATCH",
                    "expected": "5", "got": "6", "line": "obv.33",
                    "uncertain": True},
         {"line": None, "uncertain": False},
         {"kind": "step", "label": "v", "status": "MATCH", "expected": "6",
          "got": None, "line": "rev.1", "uncertain": False}, {},
         "CheckRow(kind='answer', label='u', status='MISMATCH', "
         "expected='5', got='6', line='obv.33', uncertain=True)"),
    Case(ReplayReport, {"problem_id": "t.1", "rows": (ROW,)}, {},
         {"problem_id": "t.2", "rows": ()}, {},
         f"ReplayReport(problem_id='t.1', rows=({ROW_REPR},))"),
]


def values(record, names) -> list:
    return [getattr(record, name) for name in names]


@pytest.fixture(params=CASES, ids=lambda case: case.cls.__name__)
def case(request) -> Case:
    return request.param


def build(case: Case, **changes):
    return case.cls(**{**case.fields, **changes})


def test_positional_keyword_and_default_construction(case):
    names = list(case.fields)
    positional = case.cls(*case.fields.values())
    keyword = case.cls(**case.fields)
    assert values(positional, names) == values(keyword, names) \
        == list(case.fields.values())
    required = [v for k, v in case.fields.items() if k not in case.defaults]
    defaulted = case.cls(*required)
    assert values(defaulted, case.defaults) == list(case.defaults.values())


def test_equality_over_the_compared_fields_only(case):
    record = build(case)
    assert record == build(case) and not record != build(case)
    for name, value in case.other.items():
        assert record != build(case, **{name: value}), name
    for name, value in case.ignored.items():
        assert record == build(case, **{name: value}), name
    # Only a record of the same type compares equal.
    assert record != tuple(case.fields.values())
    assert record.__eq__(object()) is NotImplemented


def test_hash(case):
    record = build(case)
    if not case.hashable:
        # Declared unhashable, not a hash that raises on a field.
        assert case.cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(record)
        return
    rebuilt = build(case, **case.ignored)
    assert hash(record) == hash(build(case)) == hash(rebuilt)
    assert {record, rebuilt} == {record}


def test_repr(case):
    record = build(case)
    assert repr(record) == case.repr
    assert repr(build(case, **case.ignored)) == case.repr


def test_fields_are_read_only(case):
    record = build(case)
    for name, value in {**case.fields, **case.other}.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert values(record, case.fields) == list(case.fields.values())


def test_pickle_copy_and_deepcopy(case):
    record = build(case)
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is case.cls
        assert other == record and repr(other) == case.repr
        assert values(other, case.fields) == list(case.fields.values())


def test_a_copied_trace_keeps_its_label_index_and_grows_apart():
    trace = StepTrace([STEP])
    for other in (pickle.loads(pickle.dumps(trace)), copy.copy(trace),
                  copy.deepcopy(trace), StepTrace(trace.steps)):
        assert "u" in other and other["u"] == Sexa(5)
        other.record("v", Sexa(6))
        assert other["v"] == Sexa(6)
        assert "v" not in trace and trace.steps == [STEP]
