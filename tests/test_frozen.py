"""The value-class contract of `inducibility.frozen`, checked against the
stdlib dataclass twins in tests/oracles.py for all seventeen classes."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

import oracles
from inducibility.catalog import BoundReport, CatalogRow, catalog_rows, closed_form_bounds
from inducibility.dsl import Node, parse_expr, parse_quantum
from inducibility.frozen import frozen
from inducibility.graphs import LabeledGraph, build_named, canonical_form
from inducibility.masks import partition_tables
from inducibility.models import StepModel, bernoulli
from inducibility.nesting import TransitionMatrix, stationary_profile, transition_matrix
from inducibility.profiles import (
    EstimatedProfile,
    LabeledProfile,
    ProfileVector,
    QuantumGraph,
    induced_profile,
    iso_table,
    labeled_repetitive,
)
from inducibility.spectral import SpectralProfile, fourier

C5 = build_named("C", [5])
_ROW = catalog_rows("exoo4")[0]
SAMPLES = (
    partition_tables(3)[1],
    C5,
    canonical_form(C5),
    bernoulli(Fraction(1, 3)),
    iso_table(3).entries[1],
    iso_table(3),
    induced_profile(C5, 3),
    labeled_repetitive(C5, 3),
    parse_quantum("K3 + 2*E3", 3),
    EstimatedProfile(3, (0.5, 0.5, 0.0, 0.0), (0.1, 0.1, 0.0, 0.0), 10, 7),
    fourier(labeled_repetitive(C5, 3)),
    transition_matrix(C5, 3),
    stationary_profile(C5, 3),
    parse_expr("blowup(C5, 2)"),
    closed_form_bounds(4),
    _ROW,
    BoundReport(_ROW, Fraction(1, 2), Fraction(1, 2), True, 0.25),
)


def _twin(x):
    return getattr(oracles, type(x).__name__)


def _init_fields(x) -> dict:
    """The fields the twin's __init__ takes, with the values of x."""
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(_twin(x)) if f.init}


@pytest.fixture(params=SAMPLES, ids=lambda x: type(x).__name__)
def sample(request):
    return request.param


def test_every_value_class_has_a_twin():
    assert len({type(x) for x in SAMPLES}) == 17
    assert all(dataclasses.is_dataclass(_twin(x)) for x in SAMPLES)


def test_repr_matches_the_twin(sample):
    kw = _init_fields(sample)
    if type(sample) is LabeledGraph:
        # a method the class defines itself is kept
        assert repr(sample) == "LabeledGraph(n=5, edges=5)"
    else:
        assert repr(type(sample)(**kw)) == repr(_twin(sample)(**kw))


def test_eq_and_hash_use_the_compared_fields_only(sample):
    cls, kw = type(sample), _init_fields(sample)
    x, y, twin = cls(**kw), cls(**kw), _twin(sample)(**kw)
    assert x == y and not x != y
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == expected
    for f in dataclasses.fields(_twin(sample)):
        # the same instance with one field swapped, no validation run
        other = object.__new__(cls)
        other.__dict__.update(vars(x))
        other.__dict__[f.name] = object()
        if f.compare:
            assert x != other and other != x, f.name
        else:
            assert x == other and hash(x) == hash(other), f.name


def test_equal_only_within_the_class(sample):
    kw = _init_fields(sample)
    x, twin = type(sample)(**kw), _twin(sample)(**kw)
    compared = tuple(getattr(x, f.name) for f in dataclasses.fields(twin) if f.compare)
    assert x != compared and compared != x
    assert x != twin and twin != x
    assert x != tuple(kw.values())


def test_construction_by_position_and_keyword(sample):
    cls, kw = type(sample), _init_fields(sample)
    names, values = list(kw), list(kw.values())
    by_position = cls(*values)
    assert by_position == cls(**kw) == cls(values[0], **dict(zip(names[1:], values[1:])))
    assert all(getattr(by_position, n) is v for n, v in kw.items())


def test_defaults():
    required = ("r", 3, "model", "1/2")
    row = CatalogRow(*required)
    assert repr(row) == repr(oracles.CatalogRow(*required))
    assert (row.target, row.target_edges, row.factors, row.approx) == ("", (), "", False)
    node = Node("K3")
    assert (node.args, node.span) == ((), (0, 0))
    assert Node("C5", span=(2, 4)) == Node("C5") and Node("C5", span=(2, 4)).span == (2, 4)


def test_bad_arguments_raise_type_error(sample):
    cls, kw = type(sample), _init_fields(sample)
    first, values = next(iter(kw)), list(kw.values())
    for make in (cls, _twin(sample)):
        with pytest.raises(TypeError):
            make(**{n: v for n, v in kw.items() if n != first})  # missing
        with pytest.raises(TypeError):
            make(*values, no_such_field=1)                      # unknown
        with pytest.raises(TypeError):
            make(*values, **{first: values[0]})                 # repeated
        with pytest.raises(TypeError):
            make(*values, None)                                 # too many


def test_instances_are_frozen(sample):
    x = type(sample)(**_init_fields(sample))
    name = next(iter(_init_fields(sample)))
    before = getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert getattr(x, name) is before and not hasattr(x, "not_a_field")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LabeledGraph(0, ()), "at least one vertex"),
        (lambda: StepModel((Fraction(1, 2),), ((0,),)), "sum to one"),
        (lambda: ProfileVector(3, "labeled", (1, 0, 0, 0)), "induced or repetitive"),
        (lambda: LabeledProfile(3, "q", (1,) + (0,) * 7), "p or r"),
        (lambda: QuantumGraph(3, ()), "at least one term"),
        (lambda: SpectralProfile(3, (1,)), "value count"),
        (lambda: TransitionMatrix(3, ((1,),)), "shape"),
    ],
)
def test_post_init_errors_reach_the_caller(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_step_model_exact_is_set_on_construction():
    assert bernoulli(Fraction(1, 3)).exact is True
    assert StepModel((1.0,), ((0.5,),)).exact is False
    with pytest.raises(TypeError):
        StepModel((1,), ((0,),), True)
    with pytest.raises(TypeError):
        StepModel(masses=(1,), w=((0,),), exact=True)




def test_an_exact_profile_never_equals_a_float_one():
    # 1 == 1.0 entry by entry and as denominators; exactness is compared too
    for make, v in ((lambda v, d=1: LabeledProfile(2, "r", v, d), (1, 0)),
                    (lambda v, d=1: SpectralProfile(2, v, d), (1, 1))):
        exact, floats = make(v), make(tuple(map(float, v)))
        assert exact != floats and floats != exact and not exact == floats
        assert exact == make(tuple(2 * x for x in v), 2) and floats == make(tuple(x / 2 for x in v), 0.5)
    assert LabeledProfile(2, "r", (1, 0)) != LabeledProfile(2, "r", (1.0, 0.0))
    assert LabeledProfile(2, "r", (1, 1), 2) != LabeledProfile(2, "r", (0.5, 0.5))


def test_also_compared_joins_eq_and_an_inherited_eq_is_replaced():
    class Base:
        def __eq__(self, other):
            return True

        __hash__ = object.__hash__

    @frozen(also_compared=("kind",))
    class Value(Base):
        x: object

        @property
        def kind(self):
            return type(self.x)

    # frozen keeps only what the class defines itself, so Base lends no __eq__
    assert Value.__eq__ is not Base.__eq__ and Value(1) != Value(2)
    assert Value(1) == Value(1) and Value(1) != Value(1.0)
    assert hash(Value(1)) == hash(Value(1.0))  # hash stays over the fields
