"""The behaviour a frozen dataclass gives a value class, as one check."""
import copy
import pickle

import pytest


def assert_frozen_value(value, twin, other, text: str, name: str):
    """value == twin (a separately built equal value) != other, with equal
    hashes; == against another class is NotImplemented; repr(value) is
    text; its field `name` cannot be assigned or deleted, nor a new
    attribute set; pickle and deepcopy give back an equal value of the
    same class."""
    assert value == twin and hash(value) == hash(twin)
    assert value != other
    assert value.__eq__(text) is NotImplemented and value != text
    assert repr(value) == text
    kept = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, other)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, name) is kept
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
