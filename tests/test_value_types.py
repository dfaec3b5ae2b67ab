"""The value-type contract of Axis, Histogram and ResponseMatrix.

Each is a frozen dataclass with slots: fields cannot be assigned, instances
have no ``__dict__``, and ``dataclasses.replace`` runs the constructor's
checks again on the copy.  Only ``Axis`` compares by value.  A copy made by
``pickle`` or ``copy.deepcopy`` keeps every field, and its arrays stay
read-only.
"""

import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest

import unfolder as uf


def _axis():
    return uf.Axis([0.0, 1.0, 3.0])


def _histogram():
    return uf.Histogram(_axis(), [1.0, 2.0], stat_err=[1.0, 1.5], kind="counts")


def _response():
    # A^T A has column sums 0.5625, so K = 0.5625 unless overridden
    return uf.ResponseMatrix(_axis(), _axis(), [[0.5, 0.25], [0.25, 0.5]],
                             k_override=2.0)


# (factory, repr, a refused replacement and its message,
#  accepted replacements as (changes, attribute, value on the copy))
CASES = {
    "Axis": (_axis, "Axis(2 bins on [0, 3])",
             ({"edges": [0.0, 2.0, 1.0]}, "strictly increasing"),
             [({"edges": [0.0, 1.0, 2.0, 4.0]}, "nbins", 3)]),
    "Histogram": (_histogram, "Histogram(2 bins, kind='counts', total=3)",
                  ({"contents": [-1.0, 2.0]}, "negative content"),
                  [({"contents": [-1.0, 2.0], "unfolded": True}, "total", 1.0),
                   ({"kind": "mass"}, "kind", "mass")]),
    "ResponseMatrix": (_response, "ResponseMatrix(2 x 2, K=2)",
                       ({"matrix": [[0.9, 0.25], [0.25, 0.5]]}, "sums to 1.15 > 1"),
                       [({}, "k_factor", 0.5625),
                        ({"k_override": 3.0}, "k_factor", 3.0)]),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_contract(name):
    make, text, (refused, message), accepted = CASES[name]
    obj = make()
    cls = type(obj)
    assert cls.__name__ == name
    assert dataclasses.is_dataclass(cls)
    assert not hasattr(obj, "__dict__")

    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)

    with pytest.raises(ValueError, match=message):
        dataclasses.replace(obj, **refused)
    for changes, attribute, value in accepted:
        assert getattr(dataclasses.replace(obj, **changes), attribute) == value

    twin = make()
    if name == "Axis":
        assert obj == twin and obj != uf.Axis([0.0, 1.0, 2.0])
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert obj == obj and obj != twin
        assert hash(obj) != hash(twin)

    assert repr(obj) == text
    for back in copies(obj):
        assert type(back) is cls and back is not obj
        assert repr(back) == text
        assert back.to_dict() == obj.to_dict()
        assert_same_fields(back, obj)


def copies(obj):
    """A deepcopy and a pickle round trip of `obj`, made with every warning
    an error: the copies must not run the constructor's warnings again."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))


def assert_same_fields(back, obj):
    """Every field of `back` is that of `obj`: arrays read-only with the
    same bytes, nested value types field by field, the rest equal."""
    for f in dataclasses.fields(obj):
        want, got = getattr(obj, f.name), getattr(back, f.name)
        if dataclasses.is_dataclass(want):
            assert_same_fields(got, want)
        elif isinstance(want, np.ndarray):
            assert not got.flags.writeable, f.name
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = -5
        else:
            assert type(got) is type(want) and got == want, f.name


def test_copies_of_a_loaded_response_keep_its_factor_and_empty_columns():
    # a stored factor above K survives from_dict; the empty column warns once,
    # when the response is built
    d = _response().to_dict()
    d["matrix"] = [[0.5, 0.0], [0.25, 0.0]]
    d["k_factor"] = 3.0
    with pytest.warns(RuntimeWarning, match="receive no response"):
        rm = uf.ResponseMatrix.from_dict(d)
    assert (rm.k_factor, rm.zero_columns) == (3.0, (1,))
    for back in copies(rm):
        assert_same_fields(back, rm)
