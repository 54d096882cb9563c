"""The frozen-record contract (config.Record), class by class.

Every record is built from positional or keyword arguments with the same
rules, refuses assignment and deletion, and compares by its field tuple
unless declared with eq=False, which keeps identity.  replace builds and
checks a new record as the constructor does.
"""

import re

import numpy as np
import pytest

from ma_multicast import (
    Beamformer,
    ConfigError,
    ExperimentConfig,
    GridSpec,
    ScaTrace,
    Scheme,
    SchemeResult,
    SnrPair,
    SystemConfig,
    ThetaCoefficients,
)

_W = np.array([1.0 + 0.0j])

# class -> (positional arguments, compares by value, refused changes as (change, error, message))
RECORDS = {
    SystemConfig: (
        (6, 5.0, 0.5, 2.0, 2.5, 20.0, -70.0, (50.0, 80.0), (0.5, 2.0)),
        True,
        [
            ({"span_l": -1.0}, ConfigError, "span_l: must be positive"),
            (
                {"n_antennas": 12},
                ConfigError,
                "infeasible geometry: (n_antennas - 1) * d_min = 5.5 exceeds span_l = 5",
            ),
        ],
    ),
    ExperimentConfig: ((SystemConfig(), (Scheme.FPA,), 0.25, None, "out"), True, []),
    SnrPair: ((1.0, 3.0, 1.0), True, []),
    ThetaCoefficients: ((1.0, 2.0, 3.0, 4.0), True, []),
    GridSpec: ((0.1, 1e-3), True, [({"t_step": 0.5}, ValueError, "t_step must lie in (0, 0.01]")]),
    Beamformer: ((_W, 1.0, None), False, []),
    ScaTrace: ((np.zeros(2), np.ones(2), True, 1), False, []),
    SchemeResult: ((Scheme.FPA, np.zeros(1), Beamformer(_W, 1.0), SnrPair(1.0, 1.0, 1.0), None), False, []),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    args, by_value, refused = RECORDS[cls]
    names = cls._field_names
    record = cls(*args)
    # positional and keyword arguments fill the same fields, in field order
    assert list(record.asdict()) == list(names)
    for name, arg in zip(names, args):
        value = getattr(record, name)
        assert value is arg or value == arg
    keyword = cls(**dict(zip(names, args)))
    for name in names:
        assert getattr(keyword, name) is getattr(record, name) or getattr(keyword, name) == getattr(record, name)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in record.asdict().items())})"

    # frozen: no field, and no other attribute, can be set or deleted
    before = record.asdict()
    for name in (names[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, args[1])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(getattr(record, name) is value for name, value in before.items())
    assert not hasattr(record, "not_a_field")

    # value records compare and hash by their field tuple; the others by identity
    twin = cls(*args)
    fields = tuple(getattr(record, name) for name in names)
    assert record == record and record != fields
    if by_value:
        assert twin == record and hash(twin) == hash(record) == hash(fields)
    else:
        assert twin != record and hash(record) == object.__hash__(record)

    # a bad argument list is a TypeError
    with pytest.raises(TypeError, match="takes"):
        cls(*args, args[0])
    with pytest.raises(TypeError, match="multiple values"):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(*args, not_a_field=1)
    required = [name for name in names if not hasattr(cls, name)]
    if required:
        with pytest.raises(TypeError, match=re.escape(repr(required))):
            cls()
    else:
        # every default is readable on the class
        assert cls().asdict() == {name: getattr(cls, name) for name in names}

    # replace builds a new record from the changed fields and checks it like the constructor
    rebuilt = record.replace(**{names[-1]: args[-1]})
    assert rebuilt is not record and rebuilt.asdict().keys() == record.asdict().keys()
    assert rebuilt == record or not by_value
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        record.replace(not_a_field=1)
    for change, error, message in refused:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            record.replace(**change)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(**{**record.asdict(), **change})
