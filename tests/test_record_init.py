"""The record constructor, for each record of ``test_records.RECORDS``:
fields bind by position or by keyword to the same record, and a call that
names too many fields, an unknown or repeated one, or leaves out one
without a default raises ``TypeError`` before any check of the values."""

import pytest

from test_records import RECORDS

# records whose every field has a default
ALL_DEFAULTED = {"RationalField", "GaussianField"}


def _fields(name):
    """The record's class and its field values, by name in field order."""
    factory, fields, _, _ = RECORDS[name]
    record = factory()
    return type(record), {f: getattr(record, f) for f in fields.split()}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_keywords_bind_as_positions_do(name):
    cls, fields = _fields(name)
    first, *rest = fields
    expected = repr(cls(*fields.values()))
    assert repr(cls(**fields)) == expected
    assert repr(cls(fields[first], **{f: fields[f] for f in rest})) == expected


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_bad_field_lists_raise_type_error(name):
    cls, fields = _fields(name)
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(*fields.values(), not_a_field=None)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    rest = {f: v for f, v in fields.items() if f != first}
    if name in ALL_DEFAULTED:
        assert repr(cls(**rest)) == repr(cls(*fields.values()))
    else:
        with pytest.raises(TypeError):
            cls(**rest)
