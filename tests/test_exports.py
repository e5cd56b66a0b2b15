import dataclasses
import typing

import pytest

import cohdist

EXPORTED_DATACLASSES = [
    obj
    for name in cohdist.__all__
    if dataclasses.is_dataclass(obj := getattr(cohdist, name)) and isinstance(obj, type)
]


def test_exports_include_the_report_dataclasses():
    assert cohdist.DeterministicGateReport in EXPORTED_DATACLASSES
    assert len(EXPORTED_DATACLASSES) >= 10


@pytest.mark.parametrize("cls", EXPORTED_DATACLASSES, ids=lambda c: c.__name__)
def test_dataclass_annotations_resolve(cls):
    hints = typing.get_type_hints(cls)
    assert set(hints) >= {f.name for f in dataclasses.fields(cls)}
