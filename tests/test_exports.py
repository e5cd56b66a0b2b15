import dataclasses
import importlib.util
import pathlib
import sys
import typing

import pytest

import cohdist
import cohdist.cli  # noqa: F401  (the tracer probes cohdist.cli.main)

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


def _bench_tracer(monkeypatch):
    """bench/tracer.py loaded by path; it imports only the standard library."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_probes_resolve_to_cohdist_functions(monkeypatch):
    # a renamed function would break the traced benchmark run
    tracer = _bench_tracer(monkeypatch)
    assert tracer.PROBES
    for probe in tracer.PROBES:
        owner = tracer._resolve(probe.owner)
        # the tracer wraps a class's own attribute, and a module's by value
        found = vars(owner).get(probe.attr) if isinstance(owner, type) else getattr(owner, probe.attr, None)
        assert found is not None, f"{probe.owner}.{probe.attr}"
        assert callable(getattr(owner, probe.attr)), f"{probe.owner}.{probe.attr}"
