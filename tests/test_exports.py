import ast
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


def test_bench_tracer_installs_every_probe_and_uninstalls_cleanly(monkeypatch):
    # the traced benchmark wraps every probe by name: a name that moved out of
    # the package fails install(), and uninstall() must put each original back
    tracer = _bench_tracer(monkeypatch)

    def originals():
        out = []
        for probe in tracer.PROBES:
            owner = tracer._resolve(probe.owner)
            out.append(vars(owner)[probe.attr] if isinstance(owner, type) else getattr(owner, probe.attr))
        return out

    before = originals()
    installed = tracer.Tracer()
    try:
        installed.install()
        assert all(now is not then for now, then in zip(originals(), before))
    finally:
        installed.uninstall()
    assert all(now is then for now, then in zip(originals(), before))


def test_every_cohdist_name_the_bench_workloads_read_resolves():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    names = {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cd"
    }
    assert {"pmax_mixed", "full_plan", "search_catalyst"} <= names
    assert [name for name in sorted(names) if not hasattr(cohdist, name)] == []


def test_the_package_exports_exactly_the_public_surface():
    # the four answers, their reports and errors, and the names the
    # benchmark reads; internal kernels stay in their modules
    exports = [
        "__version__",
        "DensityMatrix", "PureStateVector", "validate_density", "as_distribution",
        "min_profile_ratio", "majorizes", "tensor", "power_mean", "shannon_entropy",
        "a_matrix", "PureSubspace", "DisjointFamily", "maximal_pure_subspaces",
        "optimize_disjoint_selection", "has_rank2_subspace",
        "StrictlyIncoherentKraus", "PlanBranch", "DistillationPlan", "SubspaceYield",
        "MixedPmaxResult", "BranchCheck", "pmax_pure", "pmax_mixed", "optimal_protocol",
        "full_plan", "verify_branch_outputs",
        "EnhancementRecord", "EnhancementGateReport", "DeterministicGateMemberRecord",
        "DeterministicGateReport", "CatalystSearchReport", "enhancement_gate",
        "deterministic_gate", "catalyst_gates", "ALPHAS_BELOW_ONE", "ALPHAS_ABOVE_ONE",
        "catalyzed_pmax", "search_catalyst",
        "branch_probabilities", "simulate", "SimulationResult",
        "CohdistError", "ValidationError", "NonSquareError", "NotHermitianError", "NotPSDError",
        "TraceNotOneError", "NotStrictlyIncoherentError", "DegenerateStateError",
        "IncoherentTargetError", "RankDeficitError", "IncompletePlanError", "PreconditionError",
        "ProtocolSynthesisError",
    ]
    assert len(exports) == 55
    assert sorted(cohdist.__all__) == sorted(exports)
    assert all(hasattr(cohdist, name) for name in exports)


def test_the_test_machinery_lives_in_the_test_suite():
    # the brute-force oracle, the instance generators and the test-only
    # helpers come from tests/reference_oracles.py, not from the package
    import reference_oracles

    moved = ["brute_subspaces", "random_pure_state", "random_block_state", "random_mixture_state",
             "conversion_kraus", "dephase", "coherence_rank", "suffix_profile", "catalyst_candidates",
             "DimensionTooLargeError"]
    assert all(callable(getattr(reference_oracles, name)) for name in moved)
    # wrappers that only the tests read are gone from the package
    removed = [*moved, "sorted_descending", "power_means"]
    modules = [cohdist, cohdist.catalysis, cohdist.distill, cohdist.errors, cohdist.measures,
               cohdist.oracles, cohdist.states, cohdist.subspaces]
    assert [(m.__name__, name) for m in modules for name in removed if hasattr(m, name)] == []
    members = [(cohdist.PureSubspace, "state"), (cohdist.StrictlyIncoherentKraus, "apply"),
               (cohdist.PureStateVector, "support"), (cohdist.PureStateVector, "sorted_support")]
    assert [(cls.__name__, name) for cls, name in members if hasattr(cls, name)] == []
    assert "dim" not in {f.name for f in dataclasses.fields(cohdist.PureSubspace)}
