import contextlib
import copy
import io
import json
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cohdist import (
    PureStateVector,
    deterministic_gate,
    enhancement_gate,
    full_plan,
    validate_density,
)
from cohdist import cli, subspaces
from cohdist.cli import main, parse_pure, parse_state, plan_from_doc, plan_to_doc


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def files(tmp_path, block_mixture):
    v = np.sqrt([0.9, 0.1, 0.0])
    rho_doc = {
        "matrix": [
            [[float(x.real), float(x.imag)] for x in row]
            for row in block_mixture.matrix
        ]
    }
    return {
        "rho": write(tmp_path / "rho.json", rho_doc),
        "phi": write(
            tmp_path / "phi.json",
            {"amplitudes": [0.7071067811865476, 0.7071067811865476, 0]},
        ),
        "psi": write(
            tmp_path / "psi.json", {"amplitudes": [float(x) for x in v]}
        ),
        "p": write(tmp_path / "p.json", {"weights": [0.5, 0.3, 0.2]}),
        "q": write(tmp_path / "q.json", {"weights": [0.7, 0.2, 0.1]}),
        "tmp": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_kinds(files, capsys):
    for key, kind in (("rho", "density"), ("psi", "pure"), ("p", "weights")):
        code, out, _ = run(capsys, "validate", files[key], "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] and doc["kind"] == kind


def test_subspaces_command(files, capsys):
    code, out, _ = run(capsys, "subspaces", files["rho"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["distillable"]
    assert [s["indices"] for s in doc["subspaces"]] == [[0, 1], [2]]
    assert doc["a_matrix"][0][1] == pytest.approx(1.0, abs=1e-9)


def test_pmax_command_text_and_json(files, capsys):
    code, out, _ = run(capsys, "pmax", files["rho"], files["phi"])
    assert code == 0
    assert "p_max = 0.1" in out
    code, out, _ = run(capsys, "pmax", files["rho"], files["phi"], "--json")
    doc = json.loads(out)
    assert doc["p_max"] == pytest.approx(0.1, abs=1e-9)
    assert doc["family"] == [[0, 1], [2]]


def test_protocol_roundtrip_and_simulate(files, capsys):
    plan_path = str(files["tmp"] / "plan.json")
    code, out, _ = run(capsys, "protocol", files["rho"], files["phi"], plan_path)
    assert code == 0
    assert "branch outputs verified: true" in out
    assert "completeness gap: " in out and "worst branch fidelity: " in out
    code, out, _ = run(capsys, "protocol", files["rho"], files["phi"], plan_path, "--json")
    doc = json.loads(out)
    assert doc["outputs_verified"] and doc["branches"] == 1
    assert -1.0 <= doc["completeness_gap"] <= 1e-9
    assert doc["worst_fidelity"] == pytest.approx(1.0, abs=1e-9)

    stored = json.loads((files["tmp"] / "plan.json").read_text())
    reloaded = plan_from_doc(stored, "plan.json")
    assert reloaded.p_max == pytest.approx(0.1, abs=1e-9)

    code, out, _ = run(
        capsys, "simulate", plan_path, files["rho"],
        "--shots", "20000", "--seed", "5", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic_probability"] == pytest.approx(0.1, abs=1e-9)
    assert abs(doc["empirical_probability"] - 0.1) < 4 * doc["standard_error"]
    # same seed, same counts
    code2, out2, _ = run(
        capsys, "simulate", plan_path, files["rho"],
        "--shots", "20000", "--seed", "5", "--json",
    )
    assert json.loads(out2) == doc


def test_pmax_can_write_protocol(files, capsys):
    plan_path = str(files["tmp"] / "inline.json")
    code, out, _ = run(
        capsys, "pmax", files["rho"], files["phi"], "--protocol", plan_path
    )
    assert code == 0
    assert json.loads((files["tmp"] / "inline.json").read_text())["p_max"] > 0


def test_catalyst_gate_command(files, tmp_path, capsys):
    psi4 = write(
        tmp_path / "psi4.json",
        {"amplitudes": [np.sqrt(0.4), np.sqrt(0.4), np.sqrt(0.1), np.sqrt(0.1)]},
    )
    phi4 = write(
        tmp_path / "phi4.json",
        {"amplitudes": [np.sqrt(0.5), 0.5, 0.5, 0]},
    )
    code, out, _ = run(capsys, "catalyst", "gate", psi4, phi4, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["baseline"] == pytest.approx(0.8, abs=1e-9)
    assert doc["enhancement"]["verdict"]
    assert doc["deterministic"]["verdict"]


def test_catalyst_gate_json_writes_infinite_orders_as_strings(tmp_path, capsys):
    # minimum of the below-one margin at alpha = -inf
    psi = write(tmp_path / "psi.json",
                {"amplitudes": np.sqrt([0.4, 0.4, 0.1, 0.1 - 1e-4, 1e-4]).tolist()})
    phi = write(tmp_path / "phi.json",
                {"amplitudes": np.sqrt([0.5, 0.25, 0.25 - 5e-5, 2.5e-5, 2.5e-5]).tolist()})
    code, out, _ = run(capsys, "catalyst", "gate", psi, phi, "--json")
    assert code == 0
    (member,) = json.loads(out, parse_constant=_refuse_constant)["deterministic"]["members"]
    assert member["alpha_below_one"] == "-inf"
    assert isinstance(member["alpha_above_one"], float)


def test_catalyst_gate_reports_what_the_library_gates_report(files, tmp_path, capsys):
    # the command enumerates once and hands the family to both gates
    psi4 = write(tmp_path / "psi4.json", {"amplitudes": np.sqrt([0.4, 0.4, 0.1, 0.1]).tolist()})
    phi4 = write(tmp_path / "phi4.json", {"amplitudes": np.sqrt([0.5, 0.25, 0.25, 0]).tolist()})
    for state, target in ((psi4, phi4), (files["rho"], files["phi"]), (files["psi"], files["phi"])):
        code, out, _ = run(capsys, "catalyst", "gate", state, target, "--json",
                           "--alpha-points", "7")
        assert code == 0
        doc = json.loads(out)
        rho = parse_state(cli._load_doc(state), state)
        phi = parse_pure(cli._load_doc(target), target)
        enh = enhancement_gate(rho, phi)
        assert doc["baseline"] == enh.baseline
        assert doc["enhancement"]["verdict"] == enh.verdict
        assert [r["margin"] for r in doc["enhancement"]["records"]] == [
            r.margin for r in enh.records]
        det = deterministic_gate(rho, phi, 7)
        assert doc["deterministic"]["verdict"] == det.verdict
        assert doc["deterministic"]["flags"] == list(det.flags)
        assert [(m["margin_below_one"], m["margin_above_one"], m["entropy_margin"])
                for m in doc["deterministic"]["members"]] == [
            (m.margin_below_one, m.margin_above_one, m.entropy_margin) for m in det.members]
    # baseline 1: the probability-1 gate does not apply, and that is no error
    plus = write(tmp_path / "plus.json", {"amplitudes": [0.7071067811865476, 0.7071067811865476]})
    pair = write(tmp_path / "pair.json", {"amplitudes": [0.6, 0.8]})
    code, out, _ = run(capsys, "catalyst", "gate", plus, pair, "--json")
    assert code == 0
    assert json.loads(out)["deterministic"] == {"applicable": False}
    flat = write(tmp_path / "flat.json", {"amplitudes": [1.0, 0, 0]})
    assert run(capsys, "catalyst", "gate", files["rho"], flat)[0] == 3


def _count_enumerations(monkeypatch) -> list:
    """Count maximal_pure_subspaces calls, wherever in cohdist the name is bound."""
    original = subspaces.maximal_pure_subspaces
    calls = []

    def counting(rho):
        calls.append(rho)
        return original(rho)

    for name, module in list(sys.modules.items()):
        if name == "cohdist" or name.startswith("cohdist."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_each_command_and_gate_enumerates_the_subspaces_once(files, monkeypatch, capsys):
    calls = _count_enumerations(monkeypatch)
    plan_path = str(files["tmp"] / "plan.json")
    commands = [
        ["pmax", files["rho"], files["phi"], "--protocol", plan_path],
        ["catalyst", "gate", files["rho"], files["phi"]],
        ["catalyst", "search", files["rho"], files["phi"]],
    ]
    for argv in commands:
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv
    rho = parse_state(cli._load_doc(files["rho"]), files["rho"])
    phi = parse_pure(cli._load_doc(files["phi"]), files["phi"])
    for gate in (enhancement_gate, deterministic_gate):
        calls.clear()
        gate(rho, phi)
        assert len(calls) == 1, gate.__name__


def test_main_reuses_one_parser(files, capsys):
    commands = [
        ["validate", files["rho"], "--json"],
        ["pmax", files["rho"], files["phi"], "--json"],
        ["--help"],
        ["catalyst", "gate", files["rho"], files["phi"], "--json"],
        ["--version"],
        ["majorize", files["p"], files["q"], "--json"],
        ["catalyst", "search", files["rho"]],          # usage error: no target
        ["subspaces", files["rho"], "--json"],
        ["pmax", files["rho"], files["phi"], "--json"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:               # --help, --version, usage errors
            code = exc.code
        out = capsys.readouterr()
        return code, json.loads(out.out) if argv[-1] == "--json" else out

    cli._parser.cache_clear()
    reused = [outcome(argv) for argv in commands]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _ in reused] == [0, 0, 0, 0, 0, 0, 2, 0, 0]
    assert reused == fresh


def test_catalyst_search_command(files, tmp_path, capsys):
    psi4 = write(
        tmp_path / "psi4.json",
        {"amplitudes": [np.sqrt(0.4), np.sqrt(0.4), np.sqrt(0.1), np.sqrt(0.1)]},
    )
    phi4 = write(
        tmp_path / "phi4.json",
        {"amplitudes": [np.sqrt(0.5), 0.5, 0.5, 0]},
    )
    code, out, _ = run(
        capsys, "catalyst", "search", psi4, phi4, "--step", "0.05", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] and doc["catalyst"] == [0.6, 0.4]
    assert doc["achieved"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "grid",
    [
        ["--max-dim", "3", "--step", "1e-5"],          # about 8e8 profiles
        ["--max-dim", "40", "--step", "0.01"],
        ["--step", "5e-324"],
    ],
)
def test_catalyst_search_refuses_an_oversized_grid_promptly(files, capsys, grid):
    start = time.perf_counter()
    code, _, err = run(capsys, "catalyst", "search", files["rho"], files["phi"], *grid)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "candidates" in err


def test_catalyst_search_clamps_the_dimension_at_the_grid(files, capsys):
    # no positive profile on a step-0.5 grid has more than two entries
    start = time.perf_counter()
    code, out, _ = run(capsys, "catalyst", "search", files["rho"], files["phi"],
                       "--max-dim", "1000000000", "--step", "0.5", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["candidates_evaluated"] == 1


def test_catalyst_gate_refuses_too_many_alpha_points(files, capsys):
    code, _, err = run(capsys, "catalyst", "gate", files["rho"], files["phi"],
                       "--alpha-points", str(10**12))
    assert code == 2 and "grid points" in err


def test_majorize_command(files, capsys):
    code, out, _ = run(capsys, "majorize", files["p"], files["q"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_majorized_by_q"] and not doc["q_majorized_by_p"]


# ----------------------------------------------------------------- failures

def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "pmax", "no_such.json", "no_such2.json")
    assert code == 1
    assert "error:" in err


def test_json_syntax_error_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"weights": [0.5,')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1


def test_invalid_state_is_validation_error(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"matrix": [[0.6, 0], [0, 0.6]]})
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "trace" in err


def test_schema_error_is_validation_error(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"matrix": [[0.5, "x"], [0, 0.5]]})
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "matrix[0][1]" in err


def test_incoherent_target_exit_code(files, tmp_path, capsys):
    flat = write(tmp_path / "flat.json", {"amplitudes": [1.0, 0, 0]})
    code, _, err = run(capsys, "pmax", files["rho"], flat)
    assert code == 3


def test_precondition_exit_code(tmp_path, capsys):
    here = write(
        tmp_path / "u.json",
        {"amplitudes": [0.7071067811865476, 0.7071067811865476]},
    )
    code, _, err = run(
        capsys, "catalyst", "search", here, here, "--mode", "deterministic"
    )
    assert code == 4


def test_tampered_protocol_file_fails_validation(files, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    run(capsys, "protocol", files["rho"], files["phi"], plan_path)
    doc = json.loads((tmp_path / "plan.json").read_text())
    # put a second entry in the same row: no longer strictly incoherent
    doc["branches"][0]["kraus"][0][1] = [0.3, 0.0]
    tampered = write(tmp_path / "tampered.json", doc)
    code, _, err = run(
        capsys, "simulate", tampered, files["rho"], "--shots", "10"
    )
    assert code == 2


def test_plan_serialization_roundtrip(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    doc = plan_to_doc(plan)
    again = plan_from_doc(json.loads(json.dumps(doc)), "mem")
    assert again.p_max == pytest.approx(plan.p_max)
    assert len(again.branches) == len(plan.branches)
    for a, b in zip(again.branches, plan.branches):
        assert a.branch_id == b.branch_id
        assert np.allclose(a.kraus.matrix, b.kraus.matrix, atol=1e-15)


# ------------------------------------------------ malformed input, exit codes

def test_simulate_rejects_nonpositive_shots(files, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    run(capsys, "protocol", files["rho"], files["phi"], plan_path)
    for shots in ("0", "-3"):
        code, _, err = run(capsys, "simulate", plan_path, files["rho"], "--shots", shots)
        assert code == 2 and "--shots" in err


@pytest.mark.parametrize("dim", ["x", None, 1.5, True])
def test_non_integer_dim_is_a_validation_failure(tmp_path, capsys, dim):
    for key, body in (("matrix", [[1.0]]), ("amplitudes", [1.0])):
        path = write(tmp_path / f"{key}.json", {key: body, "dim": dim})
        code, _, err = run(capsys, "validate", path)
        assert code == 2 and ".dim" in err


def test_nan_entries_are_validation_failures(tmp_path, capsys):
    for name, text in (
        ("m.json", '{"matrix": [[NaN, 0], [0, 1]]}'),
        ("a.json", '{"amplitudes": [NaN, 1]}'),
        ("w.json", '{"weights": [NaN, 1]}'),
    ):
        (tmp_path / name).write_text(text)
        code, _, _ = run(capsys, "validate", str(tmp_path / name))
        assert code == 2


@pytest.mark.parametrize(
    "branches", [5, "x", [1], [None], [["id", "probability", "kraus"]]]
)
def test_malformed_plan_branches_fail_validation(files, tmp_path, capsys, branches):
    plan = {"dim": 3, "p_max": 0.1, "family": [[0, 1]], "branches": branches}
    path = write(tmp_path / "plan.json", plan)
    code, _, _ = run(capsys, "simulate", path, files["rho"], "--shots", "10")
    assert code == 2


def test_plan_with_nan_kraus_entry_fails_validation(files, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    run(capsys, "protocol", files["rho"], files["phi"], plan_path)
    text = (tmp_path / "plan.json").read_text()
    doc = json.loads(text)
    doc["branches"][0]["kraus"][0][0] = [float("nan"), 0.0]
    code, _, _ = run(
        capsys, "simulate", write(tmp_path / "nan.json", doc), files["rho"], "--shots", "10"
    )
    assert code == 2


def test_plan_with_overflowing_kraus_entry_fails_without_warning(files, tmp_path, capsys):
    # finite, but its square overflows: the completeness gap is inf, not nan
    plan_path = str(tmp_path / "plan.json")
    run(capsys, "protocol", files["rho"], files["phi"], plan_path)
    doc = json.loads((tmp_path / "plan.json").read_text())
    doc["branches"][0]["kraus"][0][0] = [1e200, 0.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(
            capsys, "simulate", write(tmp_path / "big.json", doc), files["rho"], "--shots", "10"
        )
    assert code == 2 and "inf" in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_plan_and_state_dimensions_must_agree(files, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    run(capsys, "protocol", files["rho"], files["phi"], plan_path)
    qubit = write(tmp_path / "qubit.json", {"matrix": [[0.5, 0.5], [0.5, 0.5]]})
    code, _, _ = run(capsys, "simulate", plan_path, qubit, "--shots", "10")
    assert code == 2
    code, _, _ = run(capsys, "protocol", qubit, files["phi"], plan_path)
    assert code == 2
    code, _, _ = run(capsys, "pmax", qubit, files["phi"], "--protocol", plan_path)
    assert code == 2


# ------------------------------------------------------- fuzzed JSON inputs

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=2)
)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=2), kids, max_size=2)
    ),
    max_leaves=6,
)

_STATES = [
    {"matrix": [[0.45, 0.15, 0.0], [0.15, 0.05, 0.0], [0.0, 0.0, 0.5]]},
    {"matrix": [[0.5, [0.0, 0.5]], [[0.0, -0.5], 0.5]]},
    {"amplitudes": [[0.6324555320336759, 0.0], 0.6324555320336759,
                    0.31622776601683794, 0.31622776601683794]},
    {"weights": [0.5, 0.3, 0.2]},
]
_TARGETS = [
    {"amplitudes": [0.7071067811865476, 0.7071067811865476, 0]},
    {"amplitudes": [0.7071067811865476, 0.7071067811865476]},
    {"amplitudes": [1.0, 0.0, 0.0]},
]
_PLAN = plan_to_doc(
    full_plan(
        validate_density(_STATES[0]["matrix"]),
        PureStateVector(np.array(_TARGETS[0]["amplitudes"], dtype=complex)),
    )
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, bases):
    """A valid document with up to two nodes replaced by arbitrary JSON."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(_JSON)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    if isinstance(doc, dict) and draw(st.booleans()):
        doc["dim"] = draw(st.one_of(st.integers(0, 5), _SCALARS))
    return doc


_COMMANDS = [
    ["validate", "S"],
    ["subspaces", "S"],
    ["pmax", "S", "T"],
    ["pmax", "S", "T", "--protocol", "OUT"],
    ["protocol", "S", "T", "OUT"],
    ["simulate", "P", "S", "--shots", "N", "--seed", "N"],
    ["catalyst", "gate", "S", "T", "--alpha-points", "4"],
    ["catalyst", "search", "S", "T", "--max-dim", "2", "--step", "0.25"],
    ["catalyst", "search", "S", "T", "--max-dim", "N", "--step", "0.25"],
    ["majorize", "S", "T"],
]
_COMMANDS += [command + ["--json"] for command in _COMMANDS]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    command=st.sampled_from(_COMMANDS),
    state=_mutated(_STATES),
    target=_mutated(_TARGETS + _STATES[3:]),
    plan=_mutated([_PLAN]),
    numbers=st.lists(st.integers(-2, 2**64), min_size=2, max_size=2),
)
def test_cli_exit_code_on_fuzzed_json(tmp_path_factory, command, state, target, plan, numbers):
    where = tmp_path_factory.getbasetemp()
    files = {
        "S": write(where / "fuzz_state.json", state),
        "T": write(where / "fuzz_target.json", target),
        "P": write(where / "fuzz_plan.json", plan),
        "OUT": str(where / "fuzz_out.json"),
    }
    numbers = iter(numbers)
    argv = [str(next(numbers)) if a == "N" else files.get(a, a) for a in command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}
    if "--json" in argv and code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
