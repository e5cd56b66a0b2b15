import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cohdist
from cohdist import (
    DensityMatrix,
    DistillationPlan,
    PlanBranch,
    PureStateVector,
    StrictlyIncoherentKraus,
    ValidationError,
    catalyzed_pmax,
    deterministic_gate,
    enhancement_gate,
    full_plan,
    pmax_mixed,
    search_catalyst,
    validate_density,
)
from cohdist import cli, errors, subspaces
from cohdist.cli import main, parse_pure, parse_state, plan_from_doc, plan_to_doc
from reference_oracles import (
    chain_state,
    random_block_state,
    random_mixture_state,
    random_pure_state,
    subspace_state,
)


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


def test_a_negative_weight_is_reported_as_a_plain_number(files, capsys):
    bad = write(files["tmp"] / "bad.json", {"weights": [1.5, -0.5]})
    for argv in (("validate", bad), ("majorize", bad, files["q"]), ("majorize", files["p"], bad)):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: negative weight -0.5\n", argv


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
    assert set(doc) == {"p_max", "family", "per_subspace"}


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


def test_protocol_and_simulate_with_a_tiny_target_entry(tmp_path, capsys):
    # a supported target entry of 2.2e-10: an intermediate profile built by
    # subtracting running sums misses P * q there, and the total misses p_max
    psi = write(tmp_path / "psi.json", {"amplitudes": np.sqrt([0.388, 0.05, 0.562]).tolist()})
    phi = write(tmp_path / "phi.json",
                {"amplitudes": np.sqrt([0.481, 0.519 - 2.2e-10, 2.2e-10]).tolist()})
    plan_path = str(tmp_path / "plan.json")
    code, out, err = run(capsys, "protocol", psi, phi, plan_path, "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["outputs_verified"] and doc["branches"] == 2
    code, out, err = run(capsys, "simulate", plan_path, psi, "--shots", "2000", "--json")
    assert code == 0, err
    assert json.loads(out)["analytic_probability"] == pytest.approx(doc["p_max"], abs=1e-9)


def test_validate_accepts_a_state_whose_component_a_question_refuses(overlapping_state, tmp_path, capsys):
    # chain_state(6) is a valid density matrix, but its one unit-coherence
    # component fails the rank-1 check, so no pure subspace answer exists
    chain = write(tmp_path / "chain.json", {"matrix": chain_state(6).matrix.real.tolist()})
    phi = write(tmp_path / "phi.json", {"amplitudes": [0.7071067811865476, 0.7071067811865476, 0, 0, 0, 0]})
    assert run(capsys, "validate", chain)[0] == 0
    for argv in (("subspaces", chain), ("pmax", chain, phi)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "restriction to (0, 1, 2, 3, 4, 5) not rank-1" in err and "Traceback" not in err
    # the path 0 - 1 - 2 at the edge is one component, and it is rank-1
    state = write(tmp_path / "rho.json", {"matrix": overlapping_state.matrix.real.tolist()})
    code, out, _ = run(capsys, "subspaces", state, "--json")
    assert code == 0
    assert [s["indices"] for s in json.loads(out)["subspaces"]] == [[0, 1, 2]]


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
        code, out, _ = run(capsys, "catalyst", "gate", state, target, "--json")
        assert code == 0
        doc = json.loads(out)
        rho = parse_state(cli._read_doc(state)[0], state)
        phi = parse_pure(cli._read_doc(target)[0], target)
        enh = enhancement_gate(rho, phi)
        assert doc["baseline"] == enh.baseline
        assert doc["enhancement"]["verdict"] == enh.verdict
        assert [r["margin"] for r in doc["enhancement"]["records"]] == [
            r.margin for r in enh.records]
        det = deterministic_gate(rho, phi)
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


def test_report_json_keys_are_the_report_fields(files, tmp_path, capsys):
    # these key sets are the report dataclasses' fields: a new or renamed
    # field changes the --json schema and has to be pinned here
    psi4 = write(tmp_path / "psi4.json", {"amplitudes": np.sqrt([0.4, 0.4, 0.1, 0.1]).tolist()})
    phi4 = write(tmp_path / "phi4.json", {"amplitudes": np.sqrt([0.5, 0.25, 0.25, 0]).tolist()})
    code, out, _ = run(capsys, "catalyst", "gate", psi4, phi4, "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"baseline", "enhancement", "deterministic"}
    assert set(doc["enhancement"]) == {"verdict", "records"}
    assert doc["enhancement"]["records"]
    for record in doc["enhancement"]["records"]:
        assert set(record) == {"indices", "pure_pmax", "bound", "margin", "enhanceable"}
    assert set(doc["deterministic"]) == {
        "verdict", "members", "total_weight", "weight_complete", "flags"}
    assert doc["deterministic"]["members"]
    for member in doc["deterministic"]["members"]:
        assert set(member) == {
            "indices", "margin_below_one", "alpha_below_one", "margin_above_one",
            "alpha_above_one", "entropy_margin", "zero_entry_support", "passes"}
    plus = write(tmp_path / "plus.json", {"amplitudes": [0.7071067811865476, 0.7071067811865476]})
    pair = write(tmp_path / "pair.json", {"amplitudes": [0.6, 0.8]})
    code, out, _ = run(capsys, "catalyst", "gate", plus, pair, "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"baseline", "enhancement", "deterministic"}
    assert doc["deterministic"] == {"applicable": False}

    for mode in ("probabilistic", "deterministic"):
        code, out, _ = run(capsys, "catalyst", "search", psi4, phi4, "--mode", mode, "--json")
        assert code == 0
        assert set(json.loads(out)) == {
            "baseline", "mode", "found", "catalyst", "achieved", "candidates_evaluated"}

    plan_path = str(tmp_path / "plan.json")
    assert run(capsys, "protocol", files["rho"], files["phi"], plan_path)[0] == 0
    code, out, _ = run(capsys, "simulate", plan_path, files["rho"], "--shots", "100", "--json")
    assert code == 0
    assert set(json.loads(out)) == {
        "shots", "seed", "successes", "empirical_probability", "standard_error",
        "analytic_probability", "per_branch_counts", "failure_count", "rng_algorithm"}


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
    enumerations = []
    original = subspaces._enumerate

    def enumerating(rho):
        enumerations.append(rho)
        return original(rho)

    monkeypatch.setattr(subspaces, "_enumerate", enumerating)
    plan_path = str(files["tmp"] / "plan.json")
    # pmax --protocol reads the subspaces the state keeps a second time, in full_plan
    commands = [
        (["pmax", files["rho"], files["phi"], "--protocol", plan_path], 2),
        (["catalyst", "gate", files["rho"], files["phi"]], 1),
        (["catalyst", "search", files["rho"], files["phi"]], 1),
    ]
    for argv, reads in commands:
        calls.clear()
        enumerations.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(enumerations) == 1, argv
        assert len(calls) == reads and calls[0] is calls[-1], argv
    rho = parse_state(cli._read_doc(files["rho"])[0], files["rho"])
    phi = parse_pure(cli._read_doc(files["phi"])[0], files["phi"])
    for gate in (enhancement_gate, deterministic_gate, cohdist.catalyst_gates):
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


def test_majorize_command(files, capsys):
    code, out, _ = run(capsys, "majorize", files["p"], files["q"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_majorized_by_q"] and not doc["q_majorized_by_p"]


def test_majorize_reads_each_vector_relative_to_its_own_total(tmp_path, capsys):
    # sums 1 + 9.8e-11 and 1 - 9.8e-11, both valid: equal up to normalization
    p = write(tmp_path / "p.json", {"weights": [0.500000000049, 0.500000000049]})
    q = write(tmp_path / "q.json", {"weights": [0.499999999951, 0.499999999951]})
    code, out, _ = run(capsys, "majorize", p, q, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_majorized_by_q"] is True and doc["q_majorized_by_p"] is True


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
    assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("content", [
    b"[" * 5000,                                # too deep for the JSON decoder
    b'{"weights": [' + b"7" * 5000 + b"]}",     # beyond the integer conversion limit
    b"\xff\xfe{}",                              # a UTF-16 byte order mark
], ids=["nesting", "long-integer", "not-utf-8"])
def test_undecodable_files_are_unreadable_input(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    done = _cli_subprocess("validate", str(path))
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {path}: ") and "Traceback" not in done.stderr


def test_a_recursion_error_past_reading_is_not_unreadable_input(files, monkeypatch, capsys):
    def deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "pmax_mixed", deep)
    with pytest.raises(RecursionError):
        main(["pmax", files["rho"], files["phi"]])


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
    none = write(tmp_path / "none.json", {"dim": 2})
    code, _, err = run(capsys, "validate", none)
    assert code == 2
    assert "expected 'matrix', 'amplitudes' or 'weights'" in err
    for key in ("amplitudes", "weights"):
        empty = write(tmp_path / f"empty-{key}.json", {key: []})
        code, _, err = run(capsys, "validate", empty)
        assert code == 2
        assert f"{key}: expected a nonempty array" in err


def test_a_matrix_row_that_is_not_an_array_is_refused(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"matrix": [[1, 0], 5]})
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert err == f"error: {bad}.matrix[1]: expected an array\n"


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



_ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and cls.__module__ == errors.__name__
]
# the documented exit codes; every other toolkit error is failed validation
_EXIT_BY_ERROR = {OSError: 1, errors.IncoherentTargetError: 3,
                  errors.PreconditionError: 4, errors.RankDeficitError: 4}


@pytest.mark.parametrize("error", [OSError, *_ERROR_CLASSES], ids=lambda cls: cls.__name__)
def test_every_failure_maps_to_its_exit_code(files, monkeypatch, capsys, error):
    def fail(rho):
        raise error("raised inside the command", *([-0.5] if error is errors.NotPSDError else []))

    monkeypatch.setattr(cli, "maximal_pure_subspaces", fail)
    code, out, err = run(capsys, "subspaces", files["rho"], "--json")
    assert code == _EXIT_BY_ERROR.get(error, 2)
    assert (out, err) == ("", "error: raised inside the command\n")

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


def test_plan_files_are_compact_json_of_plan_to_doc(files, capsys):
    rho = parse_state(cli._read_doc(files["rho"])[0], files["rho"])
    phi = parse_pure(cli._read_doc(files["phi"])[0], files["phi"])
    expected = plan_to_doc(full_plan(rho, phi))
    written = files["tmp"] / "plan.json"
    for argv in (["protocol", files["rho"], files["phi"], str(written)],
                 ["pmax", files["rho"], files["phi"], "--protocol", str(written)]):
        written.unlink(missing_ok=True)
        assert run(capsys, *argv)[0] == 0
        text = written.read_text()
        assert "\n" not in text
        assert json.loads(text) == expected


def _per_entry_pairs(values) -> list:
    """[re, im] pairs converted one entry at a time, as the writers used to."""
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


def test_writers_equal_the_per_entry_form():
    # json.dumps tells -0.0 from 0.0, so signed zeros have to match too
    rng = np.random.default_rng(1717)
    plans, states = [], []
    for _ in range(24):
        d = int(rng.integers(2, 12))
        kind = int(rng.integers(3))
        rho = (random_mixture_state(rng, d) if kind == 0 else random_block_state(rng, d)[0]
               if kind == 1 else DensityMatrix.from_pure(random_pure_state(rng, d)))
        support = sorted(rng.choice(d, size=int(rng.integers(2, min(4, d) + 1)), replace=False).tolist())
        plans.append(full_plan(rho, random_pure_state(rng, d, support=support)))
        states.append(rho)
    signed = [complex(0.5, -0.0), complex(-0.0, 0.5), complex(-0.25, 0.0), complex(-0.0, -0.1)]
    kraus = StrictlyIncoherentKraus.from_entries(5, [(4 - t, t, v) for t, v in enumerate(signed)])
    plans.append(DistillationPlan(5, 0.5, (PlanBranch("z", kraus, 0.5),), ()))
    for plan in plans:
        want = {
            "dim": plan.dim,
            "p_max": plan.p_max,
            "family": [list(s) for s in plan.family_index_sets],
            "branches": [{"id": b.branch_id, "probability": b.probability,
                          "kraus": [_per_entry_pairs(row) for row in b.kraus.matrix]}
                         for b in plan.branches],
        }
        assert json.dumps(plan_to_doc(plan)) == json.dumps(want)
    assert json.dumps(want).count("-0.0") == 3
    for rho in states:
        for s in subspaces.maximal_pure_subspaces(rho):
            got = cli._pairs_out(rho.dim, s.amplitudes, list(s.indices))
            assert json.dumps(got) == json.dumps(_per_entry_pairs(subspace_state(s, rho.dim).amplitudes))


def test_writers_read_only_the_stored_entries(files, tmp_path, monkeypatch, capsys):
    # plan files and subspace listings come from the stored entries, and the
    # subspaces command reads the unit-coherence mask once
    def refuse(obj):
        raise AssertionError("dense form built")

    masks = []
    unit_mask = subspaces._unit_mask
    monkeypatch.setattr(StrictlyIncoherentKraus, "reconstruct", refuse)
    monkeypatch.setattr(StrictlyIncoherentKraus, "matrix", property(refuse))
    monkeypatch.setattr(subspaces, "_unit_mask", lambda rho: masks.append(rho) or unit_mask(rho))
    flat = write(tmp_path / "flat.json", {"matrix": [[0.5, 0.0], [0.0, 0.5]]})
    for state, distillable in ((files["rho"], True), (flat, False)):
        masks.clear()
        code, out, _ = run(capsys, "subspaces", state, "--json")
        assert code == 0 and len(masks) == 1
        assert json.loads(out)["distillable"] is distillable
    plan_path = str(tmp_path / "plan.json")
    for argv in (["protocol", files["rho"], files["phi"], plan_path],
                 ["pmax", files["rho"], files["phi"], "--protocol", plan_path],
                 ["simulate", plan_path, files["rho"], "--shots", "100"]):
        assert run(capsys, *argv)[0] == 0, argv


def test_plan_serialization_roundtrip(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    doc = plan_to_doc(plan)
    again = plan_from_doc(json.loads(json.dumps(doc)), "mem")
    assert again.p_max == pytest.approx(plan.p_max)
    assert len(again.branches) == len(plan.branches)
    for a, b in zip(again.branches, plan.branches):
        assert a.branch_id == b.branch_id
        assert np.allclose(a.kraus.matrix, b.kraus.matrix, atol=1e-15)


def test_plan_from_doc_builds_every_operator_in_one_stack_call(stack_calls):
    rho, _ = random_block_state(np.random.default_rng(404), 24)
    phi = random_pure_state(np.random.default_rng(405), 24, support=[3, 10, 17])
    doc = json.loads(json.dumps(plan_to_doc(full_plan(rho, phi))))
    stack_calls.clear()
    plan = plan_from_doc(doc, "plan.json")
    assert len(plan.branches) >= 3
    assert stack_calls == [len(plan.branches)]


# ------------------------------------------------ malformed input, exit codes

def test_simulate_rejects_nonpositive_shots(files, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    run(capsys, "protocol", files["rho"], files["phi"], plan_path)
    for shots in ("0", "-3"):
        code, _, err = run(capsys, "simulate", plan_path, files["rho"], "--shots", shots)
        assert code == 2 and "--shots" in err
    code, _, err = run(capsys, "simulate", plan_path, files["rho"], "--seed", "-1")
    assert code == 2 and "--seed must be nonnegative" in err


@pytest.mark.parametrize("dim", ["x", None, 1.5, True, 2])    # 2: an integer the data disagrees with
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
    "branches", [5, "x", [1], [None], [["id", "probability", "kraus"]],
                 [{"id": "a", "probability": 0.1}],
                 [{"id": "a", "probability": 0.1, "kraus": [[0.5]]}]]
)
def test_malformed_plan_branches_fail_validation(files, tmp_path, capsys, branches):
    plan = {"dim": 3, "p_max": 0.1, "family": [[0, 1]], "branches": branches}
    path = write(tmp_path / "plan.json", plan)
    code, _, err = run(capsys, "simulate", path, files["rho"], "--shots", "10")
    assert code == 2 and f"{path}.branches" in err


def test_a_plan_missing_a_top_level_key_fails_validation(files, tmp_path, capsys):
    for key in ("dim", "p_max", "family", "branches"):
        plan = {k: v for k, v in _PLAN.items() if k != key}
        path = write(tmp_path / "plan.json", plan)
        code, _, err = run(capsys, "simulate", path, files["rho"], "--shots", "10")
        assert code == 2 and f"missing '{key}'" in err


def test_a_repeated_branch_id_fails_validation(tmp_path, capsys):
    # simulate counts each outcome under its id, so the second branch's count would merge into the first
    state = write(tmp_path / "rho.json", {"matrix": [[0.5, 0.5], [0.5, 0.5]]})
    branches = [{"id": "a", "probability": 0.25, "kraus": [[0.5, 0.0], [0.0, 0.5]]},
                {"id": "a", "probability": 0.25, "kraus": [[0.0, 0.5], [0.5, 0.0]]}]
    plan = {"dim": 2, "p_max": 0.5, "family": [[0, 1]], "branches": branches}
    path = write(tmp_path / "plan.json", plan)
    code, _, err = run(capsys, "simulate", path, state, "--shots", "512")
    assert code == 2
    assert f"{path}.branches[1].id: 'a' repeats {path}.branches[0].id" in err
    with pytest.raises(ValidationError, match="repeats"):
        plan_from_doc(plan, "plan")
    branches[1]["id"] = "b"
    code, out, _ = run(capsys, "simulate", write(tmp_path / "plan.json", plan), state,
                       "--shots", "512", "--json")
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["per_branch_counts"].values()) == doc["successes"]


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


# ------------------------------------------------------- numeric fast path

_NUMBER_NODES = [
    [[0.5, 0.5], [0.5, 0.5]],
    [[1, 0], [0, 0]],
    [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [-0.0, 0.0]]],
    [[-0.0, [0.0, -0.0]], [0.5, 0.5]],
    [[0.5, 1]], [[]], [[], []], [[[]]],
    [[0.5, 0.5], [0.5]],
    [[0.5, "0.5"], [0.5, 0.5]],
    [[0.5, None]], [[{"re": 1}]], [[[1, 2, 3]]], [[[1, 2], [3]]],
    [[2**63, 1]], [[2**53 + 1, 0.5]], [[2**70, 1]], [[10**400, 1]],
    [[float("nan"), 1]], [[float("inf"), 0]], [[1e153, -1e153]],
    [[0.5, [0.5]]], [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5]]],
]


def _outcome(read):
    try:
        return read().tobytes()
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("node", _NUMBER_NODES)
def test_fast_number_path_reads_what_the_entry_path_reads(node):
    # same bytes (signed zeros included) or the same error message
    assert _outcome(lambda: cli._matrix_in(node, "m", True)) == _outcome(
        lambda: cli._matrix_in(node, "m"))
    rows = node if isinstance(node[0], list) else [node]
    for row in rows:
        if not row:
            continue
        doc = {"amplitudes": row}
        assert _outcome(lambda: cli.parse_pure(doc, "a", True).amplitudes) == _outcome(
            lambda: cli.parse_pure(doc, "a").amplitudes)


@pytest.mark.parametrize("text", [
    '{"matrix": [[true]]}',
    '{"matrix": [[true, 0], [0, false]]}',
    '{"matrix": [[[1, false], [0, 0]], [[0, 0], [0, 0]]]}',
    '{"amplitudes": [true, 0]}',
    '{"amplitudes": [[1, false], [0, 0]]}',
])
def test_booleans_in_number_arrays_are_refused(tmp_path, capsys, text):
    # as numbers these would be valid states
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "expected a finite number" in err


def test_a_boolean_in_a_plan_kraus_matrix_is_refused(files, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    run(capsys, "protocol", files["rho"], files["phi"], plan_path)
    doc = json.loads((tmp_path / "plan.json").read_text())
    entry = doc["branches"][0]["kraus"][0][0]
    entry[1] = False if entry[1] == 0.0 else entry[1]
    entry[0] = bool(entry[0]) if entry[0] in (0.0, 1.0) else entry[0]
    assert isinstance(entry[0], bool) or isinstance(entry[1], bool)
    code, _, err = run(capsys, "simulate", write(tmp_path / "b.json", doc), files["rho"],
                       "--shots", "10")
    assert code == 2 and "expected a finite number" in err


def test_a_target_of_another_dimension_is_refused(tmp_path, capsys):
    rho = validate_density([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
    state = write(tmp_path / "rho.json", {"matrix": rho.matrix.real.tolist()})
    calls = (
        pmax_mixed,
        enhancement_gate,
        deterministic_gate,
        search_catalyst,
        lambda r, p: catalyzed_pmax(r, p, (0.5, 0.5)),
    )
    for amps in ([0.6, 0.8], [0.5, 0.5, 0.5, 0.5]):
        phi = PureStateVector(np.array(amps, dtype=complex))
        for call in calls:
            with pytest.raises(ValidationError, match="dimension"):
                call(rho, phi)
        target = write(tmp_path / "phi.json", {"amplitudes": amps})
        for command in (["pmax"], ["catalyst", "gate"], ["catalyst", "search"]):
            code, out, err = run(capsys, *command, state, target)
            assert (code, out) == (2, ""), command
            assert "dimension" in err


def _cli_subprocess(*argv):
    """Run the CLI as its own process, on the cohdist package imported here."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(cohdist.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cohdist.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_shell_sees_the_exit_codes(files, tmp_path):
    done = _cli_subprocess("pmax", files["rho"], files["phi"], "--json")
    assert done.returncode == 0
    assert json.loads(done.stdout, parse_constant=_refuse_constant)["family"] == [[0, 1], [2]]
    assert "Traceback" not in done.stderr
    bad = write(tmp_path / "bad.json", {"matrix": [[0.5, "x"], [0, 0.5]]})
    flat = write(tmp_path / "flat.json", {"amplitudes": [1.0, 0, 0]})
    plus = write(tmp_path / "plus.json", {"amplitudes": [0.7071067811865476, 0.7071067811865476]})
    for argv, expected in (
        (["pmax", str(tmp_path / "missing.json"), files["phi"]], 1),
        (["pmax", bad, files["phi"]], 2),
        (["pmax", files["rho"], flat], 3),
        (["catalyst", "search", plus, plus, "--mode", "deterministic"], 4),
    ):
        done = _cli_subprocess(*argv)
        assert done.returncode == expected, argv
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_json_output_is_compact_sorted_and_strict(files, capsys):
    # one line per document: stdout is json.dumps of itself with sorted keys
    plan = str(files["tmp"] / "plan.json")
    psi4 = write(files["tmp"] / "psi4.json", {"amplitudes": np.sqrt([0.4, 0.4, 0.1, 0.1]).tolist()})
    phi4 = write(files["tmp"] / "phi4.json", {"amplitudes": np.sqrt([0.5, 0.25, 0.25, 0]).tolist()})
    for argv in (
        ["validate", files["rho"]],
        ["subspaces", files["rho"]],
        ["pmax", files["rho"], files["phi"]],
        ["protocol", files["rho"], files["phi"], plan],
        ["simulate", plan, files["rho"], "--shots", "1000", "--seed", "3"],
        ["catalyst", "gate", psi4, phi4],
        ["catalyst", "search", psi4, phi4, "--step", "0.1"],
        ["majorize", files["p"], files["q"]],
    ):
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert out == json.dumps(doc, sort_keys=True, allow_nan=False) + "\n", argv


def test_huge_amplitudes_are_refused_with_clean_stderr(tmp_path):
    # the unscaled norm overflowed inside numpy and printed a RuntimeWarning;
    # the squared norm past the float range is reported as inf
    huge = write(tmp_path / "huge.json", {"amplitudes": [1e308, -1e308]})
    done = _cli_subprocess("validate", huge)
    assert done.returncode == 2
    assert done.stderr == "error: squared vector norm is inf, expected 1 within 1e-10\n"


def test_an_overflowing_coherence_is_refused_with_clean_stderr(tmp_path):
    # 1e308 + 1e308 overflows in the symmetrization and eigvalsh does not
    # converge on the 8 levels: the refusal is one error line, exit 2
    mat = np.diag(np.full(8, 0.125))
    mat[2, 5] = mat[5, 2] = 1e308
    huge = write(tmp_path / "huge.json", {"matrix": mat.tolist()})
    done = _cli_subprocess("validate", huge)
    assert done.returncode == 2
    assert done.stderr == "error: matrix is not PSD: min eigenvalue = nan\n"


def test_catalyst_gate_has_no_alpha_points_option(files):
    # the probability-1 gate samples one fixed exponent grid
    done = _cli_subprocess("catalyst", "gate", files["rho"], files["phi"], "--alpha-points", "4")
    assert done.returncode == 2
    assert done.stderr.startswith("usage: ")
    assert "unrecognized arguments: --alpha-points 4" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ("majorize", "p", "q", "--jso"),
    ("catalyst", "search", "rho", "phi", "--max", "3"),
    ("catalyst", "gate", "rho", "phi", "--js"),
    ("pmax", "rho", "phi", "--prot", "plan.json"),
    ("--vers",),
], ids=["majorize-jso", "search-max", "gate-js", "pmax-prot", "vers"])
def test_option_prefixes_are_refused(files, argv):
    # only full option spellings are accepted, so adding an option never breaks one
    argv = [str(files["tmp"] / a) if a == "plan.json" else files.get(a, a) for a in argv]
    done = _cli_subprocess(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: ")
    assert "Traceback" not in done.stderr


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
    ["catalyst", "gate", "S", "T"],
    ["catalyst", "search", "S", "T", "--max-dim", "2", "--step", "0.25"],
    ["catalyst", "search", "S", "T", "--max-dim", "N", "--step", "0.25"],
    ["majorize", "S", "T"],
]
_COMMANDS += [command + ["--json"] for command in _COMMANDS]


_NUMBER_KEYS = ("matrix", "amplitudes", "weights", "kraus")


def _plant_boolean(doc, pick: int) -> bool:
    """Replace a 0 or 1 inside the doc's number arrays by the equal boolean; False if none.

    Read as a number, the boolean would leave a valid document valid.
    """
    spots = []
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if any(k in path for k in _NUMBER_KEYS) and type(node) in (int, float) and node in (0, 1):
            spots.append(path)
    if not spots:
        return False
    path = spots[pick % len(spots)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bool(parent[path[-1]])
    return True


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
    poison=st.sampled_from([None, "S", "T", "P"]),
    pick=st.integers(0, 10**6),
)
def test_cli_exit_code_on_fuzzed_json(
    tmp_path_factory, command, state, target, plan, numbers, poison, pick
):
    where = tmp_path_factory.getbasetemp()
    docs = {"S": state, "T": target, "P": plan}
    # an unmutated document with a boolean among its numbers must be refused
    poisoned = False
    if poison in command:
        bases = {"S": _STATES, "T": _TARGETS, "P": [_PLAN]}[poison]
        docs[poison] = copy.deepcopy(bases[pick % len(bases)])
        poisoned = _plant_boolean(docs[poison], pick)
    files = {
        "S": write(where / "fuzz_state.json", docs["S"]),
        "T": write(where / "fuzz_target.json", docs["T"]),
        "P": write(where / "fuzz_plan.json", docs["P"]),
        "OUT": str(where / "fuzz_out.json"),
    }
    numbers = iter(numbers)
    argv = [str(next(numbers)) if a == "N" else files.get(a, a) for a in command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}
    assert not (poisoned and code == 0)
    if "--json" in argv and code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
