"""The tolerance table in ``cohdist/states.py``: one home, stated relations, and each edge.

Every tolerance is a module-level float literal in ``states.py``; no other
float literal below 1e-5 appears in ``src/``.  The relations the table's
comments state are checked here, and the two tolerances that several
sites read, ``TIE_TOL`` and ``PROB_TOL``, get a case just inside and one
just outside their edge at every site.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from cohdist import (
    DensityMatrix,
    DistillationPlan,
    IncompletePlanError,
    PlanBranch,
    PreconditionError,
    ProtocolSynthesisError,
    PureStateVector,
    StrictlyIncoherentKraus,
    catalysis,
    deterministic_gate,
    distill,
    enhancement_gate,
    full_plan,
    majorizes,
    maximal_pure_subspaces,
    measures,
    optimal_protocol,
    optimize_disjoint_selection,
    pmax_mixed,
    pmax_pure,
    search_catalyst,
    simulate,
    states,
    subspaces,
    validate_density,
    verify_branch_outputs,
)
from cohdist.distill import _intermediate_profile
from cohdist.states import (
    A_ONE_TOL,
    MAJORIZATION_TOL,
    PROB_TOL,
    RANK1_TOL,
    TIE_TOL,
    TRACE_TOL,
    _SPLIT_TOL,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "cohdist"


def _float_literal(node) -> float | None:
    """The value of a float literal, negated ones included; None for anything else."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _float_literal(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.value
    return None


def _table_entries(tree: ast.Module) -> list[ast.Assign]:
    """The table: each module-level ``NAME = <float literal>`` of a parsed ``states.py``."""
    return [node for node in tree.body
            if isinstance(node, ast.Assign) and _float_literal(node.value) is not None]


def tolerance_table() -> dict[str, tuple[float, str]]:
    """Each table name with its value and its literal as written."""
    text = (SRC / "states.py").read_text()
    table = {}
    for node in _table_entries(ast.parse(text)):
        name, = (target.id for target in node.targets)
        table[name] = (_float_literal(node.value), ast.get_source_segment(text, node.value))
    return table


# ------------------------------------------------------------- one home


def test_no_float_literal_below_1e_5_outside_the_table():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        table_nodes = set()
        if path.name == "states.py":
            for node in _table_entries(tree):
                table_nodes.update(map(id, ast.walk(node.value)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-5 and id(node) not in table_nodes):
                outside.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert outside == []


def test_the_table_holds_every_tolerance_once():
    table = tolerance_table()
    assert all(0.0 < abs(value) < 1e-5 for value, _ in table.values())
    assert len(table) == 16     # 22 values in five modules before the table
    for name, (value, _) in table.items():
        assert getattr(states, name) == value


@pytest.mark.parametrize("module, name", [
    (subspaces, "A_ONE_TOL"), (subspaces, "RANK1_TOL"), (measures, "MAJORIZATION_TOL"),
    (distill, "PROB_TOL"), (distill, "ENTRY_TOL"), (states, "HERMITIAN_TOL"),
    (states, "PSD_FLOOR"), (states, "TRACE_TOL"), (states, "SUPPORT_TOL"),
])
def test_the_public_tolerance_names_still_resolve_from_their_modules(module, name):
    assert getattr(module, name) == getattr(states, name)


def test_merged_names_are_gone():
    assert [name for name in ("STRICT_TOL", "UNIT_TOL") if hasattr(catalysis, name)] == []
    assert not hasattr(subspaces, "_TIE_TOL")
    assert not hasattr(measures, "_checked_rows")


# ------------------------------------------------------------ relations


def test_majorization_reads_each_vector_relative_to_its_own_total():
    # two valid totals differ by up to 2 TRACE_TOL, more than the slack
    assert MAJORIZATION_TOL < 2 * TRACE_TOL
    p = [0.500000000049, 0.500000000049]     # sum 1 + 9.8e-11
    q = [0.499999999951, 0.499999999951]     # sum 1 - 9.8e-11
    assert majorizes(p, q) and majorizes(q, p)
    # the slack still holds on the normalized partial sums
    assert majorizes([0.6, 0.4], [0.6 - 0.5 * MAJORIZATION_TOL, 0.4 + 0.5 * MAJORIZATION_TOL])
    assert not majorizes([0.6, 0.4], [0.6 - 2 * MAJORIZATION_TOL, 0.4 + 2 * MAJORIZATION_TOL])


@pytest.mark.parametrize("squared_norm", [1 - 0.99 * TRACE_TOL, 1 + 0.99 * TRACE_TOL])
def test_a_flat_source_at_the_norm_edge_synthesizes(squared_norm):
    # the split needs equal sums within _SPLIT_TOL, far below TRACE_TOL, so
    # _protocol rescales p to x's sum first
    assert _SPLIT_TOL < TRACE_TOL
    n = 21
    psi = PureStateVector(np.full(n, math.sqrt(squared_norm / n)))
    phi = PureStateVector(np.sqrt(np.full(n, 1 / n)))
    (kraus, prob), = optimal_protocol(psi, phi)
    assert kraus.columns.tolist() == kraus.rows.tolist() == list(range(n))
    assert prob == pytest.approx(pmax_pure(psi, phi), abs=PROB_TOL)


@pytest.mark.parametrize("a", [0.5, 0.3, 0.1, 0.01])
def test_a_two_level_block_at_the_unit_coherence_edge_passes_the_rank1_check(a):
    # |A_01 - 1| = eps leaves second eigenvalue 2ab eps - ab eps^2 <= eps / 2
    assert A_ONE_TOL / 2 <= RANK1_TOL
    eps = 0.99 * A_ONE_TOL
    c = math.sqrt(a * (1 - a)) * (1 - eps)
    rho = validate_density([[a, c], [c, 1 - a]])
    assert [s.indices for s in maximal_pure_subspaces(rho)] == [(0, 1)]
    assert np.linalg.eigvalsh(rho.matrix)[0] == pytest.approx(2 * a * (1 - a) * eps, rel=1e-6)


@pytest.mark.parametrize("total", [1 - TRACE_TOL, 1 + TRACE_TOL])
def test_the_intermediate_sum_check_leaves_room_for_the_norm_tolerance(total):
    assert PROB_TOL >= 10 * TRACE_TOL
    p, q = np.array([0.5, 0.26, 0.24]) * total, np.array([0.4, 0.35, 0.25])
    x = _intermediate_profile(p, q, measures.min_profile_ratio(p, q))
    assert x.sum() == pytest.approx(1.0, abs=1e-15)


def test_ties_are_far_below_probability_agreement():
    # a gain that PROB_TOL counts is never a tie, so a search record that
    # beats the baseline is a strict record
    assert TIE_TOL * 100 <= PROB_TOL


# ------------------------------------------------------- TIE_TOL edges

INSIDE, OUTSIDE = 0.5, 2.0     # multiples of the tolerance under test


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_selection_value_tie_edge(k):
    # a larger value by more than TIE_TOL wins; within it, the
    # lexicographically smaller index set does (equal weights)
    entries = [((0, 1), 0.5, 0.3), ((1, 2), 0.5, 0.3 + k * TIE_TOL)]
    chosen, _, _ = optimize_disjoint_selection(entries)
    assert chosen == ((0,) if k == INSIDE else (1,))


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_selection_weight_tie_edge(k):
    entries = [((0, 1), 0.5, 0.3), ((1, 2), 0.5 + k * TIE_TOL, 0.3)]
    chosen, _, _ = optimize_disjoint_selection(entries)
    assert chosen == ((0,) if k == INSIDE else (1,))


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_enhancement_margin_edge(k):
    # q = (0.5, 0.3, 0.2) and p with p_3 / q_3 = 0.9 and a tail ratio at
    # depth 2 of 0.9 - m: pmax = 0.9 - m under the bound 0.9, margin m
    m = k * TIE_TOL
    p = [0.55 + 0.5 * m, 0.27 - 0.5 * m, 0.18]
    rho = DensityMatrix.from_pure(PureStateVector.from_probabilities(p))
    phi = PureStateVector.from_probabilities([0.5, 0.3, 0.2])
    record, = enhancement_gate(rho, phi).records
    assert record.margin == pytest.approx(m, rel=1e-3)
    assert record.enhanceable is (k == OUTSIDE)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_overlap_adjusted_edge(monkeypatch, block_mixture, uniform_qubit_target, k):
    # the selection's value falls short of the plain sum by k TIE_TOL
    select = distill.optimize_disjoint_selection

    def short(entries):
        chosen, weight, value = select(entries)
        return chosen, weight, value - k * TIE_TOL

    monkeypatch.setattr(distill, "optimize_disjoint_selection", short)
    assert pmax_mixed(block_mixture, uniform_qubit_target).overlap_adjusted is (k == OUTSIDE)


def _scored(monkeypatch, values):
    """Make the catalyst scorer return ``values`` for the 3-row grid of max_dim 3, step 0.25.

    The grid's rows are (0.5, 0.5), (0.75, 0.25) and (0.5, 0.25, 0.25).
    """
    def fake(subspaces, tgt, grid):
        assert grid.shape == (3, 3)
        return np.array(values, dtype=float)

    monkeypatch.setattr(catalysis, "_catalyzed_values", fake)


@pytest.fixture
def baseline_08(canonical_catalysis_pair):
    psi, phi = canonical_catalysis_pair
    rho = DensityMatrix.from_pure(psi)
    return rho, phi, pmax_mixed(rho, phi).p_max


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_search_record_edge(monkeypatch, baseline_08, k):
    # a later value above the record by more than TIE_TOL is the new record
    rho, phi, _ = baseline_08
    _scored(monkeypatch, [0.9, 0.9 + k * TIE_TOL, 0.0])
    rep = search_catalyst(rho, phi, 3, 0.25)
    assert rep.catalyst == ((0.5, 0.5) if k == INSIDE else (0.75, 0.25))


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_search_near_tie_edge(monkeypatch, baseline_08, k):
    # a later, lexicographically smaller profile within TIE_TOL of the record wins
    rho, phi, _ = baseline_08
    _scored(monkeypatch, [0.0, 0.9, 0.9 - k * TIE_TOL])
    rep = search_catalyst(rho, phi, 3, 0.25)
    assert rep.catalyst == ((0.5, 0.25, 0.25) if k == INSIDE else (0.75, 0.25))
    assert rep.achieved == 0.9


# ------------------------------------------------------ PROB_TOL edges


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_intermediate_profile_sum_edge(k):
    # q = p and probability 1 leave x = p, which sums to 1 + k PROB_TOL
    p = np.array([0.6, 0.4]) * (1 + k * PROB_TOL)
    if k == INSIDE:
        assert _intermediate_profile(p, p, 1.0).sum() == pytest.approx(1.0, abs=1e-15)
    else:
        with pytest.raises(ProtocolSynthesisError, match="intermediate profile sums to"):
            _intermediate_profile(p, p, 1.0)


# source (0.4, 0.35, 0.25) reaches target (0.6, 0.4) with probability 1
# through x = (0.6, 0.4, 0), whose floor prob * q is tight in both slots
SOURCE = PureStateVector.from_probabilities([0.4, 0.35, 0.25])
TARGET = PureStateVector.from_probabilities([0.6, 0.4, 0.0])


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_protocol_floor_edge(monkeypatch, k):
    # x falls k PROB_TOL below its floor in slot 0; scale^2 drops by
    # k PROB_TOL / 0.6, still inside the total check when k is inside
    monkeypatch.setattr(distill, "_intermediate_profile",
                        lambda p, q, prob: np.array([0.6 - k * PROB_TOL, 0.4 + k * PROB_TOL, 0.0]))
    if k == INSIDE:
        assert sum(prob for _, prob in optimal_protocol(SOURCE, TARGET)) == pytest.approx(1.0, abs=PROB_TOL)
    else:
        with pytest.raises(ProtocolSynthesisError, match="violates its floor"):
            optimal_protocol(SOURCE, TARGET)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_protocol_total_edge(monkeypatch, k):
    split = distill._permutation_split

    def heavy(x, p):
        weights, sigmas = split(x, p)
        return weights * (1 + k * PROB_TOL), sigmas

    monkeypatch.setattr(distill, "_permutation_split", heavy)
    if k == INSIDE:
        assert sum(prob for _, prob in optimal_protocol(SOURCE, TARGET)) == pytest.approx(1.0, abs=PROB_TOL)
    else:
        with pytest.raises(ProtocolSynthesisError, match="synthesized total probability"):
            optimal_protocol(SOURCE, TARGET)


def _scaled_protocol(monkeypatch, prob_scale: float, value_scale: float):
    """Make every ``_protocol`` call scale its probabilities and its entries' values."""
    protocol = distill._protocol

    def scaled(*args):
        probs, (branch, rows, cols, values) = protocol(*args)
        return probs * prob_scale, (branch, rows, cols, values * value_scale)

    monkeypatch.setattr(distill, "_protocol", scaled)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_plan_total_edge(monkeypatch, k):
    _scaled_protocol(monkeypatch, 1 + k * PROB_TOL, 1.0)
    rho = DensityMatrix.from_pure(SOURCE)
    if k == INSIDE:
        assert full_plan(rho, TARGET).p_max == pytest.approx(1.0, abs=1e-15)
    else:
        with pytest.raises(ProtocolSynthesisError, match="plan total"):
            full_plan(rho, TARGET)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_plan_completeness_edge(monkeypatch, k):
    # probability 1: sum K†K is the identity, and scaled it exceeds it by k PROB_TOL
    _scaled_protocol(monkeypatch, 1.0, math.sqrt(1 + k * PROB_TOL))
    rho = DensityMatrix.from_pure(SOURCE)
    if k == INSIDE:
        assert full_plan(rho, TARGET).completeness_gap() == pytest.approx(k * PROB_TOL, rel=1e-3)
    else:
        with pytest.raises(ProtocolSynthesisError, match="overshoots completeness"):
            full_plan(rho, TARGET)


def _identity_plan(scale: float = 1.0) -> DistillationPlan:
    kraus = StrictlyIncoherentKraus.from_matrix(scale * np.eye(2))
    return DistillationPlan(2, 1.0, (PlanBranch("k", kraus, 1.0),), ((0, 1),))


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_replay_fidelity_edge(k):
    # the identity branch leaves psi, whose fidelity with phi is 1 - k PROB_TOL
    turn = math.asin(math.sqrt(k * PROB_TOL))
    psi = PureStateVector([math.cos(math.pi / 4), math.sin(math.pi / 4)])
    phi = PureStateVector([math.cos(math.pi / 4 - turn), math.sin(math.pi / 4 - turn)])
    check = verify_branch_outputs(_identity_plan(), DensityMatrix.from_pure(psi), phi)
    assert check.ok is (k == INSIDE)
    assert check.worst_fidelity == pytest.approx(1 - k * PROB_TOL, abs=1e-15)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_simulate_completeness_edge(k):
    plan = _identity_plan(math.sqrt(1 + k * PROB_TOL))
    rho = validate_density(np.diag([0.5, 0.5]))
    assert plan.completeness_gap() == pytest.approx(k * PROB_TOL, rel=1e-3)
    if k == INSIDE:
        assert simulate(plan, rho, shots=10, seed=0).successes == 10
    else:
        with pytest.raises(IncompletePlanError):
            simulate(plan, rho, shots=10, seed=0)


def _pair_below_one(k):
    """A pure pair whose optimal probability is 1 - k PROB_TOL."""
    q = 0.4 * (1 - k * PROB_TOL)
    rho = DensityMatrix.from_pure(PureStateVector.from_probabilities([1 - q, q]))
    return rho, PureStateVector.from_probabilities([0.6, 0.4])


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_probability_one_precondition_edge(k):
    rho, phi = _pair_below_one(k)
    assert pmax_mixed(rho, phi).p_max == pytest.approx(1 - k * PROB_TOL, abs=1e-15)
    if k == INSIDE:
        with pytest.raises(PreconditionError):
            deterministic_gate(rho, phi)
        with pytest.raises(PreconditionError):
            search_catalyst(rho, phi, mode="deterministic")
    else:
        assert deterministic_gate(rho, phi).baseline < 1.0
        assert search_catalyst(rho, phi, mode="deterministic").baseline < 1.0


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_family_weight_edge(k):
    # Gram vectors at tiny angles: (0, 1) and (1, 2) are unit coherent, (0, 2)
    # is not, so the family keeps (0, 1) and misses level 2's k PROB_TOL
    theta = math.sqrt(2 * 4e-10)
    pops = np.array([0.6, 0.4 - k * PROB_TOL, k * PROB_TOL])
    angles = np.array([0.0, theta, 2 * theta])
    g = np.sqrt(pops)[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rho = validate_density(g @ g.T)
    phi = PureStateVector.from_probabilities([0.5, 0.5, 0.0])
    assert pmax_mixed(rho, phi).family.index_sets() == ((0, 1),)
    report = deterministic_gate(rho, phi)
    assert report.weight_complete is (k == INSIDE)
    assert ("family_weight_below_one" in report.flags) is (k == OUTSIDE)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_search_reaches_one_edge(monkeypatch, baseline_08, k):
    rho, phi, _ = baseline_08
    _scored(monkeypatch, [1 - k * PROB_TOL, 0.0, 0.0])
    rep = search_catalyst(rho, phi, 3, 0.25, mode="deterministic")
    assert rep.found is (k == INSIDE)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_search_gain_edge(monkeypatch, baseline_08, k):
    rho, phi, baseline = baseline_08
    _scored(monkeypatch, [baseline + k * PROB_TOL, 0.0, 0.0])
    rep = search_catalyst(rho, phi, 3, 0.25)
    assert rep.found is (k == OUTSIDE)
