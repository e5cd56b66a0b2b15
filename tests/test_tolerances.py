"""The tolerance table in ``cohdist/states.py``: one home, stated relations, and each edge.

Every tolerance is a module-level float literal in ``states.py``; no other
float literal below 1e-5 appears in ``src/``.  The relations the table's
comments state are checked here, and the two tolerances that several
sites read, ``TIE_TOL`` and ``PROB_TOL``, get a case just inside and one
just outside their edge at every site; so do ``HERMITIAN_TOL``,
``PSD_FLOOR``, ``RANK1_TOL``, ``PHASE_LEAD_TOL``, ``BRANCH_WEIGHT_FLOOR``,
``GEOMETRIC_ORDER_TOL``, ``GRID_STEP_TOL`` and ``BRACKET_TOL`` at their one
site each.
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
    NotHermitianError,
    NotPSDError,
    PlanBranch,
    PreconditionError,
    ProtocolSynthesisError,
    PureStateVector,
    StrictlyIncoherentKraus,
    ValidationError,
    catalysis,
    deterministic_gate,
    distill,
    enhancement_gate,
    full_plan,
    majorizes,
    maximal_pure_subspaces,
    measures,
    optimal_protocol,
    pmax_mixed,
    pmax_pure,
    power_mean,
    search_catalyst,
    simulate,
    states,
    subspaces,
    validate_density,
    verify_branch_outputs,
)
from cohdist.distill import _intermediate_profile
from cohdist.catalysis import ALPHAS_ABOVE_ONE, ALPHAS_BELOW_ONE
from cohdist.states import (
    A_ONE_TOL,
    BRANCH_WEIGHT_FLOOR,
    GEOMETRIC_ORDER_TOL,
    GRID_STEP_TOL,
    HERMITIAN_TOL,
    MAJORIZATION_TOL,
    PHASE_LEAD_TOL,
    PROB_TOL,
    PSD_FLOOR,
    RANK1_TOL,
    SUPPORT_TOL,
    TIE_TOL,
    TRACE_TOL,
    _SPLIT_TOL,
)
from reference_oracles import dust_state

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
    # k * 1000 levels at SUPPORT_TOL hold k PROB_TOL of the trace; no subspace
    # holds a population at or below SUPPORT_TOL, so the family misses it
    levels = round(k * PROB_TOL / SUPPORT_TOL)
    rho = dust_state(levels)
    phi = PureStateVector.from_probabilities(np.r_[0.5, 0.5, np.zeros(levels)])
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


# ------------------------------------------------- single-site edges


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_hermitian_edge(k):
    mat = np.array([[0.5, 0.3], [0.3 + k * HERMITIAN_TOL, 0.5]])
    if k == INSIDE:
        rho = validate_density(mat)
        assert rho.matrix[0, 1] == rho.matrix[1, 0]
    else:
        with pytest.raises(NotHermitianError):
            validate_density(mat)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_psd_floor_edge(k):
    # eigenvalues 1 + e and -e, trace 1; then the block at weight 1/2 on
    # levels 3 and 17 of a state checked block by block
    e = -k * PSD_FLOOR
    mat = np.array([[0.5, 0.5 + e], [0.5 + e, 0.5]])
    dim = states.DENSE_PSD_MAX_DIM + 8
    embedded = np.diag(np.full(dim, 0.5 / (dim - 2))).astype(complex)
    embedded[np.ix_([3, 17], [3, 17])] = [[0.25, 0.25 + e], [0.25 + e, 0.25]]
    embedded[5, 9] = embedded[9, 5] = 0.5 / (dim - 2)     # a rank-1 pair beside it
    for m in (mat, embedded):
        assert np.linalg.eigvalsh(m)[0] == pytest.approx(-e, rel=1e-6)
        if k == INSIDE:
            validate_density(m)
        else:
            with pytest.raises(NotPSDError):
                validate_density(m)


def _fan_state(dim: int, theta: float) -> np.ndarray:
    """rho_ij = cos((i - j) theta) / dim: unit vectors fanned by theta in a plane.

    Neighbouring levels have A = cos(theta), so every level is in one
    unit-coherence component while 1 - cos(theta) <= A_ONE_TOL, and the
    trace-1 matrix has rank 2.
    """
    steps = np.arange(dim)
    return np.cos((steps[:, None] - steps[None, :]) * theta) / dim


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_rank1_edge(k):
    # five levels fanned so that the second eigenvalue is k RANK1_TOL: the
    # second eigenvalue grows as theta^2, so theta is scaled from a trial fan
    trial = 1e-5
    second = np.linalg.eigvalsh(_fan_state(5, trial))[-2]
    theta = trial * math.sqrt(k * RANK1_TOL / second)
    mat = _fan_state(5, theta)
    assert 1 - math.cos(theta) <= A_ONE_TOL
    assert np.linalg.eigvalsh(mat)[-2] == pytest.approx(k * RANK1_TOL, rel=1e-6)
    rho = validate_density(mat)
    if k == INSIDE:
        assert [s.indices for s in maximal_pure_subspaces(rho)] == [(0, 1, 2, 3, 4)]
    else:
        with pytest.raises(ValidationError, match="not rank-1"):
            maximal_pure_subspaces(rho)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_phase_lead_edge(k):
    # a rank-1 block whose first amplitude has modulus k PHASE_LEAD_TOL: above
    # the tolerance that amplitude is made real positive, below it the next one
    small = k * PHASE_LEAD_TOL
    v = np.array([small * np.exp(0.7j), math.sqrt(1 - small ** 2) * np.exp(-1.1j)])
    vec, = subspaces._top_vectors(np.outer(v, v.conj())[None], [(0, 1)])
    assert abs(vec[0]) == pytest.approx(small, rel=1e-6)
    # the amplitudes keep their relative phase, 1.8 rad, and the lead one has phase 0
    phases = np.angle(vec).tolist()
    want = [0.0, -1.8] if k == OUTSIDE else [1.8, 0.0]
    assert phases == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_branch_weight_floor_edge(k):
    # the branch onto level 1 carries weight k BRANCH_WEIGHT_FLOOR and an output
    # orthogonal to phi: the replay skips it at or below the floor, else fails on it
    w = k * BRANCH_WEIGHT_FLOOR
    rho = validate_density(np.diag([1 - w, w]))
    phi = PureStateVector([1.0, 0.0])
    branches = tuple(PlanBranch(name, StrictlyIncoherentKraus.from_matrix(np.diag(d)), p)
                     for name, d, p in (("keep", [1.0, 0.0], 1 - w), ("flip", [0.0, 1.0], w)))
    check = verify_branch_outputs(DistillationPlan(2, 1.0, branches, ((0,), (1,))), rho, phi)
    if k == INSIDE:
        assert (check.ok, check.worst_fidelity) == (True, 1.0)
    else:
        assert (check.ok, check.failed_branch_id, check.worst_fidelity) == (False, "flip", 0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_geometric_order_edge(k, sign):
    # within the tolerance the mean is the geometric mean; outside it the
    # generic root, whose rounding already moves it off that mean
    w = np.array([0.5, 0.3, 0.2])
    alpha = sign * k * GEOMETRIC_ORDER_TOL
    generic = float(np.add.reduce(w ** alpha) / w.size) ** (1.0 / alpha)
    geometric = power_mean(w, 0.0)
    assert generic != geometric
    assert power_mean(w, alpha) == (geometric if k == INSIDE else generic)


@pytest.mark.parametrize("k", [INSIDE, OUTSIDE])
def test_grid_step_edge(k):
    step = (1.0 + k * GRID_STEP_TOL) / 10
    assert abs(10 * step - 1.0) == pytest.approx(k * GRID_STEP_TOL, rel=1e-6)
    if k == INSIDE:
        assert np.array_equal(catalysis._catalyst_grid(3, step), catalysis._catalyst_grid(3, 0.1))
    else:
        with pytest.raises(ValidationError, match="grid_step must divide 1"):
            catalysis._catalyst_grid(3, step)


def _bracket_halvings(steps: int) -> list[tuple[list[float], float]]:
    """The probes and the width of each Jonathan-Plenio bracket after ``steps`` halvings.

    Their best orders are the grid points next to alpha = 1 and never move,
    and neither has a finite neighbour toward 1, so each step halves both
    ends toward the order, and the probe on that side is the order itself,
    which the gate leaves out.
    """
    out = []
    for lo, a, hi in ((ALPHAS_BELOW_ONE[-2], ALPHAS_BELOW_ONE[-1], ALPHAS_BELOW_ONE[-1]),
                      (ALPHAS_ABOVE_ONE[0], ALPHAS_ABOVE_ONE[0], ALPHAS_ABOVE_ONE[1])):
        probes = []
        for _ in range(steps):
            lo, hi = (lo + a) / 2.0, (a + hi) / 2.0
            probes.append(lo if lo != a else hi)
        out.append((probes, hi - lo))
    return out


@pytest.mark.parametrize("steps", [1, 6, 17])
@pytest.mark.parametrize("side", [math.inf, -math.inf])
def test_bracket_width_edge(monkeypatch, steps, side):
    # the gate stops once every bracket is narrower than BRACKET_TOL: a
    # tolerance just above the widest bracket after `steps` halvings stops it
    # there, one just below takes one more step for that bracket alone
    rho = DensityMatrix.from_pure(PureStateVector.from_probabilities([0.4, 0.4, 0.1, 0.1]))
    phi = PureStateVector.from_probabilities([0.5, 0.25, 0.25, 0.0])
    widths = [width for _, width in _bracket_halvings(steps)]
    monkeypatch.setattr(catalysis, "BRACKET_TOL", math.nextafter(max(widths), side))
    calls = []
    kernel = catalysis._power_means_kernel

    def recording(rows, lows, highs, orders):
        calls.append(orders)
        return kernel(rows, lows, highs, orders)

    monkeypatch.setattr(catalysis, "_power_means_kernel", recording)
    member, = deterministic_gate(rho, phi).members
    assert (member.alpha_below_one, member.alpha_above_one) == (ALPHAS_BELOW_ONE[-1], ALPHAS_ABOVE_ONE[0])
    assert member.passes
    # the grid pass, then one pass over the two rows of each bracket, each row
    # given its bracket's probes, one per halving, padded with the last one
    _, schedules = calls
    received = [list(dict.fromkeys(row)) for row in schedules.tolist()]
    assert received[0] == received[1] and received[2] == received[3]
    halvings = [steps + (side < 0 and width == max(widths)) for width in widths]
    assert [received[0], received[2]] == [_bracket_halvings(h)[i][0] for i, h in enumerate(halvings)]
    assert sorted(halvings) == [steps, steps + (side < 0)]
