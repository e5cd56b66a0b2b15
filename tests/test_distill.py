import dataclasses
from statistics import NormalDist

import numpy as np
import pytest

from cohdist import (
    DensityMatrix,
    IncoherentTargetError,
    NonSquareError,
    NotStrictlyIncoherentError,
    PureStateVector,
    ProtocolSynthesisError,
    RankDeficitError,
    StrictlyIncoherentKraus,
    ValidationError,
    catalyst_gates,
    catalyzed_pmax,
    enhancement_gate,
    full_plan,
    majorizes,
    optimal_protocol,
    pmax_mixed,
    pmax_pure,
    search_catalyst,
    validate_density,
    verify_branch_outputs,
)
from cohdist.distill import (
    ENTRY_TOL,
    PROB_TOL,
    BranchCheck,
    DistillationPlan,
    PlanBranch,
    _intermediate_profile,
    _permutation_split,
    _SPLIT_TOL,
)
from cohdist.measures import min_profile_ratio
from cohdist.states import support_profile
from cohdist.oracles import branch_probabilities, simulate
from reference_oracles import (
    coherence_rank,
    conversion_kraus,
    random_block_state,
    random_mixture_state,
    random_pure_state,
    subspace_state,
)


# ---------------------------------------------------------------- operators

def test_kraus_accepts_permutation_like_matrix():
    mat = np.array([[0, 0.5], [0.8, 0]], dtype=complex)
    k = StrictlyIncoherentKraus.from_matrix(mat)
    assert np.allclose(k.reconstruct(), mat)


@pytest.mark.parametrize("raw", [np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))])
def test_kraus_rejects_a_non_square_matrix(raw):
    with pytest.raises(NonSquareError):
        StrictlyIncoherentKraus.from_matrix(raw)


def test_kraus_rejects_two_entries_in_a_row():
    with pytest.raises(NotStrictlyIncoherentError):
        StrictlyIncoherentKraus.from_matrix(np.array([[0.5, 0.5], [0, 0]]))


def test_kraus_rejects_two_entries_in_a_column():
    with pytest.raises(NotStrictlyIncoherentError):
        StrictlyIncoherentKraus.from_matrix(np.array([[0.5, 0], [0.5, 0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_kraus_rejects_non_finite_entries(bad):
    mat = np.array([[0, 0.5], [0.8, 0]], dtype=complex)
    mat[1, 0] = bad
    with pytest.raises(ValidationError):
        StrictlyIncoherentKraus.from_matrix(mat)


def test_kraus_entries_with_nested_indices_are_refused():
    # list-valued row and column indices stack to a 3-d index array
    with pytest.raises(ValidationError, match="indices must be integers"):
        StrictlyIncoherentKraus.from_entries(2, [([0], [1], 1.0)])


def test_kraus_decomposition_factors():
    mat = np.array(
        [[0, 0.5j, 0], [0.7, 0, 0], [0, 0, 0]], dtype=complex
    )
    k = StrictlyIncoherentKraus.from_matrix(mat)
    # only the nonzero entries are stored, used columns ascending
    assert k.dim == 3
    assert k.columns.tolist() == [0, 1]
    assert k.rows.tolist() == [1, 0]
    assert k.coefficients.tolist() == [0.7, 0.5j]
    # K = P_pi * diagonal * projector, with the unused column sent to the unused row
    diagonal = np.zeros(3, dtype=complex)
    diagonal[k.columns] = k.coefficients
    assert np.array_equal(diagonal, [0.7, 0.5j, 0.0])
    perm = np.eye(3)[:, [1, 0, 2]]
    projector = np.diag((diagonal != 0).astype(float))
    assert np.array_equal(perm @ np.diag(diagonal) @ projector, mat)
    assert np.array_equal(k.reconstruct(), mat)


def test_operators_branches_and_plans_compare_by_their_entries():
    from cohdist.cli import plan_from_doc, plan_to_doc

    def swap(value):
        return StrictlyIncoherentKraus.from_entries(3, [(0, 1, 0.5), (1, 0, value)])

    a, b = swap(0.5), swap(0.5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != swap(0.25) and a != StrictlyIncoherentKraus.from_entries(4, [(0, 1, 0.5), (1, 0, 0.5)])
    assert a != StrictlyIncoherentKraus.from_entries(3, [(0, 1, 0.5)]) and a != "a"
    assert len({a, b, swap(0.25)}) == 2
    assert PlanBranch("k", a, 0.5) == PlanBranch("k", b, 0.5)
    assert hash(PlanBranch("k", a, 0.5)) == hash(PlanBranch("k", b, 0.5))
    assert PlanBranch("k", a, 0.5) != PlanBranch("k", swap(0.25), 0.5)
    rho, _ = random_block_state(np.random.default_rng(12), 12)
    plan = full_plan(rho, random_pure_state(np.random.default_rng(13), 12, support=[1, 4, 7]))
    back = plan_from_doc(plan_to_doc(plan), "plan.json")
    assert len(plan.branches) >= 2
    assert back == plan and hash(back) == hash(plan)
    assert back != DistillationPlan(plan.dim, plan.p_max, plan.branches[1:], plan.family_index_sets)


def test_incoherent_dephasing_commutation():
    # defining property: conjugation commutes with entrywise dephasing
    rng = np.random.default_rng(3)
    for _ in range(25):
        rho = random_mixture_state(rng, 4)
        mat = np.zeros((4, 4), dtype=complex)
        cols = rng.permutation(4)
        for r, c in enumerate(cols):
            if rng.random() < 0.8:
                mat[r, c] = rng.normal() + 1j * rng.normal()
        k = StrictlyIncoherentKraus.from_matrix(mat)
        out = k.matrix @ rho.matrix @ k.matrix.conj().T
        deph_in = np.diag(np.diag(rho.matrix))
        assert np.allclose(
            np.diag(np.diag(out)), k.matrix @ deph_in @ k.matrix.conj().T, atol=1e-12
        )


# ---------------------------------------------------------- pure conversion

def test_pmax_pure_witness_value(witness_pair):
    psi, phi = witness_pair
    assert pmax_pure(psi, phi) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_pmax_pure_deterministic_when_majorized():
    psi = PureStateVector.from_probabilities(np.array([0.4, 0.3, 0.3]))
    phi = PureStateVector.from_probabilities(np.array([0.6, 0.3, 0.1]))
    assert pmax_pure(psi, phi) == pytest.approx(1.0, abs=1e-12)


def test_pmax_pure_zero_on_rank_deficit():
    psi = PureStateVector(np.array([1.0, 0.0], dtype=complex))
    phi = PureStateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    assert pmax_pure(psi, phi) == 0.0


def test_conversion_kraus_single_branch_is_suboptimal_on_witness(witness_pair):
    psi, phi = witness_pair
    k = conversion_kraus(psi, phi)
    out = k.reconstruct() @ psi.amplitudes
    succ = float(np.vdot(out, out).real)
    assert succ == pytest.approx(0.26 / 0.35, abs=1e-12)
    assert succ < pmax_pure(psi, phi) - 0.05
    # conditional output still hits the target exactly
    out /= np.linalg.norm(out)
    assert abs(np.vdot(phi.amplitudes, out)) == pytest.approx(1.0, abs=1e-10)


def test_conversion_kraus_rank_deficit_raises():
    psi = PureStateVector(np.array([1.0, 0.0], dtype=complex))
    phi = PureStateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    with pytest.raises(RankDeficitError):
        conversion_kraus(psi, phi)
    with pytest.raises(RankDeficitError, match="below target rank"):
        optimal_protocol(psi, phi)


def test_optimal_protocol_beats_single_kraus(witness_pair):
    psi, phi = witness_pair
    branches = optimal_protocol(psi, phi)
    assert len(branches) >= 2
    total = sum(p for _, p in branches)
    assert total == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_optimal_protocol_single_branch_case():
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.3, 0.2]))
    phi = PureStateVector.from_probabilities(np.ones(3) / 3)
    branches = optimal_protocol(psi, phi)
    assert len(branches) == 1
    assert sum(p for _, p in branches) == pytest.approx(0.6, abs=1e-12)


def test_optimal_protocol_rank_one_target_always_succeeds():
    psi = PureStateVector.from_probabilities(np.array([0.7, 0.3]))
    phi = PureStateVector(np.array([0.0, 1.0], dtype=complex))
    branches = optimal_protocol(psi, phi)
    assert sum(p for _, p in branches) == pytest.approx(1.0, abs=1e-9)


def test_optimal_protocol_agrees_with_formula_on_random_pairs():
    rng = np.random.default_rng(20260814)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        m = int(rng.integers(2, dim + 1))
        psi = random_pure_state(rng, dim)
        phi = random_pure_state(rng, dim, support=sorted(
            rng.choice(dim, size=m, replace=False).tolist()
        ))
        target = pmax_pure(psi, phi)
        branches = optimal_protocol(psi, phi)
        assert len(branches) <= len(support_profile(psi.probabilities())[0])
        total = sum(p for _, p in branches)
        assert total == pytest.approx(target, abs=1e-9)
        # each branch maps the source onto the target ray
        for k, p in branches:
            if p < 1e-14:
                continue
            out = k.reconstruct() @ psi.amplitudes
            norm_sq = float(np.vdot(out, out).real)
            assert norm_sq == pytest.approx(p, abs=1e-9)
            fid = abs(np.vdot(phi.amplitudes, out)) ** 2 / norm_sq
            assert fid >= 1.0 - 1e-9


def _majorized_pair(rng, n):
    """Sorted x and a sorted p it majorizes, with ties, zeros and tight prefixes.

    x gets a zero tail and repeated values in two of three draws; p is a
    random mixture of permutations of x, and in one draw of three it keeps
    a prefix of x's sum by mixing the head and the tail of x separately.
    """
    x = rng.dirichlet(np.full(n, rng.uniform(0.2, 3.0)))
    if rng.random() < 2 / 3:
        x[n - int(rng.integers(0, n)):] = 0.0
        if rng.random() < 0.5:
            x = np.where(x > 0, rng.choice([1.0, 2.0, 3.0], size=n), 0.0)
    x = np.sort(x / x.sum())[::-1]

    def mix(v):
        return sum(w * v[rng.permutation(v.size)] for w in rng.dirichlet(np.ones(3)))

    cut = int(rng.integers(1, n)) if n > 1 and rng.random() < 1 / 3 else n
    p = np.sort(np.r_[mix(x[:cut]), mix(x[cut:])])[::-1]
    return x, p


def test_permutation_split_is_a_short_convex_combination():
    rng = np.random.default_rng(20261018)
    for _ in range(400):
        n = int(rng.integers(1, 65))
        x, p = _majorized_pair(rng, n)
        weights, sigmas = _permutation_split(x, p)
        assert len(weights) == len(sigmas) <= n
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        for sigma in sigmas:
            assert sorted(sigma.tolist()) == list(range(n))
        rebuilt = sum(w * x[sigma] for w, sigma in zip(weights, sigmas))
        assert np.abs(rebuilt - p).max() <= 1e-12


def test_optimal_protocol_unit_probability_iff_majorized():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        psi = random_pure_state(rng, dim)
        phi = random_pure_state(rng, dim)
        p = pmax_pure(psi, phi)
        if majorizes(psi.probabilities(), phi.probabilities(), tol=0.0):
            hits += 1
            assert p >= 1.0 - 1e-9
    assert hits > 0  # the sample actually exercised the branch


# ------------------------------------------------------------- mixed states

def test_pmax_mixed_block_example(block_mixture, uniform_qubit_target):
    res = pmax_mixed(block_mixture, uniform_qubit_target)
    assert res.p_max == pytest.approx(0.1, abs=1e-9)
    assert res.family.index_sets() == ((0, 1), (2,))
    assert res.family.total_weight == pytest.approx(1.0, abs=1e-12)
    yields = {y.subspace.indices: y.achieved for y in res.per_subspace}
    assert yields[(0, 1)] == pytest.approx(0.1, abs=1e-12)
    assert yields[(2,)] == 0.0


def test_pmax_mixed_rejects_incoherent_target(block_mixture):
    with pytest.raises(IncoherentTargetError):
        pmax_mixed(block_mixture, PureStateVector(np.array([1, 0, 0], dtype=complex)))


def test_pmax_mixed_pair_plus_forty_levels_is_closed_form():
    # every maximal pure subspace is disjoint from the others, so all 41 are
    # taken and only the pair contributes: weight * pure conversion ratio
    rng = np.random.default_rng(40)
    dim = 42
    pair = sorted(rng.choice(dim, 2, replace=False).tolist())
    levels = [i for i in range(dim) if i not in pair]
    amps = np.zeros(dim, dtype=complex)
    amps[pair] = np.sqrt([0.7, 0.3]) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    mat = 0.55 * np.outer(amps, amps.conj())
    mat[levels, levels] += 0.45 * rng.dirichlet(np.ones(len(levels)))
    phi = PureStateVector.from_probabilities(np.r_[0.6, 0.4, np.zeros(dim - 2)])
    res = pmax_mixed(validate_density(mat), phi)
    assert res.p_max == pytest.approx(0.55 * 0.3 / 0.4, abs=1e-12)
    assert len(res.family.members) == 41
    assert res.family.total_weight == pytest.approx(1.0, abs=1e-12)


def test_full_plan_rejects_dimension_mismatch(block_mixture):
    phi = PureStateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
    with pytest.raises(ValidationError):
        full_plan(block_mixture, phi)


def test_pmax_mixed_is_convex_in_the_state(uniform_qubit_target):
    # mixing two block states cannot beat the weighted value average
    rng = np.random.default_rng(17)
    for _ in range(20):
        r1, _ = random_block_state(rng, 4)
        r2, _ = random_block_state(rng, 4)
        lam = float(rng.uniform(0.2, 0.8))
        mix = validate_density(lam * r1.matrix + (1 - lam) * r2.matrix)
        phi = PureStateVector(
            np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        )
        lhs = pmax_mixed(mix, phi).p_max
        rhs = lam * pmax_mixed(r1, phi).p_max + (1 - lam) * pmax_mixed(r2, phi).p_max
        assert lhs <= rhs + 1e-9


def test_pmax_mixed_linear_over_disjoint_blocks(uniform_qubit_target):
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho, truth = random_block_state(rng, 6)
        phi = PureStateVector(
            np.array([1, 1, 0, 0, 0, 0], dtype=complex) / np.sqrt(2)
        )
        res = pmax_mixed(rho, phi)
        expect = sum(y.achieved for y in res.per_subspace)
        assert res.p_max == pytest.approx(expect, abs=1e-9)
    

def test_pure_source_reduces_to_pure_formula(witness_pair):
    psi, phi = witness_pair
    rho = DensityMatrix.from_pure(psi)
    assert pmax_mixed(rho, phi).p_max == pytest.approx(
        pmax_pure(psi, phi), abs=1e-12
    )


# ------------------------------------------------------------ complete plans

def test_full_plan_matches_formula_on_random_mixtures():
    rng = np.random.default_rng(20260814)
    checked = 0
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        rho = random_mixture_state(rng, dim)
        m = int(rng.integers(2, dim + 1))
        phi = random_pure_state(
            rng, dim, support=sorted(rng.choice(dim, size=m, replace=False).tolist())
        )
        res = pmax_mixed(rho, phi)
        plan = full_plan(rho, phi)
        total = sum(b.probability for b in plan.branches)
        assert total == pytest.approx(res.p_max, abs=1e-9)
        assert plan.completeness_gap() <= 1e-9
        assert verify_branch_outputs(plan, rho, phi)
        # every synthesized branch carries slot 0, so none is empty
        assert all(b.kraus.columns.size > 0 for b in plan.branches)
        checked += 1
    assert checked == 40


def test_full_plan_keeps_relabelling_and_phase_invariance():
    # a permutation of the levels and diagonal phases are free unitaries, so
    # they change neither p_max nor the number of branches, and the plan of
    # the relabelled pair must still map every branch onto its target
    rng = np.random.default_rng(7)
    for case in range(300):
        dim = int(rng.integers(2, 9))
        rho = random_block_state(rng, dim)[0] if case % 2 else random_mixture_state(rng, dim)
        m = int(rng.integers(2, dim + 1))
        phi = random_pure_state(rng, dim, support=sorted(rng.choice(dim, size=m, replace=False).tolist()))
        perm = rng.permutation(dim)
        src_phase, tgt_phase = np.exp(2j * np.pi * rng.random((2, dim)))
        moved = (src_phase[:, None] * rho.matrix * src_phase.conj()[None, :])[np.ix_(perm, perm)]
        rho2, phi2 = DensityMatrix(moved), PureStateVector((tgt_phase * phi.amplitudes)[perm])
        plan, plan2 = full_plan(rho, phi), full_plan(rho2, phi2)
        assert abs(plan2.p_max - plan.p_max) <= 1e-12
        assert len(plan2.branches) == len(plan.branches)
        assert verify_branch_outputs(plan2, rho2, phi2)


def test_full_plan_branch_ids_are_unique(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    ids = [b.branch_id for b in plan.branches]
    assert len(ids) == len(set(ids))


def test_full_plan_worked_entries(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    assert len(plan.branches) == 1
    k = plan.branches[0].kraus.matrix
    assert k[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert k[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert plan.branches[0].probability == pytest.approx(0.1, abs=1e-12)


def test_verify_branch_outputs_detects_tampering(
    block_mixture, uniform_qubit_target
):
    plan = full_plan(block_mixture, uniform_qubit_target)
    bad = StrictlyIncoherentKraus.from_entries(
        3, [(0, 0, 0.5), (1, 1, 0.1)]
    )
    tampered = type(plan)(
        dim=plan.dim,
        p_max=plan.p_max,
        branches=(PlanBranch("s0.k0", bad, plan.branches[0].probability),),
        family_index_sets=plan.family_index_sets,
    )
    check = verify_branch_outputs(tampered, block_mixture, uniform_qubit_target)
    assert not check
    assert check.failed_branch_id == "s0.k0"
    assert check.worst_fidelity < 1.0 - 1e-9


def test_a_nan_fidelity_fails_its_branch():
    phi = PureStateVector(np.array([1.0, 0.0]))

    def replay(entries, rho):
        k = StrictlyIncoherentKraus.from_entries(2, entries)
        return verify_branch_outputs(DistillationPlan(2, 0.5, (PlanBranch("a", k, 0.5),), ()), rho, phi)

    coherent = DensityMatrix(np.full((2, 2), 0.5))
    assert replay([(0, 0, 1.0), (1, 1, 1.0)], coherent) == BranchCheck(False, "a", 0.5)
    # entries of 1e200 overflow the weight and the overlap to inf, so the fidelity is NaN
    check = replay([(0, 0, 1e200), (1, 1, 1e200)], coherent)
    assert (bool(check), check.failed_branch_id) == (False, "a")
    assert np.isnan(check.worst_fidelity)
    # an overflowed effect on an empty level: the weight inf * 0 is NaN
    check = replay([(0, 1, 1e200)], DensityMatrix(np.diag([1.0, 0.0])))
    assert (bool(check), check.failed_branch_id) == (False, "a")
    assert np.isnan(check.worst_fidelity)


# a 2-level and a 5-level state against the 3-level block_mixture and its plan
_QUBIT = PureStateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
_FIVE = PureStateVector(np.array([1.0, 1.0, 0.0, 0.0, 0.0], dtype=complex) / np.sqrt(2))


def test_verify_branch_outputs_refuses_another_dimension(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    with pytest.raises(ValidationError, match="target dimension 2 != source dimension 3"):
        verify_branch_outputs(plan, block_mixture, _QUBIT)
    with pytest.raises(ValidationError, match="plan dimension 3 != source dimension 2"):
        verify_branch_outputs(plan, DensityMatrix.from_pure(_QUBIT), _QUBIT)


def test_branch_probabilities_refuses_another_dimension(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    with pytest.raises(ValidationError, match="plan dimension 3 != source dimension 2"):
        branch_probabilities(plan, DensityMatrix.from_pure(_QUBIT))


def test_simulate_refuses_another_dimension(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    with pytest.raises(ValidationError, match="plan dimension 3 != source dimension 2"):
        simulate(plan, DensityMatrix.from_pure(_QUBIT), 100, 1)


@pytest.mark.parametrize("phi", [_QUBIT, _FIVE])
def test_optimal_protocol_refuses_another_dimension(phi):
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.3, 0.2]))
    with pytest.raises(ValidationError, match=f"target dimension {phi.dim} != source dimension 3"):
        optimal_protocol(psi, phi)


@pytest.mark.parametrize("phi", [_QUBIT, _FIVE])
def test_conversion_kraus_refuses_another_dimension(phi):
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.3, 0.2]))
    with pytest.raises(ValidationError, match=f"target dimension {phi.dim} != source dimension 3"):
        conversion_kraus(psi, phi)


@pytest.mark.parametrize("phi", [_QUBIT, _FIVE])
def test_pmax_pure_refuses_another_dimension(phi):
    # a 3-level source and a 2-level target gave 1.0
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.3, 0.2]))
    with pytest.raises(ValidationError, match=f"target dimension {phi.dim} != source dimension 3"):
        pmax_pure(psi, phi)


def test_plan_refuses_a_repeated_branch_id():
    # simulate counted both branches under one id: 266 successes, per_branch_counts {'a': 142}
    keep = StrictlyIncoherentKraus.from_entries(2, [(0, 0, 0.5), (1, 1, 0.5)])
    swap = StrictlyIncoherentKraus.from_entries(2, [(0, 1, 0.5), (1, 0, 0.5)])
    with pytest.raises(ValidationError, match="branch id 'a' repeats"):
        DistillationPlan(2, 0.5, (PlanBranch("a", keep, 0.25), PlanBranch("a", swap, 0.25)), ())


def test_plan_refuses_an_operator_of_another_dimension():
    # a 3-level operator in a 2-level plan gave completeness_gap() -0.75 and IndexError elsewhere
    kraus = StrictlyIncoherentKraus.from_entries(3, [(0, 0, 0.5)])
    with pytest.raises(ValidationError, match="branch 'a' operator dimension 3 != plan dimension 2"):
        DistillationPlan(2, 0.25, (PlanBranch("a", kraus, 0.25),), ())


def test_plan_zero_when_no_coherent_subspace(uniform_qubit_target):
    rho = validate_density(np.diag([0.4, 0.3, 0.3]))
    res = pmax_mixed(rho, uniform_qubit_target)
    assert res.p_max == 0.0
    plan = full_plan(rho, uniform_qubit_target)
    assert len(plan.branches) == 0


def _rank4_plan(profile, levels, phases, target_levels):
    """full_plan for a pure source and the (0.4, 0.3, 0.2, 0.1) target."""
    dim = len(profile)
    amps = np.zeros(dim, dtype=complex)
    amps[levels] = np.sqrt(profile) * np.exp(2j * np.pi * phases)
    tgt = np.zeros(dim, dtype=complex)
    tgt[target_levels] = np.sqrt([0.4, 0.3, 0.2, 0.1])
    rho = DensityMatrix.from_pure(PureStateVector(amps))
    phi = PureStateVector(tgt)
    return rho, phi, full_plan(rho, phi)


def _shaped_profile(dim):
    mags = 0.15 + np.abs(np.random.default_rng(dim).normal(size=dim))
    return mags**2 / np.sum(mags**2)


def test_full_plan_rank4_target_at_d128_has_at_most_d_branches():
    rng = np.random.default_rng(128)
    profile = _shaped_profile(128)
    rho, phi, plan = _rank4_plan(
        profile, rng.permutation(128), rng.random(128), rng.choice(128, 4, replace=False)
    )
    assert len(plan.branches) <= 128
    assert sum(b.probability for b in plan.branches) == pytest.approx(plan.p_max, abs=1e-9)
    assert plan.p_max == pytest.approx(pmax_pure(PureStateVector(np.sqrt(profile)), phi))
    assert verify_branch_outputs(plan, rho, phi)


def test_full_plan_branch_count_does_not_depend_on_level_placement():
    # the same sorted profiles on other levels with other phases used to give
    # 391 branches for some placements and 426 for others
    profile = np.sort(_shaped_profile(32))[::-1]
    counts = set()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        _, _, plan = _rank4_plan(
            profile, rng.permutation(32), rng.random(32), rng.choice(32, 4, replace=False)
        )
        counts.add(len(plan.branches))
    assert len(counts) == 1
    assert counts.pop() <= 32


# ------------------------------------------- monomial form against dense references

def _reference_factors(mat):
    """Column scan of a dense matrix, kept as the reference.

    Returns the entries above ENTRY_TOL as (columns, rows, coefficients),
    columns ascending, or raises NotStrictlyIncoherentError.
    """
    used_rows = set()
    columns, rows, coefficients = [], [], []
    for j in range(mat.shape[0]):
        nonzero = np.nonzero(np.abs(mat[:, j]) > ENTRY_TOL)[0]
        if len(nonzero) > 1 or (len(nonzero) == 1 and int(nonzero[0]) in used_rows):
            raise NotStrictlyIncoherentError(f"column {j}")
        if len(nonzero) == 1:
            i = int(nonzero[0])
            used_rows.add(i)
            columns.append(j)
            rows.append(i)
            coefficients.append(mat[i, j])
    return (np.array(columns, dtype=np.intp), np.array(rows, dtype=np.intp),
            np.array(coefficients, dtype=complex))


def _reference_gap(plan):
    """Largest eigenvalue of the dense sum of K†K, minus 1."""
    total = np.zeros((plan.dim, plan.dim), dtype=complex)
    for b in plan.branches:
        total += b.kraus.matrix.conj().T @ b.kraus.matrix
    return float(np.linalg.eigvalsh(total).max() - 1.0)


def _reference_outputs(plan, rho, phi):
    """Dense K rho K† per branch: (weight, fidelity with phi) pairs."""
    out = []
    for b in plan.branches:
        k = b.kraus.matrix
        state = k @ rho.matrix @ k.conj().T
        weight = float(np.real(np.trace(state)))
        out.append((weight, float(np.real(phi.amplitudes.conj() @ state @ phi.amplitudes))))
    return out


def _random_monomial(rng, d):
    """Dense monomial matrix with zero columns and entries at ENTRY_TOL.

    An entry of modulus exactly ENTRY_TOL counts as zero, even where it
    shares a row or a column with a real entry; one of twice that size
    stays.
    """
    mat = np.zeros((d, d), dtype=complex)
    rows = rng.permutation(d)
    for j in range(d):
        u = rng.random()
        if u < 0.2:
            continue
        if u < 0.3:
            mat[rows[j], j] = ENTRY_TOL * rng.choice([1, -1, 1j, -1j])
        elif u < 0.35:
            mat[rows[j], j] = 2 * ENTRY_TOL
        else:
            mat[rows[j], j] = rng.normal() + 1j * rng.normal()
    if d > 1 and rng.random() < 0.5:
        i, j = rng.choice(d, 2, replace=False)
        mat[rows[j], rows[i]] += ENTRY_TOL * 1j
    return mat


def _entries(mat, rng):
    rows, cols = np.nonzero(mat)
    order = rng.permutation(rows.size)
    return [(int(rows[t]), int(cols[t]), mat[rows[t], cols[t]]) for t in order]


def test_kraus_forms_match_the_column_scan():
    rng = np.random.default_rng(5150)
    for _ in range(300):
        d = int(rng.integers(1, 13))
        mat = _random_monomial(rng, d)
        columns, rows, coefficients = _reference_factors(mat)
        kept = np.where(np.abs(mat) > ENTRY_TOL, mat, 0.0)
        for k in (
            StrictlyIncoherentKraus.from_matrix(mat),
            StrictlyIncoherentKraus.from_entries(d, _entries(mat, rng)),
        ):
            assert k.dim == d
            assert np.array_equal(k.columns, columns)
            assert np.array_equal(k.rows, rows)
            assert np.array_equal(k.coefficients, coefficients)
            diagonal = np.zeros(d, dtype=complex)
            diagonal[k.columns] = k.coefficients
            assert np.array_equal(diagonal, kept.sum(axis=0))
            assert np.array_equal(k.matrix, kept)
            assert np.array_equal(k.reconstruct(), kept)


def test_kraus_forms_reject_a_repeated_row_or_column():
    rng = np.random.default_rng(5151)
    for _ in range(200):
        d = int(rng.integers(2, 13))
        mat = _random_monomial(rng, d)
        i, j = np.nonzero(np.abs(mat) > ENTRY_TOL)
        if not i.size:
            continue
        t = int(rng.integers(i.size))
        other = int(rng.integers(1, d))
        if rng.random() < 0.5:
            mat[i[t], (j[t] + other) % d] = 0.5     # second entry in row i[t]
        else:
            mat[(i[t] + other) % d, j[t]] = 0.5     # second entry in column j[t]
        with pytest.raises(NotStrictlyIncoherentError):
            _reference_factors(mat)
        with pytest.raises(NotStrictlyIncoherentError):
            StrictlyIncoherentKraus.from_matrix(mat)
        with pytest.raises(NotStrictlyIncoherentError):
            StrictlyIncoherentKraus.from_entries(d, _entries(mat, rng))


def test_from_entries_rejects_a_repeated_position():
    with pytest.raises(NotStrictlyIncoherentError):
        StrictlyIncoherentKraus.from_entries(2, [(0, 1, 0.5), (0, 1, 0.25)])


@pytest.mark.parametrize("dim, entries", [
    (2, [(5, 0, 1.0)]),
    (2, [(0, 5, 1.0)]),
    (2, [(-1, 0, 1.0)]),
    (2, [(0, -1, 1.0)]),
    (2, [(0, 1.5, 1.0)]),
    (-1, []),
    (0, []),
    (2.0, [(0, 0, 1.0)]),
])
def test_kraus_entries_need_integer_indices_in_range(dim, entries):
    # only the entries are stored, so a bad index would otherwise be kept silently
    with pytest.raises(ValidationError):
        StrictlyIncoherentKraus.from_entries(dim, entries)


@pytest.mark.parametrize("entries", [
    [(0, 0)],
    [(0, 0, "a")],
    [(0, 0, 1.0), (1, 1, 1.0, 7)],
    [((0, 1), 0, 1.0)],
    None,
    [3],
])
def test_kraus_entries_that_are_not_numeric_triples_are_validation_errors(entries):
    with pytest.raises(ValidationError):
        StrictlyIncoherentKraus.from_entries(2, entries)


def _random_plans(rng):
    """Plans from full_plan on random inputs, and plans of random monomials."""
    for _ in range(40):
        d = int(rng.integers(2, 8))
        rho = random_mixture_state(rng, d) if rng.random() < 0.5 else random_block_state(rng, d)[0]
        phi = random_pure_state(rng, d, support=sorted(
            rng.choice(d, size=int(rng.integers(2, d + 1)), replace=False).tolist()
        ))
        yield full_plan(rho, phi), rho, phi
        branches = tuple(
            PlanBranch(f"r{a}", StrictlyIncoherentKraus.from_matrix(
                _random_monomial(rng, d) * rng.uniform(0.1, 1.0)
            ), 0.0)
            for a in range(int(rng.integers(1, 5)))
        )
        yield DistillationPlan(d, 0.0, branches, ()), rho, phi


def test_monomial_checks_match_dense_products():
    rng = np.random.default_rng(5152)
    for plan, rho, phi in _random_plans(rng):
        assert plan.completeness_gap() == pytest.approx(_reference_gap(plan), abs=1e-12)
        dense = _reference_outputs(plan, rho, phi)
        probs = branch_probabilities(plan, rho)
        assert np.allclose(probs, [max(0.0, w) for w, _ in dense], rtol=0, atol=1e-12)
        # the dense replay: the first branch below 1 - 1e-9 fails the check
        worst, failed = 1.0, None
        for b, (weight, overlap) in zip(plan.branches, dense):
            if weight > 1e-15:
                worst = min(worst, overlap / weight)
                if overlap / weight < 1.0 - 1e-9:
                    failed = b.branch_id
                    break
        check = verify_branch_outputs(plan, rho, phi)
        assert (bool(check), check.failed_branch_id) == (failed is None, failed)
        assert check.worst_fidelity == pytest.approx(worst, abs=1e-12)


# ------------------------------------------- protocol entries against the slot loop

def _split_inputs(psi, phi):
    """optimal_protocol's sorted profiles p and q and intermediate profile x."""
    src, tgt = (tuple(support_profile(v.probabilities())[0].tolist()) for v in (psi, phi))
    n, m = len(src), len(tgt)
    p = psi.probabilities()[list(src)]
    q = np.zeros(n)
    q[:m] = phi.probabilities()[list(tgt)]
    return p, q, _intermediate_profile(p, q, min_profile_ratio(p, q))


def _reference_branch_entries(psi, phi):
    """optimal_protocol's branches built slot by slot, as (weight, entries)."""
    src, tgt = (tuple(support_profile(v.probabilities())[0].tolist()) for v in (psi, phi))
    n, m = len(src), len(tgt)
    p, q, x = _split_inputs(psi, phi)
    scale = float(np.sqrt(np.min(x[:m] / q[:m])))
    if np.abs(x - p).max() <= 1e-13:
        mixture = [(1.0, tuple(range(n)))]
    else:
        mixture = zip(*_permutation_split(x, p))
    amps_s, amps_t, sqrt_x = psi.amplitudes, phi.amplitudes, np.sqrt(x)
    out = []
    for w, sigma in mixture:
        entries = []
        for t in range(n):
            slot = sigma[t]
            if slot >= m or x[slot] <= 0.0:
                continue
            coeff = (
                np.sqrt(w)
                * (sqrt_x[slot] / amps_s[src[t]])
                * (scale * amps_t[tgt[slot]] / sqrt_x[slot])
            )
            entries.append((tgt[slot], src[t], coeff))
        if entries:
            out.append((w * scale * scale, entries))
    return out


def _protocol_pairs():
    rng = np.random.default_rng(20260814)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        m = int(rng.integers(2, dim + 1))
        psi = random_pure_state(rng, dim)
        support = sorted(rng.choice(dim, size=m, replace=False).tolist())
        yield psi, random_pure_state(rng, dim, support=support)
    for n in (3, 8, 17, 40):
        x, p = _majorized_pair(rng, n)
        q = x[x > 0]
        if q.size >= 2:
            amps = np.sqrt(p) * np.exp(2j * np.pi * rng.random(n))
            # the target keeps x's zero tail, so it has the source's n levels
            yield PureStateVector(amps[rng.permutation(n)]), PureStateVector(np.sqrt(x))
    for dim in (32, 64):
        levels = np.random.default_rng(dim).permutation(dim)
        rho, phi, _ = _rank4_plan(_shaped_profile(dim), levels, rng.random(dim), [0, 1, 2, 3])
        vals, vecs = np.linalg.eigh(rho.matrix)
        yield PureStateVector(vecs[:, -1]), phi


def test_protocol_entries_match_the_slot_loop():
    for psi, phi in _protocol_pairs():
        branches = optimal_protocol(psi, phi)
        reference = _reference_branch_entries(psi, phi)
        assert len(branches) == len(reference)
        for (kraus, prob), (want_prob, entries) in zip(branches, reference):
            want = StrictlyIncoherentKraus.from_entries(psi.dim, entries)
            assert prob == want_prob
            assert np.array_equal(kraus.columns, want.columns)
            assert np.array_equal(kraus.rows, want.rows)
            scale = np.abs(want.coefficients).max()
            assert np.abs(kraus.coefficients - want.coefficients).max() <= 1e-15 * scale
            out, want_out = kraus.reconstruct() @ psi.amplitudes, want.reconstruct() @ psi.amplitudes
            assert np.abs(out - want_out).max() <= 1e-15 * np.abs(want_out).max()


# ------------------------------------------- array passes against the branch-by-branch build

def _reference_permutation_split(x, p):
    """The split as it sorted y once per step and once per Newton probe, kept as the reference.

    Returns (w, sigma) pairs; :func:`_permutation_split` must give the same
    parts, bit for bit, as stacked arrays.
    """
    n = x.size
    pos = np.arange(n)
    x_prefix = np.cumsum(x)
    block = np.zeros(n, dtype=np.intp)
    cut = pos == 0
    y = p.astype(float)
    rest, t = 1.0, 0.0
    parts = []

    def bounds():
        starts = np.flatnonzero(cut)
        label = np.cumsum(cut) - 1
        return starts[label], np.r_[starts[1:], n][label] - 1

    def slack(sorted_vals, start):
        gap = x_prefix - np.cumsum(sorted_vals)
        return gap - np.where(start > 0, gap[start - 1], 0.0)

    for _ in range(2 * n + 2):
        order = np.lexsort((-y, block))
        cut[1:] |= slack(y[order], bounds()[0])[:-1] <= _SPLIT_TOL * (1.0 + t)
        start, end = bounds()
        block[order] = start
        y_sorted = y[order]
        y_sorted += slack(y_sorted, start)[end] / (end - start + 1)
        y[order] = y_sorted
        sigma = np.argsort(order)
        step = np.where(start == end, 0.0, y_sorted - x)
        if not step.any():
            parts.append((rest, tuple(sigma.tolist())))
            return parts
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step > 0, x[start] - y_sorted, y_sorted - x[end]) / np.abs(step)
        t = float(room[step != 0.0].min())
        direction = step[sigma]
        for _ in range(n + 2):
            z = y + t * direction
            z_order = np.lexsort((-z, block))
            gaps = np.where(end != pos, slack(z[z_order], start), np.inf)
            k = int(np.argmin(gaps))
            if gaps[k] >= -_SPLIT_TOL * (1.0 + t):
                break
            moved = np.cumsum(direction[z_order])
            t_next = t + gaps[k] / (moved[k] - (moved[start[k] - 1] if start[k] else 0.0))
            if not 0.0 <= t_next < t:
                break
            t = t_next
        parts.append((rest * t / (1.0 + t), tuple(sigma.tolist())))
        rest /= 1.0 + t
        y = y + t * direction
    raise AssertionError("reference split did not converge")


def _bench_shaped_pair(dim, seed):
    """A full-support pure source with the benchmark's fixed profile, and a rank-4 target.

    The moduli are 0.15 plus half-normal quantiles on shuffled levels with
    random phases; the target has profile (0.4, 0.3, 0.2, 0.1) on random levels.
    """
    rng = np.random.default_rng(seed)
    mags = 0.15 + np.array([NormalDist().inv_cdf(0.5 + 0.5 * (i + 0.5) / dim) for i in range(dim)])
    profile = rng.permutation(mags**2 / np.sum(mags**2))
    amps = np.sqrt(profile) * np.exp(2j * np.pi * rng.random(dim))
    tgt = np.zeros(dim, dtype=complex)
    tgt[rng.choice(dim, size=4, replace=False)] = np.sqrt([0.4, 0.3, 0.2, 0.1])
    return PureStateVector(amps / np.linalg.norm(amps)), PureStateVector(tgt)


def _bench_shaped_pairs():
    for dim in (32, 40):
        for seed in range(3):
            yield _bench_shaped_pair(dim, seed)


def _split_cases():
    """(x, p) from the protocol pairs, random majorized pairs up to n = 128, bench shapes."""
    for psi, phi in [*_protocol_pairs(), *_bench_shaped_pairs()]:
        p, _, x = _split_inputs(psi, phi)
        if np.abs(x - p).max() > 1e-13:
            yield x, p
    rng = np.random.default_rng(20261019)
    for _ in range(150):
        yield _majorized_pair(rng, int(rng.integers(1, 129)))


def test_permutation_split_equals_the_reference_bit_for_bit():
    cases = 0
    for x, p in _split_cases():
        weights, sigmas = _permutation_split(x, p)
        reference = _reference_permutation_split(x, p)
        assert weights.tolist() == [w for w, _ in reference]
        assert [tuple(s) for s in sigmas.tolist()] == [s for _, s in reference]
        cases += 1
    assert cases > 200


def _count_sorts(monkeypatch, split, x, p):
    """``split(x, p)`` and the number of np.lexsort calls it made."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
    out = split(x, p)
    monkeypatch.undo()
    return len(calls), out


def test_permutation_split_sorts_once_per_step(monkeypatch):
    # the probe that settles t is the next point, so on the benchmark shapes,
    # where Newton mostly accepts the first probe, every step sorts once
    for psi, phi in _bench_shaped_pairs():
        p, _, x = _split_inputs(psi, phi)
        sorts, (weights, _) = _count_sorts(monkeypatch, _permutation_split, x, p)
        assert sorts <= len(weights) + 1
        # the reference sorted once per step and once per probe
        ref_sorts, reference = _count_sorts(monkeypatch, _reference_permutation_split, x, p)
        assert ref_sorts == sorts + len(reference) - 1


def test_the_split_of_x_equal_to_p_is_one_identity_branch(monkeypatch):
    # where the intermediate profile x equals the source profile p within
    # 1e-13, the split returns exactly one identity branch of weight 1
    from cohdist import distill

    seen = []
    intermediate = distill._intermediate_profile

    def recording(p, q, prob):
        seen.append((intermediate(p, q, prob), p))
        return seen[-1][0]

    monkeypatch.setattr(distill, "_intermediate_profile", recording)
    for psi, phi in [*_protocol_pairs(), *_bench_shaped_pairs()]:
        optimal_protocol(psi, phi)
    for _ in _random_plans(np.random.default_rng(5153)):
        pass
    rng = np.random.default_rng(1414)
    for _ in range(6):
        rho, _ = random_block_state(rng, 64)
        support = sorted(rng.choice(64, size=int(rng.integers(2, 5)), replace=False).tolist())
        full_plan(rho, random_pure_state(rng, 64, support=support))
    shortcut = [(x, p) for x, p in seen if np.abs(x - p).max() <= 1e-13]
    assert len(shortcut) >= 20
    for x, p in shortcut:
        weights, sigmas = _permutation_split(x, p)
        assert weights.tolist() == [1.0]
        assert sigmas.tolist() == [list(range(p.size))]


def test_a_flat_source_inside_the_norm_tolerance_takes_one_identity_branch():
    # 47 equal amplitudes of squared norm 1 - 4.5e-12, a valid state: x equals
    # p within 1e-13, and _protocol takes the identity without asking the
    # split, whose running point rounding moves out of the permutohedron here
    n = 47
    psi = PureStateVector(np.full(n, 0.14586499149756665))
    phi = PureStateVector(np.full(n, np.sqrt(1 / n)))
    (kraus, prob), = optimal_protocol(psi, phi)
    assert kraus.columns.tolist() == kraus.rows.tolist() == list(range(n))
    assert prob == pytest.approx(1.0, abs=1e-10)


def test_a_split_whose_sums_differ_past_its_tolerance_is_a_synthesis_error():
    # p sums to 1.5e-13 less than x: outside the split's contract, where its
    # step bound reaches t = -1 and the weight t / (1 + t) divided by zero
    x = np.array([0.5379999999999999, 0.426, 0.036])
    with pytest.raises(ProtocolSynthesisError, match="permutohedron"):
        _permutation_split(x, x - 5e-14)


def test_an_intermediate_profile_off_unit_sum_names_its_sum_as_a_plain_number():
    # a source of sum 2 leaves x = (1, 1)
    with pytest.raises(ProtocolSynthesisError) as info:
        _intermediate_profile(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 1.0)
    assert str(info.value) == "intermediate profile sums to 2.0"


def test_a_flat_source_off_the_unit_norm_by_more_than_the_split_tolerance_is_synthesized():
    # 21 equal amplitudes of squared norm 1 - 9.9e-12, a valid state: x and p
    # differ by 4.7e-13, and p's sum is off x's by 9.9e-12, far past the
    # split's 1e-13; the split then divided by zero
    n = 21
    psi = PureStateVector(np.full(n, 0.21821789023491017))
    phi = PureStateVector(np.sqrt(np.full(n, 1 / n)))
    branches = optimal_protocol(psi, phi)
    assert sum(prob for _, prob in branches) == pytest.approx(pmax_pure(psi, phi), abs=PROB_TOL)
    (kraus, prob), = branches
    assert kraus.columns.tolist() == kraus.rows.tolist() == list(range(n))


def _reference_protocol(psi, phi):
    """optimal_protocol with the reference split and one _from_triples call per branch."""
    src, tgt = (tuple(support_profile(v.probabilities())[0].tolist()) for v in (psi, phi))
    n, m = len(src), len(tgt)
    p, q, x = _split_inputs(psi, phi)
    scale = float(np.sqrt(np.min(x[:m] / q[:m])))
    if np.abs(x - p).max() <= 1e-13:
        mixture = [(1.0, tuple(range(n)))]
    else:
        mixture = _reference_permutation_split(x, p)
    weights = np.array([w for w, _ in mixture])
    sigmas = np.array([sigma for _, sigma in mixture], dtype=np.intp)
    branch, t = np.nonzero((sigmas < m) & (x[sigmas] > 0.0))
    slot = sigmas[branch, t]
    src_idx, tgt_idx = np.array(src), np.array(tgt)
    sqrt_x = np.sqrt(x)
    coeffs = (
        np.sqrt(weights[branch])
        * (sqrt_x[slot] / psi.amplitudes[src_idx[t]])
        * (scale * phi.amplitudes[tgt_idx[slot]] / sqrt_x[slot])
    )
    counts = np.bincount(branch, minlength=len(mixture))
    out = []
    for w, count, end in zip(weights.tolist(), counts.tolist(), np.cumsum(counts).tolist()):
        if count:
            part = slice(end - count, end)
            kraus = StrictlyIncoherentKraus._from_triples(
                psi.dim, tgt_idx[slot[part]], src_idx[t[part]], coeffs[part]
            )
            out.append((kraus, w * scale * scale))
    return out


def _assert_same_factors(k, want):
    assert k.dim == want.dim
    assert np.array_equal(k.columns, want.columns)
    assert np.array_equal(k.rows, want.rows)
    assert np.array_equal(k.coefficients, want.coefficients)


def test_protocol_factors_equal_the_per_branch_build():
    for psi, phi in [*_protocol_pairs(), *_bench_shaped_pairs()]:
        branches = optimal_protocol(psi, phi)
        reference = _reference_protocol(psi, phi)
        assert [prob for _, prob in branches] == [prob for _, prob in reference]
        for (k, _), (want, _) in zip(branches, reference):
            _assert_same_factors(k, want)
            assert not any(a.flags.writeable for a in (k.columns, k.rows, k.coefficients))


def test_full_plan_equals_the_per_branch_build():
    rng = np.random.default_rng(77)
    cases = [(DensityMatrix.from_pure(psi), phi) for psi, phi in _bench_shaped_pairs()]
    for _ in range(30):
        d = int(rng.integers(2, 9))
        rho = random_mixture_state(rng, d) if rng.random() < 0.5 else random_block_state(rng, d)[0]
        cases.append((rho, random_pure_state(rng, d, support=sorted(
            rng.choice(d, size=int(rng.integers(2, d + 1)), replace=False).tolist()))))
    for rho, phi in cases:
        plan = full_plan(rho, phi)
        want = []
        for mu, y in enumerate(pmax_mixed(rho, phi).per_subspace):
            if y.ratio > 0.0:
                psi = subspace_state(y.subspace, rho.dim)
                want += [(f"s{mu}.k{a}", k, y.subspace.weight * prob)
                         for a, (k, prob) in enumerate(_reference_protocol(psi, phi))]
        assert [(b.branch_id, b.probability) for b in plan.branches] == [(i, w) for i, _, w in want]
        for b, (_, k, _) in zip(plan.branches, want):
            _assert_same_factors(b.kraus, k)


def _reference_checks(plan, rho, phi, shots, seed):
    """Gap, probabilities, replay verdict and counts, one branch at a time on all d levels."""
    # each branch's K†K diagonal scattered from its entries, inf where a square overflows
    effects = [np.zeros(plan.dim) for _ in plan.branches]
    with np.errstate(over="ignore"):
        for b, effect in zip(plan.branches, effects):
            effect[b.kraus.columns] = np.abs(b.kraus.coefficients) ** 2
    total = np.zeros(plan.dim)
    for effect in effects:
        total += effect
    pops = rho.diagonal()
    weights = []
    for b, effect in zip(plan.branches, effects):
        weight = 0.0    # a Python-float sum over the branch's entries, columns ascending
        for j in b.kraus.columns.tolist():
            weight += float(effect[j]) * float(pops[j])
        weights.append(weight)
    probs = np.array([max(0.0, weight) for weight in weights])
    worst, failed = 1.0, None
    for b, weight in zip(plan.branches, weights):
        if weight <= 1e-15:
            continue
        v = b.kraus.matrix.conj().T @ phi.amplitudes
        fid = float(np.real(np.vdot(v, rho.matrix @ v)) / weight)
        if not fid >= 1.0 - 1e-9:   # a NaN fidelity fails too, and is the worst
            worst, failed = fid, b.branch_id
            break
        worst = min(worst, fid)
    pvals = np.append(probs, max(0.0, 1.0 - float(probs.sum())))
    counts = np.random.Generator(np.random.Philox(seed)).multinomial(shots, pvals / pvals.sum())
    per_branch = {b.branch_id: int(c) for b, c in zip(plan.branches, counts[:-1])}
    return float(total.max() - 1.0), probs, (failed is None, failed, worst), per_branch


def test_stacked_checks_equal_the_per_branch_checks():
    rng = np.random.default_rng(5153)
    plans = [*_random_plans(rng)]
    for psi, phi in _bench_shaped_pairs():
        rho = DensityMatrix.from_pure(psi)
        plans.append((full_plan(rho, phi), rho, phi))
    # one level and many branches: a sum over the branch axis would run pairwise here
    one = DensityMatrix(np.ones((1, 1)))
    ones = [PlanBranch(f"r{a}", StrictlyIncoherentKraus.from_matrix([[c]]), 0.0)
            for a, c in enumerate(np.sqrt(np.random.default_rng(1).random(50) / 11))]
    plans.append((DistillationPlan(1, 0.0, tuple(ones), ()), one, PureStateVector(np.ones(1))))
    for seed, (plan, rho, phi) in enumerate(plans):
        gap, probs, (ok, failed, worst), counts = _reference_checks(plan, rho, phi, 10_000, seed)
        assert plan.completeness_gap() == gap
        assert np.array_equal(branch_probabilities(plan, rho), probs)
        check = verify_branch_outputs(plan, rho, phi)
        assert (bool(check), check.failed_branch_id) == (ok, failed)
        assert check.worst_fidelity == pytest.approx(worst, abs=1e-12)
        if plan.completeness_gap() <= 1e-9:
            assert simulate(plan, rho, 10_000, seed).per_branch_counts == counts


def test_replay_gathers_only_the_used_columns():
    # every branch of a rank-4 target uses at most 4 columns
    psi, phi = _bench_shaped_pair(40, 9)
    plan = full_plan(DensityMatrix.from_pure(psi), phi)
    stack = plan.monomials
    arrays = [getattr(stack, f.name) for f in dataclasses.fields(stack)]
    # no array has a d-length axis: one row per branch, one column per used entry
    assert all(a.shape == stack.columns.shape for a in arrays)
    assert stack.columns.shape[0] == len(plan.branches)
    assert stack.columns.shape[1] <= 4
    for b, effects, cols, rows, coeffs in zip(plan.branches, stack.effects, stack.columns,
                                              stack.rows, stack.coefficients):
        used = b.kraus.columns.size
        assert np.array_equal(cols[:used], b.kraus.columns)
        assert np.array_equal(rows[:used], b.kraus.rows)
        assert np.array_equal(coeffs[:used], b.kraus.coefficients)
        assert not coeffs[used:].any() and not effects[used:].any()
        assert np.array_equal(effects[:used], np.abs(b.kraus.coefficients) ** 2)
    assert plan.monomials is stack


def test_replay_in_chunks_equals_one_gather(monkeypatch):
    # the rho_SS gather is cut into chunks of branches so that full-rank
    # targets at large d stay small; the chunking changes no value
    from cohdist import distill

    rng = np.random.default_rng(64)
    cases = [_bench_shaped_pair(32, 4), (random_pure_state(rng, 64), random_pure_state(rng, 64))]
    for psi, phi in cases:
        rho = DensityMatrix.from_pure(psi)
        stack = full_plan(rho, phi).monomials
        whole = stack.overlaps(rho.matrix, phi.amplitudes)
        for cap in (1, 50, 5000):
            monkeypatch.setattr(distill, "_GATHER_CAP", cap)
            assert np.array_equal(stack.overlaps(rho.matrix, phi.amplitudes), whole)
        monkeypatch.undo()


def test_plans_read_only_the_stored_entries(monkeypatch):
    # synthesis, the checks, sampling and plan files never build a dense operator
    from cohdist.cli import plan_from_doc, plan_to_doc

    def refuse(kraus):
        raise AssertionError("dense operator built")

    monkeypatch.setattr(StrictlyIncoherentKraus, "reconstruct", refuse)
    monkeypatch.setattr(StrictlyIncoherentKraus, "matrix", property(refuse))
    rho, _ = random_block_state(np.random.default_rng(96), 96)
    phi = random_pure_state(np.random.default_rng(97), 96, support=[3, 50, 77])
    plan = full_plan(rho, phi)
    assert len(plan.branches) >= 10
    # a branch that reaches a rank-3 target stores at most 3 entries
    assert max(b.kraus.columns.size for b in plan.branches) <= coherence_rank(phi) == 3
    assert verify_branch_outputs(plan, rho, phi)
    sampled = simulate(plan, rho, 10_000, 5)
    back = plan_from_doc(plan_to_doc(plan), "plan.json")
    assert [(b.branch_id, b.probability) for b in back.branches] == [
        (b.branch_id, b.probability) for b in plan.branches]
    for b, want in zip(back.branches, plan.branches):
        _assert_same_factors(b.kraus, want.kraus)
    assert simulate(back, rho, 10_000, 5) == sampled


# ---------------------------------------------------------------- the support rule

def _tiny_entry_pairs(seed, count):
    """Pure pairs (n = 3-6) with a target entry in (0, SUPPORT_TOL].

    Yields (psi, phi, trimmed): ``trimmed`` is phi with that entry set to 0
    and every other amplitude the same, so the support rule reads both alike.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        psi = PureStateVector.from_probabilities(rng.dirichlet(np.ones(n)))
        amps = np.sqrt(np.append(rng.dirichlet(np.ones(n - 1)), 0.0))
        trimmed = PureStateVector(amps)
        amps[-1] = np.sqrt(10 ** rng.uniform(-15, -12))
        order = rng.permutation(n)
        yield psi, PureStateVector(amps[order]), PureStateVector(trimmed.amplitudes[order])


def _plan_entries(plan):
    return [(b.branch_id, b.probability, b.kraus.columns.tolist(), b.kraus.rows.tolist(),
             b.kraus.coefficients.tolist()) for b in plan.branches]


def test_entries_at_or_below_support_tol_change_no_answer():
    for psi, phi, trimmed in _tiny_entry_pairs(1313, 40):
        rho = DensityMatrix.from_pure(psi)
        assert coherence_rank(phi) == coherence_rank(trimmed) == psi.dim - 1
        assert np.array_equal(support_profile(phi.probabilities())[0],
                              support_profile(trimmed.probabilities())[0])
        assert pmax_pure(psi, phi) == pmax_pure(psi, trimmed)
        got, want = pmax_mixed(rho, phi), pmax_mixed(rho, trimmed)
        assert got.p_max == want.p_max
        assert [y.ratio for y in got.per_subspace] == [y.ratio for y in want.per_subspace]
        assert _plan_entries(full_plan(rho, phi)) == _plan_entries(full_plan(rho, trimmed))
        assert catalyst_gates(rho, phi) == catalyst_gates(rho, trimmed)
        assert catalyzed_pmax(rho, phi, (0.6, 0.4)) == catalyzed_pmax(rho, trimmed, (0.6, 0.4))
        assert search_catalyst(rho, phi, 3, 0.25) == search_catalyst(rho, trimmed, 3, 0.25)


def test_pure_answers_agree_on_targets_with_sub_threshold_entries():
    for psi, phi, _ in _tiny_entry_pairs(2718, 60):
        rho = DensityMatrix.from_pure(psi)
        mixed = pmax_mixed(rho, phi)
        (y,) = mixed.per_subspace
        # the subspace's own state carries the profile pmax_mixed reads
        assert pmax_pure(subspace_state(y.subspace, rho.dim), phi) == y.ratio
        assert enhancement_gate(rho, phi).records[0].pure_pmax == y.ratio
        assert catalyzed_pmax(rho, phi, (1.0,)) == mixed.p_max
        # psi itself differs from the eigh vector's squared moduli in the last bits
        assert abs(pmax_pure(psi, phi) - y.ratio) <= 1e-14


def test_full_plan_reads_each_subspace_in_place(stack_calls):
    rho, blocks = random_block_state(np.random.default_rng(404), 96)
    phi = random_pure_state(np.random.default_rng(405), 96, support=[3, 50, 77])
    plan = full_plan(rho, phi)
    assert sum(len(b) >= 3 for b in blocks) >= 10
    assert len({b.branch_id.split(".")[0] for b in plan.branches}) >= 10
    # every subspace's entry table goes into one operator build for the whole plan
    assert stack_calls == [len(plan.branches)]


def test_plans_reach_targets_with_a_tiny_supported_entry():
    # the synthesized total reaches P only when the intermediate profile keeps
    # x >= P * q exactly, also for a q entry far below the others
    rng = np.random.default_rng(1212)
    for low, high in [(1e-12, 1e-11), (1e-11, 1e-10), (1e-10, 1e-9), (1e-9, 1e-8),
                      (1e-8, 1e-6), (1e-6, 1e-3)]:
        for _ in range(100):
            n = int(rng.integers(3, 7))
            psi = PureStateVector.from_probabilities(rng.dirichlet(np.ones(n)))
            small = 10 ** rng.uniform(np.log10(low), np.log10(high))
            q = np.append(rng.dirichlet(np.ones(n - 1)) * (1.0 - small), small)
            phi = PureStateVector.from_probabilities(q[rng.permutation(n)])
            rho = DensityMatrix.from_pure(psi)
            plan = full_plan(rho, phi)
            assert verify_branch_outputs(plan, rho, phi), (low, q)
            assert len(plan.branches) <= n
            total = sum(b.probability for b in plan.branches)
            assert abs(total - pmax_pure(psi, phi)) <= 1e-9, (low, q)
