import numpy as np
import pytest

from cohdist import (
    IncompletePlanError,
    PureStateVector,
    branch_probabilities,
    full_plan,
    maximal_pure_subspaces,
    ValidationError,
    simulate,
    validate_density,
)
from cohdist.distill import DistillationPlan, PlanBranch, StrictlyIncoherentKraus
from cohdist.subspaces import A_ONE_TOL, RANK1_TOL, a_matrix
from cohdist.states import support_profile
from reference_oracles import (
    DimensionTooLargeError,
    brute_subspaces,
    edge_state,
    moon_moser_graph,
    random_block_state,
    random_mixture_state,
    random_pure_state,
    subspace_state,
)


def test_brute_subspaces_block_example(block_mixture):
    subs = brute_subspaces(block_mixture)
    assert [s.indices for s in subs] == [(0, 1), (2,)]
    assert subs[0].weight == pytest.approx(0.5, abs=1e-12)


def test_brute_subspaces_respects_dimension_cap():
    big = validate_density(np.eye(17) / 17)
    with pytest.raises(DimensionTooLargeError):
        brute_subspaces(big)


def test_brute_subspaces_pure_state_is_single_block():
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.3, 0.2]))
    rho = validate_density(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    subs = brute_subspaces(rho)
    assert [s.indices for s in subs] == [(0, 1, 2)]


def test_brute_matches_planted_blocks():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho, truth = random_block_state(rng, 6)
        assert [s.indices for s in brute_subspaces(rho)] == truth


def test_random_pure_state_support_is_exact():
    rng = np.random.default_rng(2)
    for _ in range(50):
        support = sorted(rng.choice(8, size=3, replace=False).tolist())
        psi = random_pure_state(rng, 8, support=support)
        assert sorted(support_profile(psi.probabilities())[0].tolist()) == support
    # an index array serves as well as a list
    psi = random_pure_state(rng, 8, support=np.array([1, 6]))
    assert sorted(support_profile(psi.probabilities())[0].tolist()) == [1, 6]


@pytest.mark.parametrize("make", [
    lambda rng: random_block_state(rng, 0),
    lambda rng: random_mixture_state(rng, 0),
    lambda rng: random_pure_state(rng, 0),
    lambda rng: random_block_state(rng, -1),
    lambda rng: random_mixture_state(rng, -1),
    lambda rng: random_pure_state(rng, -1),
    lambda rng: random_block_state(rng, 2.5),
    lambda rng: random_mixture_state(rng, 2.5),
    lambda rng: random_pure_state(rng, 2.5),
    lambda rng: random_pure_state(rng, 3, [5]),
    lambda rng: random_pure_state(rng, 3, [-1]),
    lambda rng: random_pure_state(rng, 3, []),
    lambda rng: random_pure_state(rng, 3, [0, 0]),
    lambda rng: random_pure_state(rng, 3, [0.5]),
], ids=["block-0", "mixture-0", "pure-0", "block-neg", "mixture-neg", "pure-neg",
        "block-frac", "mixture-frac", "pure-frac", "support-past-dim", "support-negative",
        "support-empty", "support-repeated", "support-frac"])
def test_generators_refuse_bad_dimensions_and_supports_before_drawing(make):
    rng = np.random.default_rng(6)
    with pytest.raises(ValidationError):
        make(rng)
    assert rng.random() == np.random.default_rng(6).random()


def test_random_mixture_state_is_valid():
    rng = np.random.default_rng(4)
    for dim in (2, 5, 8):
        rho = random_mixture_state(rng, dim)
        assert rho.dim == dim  # validation already ran in the constructor


# ------------------------------------------------------------- simulation

def test_branch_probabilities_sum_to_pmax(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    probs = branch_probabilities(plan, block_mixture)
    assert probs.sum() == pytest.approx(plan.p_max, abs=1e-9)


def test_simulate_is_reproducible(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    a = simulate(plan, block_mixture, shots=50000, seed=123)
    b = simulate(plan, block_mixture, shots=50000, seed=123)
    assert a == b
    c = simulate(plan, block_mixture, shots=50000, seed=124)
    assert c.successes != a.successes  # different stream actually used


def test_simulate_bookkeeping(block_mixture, uniform_qubit_target):
    plan = full_plan(block_mixture, uniform_qubit_target)
    res = simulate(plan, block_mixture, shots=10000, seed=9)
    assert res.successes + res.failure_count == res.shots
    assert sum(res.per_branch_counts.values()) == res.successes
    assert res.empirical_probability == pytest.approx(res.successes / res.shots)
    assert res.analytic_probability == pytest.approx(0.1, abs=1e-9)
    assert res.rng_algorithm == "Philox4x64"
    expected_se = np.sqrt(
        res.empirical_probability * (1 - res.empirical_probability) / res.shots
    )
    assert res.standard_error == pytest.approx(expected_se, abs=1e-15)


def test_simulate_agrees_with_analytic_at_four_sigma(witness_pair):
    psi, phi = witness_pair
    rho = validate_density(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    plan = full_plan(rho, phi)
    for seed in range(5):
        res = simulate(plan, rho, shots=200000, seed=seed)
        sigma = max(res.standard_error, 1e-12)
        assert abs(res.empirical_probability - res.analytic_probability) < 4 * sigma


def test_simulate_requires_shots():
    psi = PureStateVector.from_probabilities(np.array([0.6, 0.4]))
    rho = validate_density(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    phi = PureStateVector.from_probabilities(np.array([0.5, 0.5]))
    plan = full_plan(rho, phi)
    with pytest.raises(Exception):
        simulate(plan, rho, shots=0, seed=1)


@pytest.mark.parametrize("shots, seed", [
    (0, 1), (-3, 1), (2**63, 1), (10.5, 1), (True, 1), (np.float64(10), 1),
    (10, -1), (10, 1.5), (10, True), (10, np.bool_(False)), (10, "1"),
])
def test_simulate_refuses_bad_shots_and_seeds(shots, seed):
    psi = PureStateVector.from_probabilities(np.array([0.6, 0.4]))
    rho = validate_density(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    plan = full_plan(rho, PureStateVector.from_probabilities(np.array([0.5, 0.5])))
    with pytest.raises(ValidationError):
        simulate(plan, rho, shots=shots, seed=seed)


def test_simulate_takes_numpy_and_large_integers():
    psi = PureStateVector.from_probabilities(np.array([0.6, 0.4]))
    rho = validate_density(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    plan = full_plan(rho, PureStateVector.from_probabilities(np.array([0.5, 0.5])))
    assert simulate(plan, rho, np.int64(100), np.uint64(7)) == simulate(plan, rho, 100, 7)
    assert simulate(plan, rho, 2**63 - 1, 2**70).shots == 2**63 - 1


def test_simulate_refuses_another_dimension_before_any_other_work(monkeypatch):
    # the completeness sum has a plan-dimension axis, so it must not run on a foreign plan
    def refuse(plan):
        raise AssertionError("completeness computed")

    monkeypatch.setattr(DistillationPlan, "completeness_gap", refuse)
    k = StrictlyIncoherentKraus.from_entries(3, [(0, 0, 1.0)])
    plan = DistillationPlan(3, 0.5, (PlanBranch("a", k, 0.5),), ())
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.5]))
    rho = validate_density(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    with pytest.raises(ValidationError, match="plan dimension 3 != source dimension 2"):
        simulate(plan, rho, shots=10, seed=0)


def test_simulate_rejects_overcomplete_plan(block_mixture):
    # duplicate the lone branch: sum K'K exceeds the identity
    plan = full_plan(
        block_mixture,
        PureStateVector(np.array([1, 1, 0], dtype=complex) / np.sqrt(2)),
    )
    k = plan.branches[0].kraus
    dup = DistillationPlan(
        dim=plan.dim,
        p_max=plan.p_max,
        branches=(
            PlanBranch("a", k, plan.branches[0].probability),
            PlanBranch("b", StrictlyIncoherentKraus.from_matrix(np.eye(3)), 1.0),
        ),
        family_index_sets=plan.family_index_sets,
    )
    with pytest.raises(IncompletePlanError):
        simulate(dup, block_mixture, shots=10, seed=0)


# ------------------------------------------- cross-checking the two methods

def test_brute_and_clique_methods_agree_broadly():
    rng = np.random.default_rng(515)
    for dim in range(2, 8):
        for _ in range(25):
            rho = random_mixture_state(rng, dim)
            fast = maximal_pure_subspaces(rho)
            slow = brute_subspaces(rho)
            assert [s.indices for s in fast] == [s.indices for s in slow]
            for f, s in zip(fast, slow):
                assert f.weight == pytest.approx(s.weight, abs=1e-9)
                assert np.allclose(np.abs(subspace_state(f, dim).amplitudes),
                                   np.abs(subspace_state(s, dim).amplitudes), atol=1e-8)


def test_brute_and_clique_rules_part_at_the_tolerance_edge(overlapping_state):
    # unit coherence within A_ONE_TOL is not transitive at the 1e-9 edge, so
    # the maximal cliques (0, 1) and (1, 2) overlap and the clique rule parted
    # from the brute oracle here; the component (0, 1, 2) passes the rank-1
    # test as a whole, and the component rule agrees with the oracle
    a = a_matrix(overlapping_state)
    assert abs(a[0, 1] - 1) <= A_ONE_TOL and abs(a[1, 2] - 1) <= A_ONE_TOL
    assert abs(a[0, 2] - 1) > A_ONE_TOL
    assert [s.indices for s in maximal_pure_subspaces(overlapping_state)] == [(0, 1, 2)]
    assert [s.indices for s in brute_subspaces(overlapping_state)] == [(0, 1, 2)]
    second = np.linalg.eigvalsh(overlapping_state.matrix)[-2]
    assert second == pytest.approx(5.0e-10, rel=0.01) and second <= RANK1_TOL


def test_edge_states_realize_their_graphs_at_the_tolerance_edge():
    # 1 - A_ij is 0.99 A_ONE_TOL on an edge and just past A_ONE_TOL on a
    # non-edge inside a component; other components are orthogonal
    rng = np.random.default_rng(26)
    graphs = [moon_moser_graph(n) for n in (3, 6, 12)]
    for _ in range(20):
        n = int(rng.integers(1, 13))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6), 1)
        graphs.append(upper | upper.T)
    for graph in graphs:
        rho = edge_state(graph)
        gap = 1.0 - a_matrix(rho)
        off = ~np.eye(len(graph), dtype=bool)
        assert np.array_equal(np.abs(gap) <= A_ONE_TOL, graph | ~off)
        assert np.all(gap[graph] > 0.98 * A_ONE_TOL)
        assert np.all((gap[off & ~graph] > 1.01 * A_ONE_TOL))
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-15
