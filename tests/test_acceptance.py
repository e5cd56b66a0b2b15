"""Acceptance suite.

Each test is one acceptance criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``; ``pytest -v`` shows the same verdict through
the test outcome).  Tolerances are asserted inline.
"""

import functools
import math

import numpy as np

from cohdist import (
    DensityMatrix,
    PureStateVector,
    catalyzed_pmax,
    deterministic_gate,
    enhancement_gate,
    full_plan,
    has_rank2_subspace,
    majorizes,
    maximal_pure_subspaces,
    min_profile_ratio,
    pmax_mixed,
    pmax_pure,
    power_mean,
    search_catalyst,
    shannon_entropy,
    simulate,
    tensor,
    validate_density,
    verify_branch_outputs,
)
from cohdist.subspaces import a_matrix
from reference_oracles import (
    brute_subspaces,
    dephase,
    random_mixture_state,
    random_pure_state,
    suffix_profile,
)


def criterion(n, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {n}: FAIL - {description}")
                raise
            print(f"criterion {n}: PASS - {description}")
        return run
    return wrap


def _random_coherent_target(rng, dim):
    m = int(rng.integers(2, dim + 1))
    support = sorted(rng.choice(dim, size=m, replace=False).tolist())
    return random_pure_state(rng, dim, support=support)


@criterion(1, "brute-force and clique subspace enumeration agree on 200 "
              "random mixtures per dimension 2..8 (weights within 1e-9)")
def test_criterion_1_subspace_oracle_agreement():
    rng = np.random.default_rng(101)
    for dim in range(2, 9):
        for _ in range(200):
            rho = random_mixture_state(rng, dim)
            fast = maximal_pure_subspaces(rho)
            slow = brute_subspaces(rho)
            assert [s.indices for s in fast] == [s.indices for s in slow]
            for f, s in zip(fast, slow):
                assert abs(f.weight - s.weight) <= 1e-9


@criterion(2, "closed-form probability equals synthesized plan total within "
              "1e-9 and every branch output is verified, on 100 pure pairs "
              "(dim<=6) and 50 mixed instances (dim<=8)")
def test_criterion_2_formula_matches_protocol():
    rng = np.random.default_rng(202)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        psi = random_pure_state(rng, dim)
        phi = _random_coherent_target(rng, dim)
        rho = DensityMatrix.from_pure(psi)
        expected = pmax_pure(psi, phi)
        plan = full_plan(rho, phi)
        total = sum(b.probability for b in plan.branches)
        assert abs(total - expected) <= 1e-9
        assert plan.completeness_gap() <= 1e-9
        assert verify_branch_outputs(plan, rho, phi)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        rho = random_mixture_state(rng, dim)
        phi = _random_coherent_target(rng, dim)
        expected = pmax_mixed(rho, phi).p_max
        plan = full_plan(rho, phi)
        total = sum(b.probability for b in plan.branches)
        assert abs(total - expected) <= 1e-9
        assert plan.completeness_gap() <= 1e-9
        assert verify_branch_outputs(plan, rho, phi)


@criterion(3, "Monte Carlo success frequency at 1e6 shots matches the "
              "analytic probability within 4 standard errors on 10 "
              "fixed-seed instances")
def test_criterion_3_monte_carlo_agreement():
    shots = 1_000_000
    cases = []

    # worked mixed example with probability exactly 0.1
    v = np.zeros(3, dtype=complex)
    v[0], v[1] = np.sqrt(0.9), np.sqrt(0.1)
    rho0 = validate_density(0.5 * np.outer(v, v.conj()) + 0.5 * np.diag([0, 0, 1.0]))
    phi0 = PureStateVector(np.array([1, 1, 0], dtype=complex) / np.sqrt(2))
    cases.append((rho0, phi0))

    rng = np.random.default_rng(303)
    while len(cases) < 10:
        dim = int(rng.integers(2, 7))
        rho = random_mixture_state(rng, dim)
        phi = _random_coherent_target(rng, dim)
        p = pmax_mixed(rho, phi).p_max
        if 1e-3 < p < 1 - 1e-3:
            cases.append((rho, phi))

    for seed, (rho, phi) in enumerate(cases):
        plan = full_plan(rho, phi)
        res = simulate(plan, rho, shots=shots, seed=seed)
        sigma = max(res.standard_error, 1e-12)
        assert abs(res.empirical_probability - res.analytic_probability) < 4 * sigma


@criterion(4, "canonical catalysis instance: baseline 0.8 within 1e-9, both "
              "existence gates positive, grid search returns a qubit "
              "catalyst reaching probability 1")
def test_criterion_4_canonical_catalysis():
    psi = PureStateVector.from_probabilities(np.array([0.4, 0.4, 0.1, 0.1]))
    phi = PureStateVector.from_probabilities(np.array([0.5, 0.25, 0.25, 0.0]))
    rho = DensityMatrix.from_pure(psi)
    enh = enhancement_gate(rho, phi)
    assert abs(enh.baseline - 0.8) <= 1e-9
    assert enh.verdict
    det = deterministic_gate(rho, phi)
    assert det.verdict
    rep = search_catalyst(rho, phi, max_dim=2, grid_step=0.05)
    assert rep.found
    assert rep.achieved >= 1.0 - 1e-9
    assert catalyzed_pmax(rho, phi, np.array(rep.catalyst)) >= 1.0 - 1e-9


@criterion(5, "on 100 random pure pairs (dim<=5), every grid-search success "
              "(catalyst dim<=3, step 0.05) is predicted by the enhancement "
              "gate")
def test_criterion_5_search_soundness_against_gate():
    rng = np.random.default_rng(505)
    successes = 0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        psi = random_pure_state(rng, dim)
        phi = _random_coherent_target(rng, dim)
        rho = DensityMatrix.from_pure(psi)
        rep = search_catalyst(rho, phi, max_dim=3, grid_step=0.05)
        if rep.found:
            successes += 1
            assert enhancement_gate(rho, phi).verdict
    assert successes > 0  # the sample really exercised the implication


@criterion(6, "50 fully sub-unit-coherence states: no rank-2 pure subspace "
              "and zero distillation probability for every coherent target")
def test_criterion_6_subthreshold_states_yield_nothing():
    rng = np.random.default_rng(606)
    collected = 0
    while collected < 50:
        dim = int(rng.integers(2, 7))
        raw = random_mixture_state(rng, dim)
        lam = float(rng.uniform(0.05, 0.3))
        rho = validate_density(
            (1 - lam) * raw.matrix + lam * dephase(raw).matrix
        )
        a = a_matrix(rho)
        off = a[~np.eye(dim, dtype=bool)]
        if off.size and off.max() >= 1 - 1e-8:
            continue  # resample: still touching the unit-coherence edge
        collected += 1
        assert not has_rank2_subspace(rho)
        targets = [
            PureStateVector(
                np.array([1, 1] + [0] * (dim - 2), dtype=complex) / np.sqrt(2)
            ),
            PureStateVector(np.ones(dim, dtype=complex) / np.sqrt(dim)),
            _random_coherent_target(rng, dim),
        ]
        for phi in targets:
            assert pmax_mixed(rho, phi).p_max == 0.0


@criterion(7, "profile and mean invariants hold on 500 random weight "
              "vectors")
def test_criterion_7_measure_invariants():
    rng = np.random.default_rng(707)
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        w = rng.dirichlet(np.ones(dim) * rng.uniform(0.3, 3.0))
        if rng.random() < 0.3 and dim > 1:
            w[rng.integers(0, dim)] = 0.0
            w /= w.sum()
        prof = suffix_profile(w)
        assert abs(prof[0] - 1.0) <= 1e-12
        assert np.all(np.diff(prof) <= 1e-12)
        assert np.all(prof >= -1e-12)

        v = rng.dirichlet(np.ones(dim))
        r = min_profile_ratio(w, v)
        assert -1e-12 <= r <= 1.0 + 1e-12
        assert abs(min_profile_ratio(w, w) - 1.0) <= 1e-12
        if majorizes(w, v, tol=0.0):
            assert r >= 1.0 - 1e-9

        t = tensor(w, v)
        assert abs(t.sum() - 1.0) <= 1e-9

        means = [power_mean(w, a) for a in (-math.inf, -2, 0, 0.5, 2, math.inf)]
        assert all(x <= y + 1e-9 for x, y in zip(means, means[1:]))
        s = shannon_entropy(w)
        assert -1e-12 <= s <= math.log(max(dim, 2)) + 1e-12


@criterion(8, "multi-branch witness: optimal plan reaches 5/6 with at least "
              "two branches while any single operator stops at 26/35")
def test_criterion_8_multibranch_witness():
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.26, 0.24]))
    phi = PureStateVector.from_probabilities(np.array([0.4, 0.35, 0.25]))
    rho = DensityMatrix.from_pure(psi)
    plan = full_plan(rho, phi)
    total = sum(b.probability for b in plan.branches)
    assert abs(total - 5.0 / 6.0) <= 1e-9
    assert len(plan.branches) >= 2
    assert verify_branch_outputs(plan, rho, phi)

    from reference_oracles import conversion_kraus

    k = conversion_kraus(psi, phi)
    out = k.reconstruct() @ psi.amplitudes
    single = float(np.vdot(out, out).real)
    assert abs(single - 0.26 / 0.35) <= 1e-9
    assert single < total - 0.05
