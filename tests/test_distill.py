import numpy as np
import pytest

from cohdist import (
    DensityMatrix,
    IncoherentTargetError,
    NotStrictlyIncoherentError,
    PureStateVector,
    RankDeficitError,
    StrictlyIncoherentKraus,
    ValidationError,
    conversion_kraus,
    full_plan,
    majorizes,
    optimal_protocol,
    pmax_mixed,
    pmax_pure,
    random_block_state,
    random_mixture_state,
    random_pure_state,
    validate_density,
    verify_branch_outputs,
)
from cohdist.distill import ENTRY_TOL, DistillationPlan, PlanBranch, _permutation_split
from cohdist.oracles import branch_probabilities


# ---------------------------------------------------------------- operators

def test_kraus_accepts_permutation_like_matrix():
    mat = np.array([[0, 0.5], [0.8, 0]], dtype=complex)
    k = StrictlyIncoherentKraus.from_matrix(mat)
    assert np.allclose(k.reconstruct(), mat)


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


def test_kraus_decomposition_factors():
    mat = np.array(
        [[0, 0.5j, 0], [0.7, 0, 0], [0, 0, 0]], dtype=complex
    )
    k = StrictlyIncoherentKraus.from_matrix(mat)
    p_pi, k_delta, proj = k.decomposition()
    assert np.allclose(p_pi @ k_delta @ proj, mat, atol=1e-12)
    # permutation part moves basis states to basis states
    assert np.array_equal(np.abs(p_pi) > 0, p_pi > 0)
    assert np.allclose(p_pi.sum(axis=0), 1) and np.allclose(p_pi.sum(axis=1), 1)
    # diagonal factors really are diagonal
    assert np.allclose(k_delta, np.diag(np.diag(k_delta)))
    assert np.allclose(proj, np.diag(np.diag(proj)))
    assert set(np.diag(proj).real.round(12)) <= {0.0, 1.0}


def test_kraus_effect_diagonal():
    k = StrictlyIncoherentKraus.from_matrix(
        np.array([[0.5, 0], [0, 0.25]], dtype=complex)
    )
    assert np.allclose(k.effect_diagonal(), [0.25, 0.0625])


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
    out = k.apply(psi.amplitudes)
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
        assert len(branches) <= len(psi.sorted_support())
        total = sum(p for _, p in branches)
        assert total == pytest.approx(target, abs=1e-9)
        # each branch maps the source onto the target ray
        for k, p in branches:
            if p < 1e-14:
                continue
            out = k.apply(psi.amplitudes)
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
        parts = _permutation_split(x, p)
        weights = np.array([w for w, _ in parts])
        assert len(parts) <= n
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        for _, sigma in parts:
            assert sorted(sigma) == list(range(n))
        rebuilt = sum(w * x[list(sigma)] for w, sigma in parts)
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
    assert not res.overlap_adjusted
    yields = {y.subspace.indices: y.achieved for y in res.per_subspace}
    assert yields[(0, 1)] == pytest.approx(0.1, abs=1e-12)
    assert yields[(2,)] == 0.0


def test_pmax_mixed_rejects_incoherent_target(block_mixture):
    with pytest.raises(IncoherentTargetError):
        pmax_mixed(block_mixture, PureStateVector(np.array([1, 0, 0], dtype=complex)))


def test_pmax_mixed_flags_overlap(overlapping_state):
    phi = PureStateVector(np.array([1, 1, 0], dtype=complex) / np.sqrt(2))
    res = pmax_mixed(overlapping_state, phi)
    assert res.overlap_adjusted
    assert res.p_max == pytest.approx(0.7, abs=1e-6)


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
    assert not res.overlap_adjusted


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
        assert not res.overlap_adjusted


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
        checked += 1
    assert checked == 40


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

    This is how the factors were read before the monomial form became the
    only one stored: (permutation, diagonal, projector), or a raised
    NotStrictlyIncoherentError.
    """
    d = mat.shape[0]
    used_rows = set()
    perm = [-1] * d
    diag = np.zeros(d, dtype=complex)
    proj = np.zeros(d)
    for j in range(d):
        rows = np.nonzero(np.abs(mat[:, j]) > ENTRY_TOL)[0]
        if len(rows) > 1 or (len(rows) == 1 and int(rows[0]) in used_rows):
            raise NotStrictlyIncoherentError(f"column {j}")
        if len(rows) == 1:
            i = int(rows[0])
            used_rows.add(i)
            perm[j], diag[j], proj[j] = i, mat[i, j], 1.0
    free_rows = iter(sorted(set(range(d)) - used_rows))
    perm = [p if p >= 0 else next(free_rows) for p in perm]
    return tuple(perm), diag, proj


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
        perm, diag, proj = _reference_factors(mat)
        kept = np.where(np.abs(mat) > ENTRY_TOL, mat, 0.0)
        for k in (
            StrictlyIncoherentKraus.from_matrix(mat),
            StrictlyIncoherentKraus.from_entries(d, _entries(mat, rng)),
        ):
            assert k.permutation == perm
            assert np.array_equal(k.diagonal, diag)
            assert np.array_equal(k.projector, proj)
            assert np.array_equal(k.matrix, kept)
            assert np.array_equal(k.reconstruct(), kept)
            amps = rng.normal(size=d) + 1j * rng.normal(size=d)
            assert np.allclose(k.apply(amps), kept @ amps, rtol=0, atol=1e-12)


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
