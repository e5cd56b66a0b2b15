import math
import time

import numpy as np
import pytest

from cohdist import (
    CatalystSearchReport,
    DensityMatrix,
    PreconditionError,
    PureStateVector,
    ValidationError,
    catalyst_candidates,
    catalyzed_pmax,
    default_alpha_grid,
    deterministic_gate,
    enhancement_gate,
    pmax_mixed,
    random_block_state,
    random_mixture_state,
    search_catalyst,
    validate_density,
)
from cohdist import catalysis
from cohdist.measures import min_profile_ratio, tensor
from cohdist.subspaces import optimize_disjoint_selection


def _canonical(canonical_catalysis_pair):
    psi, phi = canonical_catalysis_pair
    return DensityMatrix.from_pure(psi), phi


# ------------------------------------------------------------ direct values

def test_catalyzed_pmax_known_values(canonical_catalysis_pair):
    rho, phi = _canonical(canonical_catalysis_pair)
    assert catalyzed_pmax(rho, phi, np.array([1.0])) == pytest.approx(0.8, abs=1e-12)
    assert catalyzed_pmax(rho, phi, np.array([0.5, 0.5])) == pytest.approx(
        0.8, abs=1e-12
    )
    assert catalyzed_pmax(rho, phi, np.array([0.6, 0.4])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_trivial_catalyst_is_neutral():
    rng = np.random.default_rng(31)
    for _ in range(15):
        rho = random_mixture_state(rng, 4)
        phi = PureStateVector(np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2))
        base = pmax_mixed(rho, phi).p_max
        assert catalyzed_pmax(rho, phi, np.array([1.0])) == pytest.approx(
            base, abs=1e-12
        )


def test_catalyzed_pmax_matches_explicit_tensor_construction(
    canonical_catalysis_pair, block_mixture, uniform_qubit_target
):
    # independent check: build the joint state and target outright and
    # run the generic mixed-state pipeline on them
    cases = [
        (*_canonical(canonical_catalysis_pair), np.array([0.6, 0.4])),
        (*_canonical(canonical_catalysis_pair), np.array([0.55, 0.45])),
        (block_mixture, uniform_qubit_target, np.array([0.7, 0.3])),
    ]
    for rho, phi, cat in cases:
        amps_c = np.sqrt(cat).astype(complex)
        joint = validate_density(np.kron(rho.matrix, np.outer(amps_c, amps_c)))
        target = PureStateVector(np.kron(phi.amplitudes, amps_c))
        direct = pmax_mixed(joint, target).p_max
        shortcut = catalyzed_pmax(rho, phi, cat)
        assert shortcut == pytest.approx(direct, abs=1e-9)


def test_catalyzed_pmax_random_tensor_agreement():
    rng = np.random.default_rng(47)
    for _ in range(10):
        rho = random_mixture_state(rng, 4)
        phi = PureStateVector(np.array([1, 1, 1, 0], dtype=complex) / np.sqrt(3))
        cat = rng.dirichlet(np.ones(2))
        amps_c = np.sqrt(cat).astype(complex)
        joint = validate_density(np.kron(rho.matrix, np.outer(amps_c, amps_c)))
        target = PureStateVector(np.kron(phi.amplitudes, amps_c))
        assert catalyzed_pmax(rho, phi, cat) == pytest.approx(
            pmax_mixed(joint, target).p_max, abs=1e-9
        )


# -------------------------------------------------------- enhancement gate

def test_enhancement_gate_canonical(canonical_catalysis_pair):
    rho, phi = _canonical(canonical_catalysis_pair)
    rep = enhancement_gate(rho, phi)
    assert rep.baseline == pytest.approx(0.8, abs=1e-12)
    assert rep.verdict and rep.family_verdict
    (rec,) = [r for r in rep.records if len(r.indices) == 4]
    assert rec.bound == pytest.approx(1.0, abs=1e-12)


def test_enhancement_gate_witness_bound(witness_pair):
    psi, phi = witness_pair
    rep = enhancement_gate(DensityMatrix.from_pure(psi), phi)
    (rec,) = rep.records
    # final-entry ratio 0.24/0.25 caps the reachable probability
    assert rec.bound == pytest.approx(0.96, abs=1e-12)
    assert rec.pure_pmax == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert rep.verdict


def test_enhancement_gate_tight_instance_is_negative():
    psi = PureStateVector.from_probabilities(np.array([0.6, 0.4]))
    phi = PureStateVector.from_probabilities(np.array([0.5, 0.5]))
    rep = enhancement_gate(DensityMatrix.from_pure(psi), phi)
    assert rep.baseline == pytest.approx(0.8, abs=1e-12)
    assert not rep.verdict  # bound equals the baseline already


def test_enhancement_gate_rank_deficit_is_negative():
    psi = PureStateVector.from_probabilities(np.array([0.6, 0.4, 0.0]))
    phi = PureStateVector.from_probabilities(np.array([0.5, 0.3, 0.2]))
    rep = enhancement_gate(DensityMatrix.from_pure(psi), phi)
    assert rep.baseline == 0.0
    assert not rep.verdict  # no catalyst repairs missing coherence rank


# ------------------------------------------------------- deterministic gate

def test_deterministic_gate_canonical(canonical_catalysis_pair):
    rho, phi = _canonical(canonical_catalysis_pair)
    rep = deterministic_gate(rho, phi)
    assert rep.verdict and rep.weight_complete
    assert rep.flags == ()
    (member,) = rep.members
    assert member.margin_below_one > 0.0
    assert member.margin_above_one > 0.0
    assert member.entropy_margin == pytest.approx(
        1.1935496040981333 - 1.0397207708399179, abs=1e-9
    )


def test_deterministic_gate_requires_subunit_baseline():
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.5]))
    with pytest.raises(PreconditionError):
        deterministic_gate(DensityMatrix.from_pure(psi), psi)


def test_deterministic_gate_flags_incomplete_weight(overlapping_state):
    phi = PureStateVector(np.array([1, 1, 0], dtype=complex) / np.sqrt(2))
    rep = deterministic_gate(overlapping_state, phi)
    assert not rep.verdict
    assert not rep.weight_complete
    assert "family_weight_below_one" in rep.flags


def test_deterministic_gate_flags_zero_entries(block_mixture, uniform_qubit_target):
    rep = deterministic_gate(block_mixture, uniform_qubit_target)
    assert not rep.verdict  # the isolated level can never convert
    assert any(f.startswith("zero_entry_support") for f in rep.flags)


def test_alpha_grid_shape():
    below, above = default_alpha_grid()
    assert 0.0 in below and -math.inf in below
    assert math.inf in above
    assert all(a < 1 for a in below)
    assert all(a > 1 for a in above)
    b5, a5 = default_alpha_grid(points_per_segment=5)
    assert len(b5) < len(below) and len(a5) < len(above)


# ------------------------------------------------------------------- search

def test_candidate_grid_contents():
    cands = catalyst_candidates(2, 0.05)
    assert len(cands) == 10
    assert cands[0] == (0.5, 0.5)
    assert (0.6, 0.4) in cands
    assert all(abs(sum(c) - 1) < 1e-12 for c in cands)
    assert all(c == tuple(sorted(c, reverse=True)) for c in cands)
    bigger = catalyst_candidates(3, 0.05)
    assert len(bigger) == 43
    assert all(len(c) <= 3 for c in bigger)


def test_candidate_grid_validation():
    with pytest.raises(ValidationError):
        catalyst_candidates(1, 0.05)
    with pytest.raises(ValidationError):
        catalyst_candidates(2, 0.07)
    with pytest.raises(ValidationError):
        catalyst_candidates(2, 0.6)


def test_search_finds_known_catalyst(canonical_catalysis_pair):
    rho, phi = _canonical(canonical_catalysis_pair)
    rep = search_catalyst(rho, phi, max_dim=2, grid_step=0.05)
    assert rep.found
    assert rep.catalyst == (0.6, 0.4)
    assert rep.achieved == pytest.approx(1.0, abs=1e-12)
    assert rep.candidates_evaluated == 10


def test_search_deterministic_mode(canonical_catalysis_pair):
    rho, phi = _canonical(canonical_catalysis_pair)
    rep = search_catalyst(rho, phi, max_dim=2, grid_step=0.05, mode="deterministic")
    assert rep.found and rep.mode == "deterministic"
    assert rep.achieved >= 1.0 - 1e-9


def test_search_negative_instance_reports_baseline():
    psi = PureStateVector.from_probabilities(np.array([0.6, 0.4]))
    phi = PureStateVector.from_probabilities(np.array([0.5, 0.5]))
    rep = search_catalyst(
        DensityMatrix.from_pure(psi), phi, max_dim=2, grid_step=0.1
    )
    assert not rep.found
    assert rep.catalyst is None
    assert rep.achieved == pytest.approx(rep.baseline, abs=1e-12)


def test_search_rejects_bad_mode(canonical_catalysis_pair):
    rho, phi = _canonical(canonical_catalysis_pair)
    with pytest.raises(ValidationError):
        search_catalyst(rho, phi, mode="other")


def test_search_deterministic_mode_requires_subunit_baseline():
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.5]))
    with pytest.raises(PreconditionError):
        search_catalyst(
            DensityMatrix.from_pure(psi), psi, mode="deterministic"
        )


def test_search_accepts_and_ignores_workers(canonical_catalysis_pair):
    rho, phi = _canonical(canonical_catalysis_pair)
    default = search_catalyst(rho, phi, max_dim=3, grid_step=0.1)
    assert search_catalyst(rho, phi, max_dim=3, grid_step=0.1, workers=2) == default


def test_search_result_consistent_with_direct_evaluation(
    canonical_catalysis_pair,
):
    rho, phi = _canonical(canonical_catalysis_pair)
    rep = search_catalyst(rho, phi, max_dim=2, grid_step=0.25)
    for cand in catalyst_candidates(2, 0.25):
        assert catalyzed_pmax(rho, phi, np.array(cand)) <= rep.achieved + 1e-12


# ------------------------------------------- batched scoring vs the old loop

def _reference_catalyzed(entries, target_profile, catalyst) -> float:
    """One candidate at a time: the evaluation the batched scorer replaced."""
    cat = np.asarray(catalyst, dtype=float)
    tgt = tensor(target_profile, cat)
    scored = [
        (idx, w, w * min_profile_ratio(tensor(np.array(prof), cat), tgt))
        for idx, w, prof in entries
    ]
    return optimize_disjoint_selection(scored)[2]


def _reference_partitions(n, k, cap):
    """Descending partitions of n into k parts of at most cap, recursively."""
    if k == 1:
        if 1 <= n <= cap:
            yield (n,)
        return
    for first in range(min(cap, n - (k - 1)), (n + k - 1) // k - 1, -1):
        for rest in _reference_partitions(n - first, k - 1, first):
            yield (first,) + rest


def _reference_candidates(max_dim, grid_step):
    n = round(1.0 / grid_step)
    return [
        tuple(part / n for part in parts)
        for k in range(2, max_dim + 1)
        for parts in sorted(_reference_partitions(n, k, n))
    ]


def _reference_search(rho, phi, max_dim, grid_step, mode):
    """The candidate-by-candidate search, with its scan and tie rules."""
    tgt = catalysis._target_profile(phi)
    entries = catalysis._subspace_entries(rho)
    baseline = _reference_catalyzed(entries, tgt, (1.0,))
    if mode == "deterministic" and baseline >= 1.0 - catalysis.UNIT_TOL:
        raise PreconditionError("baseline probability is already 1")
    candidates = _reference_candidates(max_dim, grid_step)
    achieved = [_reference_catalyzed(entries, tgt, c) for c in candidates]
    count = len(candidates)
    if mode == "deterministic":
        for c, v in zip(candidates, achieved):
            if v >= 1.0 - catalysis.UNIT_TOL:
                return CatalystSearchReport(baseline, mode, True, c, v, count)
        return CatalystSearchReport(baseline, mode, False, None, baseline, count)
    best_c, best_v = None, -1.0
    for c, v in zip(candidates, achieved):
        if v > best_v + catalysis.STRICT_TOL:
            best_c, best_v = c, v
        elif v > best_v - catalysis.STRICT_TOL and (best_c is None or c < best_c):
            best_c = c
    found = best_v > baseline + catalysis.UNIT_TOL
    return CatalystSearchReport(
        baseline, mode, found, best_c if found else None,
        best_v if found else baseline, count,
    )


def _pure(probs):
    return DensityMatrix.from_pure(PureStateVector.from_probabilities(np.asarray(probs)))


def _target(rng, rank, dim):
    q = np.zeros(dim)
    q[:rank] = rng.dirichlet(np.ones(rank))
    return PureStateVector.from_probabilities(q)


def _block_diag_state(rng, sizes):
    """Mixture of random pure states on consecutive disjoint level blocks."""
    mat = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    start = 0
    for w, size in zip(rng.dirichlet(np.ones(len(sizes)) * 5), sizes):
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps /= np.linalg.norm(amps)
        block = slice(start, start + size)
        mat[block, block] = w * np.outer(amps, amps.conj())
        start += size
    return validate_density(mat)


def _corpus(overlapping_state):
    """(name, rho, phi) cases covering every branch of the batched scorer."""
    rng = np.random.default_rng(2024)
    cases = []
    for d in range(2, 7):                       # pure sources, some higher-rank targets
        for rank in range(2, d + 1):
            probs = rng.dirichlet(np.ones(d) * rng.choice([0.3, 1.0, 5.0]))
            cases.append((f"pure{d}r{rank}", _pure(probs), _target(rng, rank, d)))
        low = np.zeros(d)
        low[: max(1, d - 2)] = rng.dirichlet(np.ones(max(1, d - 2)))
        cases.append((f"deficient{d}", _pure(low), _target(rng, d, d)))  # zero tails
    cases.append(("tied", _pure([0.25] * 4), _target(rng, 3, 4)))
    # a source tail above SUPPORT_TOL that a catalyst pushes below it
    cases.append(("tiny-tail", _pure([0.6, 0.4 - 3e-12, 3e-12]), _target(rng, 3, 3)))
    # several coherent blocks, so the order of adding their scores shows
    for size in (2, 3):
        rho = _block_diag_state(rng, [size] * 4)
        cases.append((f"blocks{size}x4", rho, _target(rng, size, 4 * size)))
    for d in (4, 5, 6, 7):                      # blocks with singletons
        rho, _ = random_block_state(rng, d)
        cases.append((f"block{d}", rho, _target(rng, 2, d)))
        cases.append((f"block{d}r3", rho, _target(rng, 3, d)))
    for d in (3, 4, 5):                         # random mixtures
        cases.append((f"mix{d}", random_mixture_state(rng, d), _target(rng, 2, d)))
    phi = PureStateVector(np.array([1, 1, 0], dtype=complex) / np.sqrt(2))
    cases.append(("overlap", overlapping_state, phi))  # shared-level fallback
    cases.append(("overlap-r3", overlapping_state, _target(rng, 3, 3)))
    return cases


def test_batched_scores_equal_the_candidate_loop(overlapping_state):
    catalysts = catalysis._catalyst_grids(4, 0.1)
    for name, rho, phi in _corpus(overlapping_state):
        tgt = catalysis._target_profile(phi)
        entries = catalysis._subspace_entries(rho)
        for grid in [np.ones((1, 1)), *catalysts]:
            got = catalysis._catalyzed_values(entries, tgt, grid).tolist()
            want = [_reference_catalyzed(entries, tgt, row) for row in grid]
            assert got == want, name
        cat = np.array([0.7, 0.2, 0.1])
        assert catalyzed_pmax(rho, phi, cat) == _reference_catalyzed(entries, tgt, cat), name


def test_overlapping_source_takes_the_selection_fallback(overlapping_state):
    entries = catalysis._subspace_entries(overlapping_state)
    levels = [j for idx, _, _ in entries for j in idx]
    assert len(levels) > len(set(levels))


def test_batched_scores_span_several_row_chunks():
    rng = np.random.default_rng(5)
    d = 300
    rho = _pure(rng.dirichlet(np.ones(d)))
    phi = _target(rng, 5, d)
    tgt = catalysis._target_profile(phi)
    entries = catalysis._subspace_entries(rho)
    (grid,) = catalysis._catalyst_grids(2, 0.001)
    assert len(grid) * 2 * d > 2 * catalysis.ROW_CHUNK_ELEMENTS   # three chunks
    got = catalysis._catalyzed_values(entries, tgt, grid).tolist()
    assert got == [_reference_catalyzed(entries, tgt, row) for row in grid]


def test_candidates_equal_the_partition_generator():
    for max_dim, step in [(2, 0.5), (2, 0.05), (3, 0.25), (4, 0.1), (5, 0.05), (7, 1 / 6), (9, 0.125)]:
        assert catalyst_candidates(max_dim, step) == _reference_candidates(max_dim, step)


def _catalysable_pairs(count):
    """Pure pairs whose enhancement gate says a catalyst raises the optimum."""
    rng = np.random.default_rng(77)
    while count:
        d = int(rng.integers(3, 6))
        rho = _pure(np.sort(rng.dirichlet(np.ones(d) * 3))[::-1])
        phi = _target(rng, d, d)
        if enhancement_gate(rho, phi).verdict:
            count -= 1
            yield f"catalysable{count}", rho, phi


def test_search_reports_equal_the_candidate_loop(overlapping_state):
    cases = _corpus(overlapping_state)[::3] + list(_catalysable_pairs(6))
    found = set()
    for name, rho, phi in cases:
        for max_dim, step in ((2, 0.05), (3, 0.1), (4, 0.125)):
            for mode in ("probabilistic", "deterministic"):
                try:
                    want = _reference_search(rho, phi, max_dim, step, mode)
                except PreconditionError:
                    pass
                else:
                    assert search_catalyst(rho, phi, max_dim, step, mode) == want, name
                    found.add((mode, want.found))
                    continue
                with pytest.raises(PreconditionError):
                    search_catalyst(rho, phi, max_dim, step, mode)
    assert found == {(mode, hit) for mode in ("probabilistic", "deterministic") for hit in (True, False)}


def test_search_reports_on_known_instances_equal_the_candidate_loop(
    canonical_catalysis_pair, block_mixture, uniform_qubit_target
):
    rho, phi = _canonical(canonical_catalysis_pair)
    for mode in ("probabilistic", "deterministic"):
        for max_dim, step in ((2, 0.05), (4, 0.05), (3, 0.02)):
            got = search_catalyst(rho, phi, max_dim, step, mode)
            assert got == _reference_search(rho, phi, max_dim, step, mode)
        got = search_catalyst(block_mixture, uniform_qubit_target, 4, 0.05, mode)
        assert got == _reference_search(block_mixture, uniform_qubit_target, 4, 0.05, mode)


def test_grid_above_the_ceiling_is_refused_before_enumeration():
    # about 8e8 profiles at three parts, and 1e9 dimensions at step 0.5
    for max_dim, step in ((3, 1e-5), (2, 1e-7), (40, 0.01), (2, 5e-324)):
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            catalyst_candidates(max_dim, step)
        assert time.perf_counter() - start < 1.0
    assert catalyst_candidates(1_000_000_000, 0.5) == [(0.5, 0.5)]
    assert len(catalyst_candidates(10**18, 0.25)) == 4


def test_grid_size_counts_partitions_exactly():
    for n in range(2, 30):
        want = 0
        for k_max in range(2, n + 1):
            want += sum(1 for _ in _reference_partitions(n, k_max, n))
            assert catalysis._grid_size(n, k_max) == want


def test_alpha_grid_has_a_ceiling():
    below, above = default_alpha_grid(catalysis.ALPHA_POINTS_CEILING)
    assert len(above) == catalysis.ALPHA_POINTS_CEILING + 1
    with pytest.raises(ValidationError):
        default_alpha_grid(catalysis.ALPHA_POINTS_CEILING + 1)
    with pytest.raises(ValidationError):
        default_alpha_grid(10**15)
