import json
import math
import time
from collections import Counter

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
from cohdist.cli import main
from cohdist.measures import (
    min_profile_ratio,
    power_mean,
    shannon_entropy,
    sorted_descending,
    tensor,
)
from cohdist.states import SUPPORT_TOL
from cohdist.subspaces import maximal_pure_subspaces, optimize_disjoint_selection


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


def _entries(rho):
    return catalysis._subspace_entries(maximal_pure_subspaces(rho))


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
    entries = _entries(rho)
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
        entries = _entries(rho)
        for grid in [np.ones((1, 1)), *catalysts]:
            got = catalysis._catalyzed_values(entries, tgt, grid).tolist()
            want = [_reference_catalyzed(entries, tgt, row) for row in grid]
            assert got == want, name
        cat = np.array([0.7, 0.2, 0.1])
        assert catalyzed_pmax(rho, phi, cat) == _reference_catalyzed(entries, tgt, cat), name


def _chain_state(n):
    """``overlapping_state`` extended to n levels of equal population: n - 1 overlapping pairs."""
    angles = np.arange(n) * np.sqrt(8e-10)
    g = np.stack([np.cos(angles), np.sin(angles)], axis=1) / np.sqrt(n)
    return validate_density((g @ g.T).astype(complex))


def _state_doc(rho):
    return {"matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix.tolist()]}


def test_gate_and_search_baselines_are_the_pmax_mixed_value(overlapping_state, tmp_path, capsys):
    cases = _corpus(overlapping_state)
    for n in (3, 5, 8):
        pair = PureStateVector.from_probabilities(np.r_[0.5, 0.5, np.zeros(n - 2)])
        cases.append((f"chain{n}", _chain_state(n), pair))
    assert sum(pmax_mixed(rho, phi).overlap_adjusted for _, rho, phi in cases) >= 4
    state, target = tmp_path / "rho.json", tmp_path / "phi.json"
    for name, rho, phi in cases:
        want = pmax_mixed(rho, phi).p_max
        # the identity catalyst's score, the search's former baseline
        assert catalyzed_pmax(rho, phi, np.array([1.0])) == want, name
        assert enhancement_gate(rho, phi).baseline == want, name
        assert search_catalyst(rho, phi, 2, 0.25).baseline == want, name
        if want < 1.0 - catalysis.UNIT_TOL:
            assert deterministic_gate(rho, phi, 5).baseline == want, name
            assert search_catalyst(rho, phi, 2, 0.25, "deterministic").baseline == want, name
        state.write_text(json.dumps(_state_doc(rho)))
        target.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in phi.amplitudes.tolist()]}))
        assert main(["catalyst", "gate", str(state), str(target), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["baseline"] == want, name


def test_overlapping_source_takes_the_selection_fallback(overlapping_state):
    entries = _entries(overlapping_state)
    levels = [j for idx, _, _ in entries for j in idx]
    assert len(levels) > len(set(levels))


def test_batched_scores_span_several_row_chunks():
    rng = np.random.default_rng(5)
    d = 300
    rho = _pure(rng.dirichlet(np.ones(d)))
    phi = _target(rng, 5, d)
    tgt = catalysis._target_profile(phi)
    entries = _entries(rho)
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


@pytest.mark.parametrize("max_dim, grid_step", [
    (2.5, 0.1), ("3", 0.1), (None, 0.1), (3.0, 0.25),
    (3, "0.1"), (3, None), (3, 0.25j), (3, math.nan), (3, math.inf), (3, -math.inf),
])
def test_badly_typed_grid_arguments_are_validation_errors(
    canonical_catalysis_pair, max_dim, grid_step
):
    rho, phi = _canonical(canonical_catalysis_pair)
    with pytest.raises(ValidationError):
        catalyst_candidates(max_dim, grid_step)
    with pytest.raises(ValidationError):
        search_catalyst(rho, phi, max_dim=max_dim, grid_step=grid_step)


def test_numpy_grid_arguments_are_accepted(canonical_catalysis_pair):
    rho, phi = _canonical(canonical_catalysis_pair)
    assert catalyst_candidates(np.int64(3), np.float64(0.25)) == catalyst_candidates(3, 0.25)
    assert catalyst_candidates(np.int32(3), np.float32(0.25)) == catalyst_candidates(3, 0.25)
    got = search_catalyst(rho, phi, max_dim=np.int64(3), grid_step=np.float64(0.05))
    assert got == search_catalyst(rho, phi, max_dim=3, grid_step=0.05)


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


def test_alpha_grid_refuses_a_non_integer_point_count():
    with pytest.raises(ValidationError):
        default_alpha_grid(2.5)


# ------------------------------------ probability-1 gate against the scalar loop

def _reference_refine_minimum(f, alphas, values):
    """The halving refinement, one side and one order at a time."""
    k = int(np.argmin(values))
    best_a, best_v = alphas[k], values[k]
    if not math.isfinite(best_a):
        return best_a, best_v
    lo = alphas[k - 1] if k > 0 and math.isfinite(alphas[k - 1]) else best_a
    hi = alphas[k + 1] if k + 1 < len(alphas) and math.isfinite(alphas[k + 1]) else best_a
    for _ in range(40):
        for probe in ((lo + best_a) / 2.0, (best_a + hi) / 2.0):
            v = f(probe)
            if v < best_v:
                best_v, best_a = v, probe
        lo = (lo + best_a) / 2.0
        hi = (best_a + hi) / 2.0
        if hi - lo < 1e-6:
            break
    return best_a, best_v


def _reference_deterministic_gate(rho, phi, points_per_segment=20):
    """The probability-1 gate with one scalar power_mean call per order and profile."""
    tgt = catalysis._target_profile(phi)
    family = pmax_mixed(rho, phi).family
    baseline = family.total_value
    if baseline >= 1.0 - catalysis.UNIT_TOL:
        raise PreconditionError("optimal probability is already 1; no catalyst is needed")
    below, above = default_alpha_grid(points_per_segment)
    flags = []
    weight_complete = family.total_weight >= 1.0 - catalysis.UNIT_TOL
    if not weight_complete:
        flags.append("family_weight_below_one")
    members = []
    for s in family.members:
        profile = sorted_descending(s.state.probabilities())[: s.rank]
        p, q = catalysis._padded_profiles(profile, tgt)
        zero_entry = bool(p.min() <= SUPPORT_TOL)

        def below_margin(a):
            return power_mean(p, a) - power_mean(q, a)

        def above_margin(a):
            return power_mean(q, a) - power_mean(p, a)

        below_vals = [below_margin(a) for a in below]
        above_vals = [above_margin(a) for a in above]
        a_lo, m_lo = _reference_refine_minimum(below_margin, list(below), below_vals)
        a_hi, m_hi = _reference_refine_minimum(above_margin, list(above), above_vals)
        s_margin = shannon_entropy(p) - shannon_entropy(q)
        if zero_entry:
            flags.append(f"zero_entry_support:{s.indices}")
        members.append(catalysis.DeterministicGateMemberRecord(
            s.indices, float(m_lo), float(a_lo), float(m_hi), float(a_hi), float(s_margin),
            zero_entry, bool(m_lo > 0.0 and m_hi > 0.0 and s_margin > 0.0),
        ))
    verdict = weight_complete and all(m.passes for m in members)
    return catalysis.DeterministicGateReport(
        bool(verdict), tuple(members), family.total_weight, weight_complete, baseline, tuple(flags),
    )


def _tail_pair(tail):
    """Pure pair whose smallest source entry is ``tail``; the gate says yes."""
    p = [0.4, 0.4, 0.1, 0.1 - tail, tail]
    q = [0.5, 0.25, 0.25 - tail / 2, tail / 4, tail / 4]
    return _pure(p), PureStateVector.from_probabilities(np.array(q))


def _gate_corpus(overlapping_state, block_mixture, uniform_qubit_target):
    """(name, rho, phi, points per segment) cases for the probability-1 gate."""
    rng = np.random.default_rng(3)
    cases = []
    for d in range(3, 9):                       # block states with singletons
        for rank in (2, 3):
            rho, _ = random_block_state(rng, d)
            cases.append((f"block{d}r{rank}", rho, _target(rng, rank, d)))
    for d in (3, 4, 5, 6, 8, 11, 16):           # pure sources with flatter targets
        p = rng.dirichlet(np.ones(d) * 0.7)
        q = 0.6 * p + 0.4 / d
        phi = PureStateVector.from_probabilities(rng.permutation(q))
        cases.append((f"flatter{d}", _pure(p), phi))
    for i in range(150):                        # yes verdicts, minima at +-inf
        n = int(rng.integers(3, 7))
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        cases.append((f"pair{i}", _pure(p), PureStateVector.from_probabilities(q)))
    cases.append(("jonathan-plenio", _pure([0.4, 0.4, 0.1, 0.1]),
                  PureStateVector.from_probabilities(np.array([0.5, 0.25, 0.25, 0.0]))))
    for i in range(8):                          # yes verdicts near that pair
        d1, d2, tail = rng.uniform(0.0, 0.02, 3)
        p = [0.4 + d1, 0.4 - d1, 0.1 + d2, 0.1 - d2]
        q = np.array([0.5, 0.25, 0.25 - tail, tail])
        cases.append((f"near-jp{i}", _pure(p), PureStateVector.from_probabilities(q)))
    phi = PureStateVector(np.array([1, 1, 0], dtype=complex) / np.sqrt(2))
    cases.append(("overlap", overlapping_state, phi))        # flagged weight
    cases.append(("zero-entry", block_mixture, uniform_qubit_target))
    cases += [(f"tail{t}", *_tail_pair(t)) for t in (1e-6, 1e-4)]   # minimum at -inf
    # equal largest entries: the above-one minimum is exactly 0 at +inf
    cases.append(("equal-max", _pure([0.5, 0.017, 0.205, 0.278]),
                  PureStateVector.from_probabilities(np.array([0.5, 0.029, 0.415, 0.056]))))
    # many-member families, several members to each padded length
    for rank in (2, 3):
        rho = _block_diag_state(rng, [1, 2, 2, 2, 3, 3, 4, 1])
        cases.append((f"many-blocks-r{rank}", rho, _target(rng, rank, 18)))
    # the target is a member's own state: that member's margins are all 0,
    # so only the first sampled minimum is the reference's
    rho = _block_diag_state(rng, [2, 1])
    cases.append(("tied-member", rho, maximal_pure_subspaces(rho)[0].state))
    points = [2, 3, 5, 8, 13, 20, 20, 20, 50]
    return [(name, rho, phi, points[i % len(points)]) for i, (name, rho, phi) in enumerate(cases)]


def test_deterministic_gate_equals_the_scalar_loop(
    overlapping_state, block_mixture, uniform_qubit_target
):
    seen = Counter()
    corpus = _gate_corpus(overlapping_state, block_mixture, uniform_qubit_target)
    for name, rho, phi, points in corpus:
        try:
            want = _reference_deterministic_gate(rho, phi, points)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                deterministic_gate(rho, phi, points)
            seen["baseline one"] += 1
            continue
        got = deterministic_gate(rho, phi, points)
        assert got == want, name
        assert repr(got) == repr(want), name          # signed zeros included
        seen[f"verdict {want.verdict}"] += 1
        seen["weight flag"] += "family_weight_below_one" in want.flags
        target_rank = catalysis._target_profile(phi).size
        lengths = Counter(max(len(m.indices), target_rank) for m in want.members)
        seen["members share a padded length"] += max(lengths.values()) >= 2
        seen["members differ in padded length"] += len(lengths) >= 2
        for m in want.members:
            seen["zero entry"] += m.zero_entry_support
            seen["below at -inf"] += m.alpha_below_one == -math.inf
            seen["above at +inf"] += m.alpha_above_one == math.inf
            seen["zero margin"] += m.margin_above_one == 0.0
            seen["tied below-one minimum"] += m.margin_below_one == 0.0
            seen["below refined"] += math.isfinite(m.alpha_below_one)
            seen["above refined"] += math.isfinite(m.alpha_above_one)
            seen["n >= 8"] += len(m.indices) >= 8
        seen[f"points {points}"] += 1
    wanted = ["baseline one", "verdict True", "verdict False", "weight flag", "zero entry",
              "below at -inf", "above at +inf", "zero margin", "below refined",
              "above refined", "n >= 8", "members share a padded length",
              "members differ in padded length", "tied below-one minimum",
              *(f"points {k}" for k in (2, 3, 5, 8, 13, 20, 50))]
    assert all(seen[key] for key in wanted), seen


def test_deterministic_gate_makes_one_kernel_pass_per_step_and_group(monkeypatch):
    # members of one padded length share the grid pass and every refinement
    # step, so the number of kernel calls does not grow with the family
    rng = np.random.default_rng(8)
    rho = _block_diag_state(rng, [1] + [2] * 30 + [3] * 20 + [5] * 6)
    phi = _target(rng, 3, rho.dim)
    calls = Counter()
    kernel = catalysis._power_means_kernel

    def counting(rows, *args):
        calls[rows.shape[1]] += 1
        return kernel(rows, *args)

    monkeypatch.setattr(catalysis, "_power_means_kernel", counting)
    rep = deterministic_gate(rho, phi)
    lengths = Counter(max(len(m.indices), 3) for m in rep.members)
    assert lengths == {3: 51, 5: 6}
    assert set(calls) == set(lengths)
    assert all(calls[n] <= 1 + 40 for n in lengths), calls


def test_deterministic_gate_sees_tiny_source_entries():
    # a 1e-8 source entry overflows its -40th power, yet the means at
    # alpha = -40 differ and must not both read as 0 (a margin of 0 is a no)
    for tail in (1e-8, 1e-6):
        rep = deterministic_gate(*_tail_pair(tail))
        (member,) = rep.members
        assert rep.verdict and member.passes, tail
        assert member.alpha_below_one == -math.inf
        assert member.margin_below_one == pytest.approx(0.75 * tail, rel=1e-6)
