import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from cohdist import (
    ALPHAS_ABOVE_ONE,
    ALPHAS_BELOW_ONE,
    CatalystSearchReport,
    DensityMatrix,
    PreconditionError,
    PureStateVector,
    ValidationError,
    catalyst_gates,
    catalyzed_pmax,
    deterministic_gate,
    enhancement_gate,
    full_plan,
    pmax_mixed,
    search_catalyst,
    validate_density,
)
from cohdist import catalysis, subspaces
from cohdist.cli import main
from cohdist.measures import (
    min_profile_ratio,
    power_mean,
    shannon_entropy,
    tensor,
)
from cohdist.states import PROB_TOL, SUPPORT_TOL, TIE_TOL, support_profile
from cohdist.subspaces import maximal_pure_subspaces, optimize_disjoint_selection
from reference_oracles import (
    catalyst_candidates,
    chain_state,
    coherence_rank,
    random_block_state,
    random_mixture_state,
    subspace_state,
)


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
    below, above = ALPHAS_BELOW_ONE, ALPHAS_ABOVE_ONE
    assert (len(below), len(above)) == (42, 21)
    assert list(below) == sorted(below) and list(above) == sorted(above)
    assert 0.0 in below and -math.inf in below
    assert math.inf in above
    assert all(a < 1 for a in below)
    assert all(a > 1 for a in above)
    finite = [a for a in below + above if math.isfinite(a) and a != 0.0]
    assert min(finite) == pytest.approx(-40.0) and max(finite) == pytest.approx(40.0)


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

def _support_tail_ratio(source, target) -> float:
    """Smallest tail-sum ratio with no magnitude cut.

    Both vectors are zero-padded to a common length.  A depth counts when
    the target tail is nonzero, and a zero source tail there gives 0.
    """
    width = max(len(source), len(target))
    src, tgt = (np.cumsum(np.sort(np.pad(v, (0, width - len(v))))) for v in (source, target))
    live = tgt > 0.0
    if np.any(live & (src == 0.0)):
        return 0.0
    return min([1.0, *(src[live] / tgt[live]).tolist()])


def _reference_catalyzed(entries, target_profile, catalyst) -> float:
    """One candidate at a time: the evaluation the batched scorer replaced."""
    cat = np.asarray(catalyst, dtype=float)
    tgt = tensor(target_profile, cat)
    scored = [
        (idx, w, w * _support_tail_ratio(tensor(np.array(prof), cat), tgt))
        for idx, w, prof in entries
    ]
    return optimize_disjoint_selection(scored)[2]


def _entries(rho):
    """(indices, weight, sorted profile) of every maximal pure subspace of rho."""
    return [(s.indices, s.weight, tuple(np.sort(s.profile)[::-1].tolist()))
            for s in maximal_pure_subspaces(rho)]


def _target_profile(phi):
    return support_profile(phi.probabilities())[1]


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
    tgt = _target_profile(phi)
    entries = _entries(rho)
    baseline = _reference_catalyzed(entries, tgt, (1.0,))
    if mode == "deterministic" and baseline >= 1.0 - PROB_TOL:
        raise PreconditionError("baseline probability is already 1")
    candidates = _reference_candidates(max_dim, grid_step)
    achieved = [_reference_catalyzed(entries, tgt, c) for c in candidates]
    count = len(candidates)
    if mode == "deterministic":
        for c, v in zip(candidates, achieved):
            if v >= 1.0 - PROB_TOL:
                return CatalystSearchReport(baseline, mode, True, c, v, count)
        return CatalystSearchReport(baseline, mode, False, None, baseline, count)
    best_c, best_v = None, -1.0
    for c, v in zip(candidates, achieved):
        if v > best_v + TIE_TOL:
            best_c, best_v = c, v
        elif v > best_v - TIE_TOL and (best_c is None or c < best_c):
            best_c = c
    found = best_v > baseline + PROB_TOL
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
    # a target entry in (0, SUPPORT_TOL], outside the support of every answer
    for d in (3, 4, 5, 6):
        cases.append((f"tiny-target{d}", _pure(rng.dirichlet(np.ones(d))), _tiny_target(rng, d, d)))
    rho, _ = random_block_state(rng, 7)
    cases.append(("tiny-target-block7", rho, _tiny_target(rng, 3, 7)))
    return cases


def _tiny_target(rng, rank, dim):
    """A target of coherence rank ``rank - 1`` plus one entry in [1e-15, 1e-12]."""
    small = 10 ** rng.uniform(-15, -12)
    q = np.zeros(dim)
    q[:rank - 1] = rng.dirichlet(np.ones(rank - 1)) * (1.0 - small)
    q[rank - 1] = small
    return PureStateVector.from_probabilities(rng.permutation(q))


def test_batched_scores_equal_the_candidate_loop(overlapping_state):
    catalysts = catalysis._catalyst_grid(4, 0.1)
    for name, rho, phi in _corpus(overlapping_state):
        tgt = _target_profile(phi)
        entries = _entries(rho)
        for grid in (np.ones((1, 1)), catalysts):
            got = catalysis._catalyzed_values(maximal_pure_subspaces(rho), tgt, grid).tolist()
            want = [_reference_catalyzed(entries, tgt, row[row > 0.0]) for row in grid]
            assert got == want, name
        cat = np.array([0.7, 0.2, 0.1])
        assert catalyzed_pmax(rho, phi, cat) == _reference_catalyzed(entries, tgt, cat), name


def _state_doc(rho):
    return {"matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix.tolist()]}


def test_gate_and_search_baselines_are_the_pmax_mixed_value(overlapping_state, tmp_path, capsys):
    cases = _corpus(overlapping_state)
    for n in (3, 5, 8):
        pair = PureStateVector.from_probabilities(np.r_[0.5, 0.5, np.zeros(n - 2)])
        cases.append((f"chain{n}", chain_state(n), pair))
    assert sum(pmax_mixed(rho, phi).overlap_adjusted for _, rho, phi in cases) >= 4
    state, target = tmp_path / "rho.json", tmp_path / "phi.json"
    for name, rho, phi in cases:
        want = pmax_mixed(rho, phi).p_max
        # the identity catalyst's score, the search's former baseline
        assert catalyzed_pmax(rho, phi, np.array([1.0])) == want, name
        assert enhancement_gate(rho, phi).baseline == want, name
        assert search_catalyst(rho, phi, 2, 0.25).baseline == want, name
        if want < 1.0 - PROB_TOL:
            assert deterministic_gate(rho, phi).baseline == want, name
            assert search_catalyst(rho, phi, 2, 0.25, "deterministic").baseline == want, name
        state.write_text(json.dumps(_state_doc(rho)))
        target.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in phi.amplitudes.tolist()]}))
        assert main(["catalyst", "gate", str(state), str(target), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["baseline"] == want, name


def test_catalyst_gates_return_both_gate_reports(overlapping_state):
    cases = _corpus(overlapping_state)[::4]
    cases.append(("baseline-one", _pure([0.5, 0.5]), PureStateVector.from_probabilities([0.36, 0.64])))
    seen = set()
    for name, rho, phi in cases:
        enh, det = catalyst_gates(rho, phi)
        assert enh == enhancement_gate(rho, phi), name
        try:
            want = deterministic_gate(rho, phi)
        except PreconditionError:
            want = None
        assert det == want, name
        seen.add(det is None)
    assert seen == {True, False}


def test_overlapping_source_takes_the_selection_fallback(overlapping_state):
    entries = _entries(overlapping_state)
    levels = [j for idx, _, _ in entries for j in idx]
    assert len(levels) > len(set(levels))


def test_batched_scores_span_several_row_chunks():
    # 499 profiles of one dimension in three chunks; then 184 profiles of
    # 2-4 entries, 54 rows at a time: two chunks hold rows of two
    # dimensions, and a chunk edge falls inside a dimension
    rng = np.random.default_rng(5)
    for d, max_dim, step, count, spanning in ((300, 2, 0.001, 3, 0), (600, 4, 0.04, 4, 2)):
        rho = _pure(rng.dirichlet(np.ones(d)))
        phi = _target(rng, 5, d)
        tgt = _target_profile(phi)
        entries = _entries(rho)
        grid = catalysis._catalyst_grid(max_dim, step)
        size = catalysis.ROW_CHUNK_ELEMENTS // (d * grid.shape[1])
        dims = np.count_nonzero(grid, axis=1)
        chunks = [set(dims[at:at + size].tolist()) for at in range(0, len(grid), size)]
        assert len(chunks) == count and sum(len(held) > 1 for held in chunks) == spanning
        assert any(dims[at - 1] == dims[at] for at in range(size, len(grid), size))
        got = catalysis._catalyzed_values(maximal_pure_subspaces(rho), tgt, grid).tolist()
        assert got == [_reference_catalyzed(entries, tgt, row[row > 0.0]) for row in grid]


def test_the_grid_is_one_zero_padded_array_in_scan_order():
    # dimension by dimension, ascending within one; the width stops at 1 / grid_step
    for max_dim, step in [(2, 0.5), (3, 0.25), (4, 0.1), (5, 0.05), (7, 1 / 6), (9, 0.125),
                          (10**6, 0.25)]:
        n = round(1.0 / step)
        width = min(max_dim, n)
        want = [
            [part / n for part in parts] + [0.0] * (width - k)
            for k in range(2, width + 1)
            for parts in sorted(_reference_partitions(n, k, n))
        ]
        grid = catalysis._catalyst_grid(max_dim, step)
        assert grid.shape == (len(want), width)
        assert grid.tolist() == want


def _bound(profile, tgt):
    """Proved cap of any catalysed ratio: min(p_n/q_n, 1) at equal lengths, else 1 or 0."""
    p = np.sort(profile)[::-1]
    if p.size != tgt.size:
        return float(p.size > tgt.size)
    return min(p[-1] / tgt[-1], 1.0)


def test_catalysed_target_tails_below_the_support_cut_still_count():
    # q (x) c has entries down to 2.7e-14; skipping those depths scored 0.5268, above the bound
    p = [0.6597425832994023, 0.2794101583765326, 0.03189937907252418, 0.028947879251541023]
    q = PureStateVector.from_probabilities(
        [0.5661223797697239, 0.22981494715174702, 0.11340756267043128, 0.09065511040809765])
    cat = 0.09126052104208415 ** np.arange(13)
    value = catalyzed_pmax(_pure(p), q, cat / cat.sum())
    assert value <= _bound(p, _target_profile(q))
    assert value == pytest.approx(0.29817926721291893, rel=1e-15, abs=0)


def test_catalysed_source_tails_below_the_support_cut_do_not_pin_to_zero():
    # p (x) c has a 3e-13 entry; a catalyst can always be ignored, so it scores the baseline
    rho = _pure([0.6, 0.4 - 3e-12, 3e-12])
    phi = PureStateVector.from_probabilities([0.5, 0.3, 0.2])
    baseline = pmax_mixed(rho, phi).p_max
    assert baseline == pytest.approx(1.5e-11, rel=1e-9)
    assert catalyzed_pmax(rho, phi, [0.9, 0.1]) == pytest.approx(baseline, rel=1e-9)


def test_catalysed_ratios_read_supports_on_tiny_catalysts():
    # catalyst entries down to 1e-200: every subspace's score equals the
    # support-only reference, stays under its bound and never loses to no catalyst
    rng = np.random.default_rng(909)
    cases = [(_pure(rng.dirichlet(np.ones(d))), _target(rng, int(rng.integers(2, d + 1)), d))
             for d in (2, 3, 4, 5, 6) for _ in range(3)]
    for d in (5, 6, 8):
        rho, _ = random_block_state(rng, d)
        cases += [(rho, _target(rng, rank, d)) for rank in (2, 3)]
    exponents = rng.uniform(-200.0, 0.0, size=(24, 6))
    exponents[:, 0] = 0.0
    catalysts = 10.0 ** exponents
    catalysts[::3, 4:] = 0.0           # shorter catalysts, zero-padded
    catalysts /= catalysts.sum(axis=1, keepdims=True)
    low = 0
    for rho, phi in cases:
        tgt = _target_profile(phi)
        for s in maximal_pure_subspaces(rho):
            got = catalysis._catalyzed_values([s], tgt, catalysts).tolist()
            plain = min_profile_ratio(s.profile, tgt)
            bound = _bound(s.profile, tgt)
            for cat, value in zip(catalysts, got):
                want = _support_tail_ratio(tensor(s.profile, cat), tensor(tgt, cat))
                assert value == s.weight * want
                assert want <= bound * (1.0 + 1e-12)
                assert want >= plain * (1.0 - 1e-9)
                low += tensor(tgt, cat).min() <= SUPPORT_TOL
    assert low > 100     # most products hold entries below the support cut


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
    (2.5, 0.1), ("3", 0.1), (None, 0.1), (3.0, 0.25), (True, 0.5),
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


def test_a_numpy_grid_step_is_named_as_a_plain_number():
    with pytest.raises(ValidationError, match=r"^grid_step 1e-07 gives more than"):
        catalyst_candidates(3, np.float64(1e-7))
    with pytest.raises(ValidationError, match=r"^max_dim 40 at grid_step 0.01 gives more than"):
        catalyst_candidates(np.int64(40), np.float64(0.01))


def test_cross_dimension_ties_pick_the_smallest_profile(canonical_catalysis_pair):
    # the Jonathan-Plenio pair: 108 candidates of three dimensions score 1 within 1e-12
    rho, phi = _canonical(canonical_catalysis_pair)
    tgt = _target_profile(phi)
    subs = maximal_pure_subspaces(rho)
    grid = catalysis._catalyst_grid(4, 0.02)
    ties = {}
    for row, v in zip(grid, catalysis._catalyzed_values(subs, tgt, grid)):
        if v > 1.0 - 1e-12:
            profile = tuple(row[row > 0.0].tolist())
            ties.setdefault(len(profile), []).append(profile)
    assert {k: len(rows) for k, rows in ties.items()} == {2: 2, 3: 17, 4: 89}
    smallest = min(row for rows in ties.values() for row in rows)
    assert smallest == (0.3, 0.3, 0.2, 0.2)
    got = search_catalyst(rho, phi, 4, 0.02)
    assert (got.found, got.catalyst, got.candidates_evaluated) == (True, smallest, 1153)
    assert got.achieved == pytest.approx(1.0, abs=1e-12)
    got = search_catalyst(rho, phi, 4, 0.02, "deterministic")
    assert (got.found, got.catalyst) == (True, (0.6, 0.4))


def test_pick_by_index_follows_the_candidate_loop_on_planted_ties(
    canonical_catalysis_pair, monkeypatch
):
    # scores drawn from a few levels, each also 4e-13 above and below, so
    # records and near-ties fall in every dimension; the winning tie may sit
    # in an earlier dimension than a later one
    rho, phi = _canonical(canonical_catalysis_pair)
    candidates = catalyst_candidates(4, 0.1)
    levels = np.array([0.96, 0.97, 0.98, 0.99])[:, None] + np.array([-4e-13, 0.0, 4e-13])
    rng = np.random.default_rng(8)
    for _ in range(200):
        values = rng.choice(levels[:int(rng.integers(1, 5))].ravel(), size=len(candidates))
        monkeypatch.setattr(catalysis, "_catalyzed_values", lambda *args: values.copy())
        best_c, best_v = None, -1.0
        for c, v in zip(candidates, values.tolist()):
            if v > best_v + TIE_TOL:
                best_c, best_v = c, v
            elif v > best_v - TIE_TOL and c < best_c:
                best_c = c
        got = search_catalyst(rho, phi, 4, 0.1)
        assert (got.found, got.catalyst, got.achieved) == (True, best_c, best_v)


def test_search_over_chunks_of_many_widths_equals_the_candidate_loop(canonical_catalysis_pair):
    # one chunk spans rows of 19 widths
    rho, phi = _canonical(canonical_catalysis_pair)
    assert len(catalyst_candidates(20, 0.05)) == 626
    for mode in ("probabilistic", "deterministic"):
        got = search_catalyst(rho, phi, 20, 0.05, mode)
        assert got == _reference_search(rho, phi, 20, 0.05, mode)


def test_grid_size_counts_partitions_exactly():
    for n in range(2, 30):
        want = 0
        for k_max in range(2, n + 1):
            want += sum(1 for _ in _reference_partitions(n, k_max, n))
            assert catalysis._grid_size(n, k_max) == want


# ------------------------------------ probability-1 gate against the scalar loop

def _reference_refine_minimum(f, alphas, values, full=False):
    """The halving refinement, one side and one order at a time.

    It stops once the margin is at or below 0, unless ``full``.
    """
    k = int(np.argmin(values))
    best_a, best_v = alphas[k], values[k]
    if not math.isfinite(best_a) or not (full or best_v > 0.0):
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
        if hi - lo < 1e-6 or not (full or best_v > 0.0):
            break
    return best_a, best_v


def _reference_deterministic_gate(rho, phi, full=False):
    """The probability-1 gate with one scalar power_mean call per order and profile.

    ``full`` refines every margin as far as it goes, past 0.
    """
    tgt = _target_profile(phi)
    family = pmax_mixed(rho, phi).family
    baseline = family.total_value
    if baseline >= 1.0 - PROB_TOL:
        raise PreconditionError("optimal probability is already 1; no catalyst is needed")
    below, above = ALPHAS_BELOW_ONE, ALPHAS_ABOVE_ONE
    flags = []
    weight_complete = family.total_weight >= 1.0 - PROB_TOL
    if not weight_complete:
        flags.append("family_weight_below_one")
    members = []
    for s in family.members:
        profile = np.sort(s.profile)[::-1]
        p, q = catalysis._padded_rows([profile, tgt])
        zero_entry = bool(p.min() <= SUPPORT_TOL)

        def below_margin(a):
            return power_mean(p, a) - power_mean(q, a)

        def above_margin(a):
            return power_mean(q, a) - power_mean(p, a)

        below_vals = [below_margin(a) for a in below]
        above_vals = [above_margin(a) for a in above]
        a_lo, m_lo = _reference_refine_minimum(below_margin, list(below), below_vals, full)
        a_hi, m_hi = _reference_refine_minimum(above_margin, list(above), above_vals, full)
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
    """(name, rho, phi) cases for the probability-1 gate."""
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
    cases.append(("tied-member", rho, subspace_state(maximal_pure_subspaces(rho)[0], rho.dim)))
    return cases


def test_deterministic_gate_equals_the_scalar_loop(
    overlapping_state, block_mixture, uniform_qubit_target
):
    seen = Counter()
    corpus = _gate_corpus(overlapping_state, block_mixture, uniform_qubit_target)
    for name, rho, phi in corpus:
        try:
            want = _reference_deterministic_gate(rho, phi)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                deterministic_gate(rho, phi)
            seen["baseline one"] += 1
            continue
        got = deterministic_gate(rho, phi)
        assert got == want, name
        assert repr(got) == repr(want), name          # signed zeros included
        # refinement past 0 moves no verdict: a positive margin is the full
        # refinement's, and a witness lies between 0 and the refined minimum
        full = _reference_deterministic_gate(rho, phi, full=True)
        assert got.verdict == full.verdict, name
        for m, f in zip(got.members, full.members):
            assert m.passes == f.passes, name
            for side in ("below_one", "above_one"):
                pair = (getattr(m, f"margin_{side}"), getattr(m, f"alpha_{side}"))
                full_pair = (getattr(f, f"margin_{side}"), getattr(f, f"alpha_{side}"))
                if pair[0] > 0.0:
                    assert repr(pair) == repr(full_pair), name
                else:
                    assert full_pair[0] <= pair[0] <= 0.0, name
                    seen["witness above the refined minimum"] += pair[0] > full_pair[0]
        seen[f"verdict {want.verdict}"] += 1
        seen["weight flag"] += "family_weight_below_one" in want.flags
        target_rank = coherence_rank(phi)
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
    wanted = ["baseline one", "verdict True", "verdict False", "weight flag", "zero entry",
              "below at -inf", "above at +inf", "zero margin", "below refined",
              "above refined", "n >= 8", "members share a padded length",
              "members differ in padded length", "tied below-one minimum",
              "witness above the refined minimum"]
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


def test_a_gate_whose_margins_are_all_at_most_zero_refines_nothing(monkeypatch):
    # every member's profile majorizes the padded target, so every sampled
    # minimum is below 0 and the verdict is decided by the grid pass alone;
    # the below-one minima sit at finite orders, where refinement would start
    mat = np.zeros((8, 8), dtype=complex)
    for w, levels, probs in ((0.5, [0, 1, 2], [0.7, 0.2, 0.1]), (0.3, [3, 4, 5], [0.6, 0.3, 0.1]),
                             (0.2, [6, 7], [0.9, 0.1])):
        amps = np.sqrt(probs)
        mat[np.ix_(levels, levels)] = w * np.outer(amps, amps)
    rho = validate_density(mat)
    phi = PureStateVector.from_probabilities(np.array([0.5, 0.3, 0.2, 0, 0, 0, 0, 0]))
    calls = Counter()
    kernel = catalysis._power_means_kernel

    def counting(rows, *args):
        calls[rows.shape[1]] += 1
        return kernel(rows, *args)

    monkeypatch.setattr(catalysis, "_power_means_kernel", counting)
    rep = deterministic_gate(rho, phi)
    assert not rep.verdict and len(rep.members) == 3
    assert all(m.margin_below_one < 0.0 and m.margin_above_one < 0.0 for m in rep.members)
    # sampled, finite orders: each witness is a grid point, not a refined one
    assert all(math.isfinite(m.alpha_below_one) and m.alpha_below_one in ALPHAS_BELOW_ONE
               for m in rep.members)
    assert calls == {3: 1}


def test_one_state_is_enumerated_once_across_the_catalyst_questions(
    canonical_catalysis_pair, monkeypatch
):
    rho, phi = _canonical(canonical_catalysis_pair)
    calls = []
    cliques = subspaces._cliques
    monkeypatch.setattr(subspaces, "_cliques", lambda *args: calls.append(1) or cliques(*args))
    first = enhancement_gate(rho, phi)
    deterministic_gate(rho, phi)
    search_catalyst(rho, phi)
    full_plan(rho, phi)
    assert len(calls) == 1
    # a fresh state with the same matrix enumerates again, to the same answer
    assert enhancement_gate(DensityMatrix(rho.matrix), phi) == first
    assert len(calls) == 2


def test_deterministic_gate_sees_tiny_source_entries():
    # a 1e-8 source entry overflows its -40th power, yet the means at
    # alpha = -40 differ and must not both read as 0 (a margin of 0 is a no)
    for tail in (1e-8, 1e-6):
        rep = deterministic_gate(*_tail_pair(tail))
        (member,) = rep.members
        assert rep.verdict and member.passes, tail
        assert member.alpha_below_one == -math.inf
        assert member.margin_below_one == pytest.approx(0.75 * tail, rel=1e-6)
