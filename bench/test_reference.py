"""Tests of the benchmark's independent reference and input generators.

Run with ``python3 -m pytest bench/test_reference.py``.  The expected values
come from the paper's examples and from hand calculation, not from cohdist.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import inputs
import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))


def _density(amplitudes):
    v = np.asarray(amplitudes, dtype=complex)
    return np.outer(v, v.conj())


def test_reference_and_inputs_never_import_cohdist():
    code = "import sys, reference, inputs; print(any(m.startswith('cohdist') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_tails_and_ratio():
    assert np.allclose(ref.tails([0.2, 0.5, 0.3]), [1.0, 0.5, 0.2])
    assert ref.ratio([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)
    # a source of lower coherence rank than the target reaches it never
    assert ref.ratio([1.0, 0.0], [0.5, 0.5]) == 0.0
    # a more ordered target is reached for sure
    assert ref.ratio([0.5, 0.5], [0.9, 0.1]) == 1.0


def test_two_branch_witness():
    # (0.5, 0.26, 0.24) -> (0.4, 0.35, 0.25): min(1, 0.5/0.6, 0.24/0.25) = 5/6
    assert ref.ratio([0.5, 0.26, 0.24], [0.4, 0.35, 0.25]) == pytest.approx(5 / 6)


def test_jonathan_plenio_instance():
    # PRL 83, 3566 (1999): baseline 0.8, catalyst (0.6, 0.4) reaches 1
    p, q = [0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0]
    rho, phi = _density(np.sqrt(p)), np.sqrt(q).astype(complex)
    blocks = [(0, 1, 2, 3)]
    assert ref.pmax_blocks(rho, blocks, phi) == pytest.approx(0.8)
    assert ref.enhanceable(p, q) > 0.1
    assert ref.deterministic_violations(p, q) == []
    cat = np.array([[0.6, 0.4, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    assert np.allclose(ref.catalyzed_values(rho, blocks, phi, cat), [1.0, 0.8])


def test_enhancement_condition_edges():
    # p_n = 0 < q_n: no catalyst helps, margin 0
    assert ref.enhanceable([0.7, 0.3, 0.0], [0.4, 0.3, 0.3]) == pytest.approx(0.0)
    # already deterministic: margin 0
    assert ref.enhanceable([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.0)


def test_deterministic_conditions_catch_a_rank_deficit():
    assert ref.deterministic_violations([0.6, 0.4, 0.0], [0.4, 0.3, 0.3])


def test_block_closed_form():
    # weight 0.5 on a pure qubit (0.9, 0.1), 0.5 on an isolated level;
    # uniform qubit target: 0.5 * min(1, 0.1 / 0.5) = 0.1
    v = np.array([np.sqrt(0.9), np.sqrt(0.1), 0.0], dtype=complex)
    rho = 0.5 * np.outer(v, v.conj()) + 0.5 * np.diag([0.0, 0.0, 1.0])
    phi = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
    assert ref.pure_subsets(rho) == [(0, 1), (2,)]
    assert ref.pmax_blocks(rho, [(0, 1), (2,)], phi) == pytest.approx(0.1)


def test_pair_plus_levels_is_the_pair_alone():
    rng = np.random.default_rng(5)
    rho, blocks = inputs.pair_plus_levels(rng, 6)
    phi = inputs.target(rng, 8, 2)
    w, p = ref.block_weight_profile(rho, blocks[0])
    assert ref.pmax_blocks(rho, blocks, phi) == pytest.approx(w * ref.ratio(p, np.abs(phi) ** 2))
    assert sorted(ref.pure_subsets(rho)) == sorted(blocks)


@pytest.mark.parametrize("seed", range(4))
def test_generators_agree_with_brute_force(seed):
    rng = np.random.default_rng(seed)
    rho, blocks = inputs.block_state(rng, inputs.block_sizes(8, 2))
    assert np.isclose(np.trace(rho).real, 1.0)
    assert sorted(ref.pure_subsets(rho)) == sorted(blocks)
    rho, blocks = inputs.shaped_pure_source(rng, 6)
    assert ref.pure_subsets(rho) == list(blocks)


def test_same_seed_same_inputs():
    a = inputs.mixture_state(np.random.default_rng(9), 6)
    b = inputs.mixture_state(np.random.default_rng(9), 6)
    assert np.array_equal(a, b)


def test_layout_fixes_the_levels_not_the_values():
    def make(seed):
        layout = np.random.default_rng(2020)
        rng = np.random.default_rng(seed)
        return (inputs.block_state(rng, inputs.block_sizes(12, 3), layout),
                inputs.pair_plus_levels(rng, 6, layout))

    (rho_a, blocks_a), (pair_a, levels_a) = make(1)
    (rho_b, blocks_b), (pair_b, levels_b) = make(2)
    assert blocks_a == blocks_b and levels_a == levels_b
    assert not np.allclose(rho_a, rho_b) and not np.allclose(pair_a, pair_b)
    assert sorted(ref.pure_subsets(pair_a)) == sorted(levels_a)


def test_block_sizes():
    assert inputs.block_sizes(8, 2) == [1, 1, 4, 2]
    sizes = inputs.block_sizes(256, 14)
    assert sum(sizes) == 256 and sizes.count(1) == 14 and max(sizes) <= 4


def test_plan_checks():
    # pure qubit (0.9, 0.1) -> uniform qubit with probability 0.2
    rho = _density([np.sqrt(0.9), np.sqrt(0.1)])
    phi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    good = np.diag([1.0 / 3.0, 1.0]).astype(complex)
    assert ref.check_plan([good], [0.2], rho, phi, 0.2) == []
    dense = np.full((2, 2), 0.5, dtype=complex)
    assert any("strictly incoherent" in s for s in ref.check_plan([dense], [0.2], rho, phi, 0.2))
    wrong = np.diag([1.0, 1.0 / 3.0]).astype(complex)
    assert any("fidelity" in s for s in ref.check_plan([wrong], [0.2], rho, phi, 0.2))
    assert any("K†K" in s for s in ref.check_plan([good, good], [0.2, 0.2], rho, phi, 0.4))
    assert any("add to" in s for s in ref.check_plan([good], [0.2], rho, phi, 0.3))


def test_sampling_consistency():
    assert ref.sampling_consistent(20_000, 100_000, 0.2)
    assert not ref.sampling_consistent(21_000, 100_000, 0.2)


def test_candidate_grid():
    grid = ref.candidate_grid(4, 0.02)
    assert len(grid) == 1153
    assert np.allclose(grid.sum(axis=1), 1.0)
    assert np.all(np.diff(grid, axis=1) <= 1e-15)
    assert np.allclose(grid[0], [0.5, 0.5, 0.0, 0.0])
