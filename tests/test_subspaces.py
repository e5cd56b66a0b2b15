import numpy as np
import pytest

from cohdist import (
    CoherenceSupportGraph,
    DensityMatrix,
    PureStateVector,
    a_matrix,
    brute_subspaces,
    has_rank2_subspace,
    maximal_pure_subspaces,
    optimize_disjoint_selection,
    random_block_state,
    random_mixture_state,
    random_pure_state,
    validate_density,
)
from cohdist.states import positive_diagonal_indices
from cohdist.subspaces import A_ONE_TOL


def test_a_matrix_pure_state_is_all_ones():
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.3, 0.2]))
    rho = validate_density(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    assert np.allclose(a_matrix(rho), np.ones((3, 3)))


def test_a_matrix_zero_population_rows_are_zero():
    rho = validate_density(np.diag([0.5, 0.0, 0.5]))
    a = a_matrix(rho)
    assert np.all(a[1] == 0.0) and np.all(a[:, 1] == 0.0)
    assert a[0, 0] == 1.0 and a[2, 2] == 1.0


def test_a_matrix_partial_coherence(block_mixture):
    a = a_matrix(block_mixture)
    # weight 0.5 on the qubit block: off-diagonal is fully coherent inside it
    assert a[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert a[0, 2] == 0.0 and a[1, 2] == 0.0


def _graph(n, edges):
    adj = {
        i: frozenset(j for e in edges if i in e for j in e if j != i)
        for i in range(n)
    }
    return CoherenceSupportGraph(tuple(range(n)), adj)


def _reference_adjacency(rho):
    """Loop over every index pair, kept as the reference.

    This is how the graph was built before the comparison ran in numpy.
    """
    verts = positive_diagonal_indices(rho)
    a = a_matrix(rho)
    return {
        i: frozenset(j for j in verts if j != i and abs(a[i, j] - 1.0) <= A_ONE_TOL)
        for i in verts
    }


def test_graph_matches_pairwise_loop(overlapping_state):
    rng = np.random.default_rng(2048)
    states = [overlapping_state, validate_density(np.diag([0.5, 0.0, 0.5]))]
    states += [random_mixture_state(rng, int(rng.integers(2, 9))) for _ in range(40)]
    states += [random_block_state(rng, d)[0] for d in (3, 8, 17, 64, 200)]
    for rho in states:
        graph = CoherenceSupportGraph.from_state(rho)
        assert graph.vertices == positive_diagonal_indices(rho)
        assert graph.adjacency == _reference_adjacency(rho)


def test_maximal_cliques_triangle_plus_isolated():
    g = _graph(4, [(0, 1), (0, 2), (1, 2)])
    assert g.maximal_cliques() == [(0, 1, 2), (3,)]


def test_maximal_cliques_path_graph():
    g = _graph(3, [(0, 1), (1, 2)])
    assert g.maximal_cliques() == [(0, 1), (1, 2)]


def _reference_cliques(graph):
    """Bron-Kerbosch over the whole graph, kept as the reference.

    This is how cliques were found before clique components were emitted
    without search.
    """
    found = []
    adj = graph.adjacency

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            found.append(tuple(sorted(clique)))
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & adj[u]))
        for v in sorted(candidates - adj[pivot]):
            expand(clique | {v}, candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(graph.vertices), set())
    return sorted(found, key=lambda c: (-len(c), c))


def test_maximal_cliques_match_bron_kerbosch():
    # disjoint cliques (the exact-arithmetic case) plus random sparse edges,
    # which join some of them into components that are not cliques
    rng = np.random.default_rng(1100)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        labels = rng.integers(0, max(1, n // 2), size=n)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] == labels[j]]
        if n > 1:
            edges += [tuple(rng.choice(n, 2, replace=False)) for _ in range(rng.integers(0, 3))]
        g = _graph(n, edges)
        assert g.maximal_cliques() == _reference_cliques(g)


def test_large_pure_state_is_one_subspace_without_recursion():
    # Bron-Kerbosch recursed once per vertex here and raised RecursionError
    rho = DensityMatrix.from_pure(random_pure_state(np.random.default_rng(1), 1100))
    subs = maximal_pure_subspaces(rho)
    assert len(subs) == 1
    assert subs[0].indices == tuple(range(1100))


def test_subspace_enumeration_on_block_state(block_mixture):
    subs = maximal_pure_subspaces(block_mixture)
    assert [s.indices for s in subs] == [(0, 1), (2,)]
    assert subs[0].weight == pytest.approx(0.5, abs=1e-12)
    assert subs[1].weight == pytest.approx(0.5, abs=1e-12)
    probs = subs[0].state.probabilities()
    assert probs[0] == pytest.approx(0.9, abs=1e-12)
    assert probs[1] == pytest.approx(0.1, abs=1e-12)


def test_enumeration_matches_brute_oracle_on_random_states():
    rng = np.random.default_rng(20260814)
    for dim in range(2, 7):
        for _ in range(40):
            rho = random_mixture_state(rng, dim)
            fast = maximal_pure_subspaces(rho)
            slow = brute_subspaces(rho)
            assert [s.indices for s in fast] == [s.indices for s in slow]
            for a, b in zip(fast, slow):
                assert a.weight == pytest.approx(b.weight, abs=1e-9)


def test_enumeration_matches_planted_blocks():
    rng = np.random.default_rng(7)
    for dim in (3, 5, 8):
        for _ in range(25):
            rho, truth = random_block_state(rng, dim)
            subs = maximal_pure_subspaces(rho)
            assert [s.indices for s in subs] == truth


def test_enumeration_is_permutation_covariant():
    rng = np.random.default_rng(99)
    rho = random_mixture_state(rng, 5)
    perm = rng.permutation(5)
    pmat = np.eye(5)[perm]
    rho_p = validate_density(pmat @ rho.matrix @ pmat.T)
    orig = {tuple(sorted(perm[list(s.indices)])) for s in maximal_pure_subspaces(rho)}
    moved = {s.indices for s in maximal_pure_subspaces(rho_p)}
    assert orig == moved


def test_has_rank2_subspace(block_mixture):
    assert has_rank2_subspace(block_mixture)
    assert not has_rank2_subspace(validate_density(np.diag([0.5, 0.5])))


def test_restricted_states_are_unit_norm():
    rng = np.random.default_rng(5)
    rho = random_mixture_state(rng, 6)
    for s in maximal_pure_subspaces(rho):
        assert np.linalg.norm(s.state.amplitudes) == pytest.approx(1.0, abs=1e-10)
        off = [i for i in range(6) if i not in s.indices]
        assert np.all(np.abs(s.state.amplitudes[off]) < 1e-12)


def test_disjoint_selection_prefers_value():
    entries = [
        ((0, 1), 0.5, 0.3),
        ((1, 2), 0.5, 0.4),
        ((3,), 0.2, 0.1),
    ]
    chosen, weight, value = optimize_disjoint_selection(entries)
    assert chosen == (1, 2)
    assert value == pytest.approx(0.5)
    assert weight == pytest.approx(0.7)


def test_disjoint_selection_value_tie_prefers_weight():
    entries = [((0, 1), 0.3, 0.25), ((0, 2), 0.6, 0.25)]
    chosen, weight, _ = optimize_disjoint_selection(entries)
    assert chosen == (1,)
    assert weight == pytest.approx(0.6)


def test_disjoint_selection_full_tie_prefers_lexicographic():
    entries = [((1, 2), 0.5, 0.25), ((0, 1), 0.5, 0.25)]
    chosen, _, _ = optimize_disjoint_selection(entries)
    assert chosen == (1,)


def _reference_selection(entries):
    """Global branch and bound over every entry, kept as the reference.

    This is the selection the package used before isolated entries were
    taken without branching; it visits every subset of every entry.
    """
    tie = 1e-12
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    values = [entries[i][2] for i in order]
    tail_value = np.concatenate([np.cumsum(values[::-1])[::-1], [0.0]])
    best = {"value": -1.0, "weight": -1.0, "key": None, "chosen": ()}

    def consider(chosen, value, weight):
        key = tuple(entries[i][0] for i in chosen)
        if value > best["value"] + tie:
            pass
        elif value > best["value"] - tie and weight > best["weight"] + tie:
            pass
        elif (
            value > best["value"] - tie
            and weight > best["weight"] - tie
            and (best["key"] is None or key < best["key"])
        ):
            pass
        else:
            return
        best.update(value=value, weight=weight, key=key, chosen=chosen)

    n = len(order)

    def walk(i, chosen, used, value, weight):
        if value + tail_value[i] < best["value"] - tie:
            return
        if i == n:
            consider(chosen, value, weight)
            return
        idx, w, v = entries[order[i]]
        if not used & set(idx):
            walk(i + 1, chosen + (order[i],), used | frozenset(idx), value + v, weight + w)
        walk(i + 1, chosen, used, value, weight)

    walk(0, (), frozenset(), 0.0, 0.0)
    return (
        tuple(best["chosen"]),
        float(max(best["weight"], 0.0)),
        float(max(best["value"], 0.0)),
    )


def _random_entries(rng):
    """Entries over a few levels, with overlaps, zero values and ties.

    Every other set draws dyadic weights and ratios, so that equal values
    and weights (the tie rules) come up often; the rest are continuous.
    """
    levels = int(rng.integers(2, 11))
    dyadic = bool(rng.integers(2))
    entries = []
    for _ in range(int(rng.integers(1, 10))):
        size = int(rng.integers(1, min(3, levels) + 1))
        idx = tuple(sorted(int(i) for i in rng.choice(levels, size, replace=False)))
        if dyadic:
            weight = int(rng.integers(1, 9)) / 16
            ratio = int(rng.integers(0, 5)) / 4
        else:
            weight = float(rng.uniform(0.01, 0.5))
            ratio = float(rng.choice([0.0, 1.0, rng.uniform()]))
        entries.append((idx, weight, weight * ratio))
    return entries


def test_disjoint_selection_matches_global_search():
    rng = np.random.default_rng(20261018)
    overlapping = 0
    for _ in range(3000):
        entries = _random_entries(rng)
        levels = [j for idx, _, _ in entries for j in idx]
        overlapping += len(levels) != len(set(levels))
        assert optimize_disjoint_selection(entries) == _reference_selection(entries)
    assert overlapping > 1000


def test_disjoint_selection_takes_isolated_entries_without_search():
    # 60 isolated zero-value entries would take 2^60 steps to branch on
    entries = [((0, 1), 0.4, 0.2), ((1, 2), 0.3, 0.25)]
    entries += [((k,), 0.005, 0.0) for k in range(3, 63)]
    chosen, weight, value = optimize_disjoint_selection(entries)
    assert chosen == (1,) + tuple(range(2, 62))
    assert value == pytest.approx(0.25)
    assert weight == pytest.approx(0.6)
