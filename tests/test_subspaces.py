import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohdist import (
    DensityMatrix,
    PreconditionError,
    PureStateVector,
    ValidationError,
    a_matrix,
    catalyst_gates,
    deterministic_gate,
    enhancement_gate,
    full_plan,
    has_rank2_subspace,
    maximal_pure_subspaces,
    optimize_disjoint_selection,
    pmax_mixed,
    search_catalyst,
    validate_density,
)
from cohdist import subspaces
from cohdist.cli import main
from cohdist.states import positive_diagonal_indices
from cohdist.subspaces import A_ONE_TOL, CoherenceSupportGraph
from reference_oracles import (
    brute_subspaces,
    chain_state,
    edge_state,
    moon_moser_graph,
    overlapping_state,
    random_block_state,
    random_mixture_state,
    random_pure_state,
    subspace_state,
)


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
    """Recursive Bron-Kerbosch with set arithmetic over the whole graph, kept as the reference.

    This is how cliques were found before clique components were emitted
    without search, and before the search ran on bitsets with an explicit
    stack.
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


def test_maximal_cliques_match_bron_kerbosch_on_scattered_labels():
    # vertices that are not 0..n-1 and denser edges, so cliques overlap a lot
    rng = np.random.default_rng(1101)
    for _ in range(200):
        n = int(rng.integers(1, 14))
        labels = sorted(rng.choice(60, size=n, replace=False).tolist())
        density = rng.uniform(0.2, 0.9)
        edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < density]
        adj = {v: frozenset(u for e in edges if v in e for u in e if u != v) for v in labels}
        g = CoherenceSupportGraph(tuple(rng.permutation(labels).tolist()), adj)
        assert g.maximal_cliques() == _reference_cliques(g)


def test_maximal_cliques_finds_a_1100_vertex_clique():
    # the recursive search went one frame deeper per member and raised RecursionError
    rho = DensityMatrix.from_pure(random_pure_state(np.random.default_rng(1), 1100))
    assert CoherenceSupportGraph.from_state(rho).maximal_cliques() == [tuple(range(1100))]


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
    probs = subspace_state(subs[0], block_mixture.dim).probabilities()
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


def test_has_rank2_subspace_reads_the_kept_subspaces(monkeypatch):
    # after pmax_mixed the state holds its subspaces: no unit mask is built again
    masks = []
    unit_mask = subspaces._unit_mask
    monkeypatch.setattr(subspaces, "_unit_mask", lambda rho: masks.append(rho) or unit_mask(rho))
    rng = np.random.default_rng(12)
    phi = PureStateVector(np.array([1, 1, 0, 0, 0, 0], dtype=complex) / np.sqrt(2))
    for rho in (random_block_state(rng, 6)[0], random_mixture_state(rng, 6)):
        pmax_mixed(rho, phi)
        assert len(masks) == 1
        masks.clear()
        has_rank2_subspace(rho)
        assert masks == []


def _mask_rule(rho):
    """Some off-diagonal pair of the unit-coherence mask is set."""
    unit = subspaces._unit_mask(rho)
    return bool(np.count_nonzero(unit) > np.count_nonzero(unit.diagonal()))


def test_has_rank2_subspace_agrees_with_the_unit_mask_rule(overlapping_state):
    rng = np.random.default_rng(41)
    states = [overlapping_state, *(chain_state(n) for n in (3, 4)),
              validate_density(np.diag([0.5, 0.3, 0.2]))]
    for d in range(2, 9):
        states += [random_block_state(rng, d)[0], random_mixture_state(rng, d)]
    seen = set()
    for rho in states:
        want = _mask_rule(rho)
        assert has_rank2_subspace(rho) is want
        seen.add(want)
    assert seen == {True, False}
    # a longer chain's one component is not rank-1, so there is no answer to agree with
    for n in (5, 8):
        with pytest.raises(ValidationError, match="not rank-1"):
            has_rank2_subspace(chain_state(n))


def test_restricted_states_are_unit_norm():
    rng = np.random.default_rng(5)
    rho = random_mixture_state(rng, 6)
    for s in maximal_pure_subspaces(rho):
        amps = subspace_state(s, rho.dim).amplitudes
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
        off = [i for i in range(6) if i not in s.indices]
        assert np.all(np.abs(amps[off]) < 1e-12)


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
    """Disjoint entries over a few levels, in random order, with zero values and ties.

    Every other set draws dyadic weights and ratios, so that equal values
    and weights come up often; the rest are continuous.
    """
    levels = rng.permutation(int(rng.integers(2, 11))).tolist()
    dyadic = bool(rng.integers(2))
    entries = []
    while levels:
        size = int(rng.integers(1, min(3, len(levels)) + 1))
        idx, levels = tuple(sorted(levels[:size])), levels[size:]
        if dyadic:
            weight = int(rng.integers(1, 9)) / 16
            ratio = int(rng.integers(0, 5)) / 4
        else:
            weight = float(rng.uniform(0.01, 0.5))
            ratio = float(rng.choice([0.0, 1.0, rng.uniform()]))
        entries.append((idx, weight, weight * ratio))
    return entries


def test_disjoint_selection_matches_global_search():
    # on disjoint entries, the maximal pure subspaces' case, the exhaustive
    # search takes every entry, as the selection does, in the same order
    rng = np.random.default_rng(20261018)
    for _ in range(3000):
        entries = _random_entries(rng)
        assert optimize_disjoint_selection(entries) == _reference_selection(entries)


def test_disjoint_selection_takes_isolated_entries_without_search():
    # 60 isolated zero-value entries would take 2^60 steps to branch on
    entries = [((1, 2), 0.3, 0.25), ((0,), 0.4, 0.2)]
    entries += [((k,), 0.005, 0.0) for k in range(3, 63)]
    chosen, weight, value = optimize_disjoint_selection(entries)
    assert chosen == (1, 0) + tuple(range(2, 62))
    assert value == pytest.approx(0.45)
    assert weight == pytest.approx(1.0)


def test_disjoint_selection_of_1200_entries_sharing_one_level():
    # maximal pure subspaces are disjoint, so entries that share a level are refused
    values = np.random.default_rng(1200).uniform(0.0, 1.0 / 1200, 1200)
    entries = [((0, k + 1), 1.0 / 1200, v) for k, v in enumerate(values.tolist())]
    for shared in (entries, [((0, 1), 0.5, 0.3), ((1, 2), 0.5, 0.4)]):
        with pytest.raises(ValidationError, match="share a level"):
            optimize_disjoint_selection(shared)


def _star_state(n):
    """Level 0 unit-coherent, at the tolerance edge, with each other level; those pairs are not.

    Level 0 has Gram vector e0 and level i cos(t) e0 + sin(t) e_i with
    t^2 = 1.5e-9, so 1 - A_0i ~ 7.5e-10 and 1 - A_ij ~ 1.5e-9.  Level 0
    holds a fifth of the population, the other levels shares that rise with i.
    """
    theta = np.sqrt(1.5e-9)
    pops = np.concatenate([[0.2], 0.8 * np.arange(1, n) / np.arange(1, n).sum()])
    g = np.zeros((n, n))
    g[:, 0] = np.cos(theta)
    g[0, 0] = 1.0
    g[np.arange(1, n), np.arange(1, n)] = np.sin(theta)
    g *= np.sqrt(pops)[:, None]
    return validate_density((g @ g.T).astype(complex)), pops


def test_pmax_mixed_on_a_1201_level_star():
    # 1200 maximal cliques share level 0; the recursive selection over them
    # raised RecursionError.  The star is one component, and it is rank-1
    rho, pops = _star_state(1201)
    target = np.zeros(1201)
    target[:2] = np.sqrt(0.5)
    result = pmax_mixed(rho, PureStateVector(target))
    assert [s.indices for s in result.all_subspaces] == [tuple(range(1201))]
    assert result.family.index_sets() == (tuple(range(1201)),)
    # its profile is the populations, and the uniform qubit target takes all of it
    assert np.allclose(result.all_subspaces[0].profile, pops, rtol=0.0, atol=1e-9)
    assert result.p_max == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------- one-pass decomposition

def _decomposition_corpus(overlapping_state, block_mixture):
    rng = np.random.default_rng(1018)
    states = [overlapping_state, block_mixture, chain_state(4)]
    states += [random_block_state(rng, d)[0] for d in (2, 3, 5, 8, 17, 64)]
    states += [random_mixture_state(rng, d) for d in (2, 3, 4, 6, 8) for _ in range(4)]
    states += [DensityMatrix.from_pure(random_pure_state(rng, d)) for d in (2, 5, 40)]
    return states


def test_cliques_match_bron_kerbosch_on_the_whole_graph(overlapping_state, block_mixture):
    # where every component is a clique, the components are the maximal
    # cliques; at the tolerance edge each component is the union of its cliques
    edge = 0
    for rho in _decomposition_corpus(overlapping_state, block_mixture):
        components = subspaces._components(subspaces._unit_mask(rho), positive_diagonal_indices(rho))
        cliques = _reference_cliques(CoherenceSupportGraph.from_state(rho))
        if components != cliques:
            edge += 1
            union = sorted({tuple(sorted({j for c in cliques if set(c) & set(comp) for j in c}))
                            for comp in components}, key=lambda c: (-len(c), c))
            assert components == union
    assert edge == 2


def test_a_clique_beside_a_chain_reaches_no_clique_search(monkeypatch):
    # a 1100-level clique next to a 4-level chain: the clique is read off the
    # mask in one pass and the chain is one component, with no Bron-Kerbosch
    chain = chain_state(4).matrix
    big = DensityMatrix.from_pure(random_pure_state(np.random.default_rng(3), 1100)).matrix
    mat = np.zeros((1104, 1104), dtype=complex)
    mat[:1100, :1100] = big / 2
    mat[1100:, 1100:] = chain / 2
    rho = validate_density(mat)
    monkeypatch.setattr(CoherenceSupportGraph, "maximal_cliques", _no_clique_search)
    components = subspaces._components(subspaces._unit_mask(rho), positive_diagonal_indices(rho))
    assert components == [tuple(range(1100)), (1100, 1101, 1102, 1103)]
    assert [s.indices for s in maximal_pure_subspaces(rho)] == components


def _no_clique_search(graph):
    raise AssertionError("an answer path ran the clique search")


def _reference_subspace(rho, indices):
    """Weight and restricted pure state of one clique by its own ``eigh``, kept as the reference.

    This is how each subspace was built before restrictions of one size
    were stacked.
    """
    idx = list(indices)
    sub = rho.matrix[np.ix_(idx, idx)]
    weight = float(np.real(np.trace(sub)))
    vec = np.linalg.eigh(sub / weight)[1][:, -1]
    lead = np.argmax(np.abs(vec) > 1e-8)
    vec = vec * np.conj(vec[lead] / abs(vec[lead]))
    return weight, vec / np.linalg.norm(vec)


def test_stacked_subspaces_match_one_eigh_per_clique(overlapping_state, block_mixture):
    for n in (5, 8):
        with pytest.raises(ValidationError, match="not rank-1"):
            maximal_pure_subspaces(chain_state(n))
    for rho in _decomposition_corpus(overlapping_state, block_mixture):
        for s in maximal_pure_subspaces(rho):
            idx = list(s.indices)
            weight, vec = _reference_subspace(rho, s.indices)
            assert s.weight == pytest.approx(weight, rel=1e-15, abs=0.0)
            assert np.allclose(s.amplitudes, vec, rtol=0.0, atol=1e-12)
            assert np.array_equal(s.profile, np.abs(s.amplitudes) ** 2)
            assert s.amplitudes.shape == (s.rank,)
            amps = subspace_state(s, rho.dim).amplitudes
            assert np.array_equal(amps[idx], s.amplitudes)
            assert not np.any(np.delete(amps, idx))


def test_a_state_is_enumerated_once(monkeypatch, overlapping_state):
    calls = []
    components = subspaces._components
    monkeypatch.setattr(subspaces, "_components", lambda *args: calls.append(1) or components(*args))
    rho, _ = random_block_state(np.random.default_rng(5), 12)
    for state in (rho, overlapping_state):
        calls.clear()
        runs = [maximal_pure_subspaces(state) for _ in range(3)]
        assert len(calls) == 1
        assert runs[0] == runs[1] == runs[2]
        # each call hands out its own list of the kept subspaces
        assert runs[0] is not runs[1]
        assert all(a is b for a, b in zip(runs[0], runs[1]))
        runs[0].clear()
        assert maximal_pure_subspaces(state) == runs[1]


def test_one_eigh_call_per_clique_size(monkeypatch):
    rng = np.random.default_rng(11)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    for d in (3, 8, 30, 120):
        rho, blocks = random_block_state(rng, d)
        calls.clear()
        subs = maximal_pure_subspaces(rho)
        sizes = {s.rank for s in subs if s.rank > 1}
        assert len(calls) == len(sizes)
        assert sorted(shape[1] for shape in calls) == sorted(sizes)


def _indefinite_clique_state():
    """A 3-level block of weight 3e-11 with |A_ij| = 1 but a cyclic phase.

    Its trace-1 restriction has eigenvalues (2/3, 2/3, -1/3), so the whole
    matrix passes the PSD check at PSD_FLOOR while the clique is not rank-1.
    """
    w = 3e-11
    omega = np.exp(1j * np.pi / 3)
    block = np.array([[1, omega, omega.conj()], [omega.conj(), 1, omega], [omega, omega.conj(), 1]])
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0 - w
    mat[1:, 1:] = block * (w / 3)
    return validate_density(mat)


def test_a_clique_that_is_not_rank1_is_refused(tmp_path):
    rho = _indefinite_clique_state()
    with pytest.raises(ValidationError, match=r"restriction to \(1, 2, 3\) not rank-1"):
        maximal_pure_subspaces(rho)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(
        {"matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix.tolist()]}))
    assert main(["subspaces", str(path)]) == 2


def test_a_state_whose_clique_is_not_rank1_raises_on_every_call():
    # a refused restriction is not kept as the state's answer
    rho = _indefinite_clique_state()
    phi = PureStateVector(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))
    for call in (maximal_pure_subspaces, maximal_pure_subspaces, lambda r: pmax_mixed(r, phi),
                 has_rank2_subspace):
        with pytest.raises(ValidationError, match=r"restriction to \(1, 2, 3\) not rank-1"):
            call(rho)


# ------------------------------------------- tolerance-edge states

def _uniform_target(rank, dim):
    return PureStateVector.from_probabilities(np.r_[np.full(rank, 1.0 / rank), np.zeros(dim - rank)])


def _elapsed(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def test_edge_graphs_give_the_brute_oracle_subspaces():
    # any graph is a unit-coherence graph at the edge; its components are the
    # maximal pure subspaces wherever none is refused
    kept = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
    def check(drawn):
        n, pairs = drawn
        graph = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            graph[i, j] = graph[j, i] = i != j
        rho = edge_state(graph)
        try:
            start = time.perf_counter()
            fast = maximal_pure_subspaces(rho)
            assert time.perf_counter() - start < 0.25
        except ValidationError:
            return
        slow = brute_subspaces(rho)
        assert [s.indices for s in fast] == [s.indices for s in slow]
        for a, b in zip(fast, slow):
            assert a.weight == pytest.approx(b.weight, abs=1e-12)
        cliques = [graph[np.ix_(s.indices, s.indices)].sum() == s.rank * (s.rank - 1) for s in fast]
        kept.append((graph.any(), not all(cliques), len(fast)))

    check()
    # kept graphs include one with an edge, one with a component that is not
    # a clique, and one with several components
    assert any(edge for edge, _, _ in kept) and any(path for _, path, _ in kept)
    assert any(count > 1 for _, _, count in kept)


def test_moon_moser_9_reaches_a_uniform_rank4_target():
    # every maximal clique has rank 3, so the clique rule answered 0; the one
    # component, the whole support, is pure and reaches the target surely
    rho = edge_state(moon_moser_graph(9))
    assert [s.indices for s in brute_subspaces(rho)] == [tuple(range(9))]
    result = pmax_mixed(rho, _uniform_target(4, 9))
    assert [s.indices for s in result.all_subspaces] == [tuple(range(9))]
    assert result.p_max == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [21, 45])
def test_moon_moser_states_take_bounded_time(n, tmp_path, capsys):
    # 3^(n/3) maximal cliques: 2187 at n = 21, 1.4e7 at n = 45
    rho = edge_state(moon_moser_graph(n))
    phi = _uniform_target(2, n)
    assert _elapsed(lambda: pmax_mixed(rho, phi)) < 0.5
    assert pmax_mixed(rho, phi).family.index_sets() == (tuple(range(n)),)
    state, target = tmp_path / "rho.json", tmp_path / "phi.json"
    state.write_text(json.dumps({"matrix": rho.matrix.real.tolist()}))
    target.write_text(json.dumps({"amplitudes": phi.amplitudes.real.tolist()}))
    codes = []
    assert _elapsed(lambda: codes.append(main(["pmax", str(state), str(target)]))) < 0.5
    assert codes == [0]
    capsys.readouterr()


def test_a_200_level_chain_is_refused_quickly(tmp_path, capsys):
    # the chain's one component is not rank-1 from five levels on
    rho, phi = chain_state(200), _uniform_target(2, 200)
    with pytest.raises(ValidationError, match=r"restriction to \(0, 1, .*, 199\) not rank-1"):
        start = time.perf_counter()
        pmax_mixed(rho, phi)
    assert time.perf_counter() - start < 0.05
    state, target = tmp_path / "rho.json", tmp_path / "phi.json"
    state.write_text(json.dumps({"matrix": rho.matrix.real.tolist()}))
    target.write_text(json.dumps({"amplitudes": phi.amplitudes.real.tolist()}))
    assert main(["pmax", str(state), str(target)]) == 2
    err = capsys.readouterr().err
    assert "not rank-1" in err and "Traceback" not in err


def test_a_catalyst_search_on_a_28_level_chain_is_refused_quickly():
    # the selection ran once per grid row here: 15.7 s for the 1153 rows
    rho, phi = chain_state(28), _uniform_target(2, 28)
    with pytest.raises(ValidationError, match="not rank-1"):
        start = time.perf_counter()
        search_catalyst(rho, phi, 4, 0.02)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("case", ["overlap", "moon-moser-12", "block"])
def test_no_answer_path_runs_a_clique_search(case, monkeypatch):
    rho, phi = {
        "overlap": lambda: (overlapping_state(), _uniform_target(3, 3)),
        "moon-moser-12": lambda: (edge_state(moon_moser_graph(12)), _uniform_target(4, 12)),
        "block": lambda: (random_block_state(np.random.default_rng(4), 8)[0], _uniform_target(2, 8)),
    }[case]()
    monkeypatch.setattr(CoherenceSupportGraph, "maximal_cliques", _no_clique_search)
    baseline = pmax_mixed(rho, phi).p_max
    assert full_plan(rho, phi).p_max == baseline
    assert enhancement_gate(rho, phi).baseline == baseline
    enhancement, deterministic = catalyst_gates(rho, phi)
    if deterministic is None:
        with pytest.raises(PreconditionError):
            deterministic_gate(rho, phi)
    else:
        assert deterministic == deterministic_gate(rho, phi)
    assert search_catalyst(rho, phi, 3, 0.1).baseline == baseline
