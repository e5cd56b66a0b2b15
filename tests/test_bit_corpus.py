import bit_corpus


def test_the_bit_corpus_hashes_repeat_on_held_and_fresh_states():
    instances = bit_corpus.corpus(pairs=20, states=30)
    first = bit_corpus.hashes(instances)
    assert set(first) == set(bit_corpus.FAMILIES)
    # the second pass reads the subspaces the states kept in the first
    assert bit_corpus.hashes(instances) == first
    assert bit_corpus.hashes(bit_corpus.corpus(pairs=20, states=30)) == first


def test_the_edge_family_hash_repeats_on_held_and_fresh_states():
    instances = bit_corpus.edge_states()
    first = bit_corpus.edge_hash(instances)
    assert bit_corpus.edge_hash(instances) == first
    assert bit_corpus.edge_hash(bit_corpus.edge_states()) == first
