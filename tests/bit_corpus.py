"""One SHA-256 per family of library answers on two seeded corpora.

    PYTHONPATH=src python tests/bit_corpus.py

prints the hashes of seven families: ``pmax_mixed`` results, ``full_plan``
entries and probabilities, enhancement gate reports, probability-1 gate
verdicts and ``passes`` flags (the reports without their margins),
probability-1 margins with their orders, and ``search_catalyst`` reports
in both modes at max_dim 2, grid_step 0.05 (a grid of one dimension) and
at max_dim 4, grid_step 0.02 (three dimensions, 1153 profiles).  An eighth
family, ``edge``, hashes the ``pmax_mixed`` result, the ``full_plan`` and
the enhancement gate report of seven tolerance-edge states.  Floats
enter by ``repr``, which round-trips, and arrays by their bytes, so two
trees give equal hashes only where every bit of these answers is equal.
An exception enters by its type name.

The corpora:

* 300 pure pairs from one ``np.random.default_rng(3)``: each draws
  ``n = rng.integers(3, 6)``, then p and q as sorted-descending
  ``rng.dirichlet(np.ones(n))``; the source is ``DensityMatrix.from_pure``
  of p and the target has squared moduli q;
* 400 mixed states from one ``np.random.default_rng(17)``, block and
  mixture states in turn, d = 3-9, each with a random pure target of
  coherence rank 2-4 (at most d);
* the edge states: ``overlapping_state`` with the uniform qubit target,
  the Moon-Moser states of 6, 9 and 12 levels with the uniform rank-4
  target, and the chains of 3, 4 and 5 levels with the uniform qubit
  target.  The 5-level chain is refused.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from cohdist import (
    DensityMatrix,
    PureStateVector,
    deterministic_gate,
    enhancement_gate,
    full_plan,
    pmax_mixed,
    search_catalyst,
)
from reference_oracles import (
    chain_state,
    edge_state,
    moon_moser_graph,
    overlapping_state,
    random_block_state,
    random_mixture_state,
    random_pure_state,
)

FAMILIES = ("pmax_mixed", "full_plan", "enhancement", "deterministic_verdicts",
            "deterministic_margins", "search", "search_dim4")
_MARGIN_FIELDS = ("margin_below_one", "alpha_below_one", "margin_above_one", "alpha_above_one")


def pure_pairs(count: int = 300) -> list[tuple[DensityMatrix, PureStateVector]]:
    rng = np.random.default_rng(3)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 6))
        p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        q = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        out.append((DensityMatrix.from_pure(PureStateVector.from_probabilities(p)),
                    PureStateVector.from_probabilities(q)))
    return out


def mixed_states(count: int = 400) -> list[tuple[DensityMatrix, PureStateVector]]:
    rng = np.random.default_rng(17)
    out = []
    for i in range(count):
        d = int(rng.integers(3, 10))
        rho = random_block_state(rng, d)[0] if i % 2 == 0 else random_mixture_state(rng, d)
        rank = min(int(rng.integers(2, 5)), d)
        support = sorted(rng.choice(d, size=rank, replace=False).tolist())
        out.append((rho, random_pure_state(rng, d, support=support)))
    return out


def _uniform(rank: int, dim: int) -> PureStateVector:
    return PureStateVector.from_probabilities(np.r_[np.full(rank, 1.0 / rank), np.zeros(dim - rank)])


def edge_states() -> list[tuple[DensityMatrix, PureStateVector]]:
    out = [(overlapping_state(), _uniform(2, 3))]
    out += [(edge_state(moon_moser_graph(n)), _uniform(4, n)) for n in (6, 9, 12)]
    out += [(chain_state(n), _uniform(2, n)) for n in (3, 4, 5)]
    return out


def corpus(pairs: int = 300, states: int = 400) -> list[tuple[DensityMatrix, PureStateVector]]:
    """The first ``pairs`` pure pairs and the first ``states`` mixed states."""
    return pure_pairs(pairs) + mixed_states(states)


def _array(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}{a.shape}{a.tobytes().hex()}"


def _pmax(rho, phi) -> str:
    r = pmax_mixed(rho, phi)
    subs = [(s.indices, repr(s.weight), _array(s.profile), _array(s.amplitudes)) for s in r.all_subspaces]
    per = [(y.subspace.indices, repr(y.ratio), repr(y.achieved)) for y in r.per_subspace]
    return repr((repr(r.p_max), r.family.index_sets(), repr(r.family.total_weight), per, subs))


def _plan(rho, phi) -> str:
    plan = full_plan(rho, phi)
    branches = [(b.branch_id, repr(b.probability), _array(b.kraus.columns), _array(b.kraus.rows),
                 _array(b.kraus.coefficients)) for b in plan.branches]
    return repr((plan.dim, repr(plan.p_max), plan.family_index_sets, branches))


def _deterministic(rho, phi) -> tuple[str, str]:
    rep = deterministic_gate(rho, phi)
    verdicts = [(m.indices, repr(m.entropy_margin), m.zero_entry_support, m.passes) for m in rep.members]
    margins = [tuple(repr(getattr(m, f)) for f in _MARGIN_FIELDS) for m in rep.members]
    head = (rep.verdict, repr(rep.total_weight), rep.weight_complete, repr(rep.baseline), rep.flags)
    return repr((head, verdicts)), repr(margins)


def _search(rho, phi, max_dim, grid_step) -> str:
    return repr([_answer(lambda: repr(search_catalyst(rho, phi, max_dim, grid_step, mode)))
                 for mode in ("probabilistic", "deterministic")])


def _answer(call) -> str:
    """``call()``, or the name of the exception it raises."""
    try:
        return call()
    except Exception as exc:      # the error type is the answer
        return f"raises {type(exc).__name__}"


def hashes(instances) -> dict[str, str]:
    """The SHA-256 of each family over ``instances``, (rho, phi) pairs in order."""
    digests = {name: hashlib.sha256() for name in FAMILIES}
    for rho, phi in instances:
        try:
            verdicts, margins = _deterministic(rho, phi)
        except Exception as exc:
            verdicts = margins = f"raises {type(exc).__name__}"
        answers = {
            "pmax_mixed": _answer(lambda: _pmax(rho, phi)),
            "full_plan": _answer(lambda: _plan(rho, phi)),
            "enhancement": _answer(lambda: repr(enhancement_gate(rho, phi))),
            "deterministic_verdicts": verdicts,
            "deterministic_margins": margins,
            "search": _search(rho, phi, 2, 0.05),
            "search_dim4": _search(rho, phi, 4, 0.02),
        }
        for name in FAMILIES:
            digests[name].update(answers[name].encode() + b"\n")
    return {name: d.hexdigest() for name, d in digests.items()}


def edge_hash(instances) -> str:
    """The SHA-256 of the ``edge`` family over ``instances``, (rho, phi) pairs in order."""
    digest = hashlib.sha256()
    for rho, phi in instances:
        answers = [_answer(lambda: _pmax(rho, phi)), _answer(lambda: _plan(rho, phi)),
                   _answer(lambda: repr(enhancement_gate(rho, phi)))]
        digest.update(repr(answers).encode() + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    instances = corpus()
    for name, digest in hashes(instances).items():
        print(f"{name:24} {digest}")
    print(f"{'edge':24} {edge_hash(edge_states())}")
    print(f"{'instances':24} {len(instances)}", file=sys.stderr)
