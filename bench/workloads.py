"""The three workloads: fixed operation lists built from a seed.

An operation is one user-level question on one input: a library call chain
or one in-process ``cohdist.cli.main([...])`` command.  Each carries its
size tier and a check that compares the answer with ``reference`` (numpy
only) or with a property the method must have.  cohdist functions are
looked up on the module at call time, so a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cohdist as cd
import cohdist.cli

import inputs
import reference as ref

SHOTS = 100_000
SEARCH = {"max_dim": 4, "grid_step": 0.02}
RANK4_TARGET = (0.4, 0.3, 0.2, 0.1)
LAYOUT_SEED = 2020
# Jonathan and Plenio, PRL 83, 3566 (1999): baseline 0.8, catalyst
# (0.6, 0.4) makes the conversion deterministic
JP_SOURCE = np.sqrt([0.4, 0.4, 0.1, 0.1]).astype(complex)
JP_TARGET = np.sqrt([0.5, 0.25, 0.25, 0.0]).astype(complex)


@dataclass
class Op:
    """One timed operation and the check of its answer."""

    kind: str
    tier: str                              # "small", "middle" or "large"
    run: Callable[[], object]
    check: Callable[[object], list[str]]   # problems found; empty when correct


class Files:
    """State files for the CLI operations, in one temporary directory."""

    def __init__(self, root: str):
        self.root = root
        self._n = 0

    def _path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.root, f"{self._n:04d}-{stem}.json")

    def _write(self, stem: str, doc: dict) -> str:
        path = self._path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def state(self, rho: np.ndarray) -> str:
        return self._write("rho", {"matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]})

    def target(self, phi: np.ndarray) -> str:
        return self._write("phi", {"amplitudes": [[z.real, z.imag] for z in phi.tolist()]})

    def plan(self) -> str:
        return self._path("plan")


def cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cohdist.cli.main(argv)
    return code, out.getvalue()


def _cli_doc(result, problems: list[str]) -> dict | None:
    code, text = result
    if code != 0:
        problems.append(f"exit code {code}")
        return None
    return json.loads(text)


def _close(name: str, got: float, want: float, problems: list[str], tol: float = 1e-9):
    if not abs(float(got) - want) <= tol:
        problems.append(f"{name} {got!r}, reference {want!r}")


class Answer:
    """Reference answers for one instance, computed on first use.

    The first check of an operation computes them, so they stay out of
    set-up and out of every timed region.
    """

    def __init__(self, inst: inputs.Instance):
        self.inst = inst

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        if self.inst.blocks is not None:
            return self.inst.blocks
        return tuple(ref.pure_subsets(self.inst.rho))

    @functools.cached_property
    def p_max(self) -> float:
        return ref.pmax_blocks(self.inst.rho, self.blocks, self.inst.target)

    def block_set(self) -> list[tuple[int, ...]]:
        return sorted(self.blocks)


# ===========================================================================
# pmax-mixed
# ===========================================================================

def _pmax_op(inst: inputs.Instance, tier: str, files: Files | None) -> Op:
    ans = Answer(inst)
    if files is not None:
        argv = ["pmax", files.state(inst.rho), files.target(inst.target), "--json"]

        def check_cli(result):
            problems = []
            doc = _cli_doc(result, problems)
            if doc is not None:
                _close("p_max", doc["p_max"], ans.p_max, problems)
                if sorted(tuple(s) for s in doc["family"]) != ans.block_set():
                    problems.append("family is not the set of maximal pure subspaces")
            return problems

        return Op(f"pmax.cli.{inst.name}", tier, lambda: cli(argv), check_cli)

    matrix = inst.rho
    phi = cd.PureStateVector(inst.target)

    def run():
        rho = cd.validate_density(matrix)
        return cd.pmax_mixed(rho, phi), cd.has_rank2_subspace(rho)

    def check(result):
        res, rank2 = result
        problems = []
        _close("p_max", res.p_max, ans.p_max, problems)
        if sorted(s.indices for s in res.all_subspaces) != ans.block_set():
            problems.append("maximal pure subspaces differ from the reference")
        if sorted(res.family.index_sets()) != ans.block_set():
            problems.append("family is not the set of maximal pure subspaces")
        if rank2 != any(len(b) >= 2 for b in ans.blocks):
            problems.append(f"has_rank2_subspace gave {rank2}")
        return problems

    return Op(f"pmax.lib.{inst.name}", tier, run, check)


def small_tier(kinds, max_rank: int) -> list[tuple[int, str, int, bool]]:
    """The small tier's fixed make-up, as (d, kind, target rank, via CLI).

    Every d = 3..8, kind and target rank appears three times through the
    library and once through the CLI, so only the random values, never the
    mix of sizes, depend on the seed.
    """
    return [(d, kind, rank, via_cli)
            for d in range(3, 9) for kind in kinds for rank in range(2, min(d, max_rank) + 1)
            for via_cli in (False, False, False, True)]


def pmax_mixed(rng: np.random.Generator, files: Files) -> list[Op]:
    ops = []
    for d, kind, rank, via_cli in small_tier(("block", "mixture"), 3) * 2:
        if kind == "mixture":
            rho, blocks = inputs.mixture_state(rng, d), None
        else:
            rho, blocks = inputs.block_state(rng, inputs.block_sizes(d, d % 3))
        inst = inputs.Instance(f"{kind}{d}", rho, inputs.target(rng, d, rank), blocks)
        ops.append(_pmax_op(inst, "small", files if via_cli else None))
    for d in (16, 24, 32, 48, 64):
        rho, blocks = inputs.block_state(rng, inputs.block_sizes(d, d // 8))
        ops.append(_pmax_op(inputs.Instance(f"block{d}", rho, inputs.target(rng, d, 2), blocks),
                            "middle", None))
    large = [("block256", 256, None), ("block256", 256, None),
             ("pair14", 14, None), ("pair14", 14, files),
             ("pair16", 16, None), ("pair16", 16, None), ("pair16", 16, files)]
    # the level layouts of the large inputs come from a fixed stream, so
    # their selection work is the same for every seed
    layout = np.random.default_rng(LAYOUT_SEED)
    for name, size, via in large:
        if name.startswith("block"):
            rho, blocks = inputs.block_state(rng, inputs.block_sizes(size, 14), layout)
        else:
            rho, blocks = inputs.pair_plus_levels(rng, size, layout)
        d = rho.shape[0]
        ops.append(_pmax_op(inputs.Instance(name, rho, inputs.target(rng, d, 2), blocks),
                            "large", via))
    return ops


# ===========================================================================
# protocol-pipeline
# ===========================================================================

def _protocol_op(inst: inputs.Instance, tier: str, seed: int, files: Files | None) -> Op:
    ans = Answer(inst)
    if files is not None:
        rho_path, phi_path, plan_path = files.state(inst.rho), files.target(inst.target), files.plan()
        protocol = ["protocol", rho_path, phi_path, plan_path, "--json"]
        sim = ["simulate", plan_path, rho_path, "--shots", str(SHOTS), "--seed", str(seed), "--json"]

        def check_cli(result):
            made, sampled = result
            problems = []
            doc = _cli_doc(made, problems)
            if doc is None:
                return problems
            _close("p_max", doc["p_max"], ans.p_max, problems)
            if not doc["outputs_verified"]:
                problems.append("protocol reports unverified outputs")
            with open(plan_path, encoding="utf-8") as fh:
                plan = json.load(fh)
            krauses = [np.array([[complex(*z) for z in row] for row in b["kraus"]])
                       for b in plan["branches"]]
            problems += ref.check_plan(krauses, [b["probability"] for b in plan["branches"]],
                                       inst.rho, inst.target, ans.p_max)
            doc = _cli_doc(sampled, problems)
            if doc is not None:
                _close("analytic probability", doc["analytic_probability"], ans.p_max, problems)
                if not ref.sampling_consistent(doc["successes"], SHOTS, ans.p_max):
                    problems.append(f"{doc['successes']} successes in {SHOTS} shots")
            return problems

        return Op(f"protocol.cli.{inst.name}", tier, lambda: (cli(protocol), cli(sim)), check_cli)

    rho = cd.validate_density(inst.rho)
    phi = cd.PureStateVector(inst.target)

    def run():
        plan = cd.full_plan(rho, phi)
        return plan, cd.verify_branch_outputs(plan, rho, phi), cd.simulate(plan, rho, SHOTS, seed)

    def check(result):
        plan, verified, sim = result
        problems = []
        _close("p_max", plan.p_max, ans.p_max, problems)
        if not verified:
            problems.append("verify_branch_outputs failed")
        problems += ref.check_plan([b.kraus.matrix for b in plan.branches],
                                   [b.probability for b in plan.branches],
                                   inst.rho, inst.target, ans.p_max)
        if not ref.sampling_consistent(sim.successes, SHOTS, ans.p_max):
            problems.append(f"{sim.successes} successes in {SHOTS} shots")
        if cd.simulate(plan, rho, SHOTS, seed).per_branch_counts != sim.per_branch_counts:
            problems.append("simulate is not reproducible for a fixed seed")
        return problems

    return Op(f"protocol.lib.{inst.name}", tier, run, check)


def protocol_pipeline(rng: np.random.Generator, files: Files) -> list[Op]:
    ops = []
    for d, kind, rank, via_cli in small_tier(("pure", "block"), 4):
        if kind == "pure":
            rho, blocks = inputs.pure_source(rng, d)
        else:
            rho, blocks = inputs.block_state(rng, inputs.block_sizes(d, d % 2))
        inst = inputs.Instance(f"{kind}{d}", rho, inputs.target(rng, d, rank), blocks)
        ops.append(_protocol_op(inst, "small", int(rng.integers(2**31)),
                                files if via_cli else None))
    # many branches from rank-4 targets, few from full-rank ones
    large = [(32, 4, None)] * 5 + [(40, 4, None), (40, 40, None), (32, 32, files)]
    for d, rank, via in large:
        rho, blocks = inputs.shaped_pure_source(rng, d)
        phi = (inputs.shaped_target(rng, d, RANK4_TARGET) if rank == 4
               else inputs.target(rng, d, rank))
        inst = inputs.Instance(f"pure{d}.rank{rank}", rho, phi, blocks)
        ops.append(_protocol_op(inst, "large", int(rng.integers(2**31)), via))
    return ops


# ===========================================================================
# catalyst
# ===========================================================================

def _gate_problems(enh, det, inst: inputs.Instance, ans: Answer) -> list[str]:
    """Check both gate verdicts against the paper's conditions."""
    problems = []
    q = np.abs(inst.target) ** 2
    q = np.sort(q[q > 0])[::-1]
    margins, violated = [], False
    for block in ans.blocks:
        _, p = ref.block_weight_profile(inst.rho, block)
        margins.append(ref.enhanceable(p, q))
        violated |= bool(ref.deterministic_violations(p, q))
    want = max(margins) > 1e-12
    if max(margins) > 1e-9 or max(margins) < 1e-13:
        if enh["verdict"] != want:
            problems.append(f"enhancement verdict {enh['verdict']}, reference {want}")
    _close("baseline", enh["baseline"], ans.p_max, problems)
    if det is None:
        if ans.p_max < 1.0 - 1e-9:
            problems.append("deterministic gate refused a baseline below 1")
    elif det["verdict"] and violated:
        problems.append("deterministic gate passed a profile that violates its conditions")
    return problems


def _gate_op(inst: inputs.Instance, tier: str, files: Files | None) -> Op:
    ans = Answer(inst)
    if files is not None:
        argv = ["catalyst", "gate", files.state(inst.rho), files.target(inst.target), "--json"]

        def check_cli(result):
            problems = []
            doc = _cli_doc(result, problems)
            if doc is not None:
                det = doc["deterministic"]
                enh = dict(doc["enhancement"], baseline=doc["baseline"])
                problems += _gate_problems(enh, det if det.get("applicable", True) else None,
                                           inst, ans)
            return problems

        return Op(f"gate.cli.{inst.name}", tier, lambda: cli(argv), check_cli)

    rho = cd.validate_density(inst.rho)
    phi = cd.PureStateVector(inst.target)

    def run():
        enh = cd.enhancement_gate(rho, phi)
        try:
            det = cd.deterministic_gate(rho, phi)
        except cd.PreconditionError:
            det = None
        return enh, det

    def check(result):
        enh, det = result
        return _gate_problems({"verdict": enh.verdict, "baseline": enh.baseline},
                              None if det is None else {"verdict": det.verdict}, inst, ans)

    return Op(f"gate.lib.{inst.name}", tier, run, check)


def _jonathan_plenio_gate(jp: inputs.Instance) -> Op:
    """The paper's example: both gates must say yes at baseline 0.8."""
    op = _gate_op(jp, "small", None)

    def check(result):
        enh, det = result
        problems = op.check(result)
        if not (enh.verdict and det is not None and det.verdict):
            problems.append("a catalyst exists for the Jonathan-Plenio pair")
        _close("Jonathan-Plenio baseline", enh.baseline, 0.8, problems)
        return problems

    return Op(op.kind, op.tier, op.run, check)


def _search_problems(report: dict, mode: str, inst: inputs.Instance, ans: Answer,
                     grid: np.ndarray) -> list[str]:
    problems = []
    values = ref.catalyzed_values(inst.rho, ans.blocks, inst.target, grid)
    _close("baseline", report["baseline"], ans.p_max, problems)
    if report["candidates_evaluated"] != len(grid):
        problems.append(f"{report['candidates_evaluated']} candidates, grid has {len(grid)}")
    best = float(values.max())
    if mode == "deterministic":
        hits = np.nonzero(values >= 1.0 - 1e-9)[0]
        if report["found"] != bool(hits.size):
            problems.append(f"found={report['found']}, reference hits {hits.size}")
        elif hits.size:
            row = np.pad(report["catalyst"], (0, grid.shape[1] - len(report["catalyst"])))
            if not np.allclose(row, grid[hits[0]], atol=1e-12):
                problems.append(f"first hit {report['catalyst']}, reference {grid[hits[0]]}")
        return problems
    margin = best - ans.p_max
    if abs(margin - 1e-9) > 1e-7 and report["found"] != (margin > 1e-9):
        problems.append(f"found={report['found']}, reference gain {margin!r}")
    if report["found"]:
        row = np.pad(report["catalyst"], (0, grid.shape[1] - len(report["catalyst"])))
        at = ref.catalyzed_values(inst.rho, ans.blocks, inst.target, row[None, :])[0]
        _close("catalyzed value", report["achieved"], float(at), problems)
        _close("best catalyzed value", report["achieved"], best, problems)
    return problems


def _search_op(inst: inputs.Instance, mode: str, grid: np.ndarray, files: Files | None) -> Op:
    ans = Answer(inst)
    if files is not None:
        argv = ["catalyst", "search", files.state(inst.rho), files.target(inst.target),
                "--max-dim", str(SEARCH["max_dim"]), "--step", str(SEARCH["grid_step"]),
                "--mode", mode, "--json"]

        def check_cli(result):
            problems = []
            doc = _cli_doc(result, problems)
            if doc is not None:
                problems += _search_problems(doc, mode, inst, ans, grid)
            return problems

        return Op(f"search.cli.{mode}.{inst.name}", "large", lambda: cli(argv), check_cli)

    rho = cd.validate_density(inst.rho)
    phi = cd.PureStateVector(inst.target)

    def run():
        return cd.search_catalyst(rho, phi, mode=mode, **SEARCH)

    def check(r):
        return _search_problems(
            {"baseline": r.baseline, "found": r.found, "catalyst": r.catalyst,
             "achieved": r.achieved, "candidates_evaluated": r.candidates_evaluated},
            mode, inst, ans, grid)

    return Op(f"search.lib.{mode}.{inst.name}", "large", run, check)


def catalyst(rng: np.random.Generator, files: Files) -> list[Op]:
    ops = []
    jp = inputs.Instance("jonathan-plenio", np.outer(JP_SOURCE, JP_SOURCE.conj()), JP_TARGET,
                         ((0, 1, 2, 3),))
    # every baseline lies below 1, so the probability-1 gate always runs:
    # block states keep a singleton, and pure sources get a flatter target
    for d, kind, rank, via_cli in small_tier(("flat", "block"), 4):
        if kind == "flat":
            rho, blocks = inputs.pure_source(rng, d)
            phi = inputs.flatter_target(rng, np.real(np.diag(rho)), 1.0 / rank)
        else:
            rho, blocks = inputs.block_state(rng, inputs.block_sizes(d, 1 + d % 2))
            phi = inputs.target(rng, d, rank)
        inst = inputs.Instance(f"{kind}{d}", rho, phi, blocks)
        ops.append(_gate_op(inst, "small", files if via_cli else None))
    ops.append(_jonathan_plenio_gate(jp))
    grid = ref.candidate_grid(SEARCH["max_dim"], SEARCH["grid_step"])
    searches = [(jp, "deterministic", None), (jp, "probabilistic", None)]
    for d, via in ((4, None), (4, None), (5, None), (5, None), (4, files)):
        rho, blocks = inputs.pure_source(rng, d)
        inst = inputs.Instance(f"pure{d}", rho, inputs.target(rng, d, d - 1), blocks)
        searches.append((inst, "probabilistic", via))
    for mode, via in (("deterministic", None), ("probabilistic", None), ("deterministic", files)):
        rho, blocks = inputs.block_state(rng, inputs.block_sizes(6, 1))
        inst = inputs.Instance("block6", rho, inputs.target(rng, 6, 2), blocks)
        searches.append((inst, mode, via))
    ops += [_search_op(inst, mode, grid, via) for inst, mode, via in searches]
    return ops


WORKLOADS = {
    "pmax-mixed": pmax_mixed,
    "protocol-pipeline": protocol_pipeline,
    "catalyst": catalyst,
}
