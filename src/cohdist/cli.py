"""Command line interface.

All state exchange is JSON.  Complex numbers are [re, im] pairs; bare
numbers are accepted on input as purely real.  Basis indices are 0-based.

Exit codes: 0 success, 1 unreadable input (I/O or JSON syntax), 2 failed
validation, 3 incoherent target (nothing to distill), 4 violated
precondition (e.g. deterministic catalyst search at probability 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .catalysis import (
    _deterministic_report,
    _enhancement_report,
    _target_profile,
    search_catalyst,
)
from .distill import (
    DistillationPlan,
    PlanBranch,
    StrictlyIncoherentKraus,
    _build_plan,
    _check_dimensions,
    full_plan,
    pmax_mixed,
    verify_branch_outputs,
)
from .errors import (
    CohdistError,
    IncoherentTargetError,
    PreconditionError,
    RankDeficitError,
    ValidationError,
)
from .measures import majorizes, shannon_entropy
from .oracles import simulate
from .states import DensityMatrix, PureStateVector, as_distribution, validate_density
from .subspaces import a_matrix, has_rank2_subspace, maximal_pure_subspaces

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_INCOHERENT_TARGET = 3
EXIT_PRECONDITION = 4


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ===========================================================================
# JSON (de)serialization
# ===========================================================================

def _load_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return doc


def _real_in(node, path: str) -> float:
    # JSON integers may exceed the float range; NaN and Infinity fail the bound
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        if abs(node) <= sys.float_info.max:
            return float(node)
    raise ValidationError(f"{path}: expected a finite number")


def _complex_in(node, path: str) -> complex:
    """A number, or an [re, im] pair of numbers."""
    if isinstance(node, list) and len(node) == 2:
        return complex(_real_in(node[0], path), _real_in(node[1], path))
    return complex(_real_in(node, path))


def _int_in(node, path: str) -> int:
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    raise ValidationError(f"{path}: expected an integer")


def _list_in(node, path: str) -> list:
    if isinstance(node, list):
        return node
    raise ValidationError(f"{path}: expected an array")


def _order_out(alpha: float) -> float | str:
    """An exponent for JSON: infinite orders as the strings "inf" / "-inf"."""
    return str(alpha) if np.isinf(alpha) else alpha


def _complex_out(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_in(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ValidationError(f"{path}: expected a nonempty array of rows")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise ValidationError(f"{path}[{i}]: expected an array")
        rows.append([_complex_in(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ValidationError(f"{path}: rows have differing lengths")
    return np.array(rows, dtype=complex)


def parse_density(doc: dict, path: str) -> DensityMatrix:
    if "matrix" not in doc:
        raise ValidationError(f"{path}: missing 'matrix'")
    mat = _matrix_in(doc["matrix"], f"{path}.matrix")
    if "dim" in doc and _int_in(doc["dim"], f"{path}.dim") != mat.shape[0]:
        raise ValidationError(
            f"{path}.dim: declared {doc['dim']}, matrix is {mat.shape[0]}x{mat.shape[1]}"
        )
    return validate_density(mat)


def parse_pure(doc: dict, path: str) -> PureStateVector:
    if "amplitudes" not in doc:
        raise ValidationError(f"{path}: missing 'amplitudes'")
    node = doc["amplitudes"]
    if not isinstance(node, list) or not node:
        raise ValidationError(f"{path}.amplitudes: expected a nonempty array")
    amps = [_complex_in(v, f"{path}.amplitudes[{i}]") for i, v in enumerate(node)]
    if "dim" in doc and _int_in(doc["dim"], f"{path}.dim") != len(amps):
        raise ValidationError(
            f"{path}.dim: declared {doc['dim']}, amplitudes length {len(amps)}"
        )
    return PureStateVector(np.array(amps, dtype=complex))


def parse_state(doc: dict, path: str) -> DensityMatrix:
    """Read a source state: density 'matrix' or pure 'amplitudes'."""
    if "matrix" in doc:
        return parse_density(doc, path)
    if "amplitudes" in doc:
        return DensityMatrix.from_pure(parse_pure(doc, path))
    raise ValidationError(f"{path}: expected 'matrix' or 'amplitudes'")


def parse_weights(doc: dict, path: str) -> np.ndarray:
    if "weights" not in doc:
        raise ValidationError(f"{path}: missing 'weights'")
    node = doc["weights"]
    if not isinstance(node, list) or not node:
        raise ValidationError(f"{path}.weights: expected a nonempty array")
    return as_distribution(
        [_real_in(v, f"{path}.weights[{i}]") for i, v in enumerate(node)]
    )


def plan_to_doc(plan: DistillationPlan) -> dict:
    return {
        "dim": plan.dim,
        "p_max": plan.p_max,
        "family": [list(s) for s in plan.family_index_sets],
        "branches": [
            {
                "id": b.branch_id,
                "probability": b.probability,
                "kraus": [[_complex_out(v) for v in row] for row in b.kraus.matrix],
            }
            for b in plan.branches
        ],
    }


def plan_from_doc(doc: dict, path: str) -> DistillationPlan:
    for key in ("dim", "p_max", "family", "branches"):
        if key not in doc:
            raise ValidationError(f"{path}: missing '{key}'")
    dim = _int_in(doc["dim"], f"{path}.dim")
    branches = []
    for i, node in enumerate(_list_in(doc["branches"], f"{path}.branches")):
        bpath = f"{path}.branches[{i}]"
        if not isinstance(node, dict):
            raise ValidationError(f"{bpath}: expected an object")
        for key in ("id", "probability", "kraus"):
            if key not in node:
                raise ValidationError(f"{bpath}: missing '{key}'")
        mat = _matrix_in(node["kraus"], f"{bpath}.kraus")
        if mat.shape != (dim, dim):
            raise ValidationError(f"{bpath}.kraus: expected {dim}x{dim}")
        branches.append(
            PlanBranch(
                str(node["id"]),
                StrictlyIncoherentKraus.from_matrix(mat),
                _real_in(node["probability"], f"{bpath}.probability"),
            )
        )
    fpath = f"{path}.family"
    family = tuple(
        tuple(_int_in(i, fpath) for i in _list_in(s, fpath))
        for s in _list_in(doc["family"], fpath)
    )
    return DistillationPlan(
        dim=dim,
        p_max=_real_in(doc["p_max"], f"{path}.p_max"),
        branches=tuple(branches),
        family_index_sets=family,
    )


def _emit(doc: dict, as_json: bool, text_lines: list[str]):
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
    else:
        for line in text_lines:
            print(line)


# ===========================================================================
# commands
# ===========================================================================

def cmd_validate(args) -> int:
    doc = _load_doc(args.state)
    if "matrix" in doc:
        rho = parse_density(doc, args.state)
        kind, dim = "density", rho.dim
    elif "amplitudes" in doc:
        psi = parse_pure(doc, args.state)
        kind, dim = "pure", psi.dim
    elif "weights" in doc:
        w = parse_weights(doc, args.state)
        kind, dim = "weights", w.size
    else:
        raise ValidationError(
            f"{args.state}: expected 'matrix', 'amplitudes' or 'weights'"
        )
    _emit(
        {"valid": True, "kind": kind, "dim": dim},
        args.json,
        [f"valid {kind} input, dimension {dim}"],
    )
    return EXIT_OK


def cmd_subspaces(args) -> int:
    rho = parse_state(_load_doc(args.state), args.state)
    subs = maximal_pure_subspaces(rho)
    distillable = has_rank2_subspace(rho)
    a = a_matrix(rho)
    doc = {
        "dim": rho.dim,
        "distillable": distillable,
        "a_matrix": [[float(v) for v in row] for row in a],
        "subspaces": [
            {
                "indices": list(s.indices),
                "weight": s.weight,
                "amplitudes": [_complex_out(v) for v in s.state.amplitudes],
            }
            for s in subs
        ],
    }
    lines = [f"maximal pure subspaces: {len(subs)}"]
    for s in subs:
        profile = ", ".join(_fmt(v) for v in s.state.probabilities()[list(s.indices)])
        lines.append(
            f"  indices {list(s.indices)}  weight {_fmt(s.weight)}  profile [{profile}]"
        )
    lines.append(f"distillable (some rank-2 pure subspace): {str(distillable).lower()}")
    _emit(doc, args.json, lines)
    return EXIT_OK


def _pmax_doc(result) -> dict:
    return {
        "p_max": result.p_max,
        "overlap_adjusted": result.overlap_adjusted,
        "family": [list(s) for s in result.family.index_sets()],
        "per_subspace": [
            {
                "indices": list(y.subspace.indices),
                "weight": y.subspace.weight,
                "ratio": y.ratio,
                "achieved": y.achieved,
            }
            for y in result.per_subspace
        ],
    }


def cmd_pmax(args) -> int:
    rho = parse_state(_load_doc(args.state), args.state)
    phi = parse_pure(_load_doc(args.target), args.target)
    result = pmax_mixed(rho, phi)
    lines = [f"p_max = {_fmt(result.p_max)}"]
    for y in result.per_subspace:
        lines.append(
            f"  subspace {list(y.subspace.indices)}: weight {_fmt(y.subspace.weight)}"
            f" x ratio {_fmt(y.ratio)} = {_fmt(y.achieved)}"
        )
    if result.overlap_adjusted:
        lines.append("note: overlapping subspaces forced a disjoint selection")
    doc = _pmax_doc(result)
    if args.protocol:
        _check_dimensions(rho, phi)
        plan = _build_plan(rho, phi, result)
        with open(args.protocol, "w", encoding="utf-8") as fh:
            json.dump(plan_to_doc(plan), fh, indent=2)
        lines.append(f"protocol with {len(plan.branches)} branches -> {args.protocol}")
        doc["protocol_written"] = args.protocol
        doc["branches"] = len(plan.branches)
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_protocol(args) -> int:
    rho = parse_state(_load_doc(args.state), args.state)
    phi = parse_pure(_load_doc(args.target), args.target)
    plan = full_plan(rho, phi)
    check = verify_branch_outputs(plan, rho, phi)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(plan_to_doc(plan), fh, indent=2)
    gap = plan.completeness_gap()
    doc = {
        "p_max": plan.p_max,
        "branches": len(plan.branches),
        "outputs_verified": bool(check),
        "completeness_gap": gap,
        "worst_fidelity": check.worst_fidelity,
        "written": args.out,
    }
    lines = [
        f"p_max = {_fmt(plan.p_max)}",
        f"branches: {len(plan.branches)}",
    ]
    for b in plan.branches:
        lines.append(f"  {b.branch_id}: probability {_fmt(b.probability)}")
    lines.append(f"branch outputs verified: {str(bool(check)).lower()}")
    lines.append(f"completeness gap: {_fmt(gap)}")
    lines.append(f"worst branch fidelity: {_fmt(check.worst_fidelity)}")
    lines.append(f"written to {args.out}")
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if not 1 <= args.shots < 2**63:
        raise ValidationError(f"--shots must lie in [1, 2^63), got {args.shots}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    plan = plan_from_doc(_load_doc(args.protocol), args.protocol)
    rho = parse_state(_load_doc(args.state), args.state)
    if plan.dim != rho.dim:
        raise ValidationError(f"{args.state}: dimension {rho.dim}, plan has {plan.dim}")
    result = simulate(plan, rho, shots=args.shots, seed=args.seed)
    doc = {
        "shots": result.shots,
        "seed": result.seed,
        "successes": result.successes,
        "empirical_probability": result.empirical_probability,
        "standard_error": result.standard_error,
        "analytic_probability": result.analytic_probability,
        "failure_count": result.failure_count,
        "per_branch_counts": result.per_branch_counts,
        "rng_algorithm": result.rng_algorithm,
    }
    lines = [
        f"shots {result.shots}, seed {result.seed} ({result.rng_algorithm})",
        f"successes {result.successes}"
        f" -> empirical {_fmt(result.empirical_probability)}"
        f" +/- {_fmt(result.standard_error)}",
        f"analytic {_fmt(result.analytic_probability)}",
    ]
    for bid, count in result.per_branch_counts.items():
        lines.append(f"  {bid}: {count}")
    lines.append(f"  failure: {result.failure_count}")
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_catalyst_gate(args) -> int:
    rho = parse_state(_load_doc(args.state), args.state)
    phi = parse_pure(_load_doc(args.target), args.target)
    # both gates read one pmax_mixed result
    tgt = _target_profile(phi)
    mixed = pmax_mixed(rho, phi)
    enh = _enhancement_report(tgt, mixed)
    doc = {
        "baseline": enh.baseline,
        "enhancement": {
            "verdict": enh.verdict,
            "family_verdict": enh.family_verdict,
            "records": [
                {
                    "indices": list(r.indices),
                    "pure_pmax": r.pure_pmax,
                    "bound": r.bound,
                    "margin": r.margin,
                    "enhanceable": r.enhanceable,
                }
                for r in enh.records
            ],
        },
    }
    lines = [
        f"baseline p_max = {_fmt(enh.baseline)}",
        f"catalyst can raise probability: {str(enh.verdict).lower()}",
    ]
    for r in enh.records:
        lines.append(
            f"  subspace {list(r.indices)}: p {_fmt(r.pure_pmax)} vs bound"
            f" {_fmt(r.bound)} -> {'yes' if r.enhanceable else 'no'}"
        )
    try:
        det = _deterministic_report(tgt, mixed.family, args.alpha_points)
        doc["deterministic"] = {
            "verdict": det.verdict,
            "weight_complete": det.weight_complete,
            "total_weight": det.total_weight,
            "flags": list(det.flags),
            "members": [
                {
                    "indices": list(m.indices),
                    "margin_below_one": m.margin_below_one,
                    "alpha_below_one": _order_out(m.alpha_below_one),
                    "margin_above_one": m.margin_above_one,
                    "alpha_above_one": _order_out(m.alpha_above_one),
                    "entropy_margin": m.entropy_margin,
                    "zero_entry_support": m.zero_entry_support,
                    "passes": m.passes,
                }
                for m in det.members
            ],
        }
        lines.append(
            f"catalyst can reach probability 1: {str(det.verdict).lower()}"
        )
        for m in det.members:
            lines.append(
                f"  subspace {list(m.indices)}: margins"
                f" below-1 {_fmt(m.margin_below_one)} (alpha {_fmt(m.alpha_below_one)}),"
                f" above-1 {_fmt(m.margin_above_one)} (alpha {_fmt(m.alpha_above_one)}),"
                f" entropy {_fmt(m.entropy_margin)}"
                f" -> {'yes' if m.passes else 'no'}"
            )
        for flag in det.flags:
            lines.append(f"  flag: {flag}")
    except PreconditionError:
        doc["deterministic"] = {"applicable": False}
        lines.append(
            "catalyst can reach probability 1: not applicable (already 1)"
        )
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_catalyst_search(args) -> int:
    rho = parse_state(_load_doc(args.state), args.state)
    phi = parse_pure(_load_doc(args.target), args.target)
    report = search_catalyst(
        rho,
        phi,
        max_dim=args.max_dim,
        grid_step=args.step,
        mode=args.mode,
    )
    doc = {
        "baseline": report.baseline,
        "mode": report.mode,
        "found": report.found,
        "catalyst": list(report.catalyst) if report.catalyst else None,
        "achieved": report.achieved,
        "candidates_evaluated": report.candidates_evaluated,
    }
    lines = [
        f"baseline p_max = {_fmt(report.baseline)}",
        f"candidates evaluated: {report.candidates_evaluated}",
    ]
    if report.found:
        profile = ", ".join(_fmt(v) for v in report.catalyst)
        lines.append(
            f"catalyst found: [{profile}] achieving {_fmt(report.achieved)}"
        )
    else:
        lines.append("no catalyst found on this grid")
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_majorize(args) -> int:
    p = parse_weights(_load_doc(args.p), args.p)
    q = parse_weights(_load_doc(args.q), args.q)
    p_under_q = majorizes(p, q)
    q_under_p = majorizes(q, p)
    doc = {
        "p_majorized_by_q": p_under_q,
        "q_majorized_by_p": q_under_p,
        "entropy_p": shannon_entropy(p),
        "entropy_q": shannon_entropy(q),
    }
    lines = [
        f"p majorized by q: {str(p_under_q).lower()}",
        f"q majorized by p: {str(q_under_p).lower()}",
        f"entropy p = {_fmt(shannon_entropy(p))} nats,"
        f" q = {_fmt(shannon_entropy(q))} nats",
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK


# ===========================================================================
# argument parsing
# ===========================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohdist",
        description="Probabilistic coherence distillation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", help="validate a state file")
    p.add_argument("state")
    add_json(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("subspaces", help="maximal pure subspaces of a state")
    p.add_argument("state")
    add_json(p)
    p.set_defaults(func=cmd_subspaces)

    p = sub.add_parser("pmax", help="maximal distillation probability")
    p.add_argument("state")
    p.add_argument("target")
    p.add_argument("--protocol", metavar="OUT", help="also write the protocol file")
    add_json(p)
    p.set_defaults(func=cmd_pmax)

    p = sub.add_parser("protocol", help="synthesize and store a protocol")
    p.add_argument("state")
    p.add_argument("target")
    p.add_argument("out")
    add_json(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("simulate", help="Monte Carlo run of a stored protocol")
    p.add_argument("protocol")
    p.add_argument("state")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("catalyst", help="catalyst gates and search")
    csub = p.add_subparsers(dest="subcommand", required=True)

    g = csub.add_parser(
        "gate",
        help="catalyst existence tests: exact for raising the probability,"
        " sampled over the power-mean order for reaching 1",
    )
    g.add_argument("state")
    g.add_argument("target")
    g.add_argument(
        "--alpha-points", type=int, default=20,
        help="exponent grid points per segment (default 20)",
    )
    add_json(g)
    g.set_defaults(func=cmd_catalyst_gate)

    s = csub.add_parser("search", help="simplex grid search for a catalyst")
    s.add_argument("state")
    s.add_argument("target")
    s.add_argument("--max-dim", type=int, default=2)
    s.add_argument("--step", type=float, default=0.05)
    s.add_argument(
        "--mode", choices=("probabilistic", "deterministic"),
        default="probabilistic",
    )
    add_json(s)
    s.set_defaults(func=cmd_catalyst_search)

    p = sub.add_parser("majorize", help="compare two weight vectors")
    p.add_argument("p")
    p.add_argument("q")
    add_json(p)
    p.set_defaults(func=cmd_majorize)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing does not change a parser
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except IncoherentTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOHERENT_TARGET
    except (PreconditionError, RankDeficitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValidationError, CohdistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
