"""Command line interface.

All state exchange is JSON.  Complex numbers are [re, im] pairs; bare
numbers are accepted on input as purely real.  Basis indices are 0-based.

Each command returns its report, a JSON document and its text lines, and
:func:`main` prints one of the two.  A failure prints ``error: <message>``
on stderr and exits with the code of the first class in ``_EXIT_CODES``
that it is an instance of: 1 ``OSError``, unreadable input (I/O, not
UTF-8, not JSON); 3 ``IncoherentTargetError``, nothing to distill; 4
``PreconditionError`` or ``RankDeficitError``, a violated precondition
(e.g. deterministic catalyst search at probability 1); 2 any other
``CohdistError``, failed validation.  0 is success, and argparse exits 2
on a usage error; options must be spelled in full, so a prefix of one
is such an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .catalysis import catalyst_gates, search_catalyst
from .distill import (
    DistillationPlan,
    _assemble_plan,
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

# a failure exits with the code of the first class here it is an instance of
_EXIT_CODES = (
    (OSError, EXIT_IO),
    (IncoherentTargetError, EXIT_INCOHERENT_TARGET),
    ((PreconditionError, RankDeficitError), EXIT_PRECONDITION),
    (CohdistError, EXIT_VALIDATION),
)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ===========================================================================
# JSON (de)serialization
# ===========================================================================

def _read_doc(path: str) -> tuple[dict, bool]:
    """The JSON object in ``path``, and True when its text holds no JSON boolean.

    A file that is not UTF-8 or not JSON (bad syntax, nesting too deep for
    the decoder, an integer literal too long to convert) raises OSError,
    the unreadable-input class, with a message naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise OSError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return doc, "true" not in text and "false" not in text


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


def _numbers_in(node, ndim: int) -> np.ndarray | None:
    """``node`` as a finite complex array of ``ndim`` axes by one numpy conversion.

    Every entry must be a number, or every entry an [re, im] pair.
    Returns None for anything else (ragged rows, mixed entries, strings,
    NaN, numbers beyond the float range); the caller then reads the node
    entry by entry for the error message.  numpy reads a JSON boolean as
    a number, so only nodes of documents without booleans may come here.
    """
    try:
        arr = np.asarray(node)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        return None
    if arr.ndim == ndim:
        return arr.astype(complex)
    if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        # each [re, im] pair is the memory layout of one complex number
        return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    return None


def _matrix_in(node, path: str, numeric: bool = False) -> np.ndarray:
    """A matrix of numbers or [re, im] pairs; ``numeric`` allows :func:`_numbers_in`."""
    if not isinstance(node, list) or not node:
        raise ValidationError(f"{path}: expected a nonempty array of rows")
    if numeric and (mat := _numbers_in(node, 2)) is not None:
        return mat
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise ValidationError(f"{path}[{i}]: expected an array")
        rows.append([_complex_in(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ValidationError(f"{path}: rows have differing lengths")
    return np.array(rows, dtype=complex)


def parse_density(doc: dict, path: str, numeric: bool = False) -> DensityMatrix:
    """Read a density 'matrix'; ``numeric`` says ``doc`` holds no JSON boolean."""
    if "matrix" not in doc:
        raise ValidationError(f"{path}: missing 'matrix'")
    mat = _matrix_in(doc["matrix"], f"{path}.matrix", numeric)
    if "dim" in doc and _int_in(doc["dim"], f"{path}.dim") != mat.shape[0]:
        raise ValidationError(
            f"{path}.dim: declared {doc['dim']}, matrix is {mat.shape[0]}x{mat.shape[1]}"
        )
    return validate_density(mat)


def parse_pure(doc: dict, path: str, numeric: bool = False) -> PureStateVector:
    """Read pure 'amplitudes'; ``numeric`` says ``doc`` holds no JSON boolean."""
    if "amplitudes" not in doc:
        raise ValidationError(f"{path}: missing 'amplitudes'")
    node = doc["amplitudes"]
    if not isinstance(node, list) or not node:
        raise ValidationError(f"{path}.amplitudes: expected a nonempty array")
    amps = _numbers_in(node, 1) if numeric else None
    if amps is None:
        amps = [_complex_in(v, f"{path}.amplitudes[{i}]") for i, v in enumerate(node)]
    if "dim" in doc and _int_in(doc["dim"], f"{path}.dim") != len(amps):
        raise ValidationError(
            f"{path}.dim: declared {doc['dim']}, amplitudes length {len(amps)}"
        )
    return PureStateVector(np.array(amps, dtype=complex))


def parse_state(doc: dict, path: str, numeric: bool = False) -> DensityMatrix:
    """Read a source state: density 'matrix' or pure 'amplitudes'."""
    if "matrix" in doc:
        return parse_density(doc, path, numeric)
    if "amplitudes" in doc:
        return DensityMatrix.from_pure(parse_pure(doc, path, numeric))
    raise ValidationError(f"{path}: expected 'matrix' or 'amplitudes'")


def _state_file(path: str) -> DensityMatrix:
    doc, numeric = _read_doc(path)
    return parse_state(doc, path, numeric)


def _target_file(path: str) -> PureStateVector:
    doc, numeric = _read_doc(path)
    return parse_pure(doc, path, numeric)


def parse_weights(doc: dict, path: str) -> np.ndarray:
    if "weights" not in doc:
        raise ValidationError(f"{path}: missing 'weights'")
    node = doc["weights"]
    if not isinstance(node, list) or not node:
        raise ValidationError(f"{path}.weights: expected a nonempty array")
    return as_distribution(
        [_real_in(v, f"{path}.weights[{i}]") for i, v in enumerate(node)]
    )


def _pairs_out(dim: int, values: np.ndarray, *index: np.ndarray) -> list:
    """Nested lists of [re, im] pairs: zeros with one ``dim``-length axis per
    index array, and ``values`` at ``index``, converted in one call."""
    out = np.zeros((dim,) * len(index), dtype=complex)
    out[index] = values
    # each complex number is the memory layout of its [re, im] pair
    return out.view(float).reshape(*out.shape, 2).tolist()


def plan_to_doc(plan: DistillationPlan) -> dict:
    return {
        "dim": plan.dim,
        "p_max": plan.p_max,
        "family": [list(s) for s in plan.family_index_sets],
        "branches": [
            {
                "id": b.branch_id,
                "probability": b.probability,
                "kraus": _pairs_out(b.kraus.dim, b.kraus.coefficients, b.kraus.rows, b.kraus.columns),
            }
            for b in plan.branches
        ],
    }


def plan_from_doc(doc: dict, path: str, numeric: bool = False) -> DistillationPlan:
    """Read a plan; ``numeric`` says ``doc`` holds no JSON boolean."""
    for key in ("dim", "p_max", "family", "branches"):
        if key not in doc:
            raise ValidationError(f"{path}: missing '{key}'")
    dim = _int_in(doc["dim"], f"{path}.dim")
    # each branch's nonzero entries, as a (branch, row, column, value) table
    ids: dict[str, int] = {}        # branch id -> its position
    probabilities, entries = [], []
    for i, node in enumerate(_list_in(doc["branches"], f"{path}.branches")):
        bpath = f"{path}.branches[{i}]"
        if not isinstance(node, dict):
            raise ValidationError(f"{bpath}: expected an object")
        for key in ("id", "probability", "kraus"):
            if key not in node:
                raise ValidationError(f"{bpath}: missing '{key}'")
        # sampling counts each outcome under its id, so a repeated id would merge two counts
        bid = str(node["id"])
        if ids.setdefault(bid, i) != i:
            raise ValidationError(f"{bpath}.id: {bid!r} repeats {path}.branches[{ids[bid]}].id")
        mat = _matrix_in(node["kraus"], f"{bpath}.kraus", numeric)
        if mat.shape != (dim, dim):
            raise ValidationError(f"{bpath}.kraus: expected {dim}x{dim}")
        rows, cols = np.nonzero(mat)
        entries.append((np.full(rows.size, i), rows, cols, mat[rows, cols]))
        probabilities.append(_real_in(node["probability"], f"{bpath}.probability"))
    fpath = f"{path}.family"
    family = tuple(
        tuple(_int_in(i, fpath) for i in _list_in(s, fpath))
        for s in _list_in(doc["family"], fpath)
    )
    p_max = _real_in(doc["p_max"], f"{path}.p_max")
    return _assemble_plan(dim, p_max, family, list(ids), probabilities, entries)


def _json_value(value):
    """A report as JSON data: a dataclass as an object of its fields, a tuple
    or list as an array, an infinite float as the string "inf" / "-inf"."""
    # the leaves first: most values of a report are numbers
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _write_plan(path: str, plan: DistillationPlan) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(plan_to_doc(plan)))


def _emit(doc: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, allow_nan=False))
    else:
        for line in lines:
            print(line)


# ===========================================================================
# commands: each returns its report, a JSON document and its text lines
# ===========================================================================

Report = tuple[dict, list[str]]


def cmd_validate(args) -> Report:
    doc, numeric = _read_doc(args.state)
    if "matrix" in doc:
        rho = parse_density(doc, args.state, numeric)
        kind, dim = "density", rho.dim
    elif "amplitudes" in doc:
        psi = parse_pure(doc, args.state, numeric)
        kind, dim = "pure", psi.dim
    elif "weights" in doc:
        w = parse_weights(doc, args.state)
        kind, dim = "weights", w.size
    else:
        raise ValidationError(
            f"{args.state}: expected 'matrix', 'amplitudes' or 'weights'"
        )
    return {"valid": True, "kind": kind, "dim": dim}, [f"valid {kind} input, dimension {dim}"]


def cmd_subspaces(args) -> Report:
    rho = _state_file(args.state)
    subs = maximal_pure_subspaces(rho)
    distillable = has_rank2_subspace(rho)
    doc = {
        "dim": rho.dim,
        "distillable": distillable,
        "a_matrix": a_matrix(rho).tolist(),
        "subspaces": [
            {
                "indices": list(s.indices),
                "weight": s.weight,
                "amplitudes": _pairs_out(rho.dim, s.amplitudes, list(s.indices)),
            }
            for s in subs
        ],
    }
    lines = [f"maximal pure subspaces: {len(subs)}"]
    for s in subs:
        profile = ", ".join(_fmt(v) for v in s.profile)
        lines.append(
            f"  indices {list(s.indices)}  weight {_fmt(s.weight)}  profile [{profile}]"
        )
    lines.append(f"distillable (some rank-2 pure subspace): {str(distillable).lower()}")
    return doc, lines


def _pmax_doc(result) -> dict:
    return {
        "p_max": result.p_max,
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


def cmd_pmax(args) -> Report:
    rho = _state_file(args.state)
    phi = _target_file(args.target)
    result = pmax_mixed(rho, phi)
    lines = [f"p_max = {_fmt(result.p_max)}"]
    for y in result.per_subspace:
        lines.append(
            f"  subspace {list(y.subspace.indices)}: weight {_fmt(y.subspace.weight)}"
            f" x ratio {_fmt(y.ratio)} = {_fmt(y.achieved)}"
        )
    doc = _pmax_doc(result)
    if args.protocol:
        plan = full_plan(rho, phi)
        _write_plan(args.protocol, plan)
        lines.append(f"protocol with {len(plan.branches)} branches -> {args.protocol}")
        doc["protocol_written"] = args.protocol
        doc["branches"] = len(plan.branches)
    return doc, lines


def cmd_protocol(args) -> Report:
    rho = _state_file(args.state)
    phi = _target_file(args.target)
    plan = full_plan(rho, phi)
    check = verify_branch_outputs(plan, rho, phi)
    _write_plan(args.out, plan)
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
    return doc, lines


def cmd_simulate(args) -> Report:
    if not 1 <= args.shots < 2**63:
        raise ValidationError(f"--shots must lie in [1, 2^63), got {args.shots}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    doc, numeric = _read_doc(args.protocol)
    plan = plan_from_doc(doc, args.protocol, numeric)
    rho = _state_file(args.state)
    if plan.dim != rho.dim:
        raise ValidationError(f"{args.state}: dimension {rho.dim}, plan has {plan.dim}")
    result = simulate(plan, rho, shots=args.shots, seed=args.seed)
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
    return _json_value(result), lines


def cmd_catalyst_gate(args) -> Report:
    rho = _state_file(args.state)
    phi = _target_file(args.target)
    enh, det = catalyst_gates(rho, phi)
    # both parts report the same baseline, once, at the top level
    doc = {"baseline": enh.baseline, "enhancement": _json_value(enh)}
    del doc["enhancement"]["baseline"]
    lines = [
        f"baseline p_max = {_fmt(enh.baseline)}",
        f"catalyst can raise probability: {str(enh.verdict).lower()}",
    ]
    for r in enh.records:
        lines.append(
            f"  subspace {list(r.indices)}: p {_fmt(r.pure_pmax)} vs bound"
            f" {_fmt(r.bound)} -> {'yes' if r.enhanceable else 'no'}"
        )
    if det is None:
        doc["deterministic"] = {"applicable": False}
        lines.append("catalyst can reach probability 1: not applicable (already 1)")
    else:
        doc["deterministic"] = _json_value(det)
        del doc["deterministic"]["baseline"]
        lines.append(f"catalyst can reach probability 1: {str(det.verdict).lower()}")
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
    return doc, lines


def cmd_catalyst_search(args) -> Report:
    rho = _state_file(args.state)
    phi = _target_file(args.target)
    report = search_catalyst(
        rho,
        phi,
        max_dim=args.max_dim,
        grid_step=args.step,
        mode=args.mode,
    )
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
    return _json_value(report), lines


def cmd_majorize(args) -> Report:
    p = parse_weights(_read_doc(args.p)[0], args.p)
    q = parse_weights(_read_doc(args.q)[0], args.q)
    doc = {
        "p_majorized_by_q": majorizes(p, q),
        "q_majorized_by_p": majorizes(q, p),
        "entropy_p": shannon_entropy(p),
        "entropy_q": shannon_entropy(q),
    }
    return doc, [
        f"p majorized by q: {str(doc['p_majorized_by_q']).lower()}",
        f"q majorized by p: {str(doc['q_majorized_by_p']).lower()}",
        f"entropy p = {_fmt(doc['entropy_p'])} nats, q = {_fmt(doc['entropy_q'])} nats",
    ]


# ===========================================================================
# argument parsing
# ===========================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohdist",
        description="Probabilistic coherence distillation toolkit",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, summary, func, positionals, options=None):
        """Add a subcommand: its positionals, its options, then --json."""
        p = group.add_parser(name, help=summary, allow_abbrev=False)
        for dest in positionals.split():
            p.add_argument(dest)
        for flag, spec in (options or {}).items():
            p.add_argument(flag, **spec)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)

    command(sub, "validate", "validate a state file", cmd_validate, "state")
    command(sub, "subspaces", "maximal pure subspaces of a state", cmd_subspaces, "state")
    command(sub, "pmax", "maximal distillation probability", cmd_pmax, "state target",
            {"--protocol": dict(metavar="OUT", help="also write the protocol file")})
    command(sub, "protocol", "synthesize and store a protocol", cmd_protocol, "state target out")
    command(sub, "simulate", "Monte Carlo run of a stored protocol", cmd_simulate, "protocol state",
            {"--shots": dict(type=int, default=100000), "--seed": dict(type=int, default=0)})

    catalyst = sub.add_parser("catalyst", help="catalyst gates and search", allow_abbrev=False)
    csub = catalyst.add_subparsers(dest="subcommand", required=True)
    command(csub, "gate", "catalyst existence tests: exact for raising the probability,"
            " sampled over the power-mean order for reaching 1", cmd_catalyst_gate, "state target")
    command(csub, "search", "simplex grid search for a catalyst", cmd_catalyst_search, "state target",
            {"--max-dim": dict(type=int, default=2), "--step": dict(type=float, default=0.05),
             "--mode": dict(choices=("probabilistic", "deterministic"), default="probabilistic")})

    command(sub, "majorize", "compare two weight vectors", cmd_majorize, "p q")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing does not change a parser
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _emit(*args.func(args), args.json)
    except (OSError, CohdistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
