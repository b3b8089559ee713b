"""Batch command-line front end over the shared JSON document formats.

Every subcommand reads input documents, runs the matching library
operation, writes a machine-readable JSON report to ``--out`` (default:
standard output), and prints a one-line human summary to standard error.

Exit codes: 0 success, 1 invalid input, 2 numerical failure, 3 negative
verdict on a certification subcommand, so scripts can branch on them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

import numpy as np

from .formats import (
    FormatError,
    channel_to_doc,
    doc_to_channel,
    doc_to_code,
    doc_to_ket,
    doc_to_matrix,
    ket_to_doc,
    load_json,
    matrix_to_doc,
    dump_json,
)
from .linalg import DEFAULT_TOL, SubspaceIsometry

# Each runner imports the library modules it calls, so a command loads only
# what it runs; these two serve the annotations alone.
if TYPE_CHECKING:
    from . import densecode, unambiguous

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_NEGATIVE = 3


def _tolerance(text: str) -> float:
    """``--tol``: a finite number >= 0; NaN fails both comparisons."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _add_common(sub, trials: bool = False):
    sub.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="certification tolerance")
    if trials:
        sub.add_argument("--seed", type=int, default=0, help="random seed")
        sub.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials")


def _add_subspace_args(sub):
    sub.add_argument("--v1", default=None, help="input-subspace isometry (matrix document)")
    sub.add_argument("--v2", default=None, help="output-subspace isometry (matrix document)")
    sub.add_argument("--env-in", type=int, default=1, dest="env_in")
    sub.add_argument("--env-out", type=int, default=1, dest="env_out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uuqc",
        description="certify unambiguous unitary maps/channels and run the applications",
    )
    cmds = parser.add_subparsers(dest="command", required=True)

    p = cmds.add_parser("schmidt", help="Schmidt decomposition of a bipartite ket")
    p.add_argument("state")
    p.add_argument("--dims", required=True, help="factor dims, e.g. 2,2")
    _add_common(p)

    p = cmds.add_parser("check-uum", help="certify an operator as an unambiguous unitary map")
    p.add_argument("omega")
    _add_subspace_args(p)
    _add_common(p)

    p = cmds.add_parser("check-uuqc", help="certify a channel as an unambiguous unitary channel")
    p.add_argument("channel")
    _add_subspace_args(p)
    _add_common(p)

    p = cmds.add_parser("refine", help="rewrite a certified channel with rank-one environment factors")
    p.add_argument("channel")
    _add_subspace_args(p)
    _add_common(p)

    p = cmds.add_parser("to-ues", help="convert a certified channel into its shared entangled state")
    p.add_argument("channel")
    _add_subspace_args(p)
    _add_common(p)

    # No --tol: the optimum is a closed form, with no tolerance to set.
    p = cmds.add_parser("teleport", help="optimal unambiguous teleportation probability (pure shared state)")
    p.add_argument("state")
    p.add_argument("--dims", required=True, help="factor dims, e.g. 2,2")
    p.add_argument("--d", type=int, required=True, help="dimension of the teleported space")

    p = cmds.add_parser("kl-check", help="Knill-Laflamme correctability check")
    p.add_argument("code")
    p.add_argument("errors")
    _add_common(p)

    p = cmds.add_parser("ec-prob", help="unambiguous error-correction probability")
    p.add_argument("code")
    p.add_argument("noise")
    _add_common(p)

    p = cmds.add_parser("dense-code", help="capacity and Monte Carlo run of the optimal protocol")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--lambdas2", required=True, help="squared Schmidt coefficients, e.g. 0.8,0.2")
    _add_common(p, trials=True)

    p = cmds.add_parser("verify-dc", help="verify a dense-coding protocol's form and capacity bound")
    p.add_argument("encoders", help="channel document holding the message encoders")
    p.add_argument("bob", help="matrix document holding the receiver operator")
    p.add_argument("--lambdas2", required=True)
    _add_common(p)

    for sub in cmds.choices.values():
        sub.add_argument("--out", default=None, help="report path (default: stdout)")
    return parser


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise FormatError(f"--dims: {exc}") from exc
    if len(dims) != 2 or any(d < 1 for d in dims):
        raise FormatError("--dims: expected two positive integers")
    return dims


def _parse_lambdas2(text: str, D: int | None = None) -> densecode.SharedState:
    from . import densecode
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise FormatError(f"--lambdas2: {exc}") from exc
    if D is not None and len(values) != D:
        raise FormatError(f"--lambdas2: expected {D} values, got {len(values)}")
    try:
        return densecode.SharedState.from_squares(values)
    except ValueError as exc:
        raise FormatError(f"--lambdas2: {exc}") from exc


def _load_isometry(path: str | None, field: str) -> SubspaceIsometry | None:
    if path is None:
        return None
    cols = doc_to_matrix(load_json(path, field), field)
    try:
        return SubspaceIsometry(cols)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc


def _load_subspaces(args, ch_in: int, ch_out: int):
    if args.env_in < 1 or args.env_out < 1:
        raise FormatError("--env-in/--env-out: must be >= 1")
    if ch_in % args.env_in or ch_out % args.env_out:
        raise FormatError("--env-in/--env-out: do not divide the operator dimensions")
    return _load_isometry(args.v1, "--v1"), _load_isometry(args.v2, "--v2")


def _uum_doc(cert: unambiguous.UumCertificate) -> dict:
    return {
        "is_uum": bool(cert.is_uum),
        "probability": float(cert.probability),
        "residual": float(cert.residual),
        "unitarity_deviation": float(cert.unitarity_deviation),
        "schmidt_values": [float(v) for v in cert.schmidt_values],
        "unitary": matrix_to_doc(cert.unitary),
        "env_factor": matrix_to_doc(cert.env_factor),
    }


def _run_schmidt(args):
    from . import entanglement
    psi = doc_to_ket(load_json(args.state, "state"), "state")
    dims = _parse_dims(args.dims)
    form = entanglement.schmidt(psi, dims[0], dims[1], args.tol)
    report = {
        "command": "schmidt",
        "coefficients": [float(c) for c in form.coefficients],
        "rank": int(form.rank),
        "left_basis": matrix_to_doc(form.left_basis),
        "right_basis": matrix_to_doc(form.right_basis),
    }
    summary = f"rank {form.rank}, coefficients {[round(float(c), 8) for c in form.coefficients]}"
    return report, summary, EXIT_OK


def _run_check_uum(args):
    from . import unambiguous
    omega = doc_to_matrix(load_json(args.omega, "omega"), "omega")
    v1, v2 = _load_subspaces(args, omega.shape[1], omega.shape[0])
    cert = unambiguous.certify_uum(omega, v1, v2, args.env_in, args.env_out, args.tol)
    report = {"command": "check-uum", **_uum_doc(cert)}
    summary = (
        f"UUM: {cert.is_uum}, p = {cert.probability:.9g}, residual = {cert.residual:.3g}"
    )
    return report, summary, EXIT_OK if cert.is_uum else EXIT_NEGATIVE


def _certified_channel(args) -> tuple:
    from . import unambiguous
    ch = doc_to_channel(load_json(args.channel, "channel"), "channel")
    v1, v2 = _load_subspaces(args, ch.in_dim, ch.out_dim)
    return ch, v1, v2, unambiguous.certify_uuqc(ch, v1, v2, args.env_in, args.env_out, args.tol)


def _run_check_uuqc(args):
    *_, cert = _certified_channel(args)
    report = {
        "command": "check-uuqc",
        "is_uuqc": bool(cert.is_uuqc),
        "total_probability": float(cert.total_probability),
        "definition_residual": float(cert.definition_residual),
        "per_element_probability": cert.per_element.probability.tolist(),
        "per_element_residual": cert.per_element.residual.tolist(),
        "mismatched_pair": list(cert.mismatched_pair) if cert.mismatched_pair else None,
        "unitary": matrix_to_doc(cert.unitary),
    }
    summary = f"UUQC: {cert.is_uuqc}, q = {cert.total_probability:.9g}"
    return report, summary, EXIT_OK if cert.is_uuqc else EXIT_NEGATIVE


def _run_refine(args):
    from . import unambiguous
    ch, v1, v2, cert = _certified_channel(args)
    if not cert.is_uuqc:
        report = {
            "command": "refine",
            "is_uuqc": False,
            "total_probability": float(cert.total_probability),
        }
        return report, "refusal: channel did not certify", EXIT_NEGATIVE
    refined = unambiguous.refine(ch, v1, v2, args.env_in, args.env_out, tol=args.tol)
    # the report doubles as a channel document so it can feed the other
    # subcommands directly
    report = {
        "command": "refine",
        "is_uuqc": True,
        "total_probability": float(cert.total_probability),
        **channel_to_doc(refined),
    }
    summary = f"refined into {len(refined.stack)} rank-one-environment elements"
    return report, summary, EXIT_OK


def _run_to_ues(args):
    from . import entanglement
    ch, v1, v2, cert = _certified_channel(args)
    if not cert.is_uuqc:
        report = {"command": "to-ues", "is_uuqc": False, "success_weight": None, "state": None}
        return report, "refusal: channel did not certify", EXIT_NEGATIVE
    weight, ket = entanglement.uuqc_to_ues(ch, v1, v2, args.env_in, args.env_out, args.tol)
    report = {"command": "to-ues", "is_uuqc": True, "success_weight": float(weight), "state": ket_to_doc(ket)}
    return report, f"success weight {weight:.9g}", EXIT_OK


def _run_teleport(args):
    from . import entanglement
    psi = doc_to_ket(load_json(args.state, "state"), "state")
    dims = _parse_dims(args.dims)
    cert = entanglement.teleport_probability_pure(psi, dims[0], dims[1], args.d)
    report = {
        "command": "teleport",
        "probability": float(cert.probability),
        "d": int(cert.rank_d),
    }
    return report, f"teleportation probability {cert.probability:.9g}", EXIT_OK


def _run_kl_check(args):
    from . import qec
    code = doc_to_code(load_json(args.code, "code"), "code")
    errors = doc_to_channel(load_json(args.errors, "errors"), "errors")
    report_obj = qec.kl_check(code, errors, args.tol)
    report = {
        "command": "kl-check",
        "correctable": bool(report_obj.correctable),
        "residual": float(report_obj.residual),
        "h": matrix_to_doc(report_obj.h),
    }
    summary = f"correctable: {report_obj.correctable}, residual {report_obj.residual:.3g}"
    code_exit = EXIT_OK if report_obj.correctable else EXIT_NEGATIVE
    return report, summary, code_exit


def _run_ec_prob(args):
    from . import qec
    code = doc_to_code(load_json(args.code, "code"), "code")
    noise = doc_to_channel(load_json(args.noise, "noise"), "noise")
    # The step behind unambiguous_correction_probability and meets_certainty_condition, run once.
    prob, method, certain = qec._ec_step(code, noise, args.tol)
    report = {
        "command": "ec-prob",
        "probability": float(prob),
        "method": method,
        "certainty_condition": bool(certain),
    }
    return report, f"correction probability {prob:.9g} ({method})", EXIT_OK


def _run_dense_code(args):
    from . import densecode
    if args.D < 2:
        raise FormatError("dense coding needs D >= 2")
    state = _parse_lambdas2(args.lambdas2, args.D)
    if not 1 <= args.trials < 2**63:
        raise FormatError("--trials: must be in [1, 2^63 - 1]")
    protocol = densecode.optimal_protocol(state)
    result = densecode.simulate(state, protocol, args.trials, args.seed)
    bound = densecode.verify_protocol_bound(
        state, protocol.encoders, densecode.optimal_receiver(protocol), args.tol
    )
    report = {
        "command": "dense-code",
        "capacity": densecode.capacity(state),
        "trials": int(result.trials),
        "pooled_rate": float(result.pooled_rate),
        "per_message_sent": [int(v) for v in result.sent],
        "per_message_successes": [int(v) for v in result.succeeded],
        "per_message_rate": [float(v) for v in result.per_message_rate],
        "decode_errors": int(result.decode_errors),
        "bound_check": {
            "success_probability": float(bound.success_probability),
            "form_holds": bool(bound.form_holds),
            "bound_satisfied": bool(bound.bound_satisfied),
        },
    }
    summary = (
        f"capacity {densecode.capacity(state):.9g}, pooled rate {result.pooled_rate:.5f}, "
        f"decode errors {result.decode_errors}"
    )
    return report, summary, EXIT_OK


def _run_verify_dc(args):
    from . import densecode
    encoders = doc_to_channel(load_json(args.encoders, "encoders"), "encoders")
    bob = doc_to_matrix(load_json(args.bob, "bob"), "bob")
    state = _parse_lambdas2(args.lambdas2)
    rep = densecode.verify_protocol_bound(state, encoders.stack, bob, args.tol)
    report = {
        "command": "verify-dc",
        "r": [float(rep.r.real), float(rep.r.imag)],
        "success_probability": float(rep.success_probability),
        "form_residual": float(rep.form_residual),
        "form_holds": bool(rep.form_holds),
        "bound": float(rep.bound),
        "bound_satisfied": bool(rep.bound_satisfied),
        "gram_trace_max_eigenvalue": float(rep.gram_trace_max_eigenvalue),
        "gram_trace_ok": bool(rep.gram_trace_ok),
    }
    ok = rep.form_holds and rep.bound_satisfied and rep.gram_trace_ok
    summary = (
        f"form holds: {rep.form_holds}, |r|^2 = {rep.success_probability:.9g}, "
        f"bound {rep.bound:.9g}"
    )
    return report, summary, EXIT_OK if ok else EXIT_NEGATIVE


_RUNNERS = {
    "schmidt": _run_schmidt,
    "check-uum": _run_check_uum,
    "check-uuqc": _run_check_uuqc,
    "refine": _run_refine,
    "to-ues": _run_to_ues,
    "teleport": _run_teleport,
    "kl-check": _run_kl_check,
    "ec-prob": _run_ec_prob,
    "dense-code": _run_dense_code,
    "verify-dc": _run_verify_dc,
}


def _emit(report: dict, out_path: str | None):
    text = dump_json(report)
    if out_path is None:
        # Python sets sys.stdout to None when it starts with file descriptor 1 closed.
        if sys.stdout is None:
            raise OSError("standard output is closed")
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot is reserved for
        # numerical failures here.
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        # Overflow and NaN-producing operations fail the command in one line;
        # underflow to zero stays silent.
        with np.errstate(over="raise", invalid="raise"):
            report, summary, code = _RUNNERS[args.command](args)
    except (np.linalg.LinAlgError, MemoryError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first.
        print(f"numerical failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _emit(report, args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(summary, file=sys.stderr)
    return code
