#!/usr/bin/env python3
"""Layer timings of selected kernels on two source trees, side by side.

Usage, from the repository root, with a checkout of the commit to compare
against (``git clone`` or ``git archive``) in ``PARENT``:

    python3 tools/layer_timings.py --before PARENT/src --after src --out BENCH_6.json

Each side runs in a fresh interpreter that imports ``uuqc`` from the given
``src`` directory, with one BLAS thread.  The sides alternate for
``ROUNDS`` rounds, the first side switching each round; a round times every
case ``REPEATS`` times (``LARGE_REPEATS`` at 9 qubits) with
``time.perf_counter`` after one warm-up call.
Inputs come from fixed seeds, so both sides time the same work.  The
output lists, for each case, its name, layer and dims and, for each side,
the median and interquartile range in milliseconds over all rounds, plus a
machine note.

The cases:

- ``certify_uuqc``, ``restrict_operator``, ``refine``, ``uuqc_to_ues`` and
  ``is_physical`` on certifying channels of every ``CERTIFIED`` shape of the
  benchmark's ``certify`` workload;
- ``certify_uuqc(ues_to_uuqc(d))``, the teleportation path, at every
  ``TELEPORT_DIMS`` dimension;
- ``KrausChannel`` built from a ``(K, out, in)`` array of each
  ``STACK_SHAPES`` shape;
- ``search_mixed_nonzero`` with ``d = 2`` on 3 x 4 and 4 x 4 product states
  (no witness), on a 4 x 4 state holding an entangled 2 x 2 block
  (``"block"``, one witness) and on the normalised 2 x 3 Choi state of
  ``sqrt(0.6) diag(1, 1, 0)`` and ``sqrt(0.4) (|0><0| + |2><1|)`` on
  ``span(e0, e1)`` (``"choi"``, witnessed by a non-basis receiver filter);
- ``choi_state`` at ``in_dim * out_dim`` = 288, 640 and 1536;
- ``kl_check``, ``standard_recovery`` and ``verify_correction_uuqc``
  (with that recovery) on the 3-, 5- and 7-qubit repetition codes under
  ``0.7 I`` plus single bit flips that share the remaining 0.3;
- ``unambiguous_correction_probability`` and ``meets_certainty_condition``
  on the same codes and noise at 3, 5, 7 and 9 qubits, and on the two
  ``_ec_prob_inputs``: the ``qec`` workload's mixed-noise shape and a
  three-element noise with a pure Choi state;
- ``doc_to_channel`` of the ``cli`` workload's large channel document
  (6 x 48 x 48), and ``channel_to_doc`` plus ``dump_json`` of its
  refinement (16 x 48 x 48), the ``refine`` report's payload;
- ``simulate`` of the optimal dense-coding protocol at D = 8 with 10^6
  trials, as the ``cli`` workload's ``dense-code`` job runs it, and
  ``verify_protocol_bound`` of the optimal protocol with its optimal
  receiver at every ``VERIFY_D`` rank (D = 8 on that same protocol);
- ``SubspaceIsometry.full`` at every ``FULL_DIMS`` dimension;
- ``conversion_probability`` at every ``CONVERSION_DIMS`` ``(d, rank)``,
  on a random spectrum of that rank, and
  ``unambiguous_correction_probability`` on pure noise, one random operator
  on a random 8-dimensional code in C^16.

This is a measuring tool: it is neither a test nor part of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
ROUNDS = 10
REPEATS = 15
# Repeats per round of the 9-qubit cases, which took about 0.5 s per call
# when they built the 1024 x 1024 Choi matrix.
LARGE_REPEATS = 3
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (in_dim, out_dim, K) of the timed Choi states.
CHOI_SHAPES = [(18, 16, 5), (20, 32, 6), (32, 48, 8)]
REPETITION_QUBITS = [3, 5, 7]
EC_PROB_QUBITS = [3, 5, 7, 9]
# (K, out_dim, in_dim) of the arrays timed through the KrausChannel constructor.
STACK_SHAPES = [(64, 8, 8), (16, 64, 64)]
SWEEP_DIMS = [(3, 4), (4, 4)]
TELEPORT_DIMS = [2, 4, 8]
VERIFY_D = [2, 4, 8]
FULL_DIMS = [2, 8, 64]
CONVERSION_DIMS = [(2, 3), (4, 5), (8, 9)]


def _witness_states() -> dict:
    """``kind -> (rho, dim_a, dim_b)`` of the timed states that hold a witness.

    ``"block"``: a rank-2 entangled ket on the basis block ``{1, 3} x {0, 2}``
    of 4 x 4 (weight 0.6) plus diagonal noise on basis states outside it.
    ``"choi"``: the normalised Choi state of ``sqrt(0.6) diag(1, 1, 0)`` and
    ``sqrt(0.4) (|0><0| + |2><1|)`` on ``span(e0, e1)`` in C^3, logical
    factor first; its witness filter is ``[[1, 0, 0], [0, 1, 1]] / sqrt(2)``.
    Built from their own seed, so the inputs of the other cases stay put.
    """
    import numpy as np

    rng = np.random.default_rng(12)
    coeff = np.zeros((4, 4), dtype=complex)
    coeff[np.ix_([1, 3], [0, 2])] = np.linalg.qr(rng.standard_normal((2, 2)))[0] * [0.8, 0.6]
    noise = rng.uniform(size=(4, 4))
    noise[np.ix_([1, 3], [0, 2])] = 0.0
    psi = coeff.reshape(-1)
    block = 0.6 * np.outer(psi, psi.conj()) + 0.4 * np.diag(noise.reshape(-1) / noise.sum())
    kets = np.zeros((2, 2, 3))
    kets[0, 0, 0] = kets[0, 1, 1] = np.sqrt(0.6)
    kets[1, 0, 0] = kets[1, 1, 2] = np.sqrt(0.4)
    kets = kets.reshape(2, 6) / np.sqrt(2)
    return {"block": (block, 4, 4), "choi": (kets.T @ kets, 2, 3)}


def _ec_prob_inputs() -> dict:
    """``kind -> (code, noise)`` of the extra ``ec-prob`` cases.

    ``"mixed"``: the shape of the ``qec`` workload's mixed-noise job, the
    3-qubit repetition code under ``sqrt(p_0) I`` plus ``sqrt(p_k) X_k`` on
    each qubit, with ``p_0`` in [0.6, 0.8].  ``"pure"``: three multiples of
    one random operator on a random 3-dimensional code in C^16, so the Choi
    state is pure.  Built from their own seed, so the inputs of the other
    cases stay put.
    """
    import numpy as np

    import uuqc

    rng = np.random.default_rng(15)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    ops = [np.eye(8)] + [np.kron(np.kron(np.eye(2**j), flip), np.eye(2 ** (2 - j))) for j in range(3)]
    p0 = rng.uniform(0.6, 0.8)
    p = np.concatenate([[p0], rng.dirichlet(np.ones(3)) * (1.0 - p0)])
    enc = np.zeros((8, 2), dtype=complex)
    enc[0, 0] = enc[-1, 1] = 1.0
    mixed = (uuqc.CodeSpec(enc), uuqc.KrausChannel(tuple(np.sqrt(pk) * op for pk, op in zip(p, ops))))
    code = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))[0][:, :3]
    op = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    scales = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    op = op / (np.linalg.norm(op, 2) * np.linalg.norm(scales))
    pure = (uuqc.CodeSpec(code), uuqc.KrausChannel(tuple(c * op for c in scales)))
    return {"mixed": mixed, "pure": pure}


def _cases():
    """``(name, layer, dims, call, repeats)`` for every timed case."""
    import numpy as np

    import uuqc

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from common import random_split, random_unitary
    from wl_certify import CERTIFIED, _channel
    from wl_cli import DENSE_D, DENSE_TRIALS, LARGE

    from uuqc import formats

    rng = np.random.default_rng(6)

    def rand_complex(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def frame(ambient, d):
        q = np.linalg.qr(rand_complex((ambient, ambient)))[0]
        return q[:, :d], q[:, d:]

    cases = []
    for d, a_in, a_out, e_in, e_out, k in CERTIFIED:
        # V2 U V1^dag (x) theta_k plus maps from and into the complements
        (v1, c1), (v2, c2) = frame(a_in, d), frame(a_out, d)
        core = v2 @ np.linalg.qr(rand_complex((d, d)))[0] @ v1.conj().T
        elems = []
        for _ in range(k):
            theta = rand_complex((e_out, e_in))
            e = np.kron(core, theta * np.sqrt(0.8 / k) / np.linalg.norm(theta))
            e = e + 0.3 * np.kron(c2 @ rand_complex((a_out - d, d)) @ v1.conj().T, rand_complex((e_out, e_in)))
            e = e + 0.3 * np.kron(rand_complex((a_out, a_in - d)) @ c1.conj().T, rand_complex((e_out, e_in)))
            elems.append(e)
        ch = uuqc.KrausChannel(tuple(elems))
        sub1, sub2 = uuqc.SubspaceIsometry(v1), uuqc.SubspaceIsometry(v2)
        dims = {"d": d, "ambient_in": a_in, "ambient_out": a_out, "env_in": e_in, "env_out": e_out, "K": k}
        cases.append(("certify_uuqc", "unambiguous", dims,
                      lambda ch=ch, s1=sub1, s2=sub2, e=(e_in, e_out): uuqc.certify_uuqc(ch, s1, s2, *e),
                      REPEATS))
        cases.append(("restrict_operator", "unambiguous", dims,
                      lambda ch=ch, s1=sub1, s2=sub2, e=(e_in, e_out): uuqc.restrict_operator(ch.stack, s1, s2, *e),
                      REPEATS))
        cases.append(("refine", "unambiguous", dims,
                      lambda ch=ch, s1=sub1, s2=sub2, e=(e_in, e_out): uuqc.refine(ch, s1, s2, *e), REPEATS))
        cases.append(("uuqc_to_ues", "entanglement", dims,
                      lambda ch=ch, s1=sub1, s2=sub2, e=(e_in, e_out): uuqc.uuqc_to_ues(ch, s1, s2, *e), REPEATS))
        cases.append(("is_physical", "channels", dims, lambda ch=ch: uuqc.is_physical(ch), REPEATS))

    for d in TELEPORT_DIMS:
        cases.append(("certify_uuqc(ues_to_uuqc)", "unambiguous", {"d": d, "K": d * d},
                      lambda d=d: uuqc.certify_uuqc(uuqc.ues_to_uuqc(d)), REPEATS))

    for shape in STACK_SHAPES:
        stack = rand_complex(shape)
        cases.append(("KrausChannel", "channels", dict(zip(("K", "out_dim", "in_dim"), shape)),
                      lambda stack=stack: uuqc.KrausChannel(stack), REPEATS))

    for dim_a, dim_b in SWEEP_DIMS:
        ga, gb = rand_complex((dim_a, dim_a)), rand_complex((dim_b, dim_b))
        rho = np.kron(ga @ ga.conj().T, gb @ gb.conj().T)
        rho /= np.trace(rho).real
        cases.append(("search_mixed_nonzero", "entanglement", {"dim_a": dim_a, "dim_b": dim_b, "d": 2},
                      lambda rho=rho, a=dim_a, b=dim_b: uuqc.search_mixed_nonzero(rho, a, b, 2), REPEATS))
    for kind, (rho, dim_a, dim_b) in _witness_states().items():
        cases.append(("search_mixed_nonzero", "entanglement", {"dim_a": dim_a, "dim_b": dim_b, "d": 2, "state": kind},
                      lambda rho=rho, a=dim_a, b=dim_b: uuqc.search_mixed_nonzero(rho, a, b, 2), REPEATS))

    for in_dim, out_dim, k in CHOI_SHAPES:
        ch = uuqc.KrausChannel(tuple(rand_complex((k, out_dim, in_dim))))
        cases.append(("choi_state", "channels", {"in_dim": in_dim, "out_dim": out_dim, "K": k,
                                                 "N": in_dim * out_dim},
                      lambda ch=ch: uuqc.choi_state(ch), REPEATS))

    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in EC_PROB_QUBITS:
        enc = np.zeros((2**n, 2), dtype=complex)
        enc[0, 0] = enc[-1, 1] = 1.0
        flips = [np.kron(np.kron(np.eye(2**j), flip), np.eye(2 ** (n - j - 1))) for j in range(n)]
        noise = uuqc.KrausChannel(tuple([np.sqrt(0.7) * np.eye(2**n)] + [np.sqrt(0.3 / n) * f for f in flips]))
        code = uuqc.CodeSpec(enc)
        dims = {"qubits": n, "n_phys": 2**n, "K": n + 1}
        if n in REPETITION_QUBITS:
            recovery = uuqc.standard_recovery(code, noise)
            cases.append(("kl_check", "qec", dims,
                          lambda code=code, noise=noise: uuqc.kl_check(code, noise), REPEATS))
            cases.append(("standard_recovery", "qec", dims,
                          lambda code=code, noise=noise: uuqc.standard_recovery(code, noise), REPEATS))
            cases.append(("verify_correction_uuqc", "qec", dims,
                          lambda code=code, noise=noise, r=recovery: uuqc.verify_correction_uuqc(code, noise, r),
                          REPEATS))
        repeats = REPEATS if n in REPETITION_QUBITS else LARGE_REPEATS
        cases.append(("unambiguous_correction_probability", "qec", dims,
                      lambda code=code, noise=noise: uuqc.unambiguous_correction_probability(code, noise), repeats))
        cases.append(("meets_certainty_condition", "qec", dims,
                      lambda code=code, noise=noise: uuqc.meets_certainty_condition(code, noise), repeats))

    for kind, (code, noise) in _ec_prob_inputs().items():
        dims = {"n_phys": code.physical_dim, "d": code.logical_dim, "K": len(noise.stack), "noise": kind}
        cases.append(("unambiguous_correction_probability", "qec", dims,
                      lambda code=code, noise=noise: uuqc.unambiguous_correction_probability(code, noise), REPEATS))
        cases.append(("meets_certainty_condition", "qec", dims,
                      lambda code=code, noise=noise: uuqc.meets_certainty_condition(code, noise), REPEATS))

    d, e, k = LARGE
    elems, _, _ = _channel(rng, d, d, d, e, e, random_split(rng, 0.7, k), [random_unitary(rng, d)] * k)
    large = uuqc.KrausChannel(tuple(elems))
    doc = json.loads(json.dumps(formats.channel_to_doc(large)))
    cases.append(("doc_to_channel", "formats", {"K": k, "out_dim": d * e, "in_dim": d * e},
                  lambda doc=doc: formats.doc_to_channel(doc), REPEATS))
    full = uuqc.SubspaceIsometry.full(d)
    refined = uuqc.refine(large, full, full, e, e)
    cases.append(("dump_json(channel_to_doc)", "formats",
                  {"K": len(refined.stack), "out_dim": d * e, "in_dim": d * e},
                  lambda ch=refined: formats.dump_json(formats.channel_to_doc(ch)), REPEATS))

    lam2 = np.sort(rng.uniform(0.3, 1.0, DENSE_D))[::-1]
    state = uuqc.SharedState.from_squares(lam2 / lam2.sum())
    protocol = uuqc.optimal_protocol(state)
    cases.append(("simulate", "densecode", {"D": DENSE_D, "trials": DENSE_TRIALS},
                  lambda: uuqc.simulate(state, protocol, DENSE_TRIALS, 7), REPEATS))
    # The smaller ranks draw from their own seed, so the inputs above stay put.
    verify_rng = np.random.default_rng(14)
    states = {DENSE_D: state}
    for D in VERIFY_D:
        if D not in states:
            lam2 = np.sort(verify_rng.uniform(0.3, 1.0, D))[::-1]
            states[D] = uuqc.SharedState.from_squares(lam2 / lam2.sum())
        prot = uuqc.optimal_protocol(states[D])
        cases.append(("verify_protocol_bound", "densecode", {"D": D},
                      lambda s=states[D], p=prot, b=uuqc.optimal_receiver(prot):
                      uuqc.verify_protocol_bound(s, p.encoders, b), REPEATS))

    for d in FULL_DIMS:
        cases.append(("SubspaceIsometry.full", "linalg", {"d": d},
                      lambda d=d: uuqc.SubspaceIsometry.full(d), REPEATS))

    # Vidal's optimum, from its own seed, so the inputs above stay put.
    vidal_rng = np.random.default_rng(16)
    for d, rank in CONVERSION_DIMS:
        lam2 = np.sort(vidal_rng.uniform(0.05, 1.0, rank))[::-1]
        form = uuqc.schmidt(np.diag(np.sqrt(lam2 / lam2.sum())).reshape(-1), rank, rank)
        cases.append(("conversion_probability", "entanglement", {"d": d, "rank": rank},
                      lambda f=form, d=d: uuqc.conversion_probability(f, d), REPEATS))
    code = uuqc.CodeSpec(np.linalg.qr(vidal_rng.standard_normal((16, 8)))[0])
    noise = uuqc.KrausChannel((vidal_rng.standard_normal((16, 16)) / 8,))
    cases.append(("unambiguous_correction_probability", "qec", {"n_phys": 16, "d": 8, "K": 1, "noise": "pure"},
                  lambda: uuqc.unambiguous_correction_probability(code, noise), REPEATS))
    return cases


def child(src: str) -> None:
    """Time every case with the ``uuqc`` found in ``src``; print JSON."""
    sys.path.insert(0, os.path.abspath(src))
    out = []
    for name, layer, dims, call, repeats in _cases():
        call()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append((time.perf_counter() - start) * 1e3)
        out.append({"name": name, "layer": layer, "dims": dims, "ms": times})
    print(json.dumps(out))


def _summary(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_ms": round(median, 4), "iqr_ms": round(q3 - q1, 4),
            "quartiles_ms": [round(q1, 4), round(q3, 4)], "samples": len(times)}


def machine_note() -> str:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return (f"nproc={os.cpu_count()} blas_threads={BLAS_THREADS} python={sys.version.split()[0]} "
            f"numpy={np.__version__} blas={blas.get('name', '?')} {blas.get('version', '?')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", help="src directory of the commit compared against")
    parser.add_argument("--after", help="src directory of the change")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")

    sides = {"before": args.before, "after": args.after}
    runs = {side: [] for side in sides}
    for r in range(ROUNDS):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            cmd = [sys.executable, os.path.abspath(__file__), "--child", sides[side]]
            runs[side].append(json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout))

    cases = []
    for i, first in enumerate(runs["before"][0]):
        entry = {"name": first["name"], "layer": first["layer"], "dims": first["dims"]}
        for side in sides:
            entry[side] = _summary([t for run in runs[side] for t in run[i]["ms"]])
        entry["after_over_before"] = round(entry["after"]["median_ms"] / entry["before"]["median_ms"], 3)
        cases.append(entry)
    doc = {
        "tool": "tools/layer_timings.py",
        "method": (f"{ROUNDS} alternating rounds per side, each a fresh interpreter timing every case "
                   f"{REPEATS} times ({LARGE_REPEATS} at 9 qubits) with time.perf_counter after one "
                   "warm-up call; medians and interquartile ranges over all rounds, in ms"),
        "machine": machine_note(),
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for c in cases:
        print(f"{c['name']:34s} {json.dumps(c['dims']):70s} {c['before']['median_ms']:9.3f} -> "
              f"{c['after']['median_ms']:9.3f} ms  x{c['after_over_before']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
