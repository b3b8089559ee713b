#!/usr/bin/env python3
"""Layer timings of selected kernels on two source trees, side by side.

Usage, from the repository root, with a checkout of the commit to compare
against (``git clone`` or ``git archive``) in ``PARENT``:

    python3 tools/layer_timings.py --before PARENT/src --after src --out BENCH_6.json

Each round starts one interpreter per side that imports ``uuqc`` from the
given ``src`` directory, with one BLAS thread, builds every case once and
then times one call of a case on request.  Per case, each side makes one
warm-up call, and then the two sides take turns call by call (``ABBA...``),
the side that goes first switching from one case to the next and from one
round to the next, so host drift over milliseconds to minutes falls on both
alike.  There are ``ROUNDS`` rounds; a side times a case ``REPEATS`` times
(``LARGE_REPEATS`` at 9 qubits) with ``time.perf_counter``.  Inputs come
from fixed seeds, so both sides time the same work.  The output lists, for each case, its name, layer and dims; for
each side, the median and interquartile range in milliseconds over all
rounds; and the paired ratio, the after side's median in a round over the
before side's median in the same round: its median over rounds is the
headline (``paired_ratio_median``), with its quartiles
(``paired_ratio_quartiles``) and a family-wise interval of that median
(``paired_ratio_interval``); a case whose interval contains 1 reads "no
change", otherwise "faster" or "slower" (``reads``).

The interval is family-wise over the ``m`` cases: each case's interval has
level ``1 - FAMILY_ALPHA / m`` (Bonferroni), so with the same tree on both
sides (an A/A run) all ``m`` cases read "no change" with probability at
least ``1 - FAMILY_ALPHA``.  It is the sign test's interval of a median,
the ``k``-th smallest and ``k``-th largest of the ``ROUNDS`` ratios for the
largest ``k`` whose binomial coverage reaches that level; it holds for any
continuous distribution of the ratios and needs no resampling.  (A
bootstrap of the median cannot resolve a tail of about 0.015% from ten
rounds: the interval then ends at the one or two extreme rounds.)
``ROUNDS`` = 21 gives ``k`` = 3 for up to 225 cases, so neither one nor
two outlying rounds alone can turn a reading.  The document also holds the
level (``interval_level``), the median width of the intervals over all
cases (``median_interval_width``) and a machine note.  The ratio of the two
sides' medians pooled over all rounds is not reported, since host drift
between rounds can move it away from every per-round ratio.

The cases:

- ``certify_uuqc``, ``restrict_operator``, ``refine``, ``uuqc_to_ues`` and
  ``is_physical`` on certifying channels of every ``CERTIFIED`` shape of the
  benchmark's ``certify`` workload, plus the ``certify_uuqc chain`` that
  workload's certified jobs run: ``certify_uuqc``, ``refine``,
  ``certify_uuqc`` of the refined channel and ``uuqc_to_ues``.  Every call
  gets a fresh shallow copy of the channel (``copy.copy``, about 3 us), so
  ``certify_uuqc``'s memo of recent certificates never carries over from
  one timed call to the next; it hits only within one chain;
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
  ``kl_check`` and ``standard_recovery`` get fresh shallow copies of the
  code and the noise on every call, so the memo of recent Knill-Laflamme
  steps never carries over from one timed call to the next;
- ``unambiguous_correction_probability`` and ``meets_certainty_condition``
  on the same codes and noise at 3, 5, 7 and 9 qubits, and on the two
  ``_ec_prob_inputs``: the ``qec`` workload's mixed-noise shape and a
  three-element noise with a pure Choi state; on all of these also the
  ``probability then certainty`` chain that ``uuqc ec-prob`` and the ``qec``
  workload's ``ec-prob`` jobs run.  Every call in these cases and in the
  chain gets fresh shallow copies of the code and the noise;
- ``kl_check``, ``standard_recovery``, ``verify_correction_uuqc`` (with
  that recovery), ``unambiguous_correction_probability`` and
  ``meets_certainty_condition`` on the five-qubit code and on Shor's code
  (``LARGE_REPEATS``; its 28-element noise stack holds about 117 MB), both
  under ``sqrt(0.7) I`` plus every single-qubit Pauli, built by
  ``tests/builders.py``, plus on both codes the ``check then recover``
  chain that the ``qec`` workload's correctable jobs run: ``kl_check``,
  ``standard_recovery`` and ``verify_correction_uuqc`` with that recovery,
  and the ``probability then certainty`` chain, all on fresh copies as
  above (the Knill-Laflamme memo hits only within one chain);
- ``doc_to_channel`` of the ``cli`` workload's large channel document
  (6 x 48 x 48), ``certify_uuqc`` and ``refine`` of that channel with its
  subspaces omitted, as the ``cli`` workload's ``check-uuqc`` and
  ``refine`` jobs run them (a fresh shallow copy per call, as above), and
  ``channel_to_doc`` plus ``dump_json`` of its refinement (16 x 48 x 48),
  the ``refine`` report's payload;
- ``simulate`` of the optimal dense-coding protocol at D = 8 with every
  ``SIMULATE_TRIALS`` count (10^6 is the ``cli`` workload's ``dense-code``
  job), and
  ``verify_protocol_bound`` of the optimal protocol with its optimal
  receiver at every ``VERIFY_D`` rank (D = 8 on that same protocol);
- ``conversion_probability`` at every ``CONVERSION_DIMS`` ``(d, rank)``,
  on a random spectrum of that rank, and
  ``unambiguous_correction_probability`` on pure noise, one random operator
  on a random 8-dimensional code in C^16;
- ``cli <subcommand>``, end to end as a subprocess: one ``python -m uuqc``
  child per call for each job of one round of the ``cli`` workload, its
  documents written by ``wl_cli.build_round`` from ``CLI_SEED`` into a
  temporary directory; ``cli --help``, the start-up and exit that every
  command pays; and ``cli import uuqc.cli``, a fresh interpreter that only
  imports the command line.  Each child imports ``uuqc`` from its
  side's ``src`` (put first on ``PYTHONPATH``) and inherits the rest of the
  environment, ``PYTHONDONTWRITEBYTECODE`` included, so start-up counts as
  a user meets it.  A side times these ``CLI_REPEATS`` times per round.

This is a measuring tool: it is neither a test nor part of the benchmark.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = 1
ROUNDS = 21
REPEATS = 15
# Repeats per round of the 9-qubit cases, which took about 0.5 s per call
# when they built the 1024 x 1024 Choi matrix, and of Shor's code, whose
# kl_check took about 1.1 s when it multiplied four matrices per pair.
LARGE_REPEATS = 3
# The chance that an A/A run reads any case as a change, at most.
FAMILY_ALPHA = 0.05
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
CONVERSION_DIMS = [(2, 3), (4, 5), (8, 9)]
SIMULATE_TRIALS = [10**4, 10**5, 10**6]
# The subprocess cases: the seed of their cli workload round, and repeats
# per round (each child takes about 0.15-0.3 s, with an interquartile range
# of about 30% on a shared 2-core host).
CLI_SEED = 27
CLI_REPEATS = 7


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


def _chain(uuqc, ch, v1, v2, env_in, env_out):
    """The library calls of the ``certify`` workload's certified job, less
    ``is_physical`` and ``choi_state``."""
    uuqc.certify_uuqc(ch, v1, v2, env_in, env_out)
    refined = uuqc.refine(ch, v1, v2, env_in, env_out)
    uuqc.certify_uuqc(refined, v1, v2, env_in, env_out)
    return uuqc.uuqc_to_ues(ch, v1, v2, env_in, env_out)


def _fresh(*objs) -> tuple:
    """Shallow copies (about 3 us each), so no memo of recent results keyed
    by object identity carries over from one timed call to the next."""
    return tuple(copy.copy(obj) for obj in objs)


def _check_then_recover(uuqc, code, noise):
    """The library calls of the ``qec`` workload's correctable job."""
    uuqc.kl_check(code, noise)
    recovery = uuqc.standard_recovery(code, noise)
    return uuqc.verify_correction_uuqc(code, noise, recovery)


def _probability_then_certainty(uuqc, code, noise):
    """The library calls of ``uuqc ec-prob`` and the ``qec`` workload's ``ec-prob`` jobs."""
    return uuqc.unambiguous_correction_probability(code, noise), uuqc.meets_certainty_condition(code, noise)


def _cases(workdir: str):
    """``(name, layer, dims, call, repeats)`` for every timed case; the
    subprocess cases write their documents under ``workdir``."""
    import numpy as np

    import uuqc

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from common import random_split, random_unitary
    from wl_certify import CERTIFIED, _channel
    from wl_cli import DENSE_D, LARGE

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
        args = (ch, sub1, sub2, e_in, e_out)
        cases.append(("certify_uuqc", "unambiguous", dims,
                      lambda a=args: uuqc.certify_uuqc(copy.copy(a[0]), *a[1:]), REPEATS))
        cases.append(("restrict_operator", "unambiguous", dims,
                      lambda ch=ch, s1=sub1, s2=sub2, e=(e_in, e_out): uuqc.restrict_operator(ch.stack, s1, s2, *e),
                      REPEATS))
        cases.append(("refine", "unambiguous", dims,
                      lambda a=args: uuqc.refine(copy.copy(a[0]), *a[1:]), REPEATS))
        cases.append(("uuqc_to_ues", "entanglement", dims,
                      lambda a=args: uuqc.uuqc_to_ues(copy.copy(a[0]), *a[1:]), REPEATS))
        cases.append(("certify_uuqc chain", "unambiguous", dims,
                      lambda a=args: _chain(uuqc, copy.copy(a[0]), *a[1:]), REPEATS))
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
                          lambda code=code, noise=noise: uuqc.kl_check(*_fresh(code, noise)), REPEATS))
            cases.append(("standard_recovery", "qec", dims,
                          lambda code=code, noise=noise: uuqc.standard_recovery(*_fresh(code, noise)), REPEATS))
            cases.append(("verify_correction_uuqc", "qec", dims,
                          lambda code=code, noise=noise, r=recovery: uuqc.verify_correction_uuqc(code, noise, r),
                          REPEATS))
        repeats = REPEATS if n in REPETITION_QUBITS else LARGE_REPEATS
        cases += _ec_prob_cases(uuqc, code, noise, dims, repeats)

    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from builders import five_qubit_code, pauli_noise, shor_code

    for name, build, n in (("five-qubit", five_qubit_code, 5), ("shor", shor_code, 9)):
        code, noise = build(), pauli_noise(n, 0.3)
        dims = {"code": name, "n_phys": 2**n, "K": len(noise.stack)}
        repeats = REPEATS if n == 5 else LARGE_REPEATS
        cases.append(("kl_check", "qec", dims,
                      lambda code=code, noise=noise: uuqc.kl_check(*_fresh(code, noise)), repeats))
        cases.append(("standard_recovery", "qec", dims,
                      lambda code=code, noise=noise: uuqc.standard_recovery(*_fresh(code, noise)), repeats))
        recovery = uuqc.standard_recovery(code, noise)
        cases.append(("verify_correction_uuqc", "qec", dims,
                      lambda code=code, noise=noise, r=recovery: uuqc.verify_correction_uuqc(code, noise, r),
                      repeats))
        cases.append(("check then recover", "qec", dims,
                      lambda code=code, noise=noise: _check_then_recover(uuqc, *_fresh(code, noise)), repeats))
        cases += _ec_prob_cases(uuqc, code, noise, dims, repeats)

    for kind, (code, noise) in _ec_prob_inputs().items():
        dims = {"n_phys": code.physical_dim, "d": code.logical_dim, "K": len(noise.stack), "noise": kind}
        cases += _ec_prob_cases(uuqc, code, noise, dims, REPEATS)

    d, e, k = LARGE
    elems, _, _ = _channel(rng, d, d, d, e, e, random_split(rng, 0.7, k), [random_unitary(rng, d)] * k)
    large = uuqc.KrausChannel(tuple(elems))
    doc = json.loads(json.dumps(formats.channel_to_doc(large)))
    cases.append(("doc_to_channel", "formats", {"K": k, "out_dim": d * e, "in_dim": d * e},
                  lambda doc=doc: formats.doc_to_channel(doc), REPEATS))
    dims = {"d": d, "env_in": e, "env_out": e, "K": k, "subspaces": "omitted"}
    cases.append(("certify_uuqc", "unambiguous", dims,
                  lambda ch=large, e=e: uuqc.certify_uuqc(copy.copy(ch), None, None, e, e), REPEATS))
    cases.append(("refine", "unambiguous", dims,
                  lambda ch=large, e=e: uuqc.refine(copy.copy(ch), None, None, e, e), REPEATS))
    refined = uuqc.refine(large, None, None, e, e)
    cases.append(("dump_json(channel_to_doc)", "formats",
                  {"K": len(refined.stack), "out_dim": d * e, "in_dim": d * e},
                  lambda ch=refined: formats.dump_json(formats.channel_to_doc(ch)), REPEATS))

    lam2 = np.sort(rng.uniform(0.3, 1.0, DENSE_D))[::-1]
    state = uuqc.SharedState.from_squares(lam2 / lam2.sum())
    protocol = uuqc.optimal_protocol(state)
    for trials in SIMULATE_TRIALS:
        cases.append(("simulate", "densecode", {"D": DENSE_D, "trials": trials},
                      lambda n=trials: uuqc.simulate(state, protocol, n, 7), REPEATS))
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
                  lambda: uuqc.unambiguous_correction_probability(*_fresh(code, noise)), REPEATS))
    return cases + _cli_cases(os.path.dirname(os.path.dirname(uuqc.__file__)), workdir)


def _cli_cases(src: str, workdir: str) -> list:
    """A ``python -m uuqc`` child per job of one seeded ``cli`` workload
    round, ``python -m uuqc --help`` and a fresh ``import uuqc.cli``, each
    importing ``uuqc`` from ``src``."""
    import numpy as np

    import wl_cli

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def child(args):
        code = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        # 0 and 3 are verdicts; 1 and 2 mean the documents or the tree are broken.
        if code not in (0, 3):
            raise RuntimeError(f"{' '.join(args[:3])} exited with {code}")
        return code, None

    rng = np.random.default_rng(CLI_SEED)
    jobs = wl_cli.build_round(rng, workdir, "cli", lambda argv: child(["-m", "uuqc", *argv]))
    cases = [(f"cli {job.kind}", "cli", {"seed": CLI_SEED, "job": i}, job.run, CLI_REPEATS)
             for i, job in enumerate(jobs)]
    cases.append(("cli --help", "cli", {}, lambda: child(["-m", "uuqc", "--help"]), CLI_REPEATS))
    cases.append(("cli import uuqc.cli", "cli", {}, lambda: child(["-c", "import uuqc.cli"]), CLI_REPEATS))
    return cases


def _ec_prob_cases(uuqc, code, noise, dims, repeats):
    """The probability and the certainty condition, each alone and the two
    in a row, on fresh copies of the code and the noise."""
    return [("unambiguous_correction_probability", "qec", dims,
             lambda: uuqc.unambiguous_correction_probability(*_fresh(code, noise)), repeats),
            ("meets_certainty_condition", "qec", dims,
             lambda: uuqc.meets_certainty_condition(*_fresh(code, noise)), repeats),
            ("probability then certainty", "qec", dims,
             lambda: _probability_then_certainty(uuqc, *_fresh(code, noise)), repeats)]


def child(src: str) -> None:
    """Build every case with the ``uuqc`` found in ``src`` and print their
    descriptions as one JSON line; then, for each case index read from
    standard input, call that case once and print its time in ms as one line."""
    sys.path.insert(0, os.path.abspath(src))
    with tempfile.TemporaryDirectory() as workdir:
        cases = _cases(workdir)
        _reply([{"name": name, "layer": layer, "dims": dims, "repeats": repeats}
                for name, layer, dims, _, repeats in cases])
        for line in sys.stdin:
            call = cases[int(line)][3]
            start = time.perf_counter()
            call()
            _reply((time.perf_counter() - start) * 1e3)


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _timed_call(proc, i: int) -> float:
    """Time of one call of case ``i`` in a child, in ms."""
    proc.stdin.write(f"{i}\n")
    proc.stdin.flush()
    return _next_reply(proc)


def _next_reply(proc):
    """A child's next one-line JSON reply."""
    reply = proc.stdout.readline()
    if not reply:
        raise RuntimeError(f"child {proc.args[-1]} exited with {proc.wait()}")
    return json.loads(reply)


def _summary(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_ms": round(median, 4), "iqr_ms": round(q3 - q1, 4),
            "quartiles_ms": [round(q1, 4), round(q3, 4)], "samples": len(times)}


def sign_test_rank(n: int, alpha: float) -> tuple:
    """``(k, level)``: the largest ``k`` for which the ``k``-th smallest and
    ``k``-th largest of ``n`` independent draws bracket their median with
    probability ``level >= 1 - alpha``, that is ``2 P(Bin(n, 1/2) < k) <= alpha``."""
    def miss(k):
        return 2 * sum(math.comb(n, i) for i in range(k)) / 2**n

    k = max((k for k in range(1, n // 2 + 1) if miss(k) <= alpha), default=0)
    if not k:
        raise ValueError(f"{n} rounds give no interval at level {1 - alpha:.6g}; raise ROUNDS")
    return k, 1 - miss(k)


def paired_ratio_interval(ratios: list, k: int) -> list:
    """The sign test's interval of the median of the per-round ``ratios``:
    their ``k``-th smallest and ``k``-th largest values."""
    ranked = sorted(ratios)
    return [ranked[k - 1], ranked[-k]]


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
    described, times = None, None
    for r in range(ROUNDS):
        procs = {side: subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child", src],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                 for side, src in sides.items()}
        try:
            described = [_next_reply(proc) for proc in procs.values()][0]
            if times is None:
                times = {side: [[] for _ in described] for side in sides}
                # raises before any timing when ROUNDS is too few for the cases
                rank, level = sign_test_rank(ROUNDS, FAMILY_ALPHA / len(described))
            for i, case in enumerate(described):
                order = ("before", "after") if (r + i) % 2 == 0 else ("after", "before")
                for side in order:
                    _timed_call(procs[side], i)  # warm-up
                    times[side][i].append([])
                for j in range(case["repeats"]):
                    for side in order[::1 if j % 2 == 0 else -1]:
                        times[side][i][-1].append(_timed_call(procs[side], i))
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()

    cases = []
    for i, first in enumerate(described):
        entry = {"name": first["name"], "layer": first["layer"], "dims": first["dims"]}
        for side in sides:
            entry[side] = _summary([t for round_times in times[side][i] for t in round_times])
        # The two sides time a case back to back within a round, so the
        # per-round ratio of their medians cancels drift between rounds.
        ratios = [statistics.median(a) / statistics.median(b) for a, b in zip(times["after"][i], times["before"][i])]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        low, high = (round(r, 3) for r in paired_ratio_interval(ratios, rank))
        entry["paired_ratio_median"] = round(median, 3)
        entry["paired_ratio_quartiles"] = [round(q1, 3), round(q3, 3)]
        entry["paired_ratio_interval"] = [low, high]
        entry["reads"] = "no change" if low <= 1.0 <= high else ("faster" if high < 1.0 else "slower")
        cases.append(entry)
    widths = [high - low for low, high in (c["paired_ratio_interval"] for c in cases)]
    doc = {
        "tool": "tools/layer_timings.py",
        "method": (f"{ROUNDS} rounds, each with one fresh interpreter per side that builds the cases "
                   "once; per case each side makes one warm-up call, then the sides take turns call by "
                   "call (ABBA...), the first side switching with each case and round, and time a case "
                   f"{REPEATS} times ({LARGE_REPEATS} at 9 qubits and on "
                   f"Shor's code, {CLI_REPEATS} for the cli subprocess cases) with time.perf_counter; "
                   "medians and interquartile ranges over all rounds, in ms; paired_ratio_median (the headline) "
                   "and paired_ratio_quartiles are the median and quartiles over rounds of the "
                   "after/before ratio of the two sides' per-round medians; paired_ratio_interval "
                   f"is the sign test's interval of that median, the k-th smallest and largest of "
                   f"the {ROUNDS} per-round ratios with k = {rank}, at level >= 1 - {FAMILY_ALPHA}/{len(cases)} "
                   f"(Bonferroni over the {len(cases)} cases, so an A/A run reads any case as a "
                   f"change with probability <= {FAMILY_ALPHA}), and a case whose interval contains "
                   "1 reads \"no change\""),
        "interval_level": round(level, 6),
        "machine": machine_note(),
        "median_interval_width": round(statistics.median(widths), 3),
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for c in cases:
        low, high = c["paired_ratio_interval"]
        print(f"{c['name']:34s} {json.dumps(c['dims']):70s} {c['before']['median_ms']:9.3f} -> "
              f"{c['after']['median_ms']:9.3f} ms  x{c['paired_ratio_median']} [{low}, {high}] {c['reads']}")
    print(f"interval level {doc['interval_level']}, median interval width {doc['median_interval_width']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
