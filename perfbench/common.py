"""Shared pieces of the benchmark: the job record, seeded input builders and
the independent oracle helpers.

Nothing here calls into ``uuqc``.  Inputs are built with plain ``numpy`` so
the library only ever sees generated data, and the oracle helpers compute
known answers by routes that share no code with the library.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Job:
    """One unit of work in a workload's stream.

    ``run`` makes the library calls and returns their outputs; only ``run``
    is timed.  ``check`` compares those outputs with the answer known by
    construction and returns the failure causes (empty when correct).
    ``stats`` collects per-job observations the traced run aggregates.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    stats: dict = field(default_factory=dict)


class Reference:
    """A fixed computation timed between jobs, to measure the host's speed.

    Its inputs come from a fixed seed, not the run's, so every run on every
    commit times the same work.  Half of it is a 160 x 160 complex matrix
    product (BLAS-bound, like ``choi_state``), half small ``numpy`` calls on
    6 x 6 matrices (interpreter-bound, like most jobs).  On a shared host
    the speed of both kinds of work drifts together by tens of percent over
    seconds to minutes; dividing a job's latency by the reference time
    measured around it removes most of that drift.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rand_complex(rng, (160, 160)) / 160
        self.small = [rand_complex(rng, (6, 6)) for _ in range(40)]
        for _ in range(3):
            self.run()

    def run(self):
        x = self.big
        for _ in range(4):
            x = self.big @ x
        for s in self.small:
            np.linalg.svd(s)
            np.kron(s, s[:2, :2]).sum()
        return x

    def time(self) -> float:
        """Seconds one pass of the computation takes now."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def rand_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_complex(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_split(rng, total: float, k: int) -> np.ndarray:
    """``k`` positive parts summing to ``total``, none below a fifth of the mean."""
    w = 0.2 + rng.uniform(size=k)
    return total * w / w.sum()


def scaled(rng, shape, norm2: float) -> np.ndarray:
    """Random complex matrix with squared Frobenius norm ``norm2``."""
    m = rand_complex(rng, shape)
    return m * np.sqrt(norm2) / np.linalg.norm(m)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between two matrices minimised over a global phase."""
    overlap = abs(np.vdot(a, b))
    return float(np.sqrt(max(0.0, np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2 - 2 * overlap)))


def close(got, want, tol: float) -> bool:
    return abs(float(got) - float(want)) <= tol


def tail_minimum(squares, d: int) -> float:
    """``min over l < d of sum(squares[l:]) / (d - l)`` for squared Schmidt
    weights sorted descending; zero when fewer than ``d`` are positive.

    For a normalised spectrum, ``d`` times this is the optimal probability of
    distilling the rank-``d`` uniformly entangled ket (Vidal 1999); for the
    unnormalised spectrum of a pure Choi state it is the exact correction
    probability."""
    s = np.sort(np.asarray(squares, dtype=float))[::-1]
    if np.count_nonzero(s > 1e-12) < d:
        return 0.0
    return float(min(s[cut:].sum() / (d - cut) for cut in range(d)))


def stacked_gram_max(elements) -> float:
    """Largest eigenvalue of ``sum_k E_k^dag E_k`` via the spectral norm of the
    vertically stacked elements, a route the library does not take."""
    return float(np.linalg.norm(np.vstack(elements), 2) ** 2)


def choi_oracle(elements) -> np.ndarray:
    """Unnormalised Choi state from stacked ``vec`` columns: ``V V^dag / n``."""
    n = elements[0].shape[1]
    vecs = np.stack([e.T.reshape(-1) for e in elements], axis=1)
    return vecs @ vecs.conj().T / n


def matrix_doc(m) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    flat = m.reshape(-1)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def channel_doc(elements) -> dict:
    return {
        "in_dim": elements[0].shape[1],
        "out_dim": elements[0].shape[0],
        "elements": [matrix_doc(e) for e in elements],
    }


def code_doc(encoder) -> dict:
    return {"logical_dim": encoder.shape[1], "encoder": matrix_doc(encoder)}


def write_doc(path: str, doc):
    """Write a JSON document laid out as the CLI's own reports are."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
