"""Small numeric helpers shared by the geometry and measure modules."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

UNIT_TOL = 1e-12
MATCH_TOL = 1e-9


def normalized(v, tol=UNIT_TOL):
    """Return v / |v|; raises ValueError on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < tol:
        raise ValueError("cannot normalize a vector of norm %g" % n)
    return v / n


def projective_distance(x, y):
    """Distance between two unit vectors taken up to sign."""
    return min(np.linalg.norm(x - y), np.linalg.norm(x + y))


def points_projectively_equal(x, y, tol=MATCH_TOL):
    """Whether two unit vectors agree up to sign within tol."""
    return projective_distance(x, y) <= tol


def canonical_matrix(m):
    """Scale a matrix to Frobenius norm 1 with its largest entry positive.

    Deterministic representative for storage; sign choice can differ
    between float-perturbed copies of projectively equal matrices (when
    entry magnitudes tie), so equality testing must use
    matrices_projectively_equal, which tries both signs.
    """
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m)
    if norm == 0.0:
        raise ValueError("zero matrix")
    m = m / norm
    flat = m.ravel()
    lead = flat[np.argmax(np.abs(flat))]
    if lead < 0:
        m = -m
    return m


def scaled_flat(m):
    """Matrix flattened and scaled to unit Frobenius norm (sign kept)."""
    flat = np.asarray(m, dtype=float).ravel()
    norm = np.linalg.norm(flat)
    if norm == 0.0:
        raise ValueError("zero matrix")
    return flat / norm


def matrices_projectively_equal(a, b, tol=MATCH_TOL):
    return points_projectively_equal(scaled_flat(a), scaled_flat(b), tol)


def derive_seed(seed, *key):
    """Derive a 64-bit sub-seed from (seed, key), stable across platforms."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def thread_count():
    """Worker cap from GBM_THREADS (default 1); never affects results."""
    raw = os.environ.get("GBM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


_worker = threading.local()


def ordered_map(fn, items):
    """Map fn over items, optionally on GBM_THREADS workers.

    Results are combined in input order, so the output is identical to the
    sequential map whatever the interleaving.  A call made from inside a
    worker runs sequentially, so GBM_THREADS=N never starts more than N
    threads.
    """
    items = list(items)
    workers = thread_count()
    if workers <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [fn(it) for it in items]

    def run(item):
        _worker.active = True
        return fn(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, items))
