"""Small numeric helpers shared by the geometry and measure modules."""

import itertools
import math

import numpy as np

from .errors import SingularMatrix

UNIT_TOL = 1e-12
MATCH_TOL = 1e-9


def normalized(v, tol=UNIT_TOL):
    """Return v / |v|; raises ValueError on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < tol:
        raise ValueError("cannot normalize a vector of norm %g" % n)
    return v / n


_REALS = (int, float, np.integer, np.floating)   # bool is an int: excluded


def is_number(value):
    """Whether value is a finite real number; a boolean is not one."""
    return (isinstance(value, _REALS) and not isinstance(value, bool)
            and math.isfinite(value))


def is_integer(value):
    """Whether value is an integer; a boolean is not one."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def all_integers(values):
    """Whether every value is an integer (see is_integer)."""
    return all(type(v) is int or is_integer(v) for v in values)


def numeric_array(value, shape):
    """value as a float array of the given shape, where None matches any
    length; None when it is ragged, of another shape or holds anything but
    finite numbers (a string, a boolean, NaN or an infinity)."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if a.ndim != len(shape) or not all(
            want in (None, n) for n, want in zip(a.shape, shape)):
        return None
    leaves = value
    for _ in range(a.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    # a leaf of a real type converts to a finite float iff it is finite
    if not all(issubclass(t, _REALS) and t is not bool
               for t in set(map(type, leaves))):
        return None
    return a if np.isfinite(a).all() else None


def row_norms(stack):
    """Euclidean norms along the last axis of a C-contiguous stack: bit for
    bit those of np.linalg.norm on each row alone."""
    return np.sqrt(np.vecdot(stack, stack))


def projective_gaps(points, mats, mates):
    """Distances up to sign from unit rows mates to the rows points mapped
    by mats (broadcast over leading axes) and normalized."""
    mapped = np.matmul(points, np.swapaxes(mats, -1, -2))
    mapped /= row_norms(mapped)[..., None]
    return np.minimum(row_norms(mapped - mates), row_norms(mapped + mates))


def points_projectively_equal(x, y, tol=MATCH_TOL):
    """Whether two unit vectors agree up to sign within tol."""
    return min(np.linalg.norm(x - y), np.linalg.norm(x + y)) <= tol


def canonical_matrix(m):
    """Scale a matrix to Frobenius norm 1 with its largest entry positive.

    Deterministic representative for storage; sign choice can differ
    between float-perturbed copies of projectively equal matrices (when
    entry magnitudes tie), so equality testing must try both signs, as
    matrices_projectively_equal and a projective PointIndex do.
    """
    flat = scaled_flat(m)
    if flat[np.argmax(np.abs(flat))] < 0:
        flat = -flat
    return flat.reshape(np.shape(m))


def scaled_flat(m):
    """Matrix flattened and scaled to unit Frobenius norm (sign kept)."""
    flat = np.asarray(m, dtype=float).ravel()
    norm = np.linalg.norm(flat)
    if norm == 0.0:
        raise SingularMatrix("zero matrix")
    return flat / norm


def matrices_projectively_equal(a, b, tol=MATCH_TOL):
    return points_projectively_equal(scaled_flat(a), scaled_flat(b), tol)


class PointIndex:
    """Rows hashed by grid cell, so that a match within tol costs O(1).

    find(x) answers as a linear scan would: the index of the nearest stored
    row p with |p - x| <= tol (or |p + x|, when projective), the lowest on
    ties, or None.  A row p is filed under the cells floor(p / w + 1/2) of
    its coordinates (and of -p's, when projective), w being 2^-16 or the
    power of two at or below 64 tol if wider; a lookup probes each cell that
    the box of half-width tol around x meets (README, "Projective matching").
    """

    def __init__(self, tol=MATCH_TOL, projective=True):
        self.tol = tol
        self.rows = []
        self._cells = {}
        self._signs = np.array([[1.0], [-1.0]] if projective else [[1.0]])
        self._scale = 2.0 ** -math.floor(math.log2(max(64.0 * tol, 2 ** -16)))
        # a hair over tol, so that rounding in a distance hides no match
        self._reach = tol * (1.0 + 2.0 ** -20)

    def add(self, row):
        """Store a 1-D row (and -row, when projective); returns its index."""
        row = np.asarray(row, dtype=float)
        for q in (self._signs * row).tolist():
            key = tuple(math.floor(c * self._scale + 0.5) for c in q)
            self._cells.setdefault(key, []).append(len(self.rows))
        self.rows.append(row)
        return len(self.rows) - 1

    def find(self, x):
        """Index of the nearest stored row within tol, or None."""
        x = np.asarray(x, dtype=float)
        scale, reach, hits = self._scale, self._reach, set()
        spans = [range(math.floor((c - reach) * scale + 0.5),
                       math.floor((c + reach) * scale + 0.5) + 1)
                 for c in x.tolist()]
        for cell in itertools.product(*spans):
            hits.update(self._cells.get(cell, ()))
        if not hits:
            return None
        hits = sorted(hits)
        # the distances np.linalg.norm(rows - x, axis=1) of a linear scan
        diff = (np.array([self.rows[i] for i in hits])
                - (self._signs * x)[:, None])
        dist = np.sqrt(np.add.reduce(diff * diff, axis=2)).min(axis=0)
        best = dist.argmin()
        return hits[best] if dist[best] <= self.tol else None

    def insert(self, row):
        """Index of the stored row matching row; stores row if none does."""
        i = self.find(row)
        return self.add(row) if i is None else i


def projective_closure(seeds, steps, row, depth=None, limit=None):
    """Breadth-first closure of seeds under steps, up to projective equality.

    Two items are equal when their rows row(item) agree up to sign within
    MATCH_TOL.  Returns the distinct items in discovery order: level after
    level, each level in (item, step) order.  Stops after depth levels, or
    once more than limit items are found, so a longer result overflowed.
    """
    index, items = PointIndex(), []
    candidates, level = list(seeds), 0
    while candidates:
        frontier = []
        for item in candidates:
            if index.insert(row(item)) == len(items):   # a new item
                items.append(item)
                frontier.append(item)
                if limit is not None and len(items) > limit:
                    return items
        if level == depth:
            break
        level += 1
        candidates = [step(item) for item in frontier for step in steps]
    return items


def derive_seed(seed, *key):
    """Derive a 64-bit sub-seed from (seed, key), stable across platforms."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])

