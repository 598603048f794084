"""Pull-back and quotient constructions for atomic measures on the circle.

A covering adapted to a local homeomorphism f is a finite list of open arcs
covering the circle, each mapped injectively.  Disjointifying the arcs in
list order (each arc minus its predecessors) partitions the circle, and the
pull-back of a measure assigns a set A the sum over pieces of the
downstream measure of f(A intersect piece).  For atomic measures this is
realized exactly: every preimage of a downstream atom lies in exactly one
piece and carries the downstream atom's full weight.

Everything here is exact: no tolerance enters beyond the 1e-12 at which two
angles, matched as unit vectors (cos, sin) in a PointIndex, count as one.
It rejects duplicate atoms and atoms on arc endpoints, where the half-open
disjointification convention would otherwise decide the answer silently.
"""

import math
from dataclasses import dataclass

from .errors import (AtomOnBoundary, DuplicateAtom, NotAdapted,
                     NotDeckInvariant)
from ._util import PointIndex

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-12
COVERING_OFFSET = 0.123456789


def _mod(theta):
    return theta % TWO_PI


def circle_distance(a, b):
    d = _mod(a - b)
    return min(d, TWO_PI - d)


def _unit(theta):
    return (math.cos(theta), math.sin(theta))


def _angle_index(angles):
    """A PointIndex of the angles as unit vectors, matching at ANGLE_TOL."""
    index = PointIndex(ANGLE_TOL, projective=False)
    for theta in angles:
        index.add(_unit(theta))
    return index


class PowerMap:
    """theta -> k * theta (mod 2 pi) for a nonzero integer k."""

    def __init__(self, k):
        k = int(k)
        if k == 0:
            raise ValueError("power map degree must be a nonzero integer")
        self._k = k

    @property
    def degree(self):
        return self._k

    def value(self, theta):
        return _mod(self._k * theta)

    def preimages(self, theta):
        k = abs(self._k)
        return [_mod((theta + TWO_PI * j) / self._k) for j in range(k)]

    def arc_injective(self, length):
        """Whether every open arc of this length maps injectively."""
        return length <= TWO_PI / abs(self._k)

    def __repr__(self):
        return "PowerMap(%d)" % self._k


@dataclass(frozen=True)
class Arc:
    """Open arc (start, start + length), angles mod 2 pi."""
    start: float
    length: float

    def contains(self, theta):
        return 0.0 < _mod(theta - self.start) < self.length


class AdaptedCovering:
    """A finite list of open arcs covering the circle.

    Order matters: piece k of the disjointification is arc k minus the
    earlier arcs, so the first arc containing a point owns it.
    """

    def __init__(self, arcs):
        self.arcs = tuple(Arc(_mod(s), float(l)) for s, l in arcs)
        if not self.arcs:
            raise NotAdapted("empty covering")
        for a in self.arcs:
            if not 0.0 < a.length < TWO_PI:
                raise NotAdapted("arc length %g outside (0, 2 pi)" % a.length)
        if not self._covers_circle():
            raise NotAdapted("arcs do not cover the circle")

    def _covers_circle(self):
        intervals = []
        for a in self.arcs:
            intervals.append((a.start, a.start + a.length))
            intervals.append((a.start + TWO_PI, a.start + a.length + TWO_PI))
        intervals.sort()
        # greedy open cover of the closed band [2 pi, 4 pi]
        reach = TWO_PI
        idx = 0
        while reach < 2 * TWO_PI:
            best = reach
            while idx < len(intervals) and intervals[idx][0] < reach:
                best = max(best, intervals[idx][1])
                idx += 1
            if best <= reach:
                return False
            reach = best
        return True

    def check_adapted(self, f):
        for i, a in enumerate(self.arcs):
            if not f.arc_injective(a.length):
                raise NotAdapted(
                    "arc %d of length %g is not injective under %r"
                    % (i, a.length, f))

    def piece_of(self, theta):
        """Index of the disjointified piece containing theta."""
        for i, a in enumerate(self.arcs):
            if a.contains(theta):
                return i
        raise NotAdapted("point %g not covered (covering invariant broken)"
                         % theta)

    def __repr__(self):
        return "AdaptedCovering(%d arcs)" % len(self.arcs)


def default_covering(f):
    """A generic adapted covering for a map: overlapping equal arcs.  The
    first starts at COVERING_OFFSET, an irrational-looking value that keeps
    arc endpoints away from atoms at rational multiples of pi."""
    k = max(1, abs(f.degree))
    count = 2 * k + 1
    length = 0.9 * TWO_PI / k
    return AdaptedCovering([(COVERING_OFFSET + TWO_PI * j / count, length)
                            for j in range(count)])


class CircleAtomicMeasure:
    """Finitely many weighted atoms on the circle, angles reduced mod 2 pi
    and sorted; two atoms within 1e-12 are a DuplicateAtom."""

    def __init__(self, atoms):
        pairs = sorted((_mod(a), float(w)) for a, w in atoms)
        if any(w <= 0.0 for _, w in pairs):
            raise ValueError("atom weights must be positive")
        self._index = _angle_index([])
        for n, (a, _) in enumerate(pairs):
            i = self._index.insert(_unit(a))
            if i < n:
                raise DuplicateAtom("atoms at %g and %g coincide"
                                    % (pairs[i][0], a))
        self.atoms = tuple(pairs)

    @property
    def total_mass(self):
        return math.fsum(w for _, w in self.atoms)

    def rotated(self, delta):
        return CircleAtomicMeasure([(a + delta, w) for a, w in self.atoms])

    def same_as(self, other):
        """Exact equality of atom sets: each atom matches a distinct atom of
        other within 1e-12, and their weights are ==."""
        hits = [other._index.find(_unit(a)) for a, _ in self.atoms]
        if None in hits or sorted(hits) != list(range(len(other.atoms))):
            return False
        return [other.atoms[i][1] for i in hits] == [w for _, w in self.atoms]

    def __repr__(self):
        return "CircleAtomicMeasure(%d atoms, mass %.6g)" % (len(self.atoms),
                                                             self.total_mass)


def pullback(f, lam, covering):
    """Pull a downstream atomic measure back through a local homeomorphism.

    The result has one atom at every f-preimage of every downstream atom,
    carrying the downstream weight: each preimage lies in exactly one
    disjointified piece of the covering.  Raises NotAdapted if some arc is
    not injective under f, AtomOnBoundary if a preimage lands within 1e-12
    of an arc endpoint.
    """
    covering.check_adapted(f)
    ends = _angle_index(end for arc in covering.arcs
                        for end in (arc.start, arc.start + arc.length))
    out = []
    for a, w in lam.atoms:
        for p in f.preimages(a):
            if ends.find(_unit(p)) is not None:
                raise AtomOnBoundary(
                    "preimage %g of atom %g lies on a covering arc endpoint"
                    % (p, a))
            out.append((p, w))
    return CircleAtomicMeasure(out)


@dataclass(frozen=True)
class ComparisonReport:
    passed: bool
    detail: str


def covering_independence(f, lam, covering_a, covering_b):
    """Pull back through two adapted coverings and compare exactly."""
    pa = pullback(f, lam, covering_a)
    pb = pullback(f, lam, covering_b)
    ok = pa.same_as(pb)
    return ComparisonReport(ok, "identical atom sets" if ok
                            else "pull-backs differ between coverings")


def equivariance_check(f, lam, covering=None):
    """Check the pulled-back measure is invariant under the deck rotation.

    For a degree-k power map the deck group is generated by rotation by
    2 pi / |k|; the downstream measure is automatically fixed since the
    rotation covers the identity.
    """
    covering = covering or default_covering(f)
    up = pullback(f, lam, covering)
    delta = TWO_PI / abs(f.degree)
    ok = up.same_as(up.rotated(delta))
    return ComparisonReport(ok, "deck rotation by %g preserves the pull-back"
                            % delta if ok else "deck rotation changes atoms")


def induce_quotient(p, lam_up):
    """Descend a deck-invariant measure through a power covering map.

    Returns the downstream measure with one atom per deck orbit, placed at
    the common image angle with the weight of one orbit representative; the
    round trip pullback(p, result, any adapted covering) reproduces the
    input exactly.  Raises NotDeckInvariant when the input is not invariant
    under rotation by 2 pi / |k|.
    """
    k = abs(p.degree)
    delta = TWO_PI / k
    if not lam_up.same_as(lam_up.rotated(delta)):
        raise NotDeckInvariant(
            "measure is not invariant under rotation by 2 pi / %d" % k)
    seen, out = set(), []
    for i, (a, w) in enumerate(lam_up.atoms):
        if i in seen:
            continue
        orbit = {lam_up._index.find(_unit(a + j * delta)) for j in range(k)}
        if None in orbit or orbit & seen:
            raise NotDeckInvariant("incomplete deck orbit through %g" % a)
        seen |= orbit
        out.append((p.value(a), w))
    return CircleAtomicMeasure(out)
