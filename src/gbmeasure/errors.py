"""Exception types raised across the package.

Every error carries a human-readable message; structured context (offending
atom, face identifier, ...) is attached as attributes where a caller or the
CLI needs it for diagnostics.
"""


class GBError(Exception):
    """Base class for all package errors."""


# geometry

class ZeroVector(GBError):
    """An input vector has norm below the representable tolerance."""


class DegenerateSimplex(GBError):
    """Simplex vertices are not in general position (|det| too small)."""


class SingularMatrix(GBError):
    """A projective map's matrix is not invertible."""


class DimensionMismatch(GBError):
    """Ambient dimensions of two objects do not agree."""


class DimensionTooLarge(GBError):
    """A simplex is too wide for the angle table of all its cut sets."""


# measures

class BoundaryAtom(GBError):
    """Measure mass sits exactly on a region's bounding hyperplane.

    Strict membership is undefined there; the configuration must be
    perturbed away instead of silently choosing a side.
    """

    def __init__(self, message, atom=None, normal=None, face=None):
        super().__init__(message)
        self.atom = atom
        self.normal = normal
        self.face = face


class NotAGroup(GBError):
    """An explicit matrix list is not closed under composition."""


class NonAtomicBase(GBError):
    """Group averaging needs an atomic base measure."""


class OrbitOverflow(GBError):
    """Orbit closure exceeded the configured maximum size."""

    def __init__(self, message, size=None):
        super().__init__(message)
        self.size = size


class UnsupportedMeasure(GBError):
    """The requested evaluation is not representable for this measure."""


class InsufficientSamples(GBError):
    """No Monte Carlo reading landed where a verdict reads its estimate."""


# triangulations

class SchemaError(GBError):
    """A manifold document violates the JSON schema or its invariants."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class NotAManifold(SchemaError):
    """Some codimension-1 face is not shared by exactly two top simplices."""


class DevelopingMismatch(SchemaError):
    """A supplied face pairing does not glue the developed images."""


class InconsistentDichotomy(GBError):
    """A certified positive chart mass coexists with Euler characteristic 0.

    This falsifies the run's invariance assumptions; re-check the measure
    with check_invariance.
    """


# circle pull-backs

class NotAdapted(GBError):
    """A covering arc is not injective under the covering map."""


class AtomOnBoundary(GBError):
    """An atom preimage coincides with an arc endpoint of the covering."""


class NotDeckInvariant(GBError):
    """The upstairs measure is not invariant under the deck rotation."""


class DuplicateAtom(GBError):
    """Two circle atoms coincide within tolerance."""
