"""Measure-theoretic angles on spheres, polyhedral Gauss-Bonnet sums for
triangulated projective manifolds, and holonomy-invariant measures.

The layers, bottom up:

- geom: half-space regions and spherical simplices as arrays of unit rows,
  and invertible matrices acting up to scale.
- measure: antipodally invariant measures of total mass 2 (uniform, atomic,
  subsphere-uniform, mixtures, restrictions, finite orbits), exact or Monte
  Carlo evaluation, group averaging and invariance checking.
- simplex: face angles of a spherical simplex and their alternating sum.
- triangulation: developed triangulations of projective manifolds, angle
  tables, vertex defects, the combinatorial/measure comparison of the Euler
  characteristic, transversality and dichotomy reports.
- pullback: exact pull-back and quotient constructions for atomic measures
  under circle covering maps.
- documents: built-in manifold documents (sphere, projective plane, torus,
  Klein bottle, circle) and the icosahedral rotation group.
"""

from .errors import (AtomOnBoundary, BoundaryAtom, DegenerateSimplex,
                     DevelopingMismatch, DimensionMismatch, DimensionTooLarge,
                     DuplicateAtom, GBError, InconsistentDichotomy,
                     InsufficientSamples, NonAtomicBase, NotAdapted, NotAGroup,
                     NotAManifold, NotDeckInvariant, OrbitOverflow,
                     SchemaError, SingularMatrix, UnsupportedMeasure,
                     ZeroVector)
from .geom import (ProjectiveMap, Region, SphericalSimplex, apply_map,
                   face_region, random_region, random_simplex,
                   simplex_from_vertices, whole_sphere)
from .measure import (AtomicMeasure, FiniteOrbitMeasure, MCConfig,
                      MeasureEstimate, MeasureSpec, Mixture,
                      RestrictedNormalized, RoundMeasure, SubsphereUniform,
                      average_over_group, check_invariance, derive_mc,
                      finite_orbit_measure, measure_from_spec)
from .simplex import angle, k_value, sgb_residual
from .triangulation import (GBReport, GeometricTriangulation, angle_table,
                            defect_sums, dichotomy_check, euler_combinatorial,
                            gb_report, incidence_angles, load,
                            transversality_check)
from .pullback import (AdaptedCovering, CircleAtomicMeasure, PowerMap,
                       covering_independence, equivariance_check,
                       induce_quotient, pullback)
from . import documents

__all__ = [name for name in dir() if not name.startswith("_")]
