"""sheet-atlas: exact invariants of sheets in classical Lie algebras,
their slices and residual symmetry groups, spectral-data composition maps,
base dimension calculus, orbit-method multiplicities, and real-form sheet
identification."""

from .partitions import MultiplicityProfile, Partition, conjugate, is_valid_orbit_partition, partitions_of, profile
from .scalars import RatPoly
from .spectral import GradedPolynomial, SheetBasePoint, in_heart, min_poly, mu_s, sp4_dix_image
from .liealg import (
    ClassicalForm,
    LieAlgebraModel,
    RationalMatrix,
    bracket,
    build_model,
    centralizer_dim,
    char_poly,
    in_algebra,
    so_gram,
    sp_gram,
)
from .sheets import (
    F4,
    GroupKind,
    Levi,
    MaxLevi,
    SheetDescriptor,
    enumerate_sheets_gln,
    f4_b3_sheet,
    maximal_levi_sheet,
    sheets_sp4,
    type_a,
    type_b,
    type_c,
    type_d,
)
from .triples import Sl2Triple, build_bcd_triple, build_gl_triple, sp4_flip_action, sp4_slice
from .hitchin import component_count, dim_hitchin_base, h0_canonical_power, s_cameral_degree
from .multiplicity import SlicePoint, inertia_order, orbit_method_multiplicity, polarisation_orbit_count
from .realforms import SU, SOStar, abelianized_fiber_dim_is_positive, sheet_of_real_form, toledo_max

__version__ = "0.1.0"
