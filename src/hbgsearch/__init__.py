"""Search and verification engine for girth-constrained trivalent Hamiltonian
bipartite graphs with prescribed rotational symmetry."""

from .catalog import (
    BoundsInput,
    BoundsRow,
    CatalogEntry,
    ParseError,
    ResumeState,
    VerificationReport,
    bounds_table,
    lower_bound_order,
    moore_floor,
    non_existence_report,
    parse_witness,
    serialize_witness,
    verify_witness,
)
from .girth import GirthResult, girth_oracle, has_girth_at_least
from .pattern import (
    DegenerateChordError,
    DivisibilityError,
    ExpandedGraph,
    LengthError,
    MatchingError,
    OffsetPattern,
    ParityError,
    PatternError,
    RangeError,
    canonical_form,
    derived_symmetry_factors,
    expand,
    expansion_defects,
    validate_pattern,
)
from .render import RenderStyle, render_svg
from .search import (
    ExhaustionCertificate,
    OrderOutcome,
    SearchOutcome,
    SearchSpec,
    WitnessRecord,
    enumerate_order,
    merge_certificates,
    min_order,
    partition,
)

__version__ = "0.1.0"
