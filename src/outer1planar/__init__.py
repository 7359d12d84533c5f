"""Structure and list 3-dynamic coloring of outer-1-planar drawings."""

from .catalog import (
    CatalogError,
    ConfigPattern,
    Match,
    VertexRole,
    contains,
    find_matches,
    get_pattern,
    load_catalog,
)
from .coloring import (
    Coloring,
    ExtensionFailure,
    ListAssignment,
    ListTooSmall,
    Verdict,
    Violation,
    color_list_3_dynamic,
    extend_step,
    parse_lists,
    uniform_lists,
    verify_dynamic,
)
from .drawing import (
    AbstractGraph,
    Drawing,
    DrawingError,
    DrawingFormatError,
    InvalidDrawingError,
    delete_vertices,
    emit_drawing,
    parse_drawing,
)
from .generators import cycle, h_family, random_outer_1_planar, sharp_example
from .oracle import (
    SizeLimitExceeded,
    chromatic_r_dynamic,
    enumerate_drawings_deduped,
    has_r_dynamic_k_coloring,
    is_maximal,
    is_outer_1_planar,
    solve_list_r_dynamic,
)
from .structure import (
    LightEdge,
    ReductionStep,
    StructureNotFound,
    check_d1,
    find_light_edge,
    find_reduction,
    find_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
