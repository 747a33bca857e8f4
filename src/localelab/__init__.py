"""localelab: a finite-model workbench for pointfree topology.

Frames, frame homomorphisms and localic maps, sublocale coframes, interior
and h operators on them, points/spatiality, and a deterministic verification
harness over an exhaustive small-poset corpus.
"""

__version__ = "0.1.0"

from .corpus import (
    all_posets,
    chain3,
    chain4,
    child_seed,
    corpus_frames,
    corpus_posets,
    discrete_space,
    indiscrete_space,
    sierpinski,
    square,
    two,
)
from .dot import hasse_dot, sublocales_dot
from .errors import (
    BadConfig,
    DomainMismatch,
    EmptyFamily,
    HostMismatch,
    LocaleLabError,
    NoMeetOrJoin,
    NotAPoset,
    NotASpace,
    NotContinuous,
    NotDistributive,
    NotLocalic,
    SizeLimit,
    UnknownWitness,
)
from .hops import (
    HOperator,
    check_h,
    check_h_composition,
    check_h_universal,
    complemented_fragment,
    discrete_h,
    h_from_interior,
    initial_h,
    interior_from_h,
    is_h_continuous,
    random_h,
    trivial_h,
)
from .interior import (
    InteriorOperator,
    check_composition,
    check_interior,
    check_open_preimage,
    check_universal_property,
    closure_dual,
    discrete_op,
    initial_interior,
    initial_lift,
    is_I_continuous,
    make_continuous_op,
    random_op,
    trivial_op,
)
from .lattice import (
    FiniteSpace,
    Frame,
    Poset,
    build_frame,
    downset_frame,
    frame_of_space,
    heyting,
    pseudocomplement,
)
from .maps import (
    ContinuousMap,
    FrameHom,
    LocalicMap,
    enumerate_frame_homs,
    localic_map,
    localic_maps,
    right_adjoint,
)
from .points import is_spatial, points_of, pt_space, sobrification, spatialization
from .sublocales import (
    SublocaleLattice,
    check_adjunction,
    enumerate_sublocales,
    is_sublocale,
    transfer_of,
)
from .verify import CorpusConfig, replay, run_verification

__all__ = [
    "__version__",
    "LocaleLabError", "NotAPoset", "NoMeetOrJoin", "NotDistributive", "NotASpace",
    "NotLocalic", "NotContinuous", "DomainMismatch", "HostMismatch",
    "EmptyFamily", "SizeLimit", "BadConfig", "UnknownWitness",
    "Poset", "Frame", "FiniteSpace", "build_frame", "heyting", "pseudocomplement",
    "downset_frame", "frame_of_space",
    "two", "chain3", "chain4", "square", "sierpinski", "discrete_space",
    "indiscrete_space", "all_posets", "corpus_posets", "corpus_frames", "child_seed",
    "FrameHom", "LocalicMap", "ContinuousMap", "localic_map", "right_adjoint",
    "enumerate_frame_homs", "localic_maps",
    "SublocaleLattice", "is_sublocale", "enumerate_sublocales", "check_adjunction",
    "transfer_of",
    "InteriorOperator", "check_interior", "discrete_op", "trivial_op", "random_op",
    "is_I_continuous", "check_composition", "initial_interior", "initial_lift", "closure_dual",
    "check_universal_property", "check_open_preimage", "make_continuous_op",
    "HOperator", "complemented_fragment", "check_h", "discrete_h", "trivial_h",
    "random_h", "h_from_interior", "interior_from_h", "is_h_continuous",
    "check_h_composition", "initial_h", "check_h_universal",
    "points_of", "pt_space", "spatialization", "is_spatial", "sobrification",
    "hasse_dot", "sublocales_dot",
    "CorpusConfig", "run_verification", "replay",
]
