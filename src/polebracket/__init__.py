"""Exact bracket-polynomial invariants of twisted and virtual links.

A twisted Gauss code describes a link diagram on an abstract band surface;
splice states on the closed realization carry pole words whose reduced
index, together with orientability and essentiality data, assembles into
the surface pole bracket, the double bracket in Z[A, M, d_1, ...], and the
normalized invariant R.
"""

from .brackets import (
    BracketValue,
    double_bracket,
    normalized,
    specialize_bracket,
    surface_pole_bracket,
)
from .codes import (
    BAR,
    Bar,
    CodeError,
    TwistedGaussCode,
    Visit,
    make_code,
    parse_code,
    random_diagram,
    serialize,
    writhe,
)
from .laurent import MultiLaurent, delta, minus_A_pow
from .moves import (
    MoveError,
    MoveSpec,
    apply_move,
    insert_sites,
    r1_delete_sites,
    r2_delete_sites,
    r3_sites,
    t1_delete_sites,
    t3_sites,
)
from .oracle import classical_kauffman_oracle
from .polewords import index, make_word
from .states import (
    PoleCurve,
    PoleState,
    check_nonseparation,
    check_pole_balance,
    classify_state,
    enumerate_states,
    splice_curves,
    state_report,
)
from .surfaces import (
    ClosedSurface,
    EmbeddedCurve,
    RibbonComplex,
    build_ribbon,
    realize,
)
from .verify import braid_closure, classical_fixtures, corpus_classical, corpus_twisted

__all__ = [
    "BAR",
    "Bar",
    "BracketValue",
    "ClosedSurface",
    "CodeError",
    "EmbeddedCurve",
    "MoveError",
    "MoveSpec",
    "MultiLaurent",
    "PoleCurve",
    "PoleState",
    "RibbonComplex",
    "TwistedGaussCode",
    "Visit",
    "apply_move",
    "braid_closure",
    "build_ribbon",
    "check_nonseparation",
    "check_pole_balance",
    "classical_fixtures",
    "classical_kauffman_oracle",
    "classify_state",
    "corpus_classical",
    "corpus_twisted",
    "delta",
    "double_bracket",
    "enumerate_states",
    "index",
    "insert_sites",
    "make_code",
    "make_word",
    "minus_A_pow",
    "normalized",
    "parse_code",
    "r1_delete_sites",
    "r2_delete_sites",
    "r3_sites",
    "random_diagram",
    "realize",
    "serialize",
    "specialize_bracket",
    "splice_curves",
    "state_report",
    "surface_pole_bracket",
    "t1_delete_sites",
    "t3_sites",
    "writhe",
]
