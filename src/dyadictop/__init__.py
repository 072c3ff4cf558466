"""Exact dyadic subbases of symbolic subsets of the rational line.

Spaces are finite lists of interval, point and geometric-sequence
primitives; all set algebra, topology and subbase checks run in exact
rational arithmetic with decidable equality.
"""
from .checks import (CheckReport, check_dyadic, check_independent, check_proper,
                     degree_report, resolution_check)
from .coding import CodedPoint, decode_word, encode_point
from .construct import (BuildResult, ConstructionError, SeedEntry, SeedFamily,
                        StepTrace, auto_seeds, build_independent_subbase,
                        build_proper_subbase, extend_to_proper,
                        scattered_clopen_base)
from .lemmas import (LemmaError, SubspaceError, check_half_clopen,
                     check_separation, cluster_set, half_clopen_extension,
                     separate_open_pair)
from .rational import (RationalFormatError, exact_log2, format_rational,
                       parse_rational)
from .sets import (AmbientMismatchError, RegularParts, SetError, Span,
                   SymbolicSet, TailRule, embed, kernel_set, regular_ops,
                   restrict)
from .space import (GeometricSequence, Interval, IsolatedPoint, KernelReport,
                    Space, SpaceError, cb_kernel, scatter_clusters)
from .subbase import (DyadicSubbase, NotRegularOpenError, SubbaseError,
                      load_subbase, make_pair)
from .words import BOTTOM, TernaryWord, WordError

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError", "BOTTOM", "BuildResult", "CheckReport",
    "CodedPoint", "ConstructionError", "DyadicSubbase", "GeometricSequence",
    "Interval", "IsolatedPoint", "KernelReport", "LemmaError",
    "NotRegularOpenError", "RationalFormatError", "RegularParts", "SeedEntry",
    "SeedFamily", "SetError", "Space", "SpaceError", "Span", "StepTrace",
    "SubbaseError", "SubspaceError", "SymbolicSet", "TailRule", "TernaryWord",
    "WordError", "auto_seeds", "build_independent_subbase",
    "build_proper_subbase", "cb_kernel", "check_dyadic", "check_half_clopen",
    "check_independent", "check_proper", "check_separation", "cluster_set",
    "decode_word", "degree_report", "embed", "encode_point",
    "exact_log2", "extend_to_proper", "format_rational",
    "half_clopen_extension", "kernel_set", "load_subbase",
    "make_pair", "parse_rational", "regular_ops", "resolution_check",
    "restrict", "scatter_clusters", "scattered_clopen_base",
    "separate_open_pair",
]
