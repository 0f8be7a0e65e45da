"""Exact toolkit for maximum pairwise-independent event families.

On the uniform sample space {1..n}, g(n) is the largest intersecting
family of events that are pairwise independent and f(n) = g(n) + 1 is
the largest pairwise-independent family outright.  This package computes
both by exhaustive clique search at small n, builds extremal witnesses
from Hadamard matrices and 2-designs, and certifies every family with an
exact integer Gram/rank certificate.

Each submodule runs on first use.  `import pifam` puts `setsys`,
`construct`, `exactlin`, `graphs` and `search` into `sys.modules` as
`importlib.util.LazyLoader` modules, so tools that walk `sys.modules`,
such as a span tracer, see every module; reading any attribute of one
runs it.  A `pifam` command thus compiles only what it uses: `family
verify` runs `cli` and `setsys`, `family gram` adds `exactlin`, the
`design`, `hadamard` and other `family` commands add `construct`, and
`gmax`, `johnson` and `conjecture` run all but `exactlin`.  Before
Python 3.13 the lazy loader takes no lock, so two threads that first
touch one submodule at the same moment could run it twice; the toolkit
itself is single-threaded.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "setsys": ("CapacityError", "CertificateError", "Event", "Family", "ParameterError",
               "PifamError", "SampleSpace", "family_from_dict", "family_to_dict",
               "is_independent", "is_pairwise_independent", "is_valid_g_family",
               "mask_to_points", "points_to_mask", "probability", "violations"),
    "construct": ("Design", "DesignCheck", "HadamardMatrix", "check_design",
                  "design_from_dict", "design_to_dict", "dualize_design", "hadamard_family",
                  "hadamard_from_json", "hadamard_from_text", "hadamard_matrix",
                  "hadamard_to_design", "hadamard_to_json", "hadamard_to_text", "paley1",
                  "paley_orders", "projective_plane", "sylvester", "sylvester_orders"),
    "exactlin": ("GramReport", "gram_certify"),
    "graphs": ("JohnsonGraphOracle", "PowerSetGraphOracle"),
    "search": ("CliqueResult", "SweepRow", "conjecture_sweep", "f_exact", "g_exact",
               "implied_f_bound", "johnson_omega", "max_clique"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(globals()[_MODULE_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
