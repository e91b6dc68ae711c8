"""Probability bounds and Monte Carlo verification for random gate-set
approximate unitary t-designs.

Imports are on demand (PEP 562): ``import gatedesign`` loads no submodule
and no numpy. A name below, or a submodule such as ``gatedesign.bounds``,
is imported on first access and then bound here, so a caller pays only for
the modules it uses. ``from gatedesign import *`` binds every name below and
the five modules that define them, so it loads them all.
"""
import importlib

#: submodule -> the names this package exports from it
_MODULES = {
    "bounds": (
        "BoundQuery",
        "BoundResult",
        "BoundUnavailableError",
        "GateSetKind",
        "Method",
        "concentration_bound_beamsplitter",
        "concentration_bound_lambda",
        "concentration_bound_t",
        "methods_for_kind",
        "per_label_bound",
        "total_bound",
    ),
    "montecarlo": (
        "GateSetSample",
        "HaarProjector",
        "MomentOperator",
        "PowerIterationError",
        "TailEstimate",
        "empirical_tail",
        "estimate_delta",
        "estimate_fs_indicator_mc",
        "sample_gate_set",
        "sample_haar",
    ),
    "repcore": (
        "BlockSpectrum",
        "block_spectrum",
        "enumerate_lambda_set",
        "fs_indicator",
        "gamma_coefficients",
        "sum_dimensions",
        "weight_multiplicity",
        "weyl_dimension",
        "zero_weight_multiplicity",
    ),
    "solver": (
        "MinSizeResult",
        "clifford_cardinality",
        "clifford_random_set_size",
        "clifford_random_set_size_exact",
        "min_size_closed_form",
        "min_size_search",
        "table2_cells",
    ),
    "specfun": ("log_bessel_i",),
}

#: exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

_SUBMODULES = frozenset(("cli", "kinds", *_MODULES))

__all__ = [*_MODULES, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
