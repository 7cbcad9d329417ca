"""Correlated non-Markovian quantum channels: construction, non-Markovianity
measures, freezing prediction and concatenated-code error correction.

The exports below resolve lazily (PEP 562): `import corrchan` loads none of
the modules, and `corrchan.evolve` or `from corrchan import evolve` imports
the module that defines the name on first use, so a name of a pure-Python
module (`params`, `freezing`, `words`, `errors`) loads no numpy. A name is read
from its module on every access, never copied here.

The Kraus, Choi, transfer-matrix and 16 x 16 generator oracle of the closed
forms is `corrchan.oracle`; it is not among the exports."""

import importlib

_EXPORTS = {
    "errors": ("NumericError", "ValidationError"),
    "params": ("NmadParams", "NoiseParams", "OunParams", "RtnParams"),
    "noise": ("nmad_decoherence", "nmad_gamma", "nmad_p", "noise_p", "oun_p", "rtn_p"),
    "linalg": ("validate_density",),
    "channels": ("evolve", "evolve_damping", "evolve_dephasing"),
    "map_algebra": ("accessible_volume", "correlated_oun_rates"),
    "measures": ("blp_measure", "concurrence", "nm_concurrence_measure", "positive_variation",
                 "probe_state", "random_bell_probes", "sss_measure", "trace_distance"),
    "freezing": ("BlochDiagonal", "FreezingVerdict", "freezing_predicate"),
    "words": ("ALL_ERROR_STRINGS", "CORRECTABLE_ERRORS", "UNDETECTABLE_ERRORS",
              "ErrorClassification", "classify_errors", "is_detectable"),
    "qec": ("success_probability_bruteforce", "success_probability_closed", "success_vs_time",
            "total_probability_mass"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
