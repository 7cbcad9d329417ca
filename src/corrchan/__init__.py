"""Correlated non-Markovian quantum channels: construction, non-Markovianity
measures, freezing prediction and concatenated-code error correction.

The Kraus, Choi, transfer-matrix and 16 x 16 generator oracle of the closed
forms is `corrchan.oracle`; it is not imported here."""

from .errors import NumericError, ValidationError
from .noise import (NmadParams, NoiseParams, OunParams, RtnParams,
                    nmad_decoherence, nmad_gamma, nmad_p, noise_p, oun_p, rtn_p)
from .linalg import validate_density
from .channels import evolve, evolve_damping, evolve_dephasing
from .map_algebra import accessible_volume, correlated_oun_rates
from .measures import (blp_measure, concurrence, nm_concurrence_measure,
                       positive_variation, probe_state, random_bell_probes,
                       sss_measure, trace_distance)
from .freezing import BlochDiagonal, FreezingVerdict, freezing_predicate
from .qec import (ALL_ERROR_STRINGS, CORRECTABLE_ERRORS, UNDETECTABLE_ERRORS,
                  ErrorClassification, classify_errors, is_detectable,
                  success_probability_bruteforce,
                  success_probability_closed, success_vs_time,
                  total_probability_mass)

__version__ = "0.1.0"
