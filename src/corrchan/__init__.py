"""Correlated non-Markovian quantum channels: construction, non-Markovianity
measures, freezing prediction and concatenated-code error correction.

The Kraus, Choi and transfer-matrix oracle of the closed forms is
`corrchan.oracle`; it is not imported here."""

from .errors import NumericError, ValidationError
from .noise import (NmadParams, NoiseParams, OunParams, RtnParams,
                    nmad_decoherence, nmad_gamma, nmad_p, noise_p, oun_p, rtn_p)
from .linalg import eig_hermitian, psd_sqrt, validate_density
from .channels import evolve, evolve_damping, evolve_dephasing
from .map_algebra import (correlated_oun_generator, correlated_oun_rates,
                          dephasing_generator, transfer_sampler)
from .measures import (MeasureResult, TimeSeries, VolumeTrace, blp_measure,
                       concurrence, nm_concurrence_measure, positive_variation,
                       probe_state, random_bell_probes, sss_measure,
                       trace_distance, volume_trace)
from .freezing import (BlochDiagonal, FreezingVerdict, bloch_diagonal_state,
                       bloch_update, freezing_predicate, state_to_bloch_diagonal)
from .qec import (ALL_ERROR_STRINGS, CORRECTABLE_ERRORS, UNDETECTABLE_ERRORS,
                  ErrorClassification, build_codewords, classify_errors,
                  error_probability, greedy_correctable_set, is_detectable,
                  success_probability_bruteforce, success_probability_closed,
                  success_vs_time, total_probability_mass)

__version__ = "0.1.0"
