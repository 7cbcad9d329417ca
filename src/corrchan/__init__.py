"""Correlated non-Markovian quantum channels: construction, non-Markovianity
measures, freezing prediction and concatenated-code error correction."""

from .errors import NumericError, ValidationError
from .noise import (NmadParams, NoiseParams, OunParams, RtnParams,
                    nmad_decoherence, nmad_gamma, nmad_p, noise_p, oun_p, rtn_p)
from .linalg import eig_hermitian, psd_sqrt, validate_density
from .channels import (CptpReport, JointProbTable, KrausSet, apply,
                       apply_matrix, channel_at_time, completeness_residual,
                       correlated_dephasing_channel, correlated_nmad_channel,
                       cptp_report, dephasing_weights,
                       fully_correlated_nmad_channel, joint_prob_table,
                       single_qubit_dephasing, uncorrelated_nmad_channel)
from .map_algebra import (OperatorBasis, choi, computational_basis,
                          correlated_oun_generator, correlated_oun_rates,
                          dephasing_generator, generator, kraus_from_choi,
                          pauli_basis, transfer_matrix, transfer_sampler)
from .measures import (MeasureResult, TimeSeries, VolumeTrace, blp_measure,
                       concurrence, nm_concurrence_measure, positive_variation,
                       probe_state, random_bell_probes, sss_measure,
                       trace_distance, volume_trace)
from .freezing import (BlochDiagonal, FreezingVerdict, bloch_diagonal_state,
                       bloch_update, evolve_fcorr_nmad_closed_form,
                       evolve_unital_closed_form, freezing_predicate,
                       state_to_bloch_diagonal)
from .qec import (ALL_ERROR_STRINGS, CORRECTABLE_ERRORS, UNDETECTABLE_ERRORS,
                  ErrorClassification, build_codewords, classify_errors,
                  error_probability, error_probability_conditional,
                  greedy_correctable_set, is_detectable,
                  success_probability_bruteforce, success_probability_closed,
                  success_vs_time, total_probability_mass)

__version__ = "0.1.0"
