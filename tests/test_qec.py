import itertools

import numpy as np
import pytest

from corrchan.errors import NumericError
from corrchan.noise import NmadParams, OunParams, RtnParams
from corrchan.qec import (ALL_ERROR_STRINGS, CORRECTABLE_ERRORS,
                          UNDETECTABLE_ERRORS, apply_word, build_codewords,
                          classify_errors, codeword_supports,
                          error_probability,
                          greedy_correctable_set, is_detectable,
                          success_probability_bruteforce,
                          success_probability_closed, success_vs_time,
                          total_probability_mass)

OUN = OunParams(G=1.0, g=0.05)
RTN = RtnParams(a=0.8, gamma=0.05)


# --------------------------------------------------------------------------
# Codewords
# --------------------------------------------------------------------------


def test_codewords_support_and_amplitudes():
    zero, one = build_codewords()
    amp = 1 / (2 * np.sqrt(2))
    for vec in (zero, one):
        nonzero = np.flatnonzero(np.abs(vec) > 1e-15)
        assert len(nonzero) == 8
        assert np.allclose(np.abs(vec[nonzero]), amp)
    assert np.all(zero[np.abs(zero) > 1e-15] > 0)


def test_codeword_signs_follow_pair_parity():
    _, one = build_codewords()
    for a, b, c in itertools.product((0, 1), repeat=3):
        idx = 48 * a + 12 * b + 3 * c
        expected = (-1) ** (a + b + c) / (2 * np.sqrt(2))
        assert abs(one[idx] - expected) < 1e-15


def test_codewords_orthonormal():
    zero, one = build_codewords()
    assert abs(zero @ zero - 1) < 1e-12
    assert abs(one @ one - 1) < 1e-12
    assert abs(zero @ one) < 1e-12


def test_supports_agree_with_vectors():
    zero, one = build_codewords()
    s0, s1 = codeword_supports()
    amp = 1 / (2 * np.sqrt(2))
    for idx in range(64):
        assert abs(zero[idx] - s0.get(idx, 0) * amp) < 1e-15
        assert abs(one[idx] - s1.get(idx, 0) * amp) < 1e-15


@pytest.mark.parametrize("stabilizer", [
    "ZZIIII", "IIZZII", "IIIIZZ",   # inner two-qubit code stabilizers
    "XXXXII", "XXIIXX",             # concatenated outer (logical XX) type
])
def test_stabilizers_fix_codewords(stabilizer):
    for vec in build_codewords():
        assert np.abs(apply_word(stabilizer, vec) - vec).max() < 1e-12


# --------------------------------------------------------------------------
# Detectability and classification
# --------------------------------------------------------------------------


def test_detectability_examples():
    assert is_detectable("IIIIII")
    assert not is_detectable("ZIZIZI")
    assert is_detectable("ZIIIII")


def test_classification_sets():
    cls = classify_errors()
    assert cls.undetectable == frozenset(UNDETECTABLE_ERRORS)
    assert len(cls.undetectable) == 8
    assert len(cls.detectable) == 56
    assert len(cls.undetectable) + len(cls.detectable) == 64
    assert cls.correctable == frozenset(CORRECTABLE_ERRORS)
    assert len(cls.correctable) == 32
    assert "IIIIII" in cls.correctable
    assert cls.correctable <= cls.detectable


def test_classification_stable_across_codeword_routes():
    vectors = build_codewords()
    exact = {w for w in ALL_ERROR_STRINGS if is_detectable(w)}
    numeric = {w for w in ALL_ERROR_STRINGS if is_detectable(w, vectors)}
    assert exact == numeric
    assert classify_errors(vectors) == classify_errors()


def test_greedy_reconstructs_canonical_set():
    assert greedy_correctable_set() == frozenset(CORRECTABLE_ERRORS)


def test_pairwise_products_detectable():
    detectable = classify_errors().detectable
    for a in CORRECTABLE_ERRORS:
        for b in CORRECTABLE_ERRORS:
            product = ''.join('Z' if x != y else 'I' for x, y in zip(a, b))
            assert product in detectable or product == "IIIIII"


def test_specific_pairwise_product():
    # ZZIIII * IIZZII = ZZZZII must be detectable
    assert is_detectable("ZZZZII")


def test_error_string_validation():
    with pytest.raises(ValueError):
        is_detectable("ZIZIZ")  # wrong length
    with pytest.raises(ValueError):
        is_detectable("ZIXIZI")  # wrong alphabet
    with pytest.raises(ValueError):
        error_probability("YIIIII", 0.5, 0.5)


# --------------------------------------------------------------------------
# Chained error probabilities
# --------------------------------------------------------------------------


def test_identity_probability_at_p1():
    assert error_probability("IIIIII", 1.0, 0.3) == 1.0


def test_identity_probability_general(rng):
    for _ in range(10):
        p = rng.uniform(-1, 1)
        mu = rng.uniform(0, 1)
        expected = 0.5 * (1 + p) * (0.25 * (1 + p) ** 2 * (1 - mu)
                                    + 0.5 * (1 + p) * mu) ** 5
        assert abs(error_probability("IIIIII", p, mu) - expected) < 1e-12


def test_zziiiz_matches_expanded_polynomial(rng):
    # factored form of the 14th correctable element's probability
    for _ in range(10):
        p = rng.uniform(-1, 1)
        mu = rng.uniform(0, 1)
        expected = ((p ** 2 - 1) ** 4 * (mu - 1) ** 2
                    * (1 + p * (mu - 1) + mu)
                    * (1 + p + mu - p * mu) ** 2) / 2048
        assert abs(error_probability("ZZIIIZ", p, mu) - expected) < 1e-12


def test_chain_structure():
    # five pairwise joints times the final single-letter probability
    p, mu = 0.4, 0.6
    q0, q3 = (1 + p) / 2, (1 - p) / 2
    pij = {("I", "I"): (1 - mu) * q0 * q0 + mu * q0,
           ("Z", "Z"): (1 - mu) * q3 * q3 + mu * q3,
           ("I", "Z"): (1 - mu) * q0 * q3,
           ("Z", "I"): (1 - mu) * q3 * q0}
    word = "ZZIIIZ"
    expected = np.prod([pij[(word[k], word[k + 1])] for k in range(5)]) * q3
    assert abs(error_probability(word, p, mu) - expected) < 1e-15


def test_domain_errors():
    with pytest.raises(ValueError):
        error_probability("IIIIII", 1.5, 0.5)
    with pytest.raises(ValueError):
        success_probability_closed(0.5, -0.1)
    with pytest.raises(ValueError, match="got 1.5"):
        success_probability_closed(np.array([0.2, 1.5, -2.0]), 0.5)


@pytest.mark.parametrize("call", [
    lambda: success_probability_closed(np.nan, 0.5),
    lambda: success_probability_closed(np.array([0.5, np.nan]), 0.5),
    lambda: error_probability("IIIIII", np.nan, 0.5),
    lambda: success_probability_bruteforce(np.nan, 0.5),
    lambda: total_probability_mass(np.nan, 0.5),
], ids=["closed", "closed-array", "chained", "bruteforce", "mass"])
def test_nan_rejected(call):
    with pytest.raises(ValueError):
        call()


# --------------------------------------------------------------------------
# Success probability
# --------------------------------------------------------------------------


def test_bruteforce_equals_closed_on_lattice():
    for p in np.linspace(-1, 1, 20):
        for mu in np.linspace(0, 1, 20):
            assert abs(success_probability_bruteforce(p, mu)
                       - success_probability_closed(p, mu)) < 1e-12


def test_success_at_p1_is_exactly_one():
    for mu in np.linspace(0, 1, 11):
        assert success_probability_bruteforce(1.0, mu) == 1.0
        assert abs(success_probability_closed(1.0, mu) - 1.0) < 1e-12


def test_success_at_mu1_closed_form():
    for p in np.linspace(-1, 1, 21):
        expected = ((1 + p) ** 6 + (1 - p) ** 6) / 64
        assert abs(success_probability_bruteforce(p, 1.0) - expected) < 1e-12


def test_success_at_p0():
    for mu in (0.0, 0.3, 0.7, 1.0):
        expected = 2 / 128 + (3 * mu - mu ** 3) / 128
        assert abs(success_probability_closed(0.0, mu) - expected) < 1e-15


def test_success_mu0_polynomial():
    for p in np.linspace(-1, 1, 9):
        expected = (2 + 20 * p**2 + 52 * p**4 + 24 * p**6 + 26 * p**8
                    + 4 * p**10) / 128
        assert abs(success_probability_closed(p, 0.0) - expected) < 1e-14


def test_success_in_unit_interval():
    for p in np.linspace(-1, 1, 20):
        for mu in np.linspace(0, 1, 20):
            value = success_probability_closed(p, mu)
            assert -1e-12 <= value <= 1 + 1e-12


# --------------------------------------------------------------------------
# Probability-mass diagnostics
# --------------------------------------------------------------------------


def test_total_mass_below_one_for_partially_correlated(rng):
    for _ in range(10):
        p = rng.uniform(-0.95, 0.95)
        mu = rng.uniform(0, 0.95)
        assert total_probability_mass(p, mu) < 1.0


def test_total_mass_mu0_closed_form(rng):
    for _ in range(5):
        p = rng.uniform(-1, 1)
        q0, q3 = (1 + p) / 2, (1 - p) / 2
        assert abs(total_probability_mass(p, 0.0) - (q0**2 + q3**2) ** 5) < 1e-12


def test_total_mass_mu1():
    p = 0.4
    q0, q3 = (1 + p) / 2, (1 - p) / 2
    assert abs(total_probability_mass(p, 1.0) - (q0**6 + q3**6)) < 1e-12


# --------------------------------------------------------------------------
# Success vs time
# --------------------------------------------------------------------------


def test_success_vs_time_initial_value():
    times = np.linspace(0, 50, 60)
    for noise in (OUN, RTN):
        series = success_vs_time(noise, 0.5, times)
        assert series.values[0] == 1.0


def test_success_vs_time_oun_increases_with_mu():
    times = np.linspace(0, 50, 40)
    series = {mu: success_vs_time(OUN, mu, times) for mu in (0.0, 0.5, 0.9)}
    for i in range(1, len(times)):
        assert series[0.0].values[i] < series[0.5].values[i] < series[0.9].values[i]


def test_success_vs_time_rtn_oscillates():
    times = np.linspace(0, 100, 400)
    series = success_vs_time(RTN, 0.5, times)
    diffs = np.diff(series.values)
    assert (diffs > 1e-9).any() and (diffs < -1e-9).any()


def test_success_vs_time_rejects_nmad():
    with pytest.raises(ValueError):
        success_vs_time(NmadParams(gamma0=1.0, g=0.05), 0.5, np.linspace(0, 10, 20))


def test_success_vs_time_spot_check_failure_names_the_point(monkeypatch):
    import corrchan.qec as qec

    real = qec.success_probability_bruteforce

    def off_at_middle(p, mu):
        brute = real(p, mu)
        brute[2] = np.nan
        return brute

    monkeypatch.setattr(qec, "success_probability_bruteforce", off_at_middle)
    times = np.linspace(0, 40, 9)
    with pytest.raises(NumericError, match=r"at t=20\.0: [0-9.e-]+ vs nan"):
        success_vs_time(OUN, 0.5, times)


def test_success_vs_time_normalized_bounded():
    times = np.linspace(0, 50, 30)
    series = success_vs_time(OUN, 0.5, times, normalized=True)
    assert np.all(series.values <= 1 + 1e-12)
    assert np.all(series.values >= success_vs_time(OUN, 0.5, times).values - 1e-12)
