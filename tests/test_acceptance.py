"""Acceptance suite: one test per criterion, each printing a PASS line after
its assertions hold at the stated tolerance. Run with `pytest -s` to see the
lines as they pass.
"""

import time

import numpy as np

from corrchan.channels import evolve, evolve_damping, evolve_dephasing
from corrchan.freezing import bloch_diagonal_state
from corrchan.map_algebra import (correlated_oun_generator, dephasing_generator,
                                  transfer_sampler)
from corrchan.measures import (concurrence, nm_concurrence_measure,
                               positive_variation, probe_state, sss_measure,
                               trace_distance, volume_trace)
from corrchan.noise import NmadParams, OunParams, RtnParams, noise_p
from corrchan.oracle import (apply, channel_at_time, choi,
                             correlated_dephasing_channel, correlated_nmad_channel,
                             fully_correlated_nmad_channel, generator,
                             kraus_from_choi, pauli_basis, transfer_matrix)
from corrchan.qec import (CORRECTABLE_ERRORS, UNDETECTABLE_ERRORS,
                          classify_errors, greedy_correctable_set,
                          success_probability_bruteforce,
                          success_probability_closed)

from conftest import random_bloch_triple, random_density

RTN = RtnParams(a=0.8, gamma=0.05)
OUN = OunParams(G=1.0, g=0.05)
NMAD = NmadParams(gamma0=1.0, g=0.05)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_qec_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for p in np.linspace(-1, 1, 20):
        for mu in np.linspace(0, 1, 20):
            worst = max(worst, abs(success_probability_bruteforce(p, mu)
                                   - success_probability_closed(p, mu)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    report(1, f"brute force = closed form on 20x20 lattice "
              f"(max |diff| {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_qec_boundary_identities():
    for mu in np.linspace(0, 1, 11):
        assert success_probability_bruteforce(1.0, mu) == 1.0
        assert abs(success_probability_closed(1.0, mu) - 1.0) < 1e-12
    worst = 0.0
    for p in np.linspace(-1, 1, 21):
        expected = ((1 + p) ** 6 + (1 - p) ** 6) / 64
        worst = max(worst, abs(success_probability_bruteforce(p, 1.0) - expected),
                    abs(success_probability_closed(p, 1.0) - expected))
    assert worst < 1e-12
    report(2, f"P(p=1, mu) = 1 for 11 mu values; P(mu=1, p) boundary within "
              f"{worst:.2e} for 21 p values")


def test_criterion_3_error_classification():
    start = time.perf_counter()
    cls = classify_errors()
    assert cls.undetectable == frozenset(UNDETECTABLE_ERRORS)
    assert len(cls.undetectable) == 8
    assert cls.correctable == frozenset(CORRECTABLE_ERRORS)
    assert greedy_correctable_set() == frozenset(CORRECTABLE_ERRORS)
    detectable = cls.detectable
    pairs = 0
    for a in CORRECTABLE_ERRORS:
        for b in CORRECTABLE_ERRORS:
            product = ''.join('Z' if x != y else 'I' for x, y in zip(a, b))
            assert product in detectable
            pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 1024
    assert elapsed < 1.0
    report(3, f"undetectable set (8) and correctable set (32) match; "
              f"KL condition holds for all 1024 pairs ({elapsed:.2f}s)")


def test_criterion_4_closed_form_kraus_agreement():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(50):
        rho = random_density(4, rng)
        p = rng.uniform(-1, 1)
        mu = rng.uniform(0, 1)
        kraus = apply(correlated_dephasing_channel(p, mu), rho)
        worst = max(worst, np.abs(evolve_dephasing(rho, p, mu) - kraus).max())
    for _ in range(50):
        rho = random_density(4, rng)
        p = rng.uniform(0, 1)
        kraus = apply(fully_correlated_nmad_channel(p), rho)
        worst = max(worst, np.abs(evolve_damping(rho, p, 1.0) - kraus).max())
    for _ in range(50):
        rho = random_density(4, rng)
        p = rng.uniform(0, 1)
        mu = rng.uniform(0, 1)
        kraus = apply(correlated_nmad_channel(p, mu), rho)
        worst = max(worst, np.abs(evolve_damping(rho, p, mu) - kraus).max())
    assert worst < 1e-12
    report(4, f"dephasing, fully correlated and correlated damping closed forms "
              f"match the Kraus path on 50 random states each (max |diff| {worst:.2e})")


def test_criterion_5_volume_formula_and_witness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for noise in (RTN, OUN):
        sampler = transfer_sampler(noise, 0.0)
        for _ in range(50):
            t = rng.uniform(0, 30)
            mu = rng.uniform(0, 1)
            f = transfer_sampler(noise, mu)(t)
            p = noise_p(noise, t)
            expected = p ** 8 * (mu + (1 - mu) * p * p) ** 4
            worst = max(worst, abs(np.linalg.det(f) - expected))
    assert worst < 1e-10
    times = np.linspace(0, 100, 1000)
    for mu in (0.0, 0.5, 0.9):
        trace = volume_trace(transfer_sampler(OUN, mu)(times), times)
        assert trace.witness_intervals == ()
    rises = []
    for mu in (0.0, 0.5, 0.9):
        trace = volume_trace(transfer_sampler(RTN, mu)(times), times)
        assert len(trace.witness_intervals) > 0
        rises.append(positive_variation(times, trace.series.values).value)
    assert rises[0] < rises[1] < rises[2]
    report(5, f"det F closed form within {worst:.2e}; OUN witness empty; RTN "
              f"positive variation {rises[0]:.3f} < {rises[1]:.3f} < {rises[2]:.3f}")


def test_criterion_6_freezing():
    rng = np.random.default_rng(6)
    times = np.linspace(0, 50, 100)
    for noise in (RTN, OUN):
        for _ in range(3):
            rho0 = bloch_diagonal_state(random_bloch_triple(rng))
            for t in times:
                rho_t = apply(channel_at_time(noise, 1.0, t), rho0)
                assert trace_distance(rho_t, rho0) < 1e-10
    psi, phi = probe_state("psi+"), probe_state("phi+")
    c_phi_min = 1.0
    for t in times:
        ch = channel_at_time(NMAD, 1.0, t)
        assert abs(concurrence(apply(ch, psi)) - 1.0) < 1e-10
        if t > 0:
            c_phi_min = min(c_phi_min, concurrence(apply(ch, phi)))
    assert c_phi_min < 0.99
    report(6, f"Bell-diagonal states frozen under unital channels at mu=1; "
              f"psi+ frozen under damping while phi+ drops to {c_phi_min:.3f}")


def test_criterion_7_measure_monotonicity_in_mu():
    G = 0.6
    mus = (0.0, 0.3, 0.6, 0.9)
    start = time.perf_counter()
    reference = dephasing_generator(-G / 2, -G)
    for g_inv in (10.0, 50.0, 100.0):
        params = OunParams(G=G, g=1.0 / g_inv)
        zetas = [sss_measure(lambda t: correlated_oun_generator(t, params, mu),
                             reference, t_max=100.0, n_points=300) for mu in mus]
        assert all(b > a for a, b in zip(zetas, zetas[1:])), (g_inv, zetas)
    sss_elapsed = time.perf_counter() - start
    assert sss_elapsed < 30.0

    start = time.perf_counter()
    phi = probe_state("phi+")
    times = np.linspace(0, 50, 400)
    values = []
    for mu in mus:
        traj = evolve(NMAD, mu, times, phi)
        values.append(nm_concurrence_measure(traj, times).value)
    conc_elapsed = time.perf_counter() - start
    assert all(b > a for a, b in zip(values, values[1:])), values
    assert conc_elapsed < 30.0
    report(7, f"SSS zeta strictly increasing in mu at three g^-1 values "
              f"({sss_elapsed:.1f}s); concurrence-revival measure strictly "
              f"increasing in mu ({conc_elapsed:.1f}s)")


def test_criterion_8_map_algebra_round_trip():
    rng = np.random.default_rng(8)
    basis = pauli_basis(2)
    worst = 0.0
    for _ in range(10):
        mu = rng.uniform(0, 1)
        for ch in (correlated_dephasing_channel(rng.uniform(-1, 1), mu),
                   correlated_dephasing_channel(noise_p(RTN, rng.uniform(0, 30)), mu),
                   correlated_nmad_channel(rng.uniform(0, 1), mu)):
            f = transfer_matrix(ch, basis)
            ks = kraus_from_choi(choi(f, basis), 4)
            worst = max(worst, np.abs(f - transfer_matrix(ks, basis)).max())
    assert worst < 1e-8
    oun_unit = OunParams(G=1.0, g=0.05)
    worst_gen = 0.0
    for mu in (0.0, 0.4, 0.9):
        sampler = transfer_sampler(oun_unit, mu)
        for t in (0.5, 4.0, 12.0):
            l_num = np.sort(np.diag(generator(sampler, t, h=1e-4)))
            l_ana = np.sort(np.diag(correlated_oun_generator(t, oun_unit, mu)))
            worst_gen = max(worst_gen, np.abs(l_num - l_ana).max())
    assert worst_gen < 1e-6
    report(8, f"channel -> F -> Choi -> Kraus -> F' round trip within "
              f"{worst:.2e}; finite-difference generator matches the analytic "
              f"one within {worst_gen:.2e} at G=1")


def test_criterion_9_choi_matrix_pattern():
    basis = pauli_basis(2)
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        s = choi(transfer_matrix(fully_correlated_nmad_channel(p), basis), basis)
        expected = np.zeros((16, 16), dtype=complex)
        for a in (0, 5, 10):
            for b in (0, 5, 10):
                expected[a, b] = 1.0
        for a in (0, 5, 10):
            expected[a, 15] = expected[15, a] = np.sqrt(1 - p)
        expected[15, 15] = 1 - p
        expected[3, 3] = p  # the |00><11|-derived slot
        worst = max(worst, np.abs(s - expected).max())
    assert worst < 1e-12
    report(9, f"fully correlated damping Choi matrix reproduces the "
              f"sqrt(1-p)/p/unit-block pattern at 5 p values "
              f"(max |diff| {worst:.2e})")
