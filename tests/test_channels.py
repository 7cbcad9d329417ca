import numpy as np
import pytest

from corrchan.channels import SIGMA, evolve_damping, evolve_dephasing
from corrchan.errors import NumericError, ValidationError
from corrchan.measures import probe_state
from corrchan.noise import NmadParams, OunParams, RtnParams
from corrchan.oracle import (KrausSet, apply, apply_matrix, channel_at_time,
                             completeness_residual, correlated_dephasing_channel,
                             correlated_nmad_channel, cptp_report,
                             dephasing_weights, fully_correlated_nmad_channel,
                             joint_prob_table, nmad_single_qubit_kraus,
                             single_qubit_dephasing, uncorrelated_nmad_channel)

from conftest import random_density


def test_dephasing_weights_values():
    assert dephasing_weights(1.0) == (1.0, 0.0)
    assert dephasing_weights(0.0) == (0.5, 0.5)
    assert dephasing_weights(-0.5) == (0.25, 0.75)


def test_dephasing_weights_domain():
    with pytest.raises(ValueError):
        dephasing_weights(1.2)


def test_joint_prob_normalization(rng):
    for _ in range(100):
        p = rng.uniform(-1, 1)
        mu = rng.uniform(0, 1)
        table = joint_prob_table(p, mu)
        assert abs(sum(table.values()) - 1) < 1e-12
        assert all(v >= 0 for v in table.values())


def test_joint_prob_limits_exact():
    q0, q3 = dephasing_weights(0.37)
    table0 = joint_prob_table(0.37, 0.0)
    q = {0: q0, 3: q3}
    for (i, j), v in table0.items():
        assert v == q[i] * q[j]
    table1 = joint_prob_table(0.37, 1.0)
    for (i, j), v in table1.items():
        assert v == (q[i] if i == j else 0.0)


def test_correlated_dephasing_mu0_is_tensor_square(rng):
    p = 0.6
    ch = correlated_dephasing_channel(p, 0.0)
    q0, q3 = dephasing_weights(p)
    qs = {0: q0, 3: q3}
    for _ in range(10):
        rho = random_density(4, rng)
        expected = sum(qs[i] * qs[j]
                       * np.kron(SIGMA[i], SIGMA[j]) @ rho @ np.kron(SIGMA[i], SIGMA[j])
                       for i in (0, 3) for j in (0, 3))
        assert np.abs(apply(ch, rho) - expected).max() < 1e-12


def test_correlated_dephasing_mu1_weights():
    p = 0.3
    q0, q3 = dephasing_weights(p)
    ch = correlated_dephasing_channel(p, 1.0)
    weights = dict(zip([(0, 0), (0, 3), (3, 0), (3, 3)], ch.weights))
    assert weights[(0, 0)] == q0 and weights[(3, 3)] == q3
    assert weights[(0, 3)] == 0.0 and weights[(3, 0)] == 0.0


def test_correlated_dephasing_p1_is_identity(rng):
    ch = correlated_dephasing_channel(1.0, 0.7)
    rho = random_density(4, rng)
    assert np.abs(apply(ch, rho) - rho).max() < 1e-12


def test_single_qubit_dephasing_action(rng):
    p = -0.4
    ch = single_qubit_dephasing(p)
    rho = random_density(2, rng)
    out = apply(ch, rho)
    assert abs(out[0, 1] - p * rho[0, 1]) < 1e-12
    assert abs(out[0, 0] - rho[0, 0]) < 1e-12


def test_nmad_p0_is_identity(rng):
    rho = random_density(4, rng)
    for mu in (0.0, 0.4, 1.0):
        ch = correlated_nmad_channel(0.0, mu)
        assert np.abs(apply(ch, rho) - rho).max() < 1e-12


def test_fcorr_nmad_full_transfer():
    rho = probe_state("11")
    ch = correlated_nmad_channel(1.0, 1.0)
    out = apply(ch, rho)
    assert np.abs(out - probe_state("00")).max() < 1e-12


def test_fcorr_nmad_freezes_psi_plus():
    rho = probe_state("psi+")
    for p in (0.0, 0.3, 0.8, 1.0):
        ch = correlated_nmad_channel(p, 1.0)
        assert np.abs(apply(ch, rho) - rho).max() < 1e-12


def test_apply_preserves_populations_under_dephasing(rng):
    ch = correlated_dephasing_channel(0.2, 0.5)
    rho = random_density(4, rng)
    out = apply(ch, rho)
    assert np.abs(np.diag(out) - np.diag(rho)).max() < 1e-12
    diag = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
    assert np.abs(apply(ch, diag) - diag).max() < 1e-12


def test_apply_matches_closed_form(rng):
    for _ in range(10):
        p = rng.uniform(-1, 1)
        mu = rng.uniform(0, 1)
        rho = random_density(4, rng)
        out = apply(correlated_dephasing_channel(p, mu), rho)
        assert np.abs(out - evolve_dephasing(rho, p, mu)).max() < 1e-12


def test_fcorr_nmad_matches_closed_form(rng):
    for _ in range(20):
        p = rng.uniform(0, 1)
        rho = random_density(4, rng)
        out = apply(fully_correlated_nmad_channel(p), rho)
        assert np.abs(out - evolve_damping(rho, p, 1.0)).max() < 1e-12


def test_mu_interpolation_linearity(rng):
    for build in (correlated_dephasing_channel, correlated_nmad_channel):
        p = rng.uniform(0, 1)
        mu = rng.uniform(0, 1)
        rho = random_density(4, rng)
        mixed = apply(build(p, mu), rho)
        split = (1 - mu) * apply(build(p, 0.0), rho) + mu * apply(build(p, 1.0), rho)
        assert np.abs(mixed - split).max() < 1e-12


def test_completeness_all_families(rng):
    for _ in range(10):
        p = rng.uniform(0, 1)
        mu = rng.uniform(0, 1)
        for ch in (correlated_dephasing_channel(2 * p - 1, mu),
                   correlated_nmad_channel(p, mu),
                   uncorrelated_nmad_channel(p),
                   fully_correlated_nmad_channel(p)):
            assert completeness_residual(ch) < 1e-10


def test_cptp_report_dephasing_unital():
    rep = cptp_report(correlated_dephasing_channel(0.4, 0.6))
    assert rep.accepted
    assert rep.unital_residual < 1e-12


def test_cptp_report_nmad_nonunital():
    rep = cptp_report(correlated_nmad_channel(0.5, 0.5))
    assert rep.accepted
    assert rep.unital_residual > 0.0


def test_cptp_report_choi_positive(rng):
    for _ in range(5):
        p = rng.uniform(0, 1)
        mu = rng.uniform(0, 1)
        for ch in (correlated_dephasing_channel(2 * p - 1, mu),
                   correlated_nmad_channel(p, mu)):
            assert cptp_report(ch).choi_min_eigenvalue >= -1e-9


def test_apply_dimension_mismatch():
    ch = single_qubit_dephasing(0.5)
    with pytest.raises(ValueError):
        apply(ch, np.eye(4, dtype=complex) / 4)


def test_apply_rejects_invalid_state():
    ch = correlated_dephasing_channel(0.5, 0.5)
    with pytest.raises(ValidationError):
        apply(ch, np.eye(4, dtype=complex))  # trace 4


def test_domain_errors():
    with pytest.raises(ValueError):
        correlated_dephasing_channel(1.5, 0.5)
    with pytest.raises(ValueError):
        correlated_dephasing_channel(0.5, -0.1)
    with pytest.raises(ValueError):
        correlated_nmad_channel(-0.2, 0.5)
    with pytest.raises(ValueError):
        correlated_nmad_channel(0.5, 1.2)


def test_non_finite_noise_value_is_numeric_error():
    for factory in (correlated_dephasing_channel, correlated_nmad_channel):
        with pytest.raises(NumericError):
            factory(np.nan, 0.5)
        with pytest.raises(NumericError):
            factory(np.array([0.2, np.nan]), 0.5)


def test_closed_form_checks_every_point():
    rho = probe_state("alpha")
    with pytest.raises(ValueError, match="1.5"):
        evolve_dephasing(rho, np.array([0.2, 1.5, -0.3]), 0.5)
    with pytest.raises(ValueError, match="-0.2"):
        evolve_damping(rho, np.array([0.1, -0.2]), 0.5)
    with pytest.raises(ValueError, match="1.1"):
        evolve_damping(rho, np.array([0.1, 0.4, 1.1]), 0.5)
    for evolve_family in (evolve_dephasing, evolve_damping):
        with pytest.raises(NumericError):
            evolve_family(rho, np.array([0.2, np.nan, 0.3]), 0.5)
        with pytest.raises(ValueError):
            evolve_family(rho, np.array([0.2, 0.3]), 1.5)


def test_closed_form_shapes(rng):
    ps = np.linspace(0, 1, 7)
    rho = probe_state("alpha")
    for evolve_family in (evolve_dephasing, evolve_damping):
        assert evolve_family(rho, ps, 0.3).shape == (7, 4, 4)
        assert evolve_family(rho, 0.5, 0.3).shape == (4, 4)
        with pytest.raises(ValueError):
            evolve_family(random_density(2, rng), ps, 0.3)
        with pytest.raises(ValueError):
            evolve_family(np.stack([rho, rho]), ps[:2], 0.3)


def test_kraus_factories_take_one_p():
    ps = np.array([0.2, 0.5])
    for factory in (dephasing_weights, single_qubit_dephasing, nmad_single_qubit_kraus,
                    uncorrelated_nmad_channel, fully_correlated_nmad_channel):
        with pytest.raises(ValueError, match="single value"):
            factory(ps)
    for factory in (joint_prob_table, correlated_dephasing_channel, correlated_nmad_channel):
        with pytest.raises(ValueError, match="single value"):
            factory(ps, 0.5)
    with pytest.raises(ValueError, match="single value"):
        channel_at_time(OunParams(G=1.0, g=0.05), 0.5, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        KrausSet(dim=2, operators=(np.zeros((3, 2, 2)), np.zeros((3, 2, 2))))


def test_channel_at_time_dispatch():
    rho = probe_state("phi+")
    t = 3.0
    for noise in (RtnParams(a=0.8, gamma=0.05), OunParams(G=1.0, g=0.05)):
        ch = channel_at_time(noise, 0.5, t)
        assert isinstance(ch, KrausSet)
        assert len(ch.operators) == 4
        apply(ch, rho)
    chn = channel_at_time(NmadParams(gamma0=1.0, g=0.05), 0.5, t)
    assert len(chn.operators) == 6
    apply(chn, rho)


def test_kraus_set_shape_validation():
    with pytest.raises(ValueError):
        KrausSet(dim=4, operators=(np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        KrausSet(dim=2, operators=(np.eye(2, dtype=complex),), weights=(0.5, 0.5))


def test_apply_matrix_is_linear_unvalidated(rng):
    # arbitrary (non-state) matrices go through the raw action
    ch = correlated_dephasing_channel(0.3, 0.2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out = apply_matrix(ch, m)
    out2 = apply_matrix(ch, 2 * m)
    assert np.abs(out2 - 2 * out).max() < 1e-12
