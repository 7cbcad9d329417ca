from functools import lru_cache

import numpy as np
import pytest

from corrchan.errors import NumericError
from corrchan import oracle
from corrchan.map_algebra import (DOUBLE_FLIP_SLOTS, IDENTITY_SLOTS,
                                  SINGLE_FLIP_SLOTS, correlated_oun_rates)
from corrchan.noise import NmadParams, OunParams, RtnParams, oun_p, rtn_p
from corrchan.oracle import (KrausSet, channel_at_time, choi, computational_basis,
                             correlated_dephasing_channel, correlated_nmad_channel,
                             correlated_oun_generator, dephasing_generator,
                             dephasing_transfer, dephasing_weights,
                             fully_correlated_nmad_channel, generator,
                             kraus_from_choi, nmad_transfer, pauli_basis,
                             single_qubit_dephasing, transfer_matrix,
                             transfer_sampler)

OUN = OunParams(G=1.0, g=0.05)


def identity_channel(dim=4):
    return KrausSet(dim=dim, operators=(np.eye(dim, dtype=complex),))


# --------------------------------------------------------------------------
# Basis
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n_qubits,dim", [(1, 2), (2, 4)])
def test_basis_orthonormal(n_qubits, dim):
    els = pauli_basis(n_qubits)
    gram = np.einsum('aij,bji->ab', els, els)
    assert np.abs(gram - np.eye(len(els))).max() < 1e-12
    assert np.abs(els[0] - np.eye(dim) / np.sqrt(dim)).max() < 1e-12
    for g in els:
        assert np.abs(g - g.conj().T).max() < 1e-12


def test_two_qubit_basis_traces():
    els = pauli_basis(2)
    assert abs(np.trace(els[0]) - 2.0) < 1e-12  # tr[I4]/2
    for g in els[1:]:
        assert abs(np.trace(g)) < 1e-12


def test_basis_slot_partition():
    assert sorted(IDENTITY_SLOTS + SINGLE_FLIP_SLOTS + DOUBLE_FLIP_SLOTS) == list(range(16))


# --------------------------------------------------------------------------
# Transfer matrix
# --------------------------------------------------------------------------


def test_transfer_identity_channel():
    f = transfer_matrix(identity_channel(), pauli_basis(2))
    assert np.abs(f - np.eye(16)).max() < 1e-12


def test_transfer_single_qubit_dephasing():
    p = 0.35
    f = transfer_matrix(single_qubit_dephasing(p), pauli_basis(1))
    assert np.abs(f - np.diag([1, p, p, 1])).max() < 1e-12


def expected_dephasing_diagonal(p, mu):
    """Independent oracle: eigenvalue of each basis element as the signed sum
    of joint probabilities, using only Pauli commutation signs."""
    q0, q3 = dephasing_weights(p)
    q = {0: q0, 3: q3}
    pij = {(i, j): (1 - mu) * q[i] * q[j] + mu * q[i] * (i == j)
           for i in (0, 3) for j in (0, 3)}

    def sign(i, a):
        return 1 if (i == 0 or a in (0, 3)) else -1

    return np.array([sum(pij[(i, j)] * sign(i, a) * sign(j, b)
                         for i in (0, 3) for j in (0, 3))
                     for a in range(4) for b in range(4)])


def test_transfer_correlated_dephasing_diagonal(rng):
    basis = pauli_basis(2)
    for _ in range(5):
        p = rng.uniform(-1, 1)
        mu = rng.uniform(0, 1)
        f = transfer_matrix(correlated_dephasing_channel(p, mu), basis)
        assert np.abs(f - np.diag(np.diag(f))).max() < 1e-12
        assert np.abs(np.diag(f) - expected_dephasing_diagonal(p, mu)).max() < 1e-12
        tau = mu + (1 - mu) * p * p
        diag = np.diag(f)
        assert np.abs(diag[list(IDENTITY_SLOTS)] - 1).max() < 1e-12
        assert np.abs(diag[list(SINGLE_FLIP_SLOTS)] - p).max() < 1e-12
        assert np.abs(diag[list(DOUBLE_FLIP_SLOTS)] - tau).max() < 1e-12


def test_trace_preservation_iff_first_row_e1(rng):
    basis = pauli_basis(2)
    e1 = np.zeros(16)
    e1[0] = 1
    for ch in (correlated_dephasing_channel(0.4, 0.3), correlated_nmad_channel(0.6, 0.8)):
        f = transfer_matrix(ch, basis)
        assert np.abs(f[0] - e1).max() < 1e-12
    # deliberately non-trace-preserving perturbation
    bad = KrausSet(dim=4, operators=(np.sqrt(0.9) * np.eye(4, dtype=complex),))
    f = transfer_matrix(bad, basis)
    assert np.abs(f[0] - e1).max() > 1e-3


# Closed form against the Kraus oracle: the documented entrywise tolerance.
CLOSED_FORM_TOL = 1e-14
DEPHASING_PS = np.concatenate([[-1.0, -1e-8, 0.0, 1e-8, 1.0], np.linspace(-1, 1, 41)])
DAMPING_PS = np.concatenate([[0.0, 1e-8, 1 - 1e-8, 1.0], np.linspace(0, 1, 41)])


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 1.0])
def test_closed_form_transfer_matches_kraus(mu):
    basis = pauli_basis(2)
    for transfer, channel, ps in ((dephasing_transfer, correlated_dephasing_channel,
                                   DEPHASING_PS),
                                  (nmad_transfer, correlated_nmad_channel, DAMPING_PS)):
        closed = transfer(ps, mu)
        assert closed.shape == ps.shape + (16, 16)
        kraus = np.stack([transfer_matrix(channel(p, mu), basis) for p in ps])
        assert np.abs(closed - kraus).max() <= CLOSED_FORM_TOL
        for p, f in zip(ps[:5], closed):
            assert np.array_equal(transfer(p, mu), f)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("noise", [RtnParams(a=0.8, gamma=0.05), OUN,
                                   NmadParams(gamma0=1.0, g=0.05)],
                         ids=["rtn", "oun", "nmad"])
def test_transfer_sampler_matches_kraus(noise, mu):
    times = np.linspace(0.0, 60.0, 61)
    f = transfer_sampler(noise, mu)(times)
    kraus = np.stack([transfer_matrix(channel_at_time(noise, mu, t), pauli_basis(2))
                      for t in times])
    assert np.abs(f - kraus).max() <= CLOSED_FORM_TOL


@pytest.mark.parametrize("transfer,p,mu,error", [
    (dephasing_transfer, 0.5, 1.5, ValueError),
    (dephasing_transfer, 0.5, -0.1, ValueError),
    (dephasing_transfer, 0.5, np.nan, ValueError),
    (dephasing_transfer, -1.5, 0.5, ValueError),
    (dephasing_transfer, np.nan, 0.5, ValueError),
    (dephasing_transfer, [0.2, np.inf], 0.5, ValueError),
    (nmad_transfer, 0.5, 2.0, ValueError),
    (nmad_transfer, -0.1, 0.5, ValueError),
    (nmad_transfer, 1.1, 0.5, ValueError),
    (nmad_transfer, np.nan, 0.5, ValueError),
])
def test_closed_form_transfer_checks(transfer, p, mu, error):
    with pytest.raises(error):
        transfer(p, mu)


def test_transfer_sampler_checks_mu():
    with pytest.raises(ValueError):
        transfer_sampler(OUN, 1.5)


@pytest.mark.parametrize("mu", [-0.1, 1.5, np.nan])
def test_oun_rates_check_mu(mu):
    with pytest.raises(ValueError, match="correlation factor mu"):
        correlated_oun_rates(np.linspace(0.0, 10.0, 5), OUN, mu)


def test_non_finite_transfer_is_numeric_error(monkeypatch):
    monkeypatch.setattr(oracle, "_FC_SQRT", np.full((16, 16), np.nan))
    with pytest.raises(NumericError):
        nmad_transfer(0.5, 0.5)


# --------------------------------------------------------------------------
# Generator
# --------------------------------------------------------------------------


def test_generator_identity_channel_is_zero():
    f_sampler = lambda t: np.eye(16)
    for t in (0.0, 1.0, 7.3):
        assert np.abs(generator(f_sampler, t)).max() < 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.5, 0.9])
def test_generator_matches_analytic_oun(mu):
    sampler = transfer_sampler(OUN, mu)
    for t in (0.5, 3.0, 10.0):
        l_num = generator(sampler, t, h=1e-4)
        l_ana = correlated_oun_generator(t, OUN, mu)
        num_diag = np.sort(np.diag(l_num))
        ana_diag = np.sort(np.diag(l_ana))
        assert np.abs(num_diag - ana_diag).max() < 1e-6
        assert np.abs(l_num - np.diag(np.diag(l_num))).max() < 1e-8


def test_generator_forward_difference_at_origin():
    sampler = transfer_sampler(OUN, 0.5)
    l0 = generator(sampler, 0.0, h=1e-4)
    assert np.abs(l0).max() < 1e-3  # rates vanish at t = 0


def test_generator_singular_transfer():
    rtn = RtnParams(a=0.8, gamma=0.05)
    ts = np.linspace(0, 100, 4000)
    vals = [rtn_p(t, rtn) for t in ts]
    lo, hi = next((ts[i], ts[i + 1]) for i in range(len(ts) - 1)
                  if vals[i] * vals[i + 1] < 0)
    for _ in range(200):
        mid = (lo + hi) / 2
        if rtn_p(mid, rtn) * rtn_p(lo, rtn) > 0:
            lo = mid
        else:
            hi = mid
    t_zero = (lo + hi) / 2
    with pytest.raises(NumericError):
        generator(transfer_sampler(rtn, 0.0), t_zero)


def test_oun_rates_closed_form():
    mu = 0.4
    for t in (0.1, 2.0, 20.0):
        rs, rd = correlated_oun_rates(t, OUN, mu)
        p2 = np.exp(-OUN.G * (t + (np.exp(-OUN.g * t) - 1) / OUN.g))
        tau = mu + (1 - mu) * p2
        assert abs(rs - (-(OUN.G / 2) * (1 - np.exp(-OUN.g * t)))) < 1e-14
        assert abs(rd - (-OUN.G * (1 - np.exp(-OUN.g * t)) * (1 - mu) * p2 / tau)) < 1e-14


def test_oun_generator_limits():
    assert np.abs(correlated_oun_generator(0.0, OUN, 0.5)).max() == 0.0
    # mu = 0: double-flip rate is exactly twice the single-flip rate
    rs, rd = correlated_oun_rates(4.0, OUN, 0.0)
    assert abs(rd - 2 * rs) < 1e-14
    # mu = 1: only the eight single-flip rates survive
    l1 = correlated_oun_generator(4.0, OUN, 1.0)
    diag = np.diag(l1)
    assert np.abs(diag[list(DOUBLE_FLIP_SLOTS)]).max() == 0.0
    assert np.abs(diag[list(SINGLE_FLIP_SLOTS)]).max() > 0
    # Markov limit g -> infinity at fixed t
    fast = OunParams(G=1.0, g=1e6)
    rs_fast, _ = correlated_oun_rates(1.0, fast, 0.0)
    assert abs(rs_fast - (-0.5)) < 1e-9


def test_oun_rates_mu_zero_after_p_underflows():
    # p^2 underflows near t = 3000 at g = 0.1, where (1 - mu) p^2 / tau is 0/0;
    # its limit at mu = 0 is 1
    params = OunParams(G=0.6, g=0.1)
    times = np.linspace(0.0, 3000.0, 50)
    assert np.square(oun_p(times[-1], params)) == 0.0
    rs, rd = correlated_oun_rates(times, params, 0.0)
    assert np.all(np.isfinite(rd))
    assert np.array_equal(rd, 2 * rs)


def test_dephasing_generator_structure():
    l = dephasing_generator(-0.2, -0.5)
    diag = np.diag(l)
    assert np.abs(l - np.diag(diag)).max() == 0
    assert all(diag[s] == 0 for s in IDENTITY_SLOTS)
    assert all(diag[s] == -0.2 for s in SINGLE_FLIP_SLOTS)
    assert all(diag[s] == -0.5 for s in DOUBLE_FLIP_SLOTS)


def test_generator_ode_consistency_rk4():
    """Integrating dF/dt = L(t) F with L from the finite-difference generator
    must reproduce the directly constructed F(t)."""
    mu = 0.6
    base = transfer_sampler(OUN, mu)

    @lru_cache(maxsize=None)
    def sampler(t):
        return base(t)

    f_sampler = lambda t: sampler(round(t, 9))
    l_at = lru_cache(maxsize=None)(lambda t: generator(f_sampler, t, h=1e-4))

    step = 1e-3
    f = np.eye(16)
    t = 0.0
    checkpoints = {2.5: None, 5.0: None, 10.0: None}
    n_steps = 10000
    for k in range(n_steps):
        t = k * step
        l1 = l_at(round(t, 9))
        lh = l_at(round(t + step / 2, 9))
        l2 = l_at(round(t + step, 9))
        k1 = l1 @ f
        k2 = lh @ (f + step / 2 * k1)
        k3 = lh @ (f + step / 2 * k2)
        k4 = l2 @ (f + step * k3)
        f = f + (step / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t_next = (k + 1) * step
        for cp in checkpoints:
            if abs(t_next - cp) < step / 2 and checkpoints[cp] is None:
                checkpoints[cp] = f.copy()
    for cp, f_num in checkpoints.items():
        assert f_num is not None
        assert np.abs(f_num - base(cp)).max() < 1e-4


# --------------------------------------------------------------------------
# Choi and Kraus extraction
# --------------------------------------------------------------------------


def test_choi_identity_roundtrip():
    basis = pauli_basis(2)
    f = transfer_matrix(identity_channel(), basis)
    s = choi(f, basis)
    ks = kraus_from_choi(s, 4)
    assert len(ks.operators) == 1
    op = ks.operators[0]
    phase = op[0, 0] / abs(op[0, 0])
    assert np.abs(op / phase - np.eye(4)).max() < 1e-10


def test_choi_fcorr_nmad_p0_equals_identity_choi():
    basis = pauli_basis(2)
    s_id = choi(transfer_matrix(identity_channel(), basis), basis)
    s_nmad = choi(transfer_matrix(fully_correlated_nmad_channel(0.0), basis), basis)
    assert np.abs(s_id - s_nmad).max() < 1e-12


def expected_fcorr_nmad_choi(p):
    """Process matrix of {E00, E11} in the matrix-unit basis: outer products
    of the Kraus coefficient vectors."""
    s = np.zeros((16, 16), dtype=complex)
    for a in (0, 5, 10):
        for b in (0, 5, 10):
            s[a, b] = 1
    for a in (0, 5, 10):
        s[a, 15] = s[15, a] = np.sqrt(1 - p)
    s[15, 15] = 1 - p
    s[3, 3] = p
    return s


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_choi_fcorr_nmad_pattern(p):
    basis = pauli_basis(2)
    f = transfer_matrix(fully_correlated_nmad_channel(p), basis)
    s = choi(f, basis)
    assert np.abs(s - s.conj().T).max() < 1e-10
    assert np.abs(s - expected_fcorr_nmad_choi(p)).max() < 1e-12
    # the named pattern entries: the |00><11|-derived slot and the corners
    assert abs(s[3, 3] - p) < 1e-12
    for a in (0, 5, 10):
        assert abs(s[a, 15] - np.sqrt(1 - p)) < 1e-12


def test_choi_process_matrix_identity(rng):
    basis = pauli_basis(2)
    taus = computational_basis(4)
    ch = correlated_nmad_channel(0.4, 0.3)
    f = transfer_matrix(ch, basis)
    s = choi(f, basis)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    lhs = sum(w * op @ rho @ op.conj().T for w, op in ch.weighted_operators())
    rhs = np.einsum('ab,aij,jk,blk->il', s, taus, rho, np.conj(taus))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_kraus_from_choi_fcorr_nmad():
    basis = pauli_basis(2)
    p = 0.6
    f = transfer_matrix(fully_correlated_nmad_channel(p), basis)
    s = choi(f, basis)
    ks = kraus_from_choi(s, 4)
    assert len(ks.operators) == 2
    # equality at the Choi level (unitary freedom on the operators themselves)
    s_back = choi(transfer_matrix(ks, basis), basis)
    assert np.abs(s_back - s).max() < 1e-8


def test_kraus_rank_matches_choi_rank(rng):
    basis = pauli_basis(2)
    for ch, rank in ((correlated_dephasing_channel(0.4, 0.5), 4),
                     (fully_correlated_nmad_channel(0.3), 2),
                     (identity_channel(), 1)):
        s = choi(transfer_matrix(ch, basis), basis)
        ks = kraus_from_choi(s, 4)
        eigs = np.linalg.eigvalsh(s)
        assert len(ks.operators) == (eigs > 1e-10).sum() == rank


def test_kraus_from_choi_rejects_non_cp():
    from corrchan.errors import ValidationError
    s = np.diag(np.ones(16)).astype(complex)
    s[0, 0] = -0.5
    with pytest.raises(ValidationError):
        kraus_from_choi(s, 4)
    with pytest.raises(ValidationError):
        s = np.zeros((16, 16), dtype=complex)
        s[0, 1] = 1.0  # not Hermitian
        kraus_from_choi(s, 4)


def test_transfer_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        transfer_matrix(identity_channel(dim=2), pauli_basis(2))


def test_generator_requires_positive_step():
    with pytest.raises(ValueError):
        generator(lambda t: np.eye(16), 1.0, h=0.0)


@pytest.mark.parametrize("t,h", [(1.0, np.inf), (1.0, np.nan), (1.0, -np.inf),
                                 (np.inf, 1e-4), (np.nan, 1e-4), (-np.inf, 1e-4)])
def test_generator_rejects_non_finite_step_and_time(t, h):
    # h = inf used to give the all-zero generator; h = nan and t = nan failed
    # later with a message about negative times
    sampled = []

    def sampler(s):
        sampled.append(s)
        return np.eye(16)

    with pytest.raises(ValueError, match="step h|time must be finite"):
        generator(sampler, t, h=h)
    assert not sampled


@pytest.mark.parametrize("family,param_count", [("dephasing", 10), ("nmad", 10)])
def test_roundtrip_all_families(family, param_count, rng):
    basis = pauli_basis(2)
    for _ in range(param_count):
        mu = rng.uniform(0, 1)
        if family == "dephasing":
            ch = correlated_dephasing_channel(rng.uniform(-1, 1), mu)
        else:
            ch = correlated_nmad_channel(rng.uniform(0, 1), mu)
        f = transfer_matrix(ch, basis)
        ks = kraus_from_choi(choi(f, basis), 4)
        f_back = transfer_matrix(ks, basis)
        assert np.abs(f - f_back).max() < 1e-8
