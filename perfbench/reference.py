"""Reference values for the output checks, computed with numpy only.

Nothing here imports corrchan. Every expected number is derived again from
the model's closed forms: the noise functions p(t), the correlated factor
tau = mu + (1 - mu) p^2, the entrywise action of correlated dephasing, the
Kraus operators of correlated amplitude damping, and the chained error
model of the six-qubit code. Each `check_*` function takes the text a
command produced and returns None when it is right, or a one-line reason.
"""

import csv
import io
import itertools

import numpy as np

# Outputs carry 12 significant digits; every value checked here is of order
# one, so 1e-9 leaves room for rounding and LAPACK round-off, nothing more.
ATOL = 1e-9
# Concurrence goes through square roots of eigenvalues of a rank-deficient
# product, which turns 1e-16 eigenvalue noise into about 1e-8.
CONCURRENCE_ATOL = 1e-7

_R2 = np.sqrt(2)
KETS = {
    "phi+": np.array([1, 0, 0, 1]) / _R2,
    "phi-": np.array([1, 0, 0, -1]) / _R2,
    "psi+": np.array([0, 1, 1, 0]) / _R2,
    "psi-": np.array([0, 1, -1, 0]) / _R2,
    "alpha": np.array([1, 1, 1, -1]) / 2,
    "00": np.array([1, 0, 0, 0]),
    "11": np.array([0, 0, 0, 1]),
    "++": np.array([1, 1, 1, 1]) / 2,
    "--": np.array([1, -1, -1, 1]) / 2,
}
BELL_STATES = ("phi+", "phi-", "psi+", "psi-")
DEFAULT_PAIRS = ("phi+:phi-", "++:--", "00:11", "psi+:psi-")


def density(name: str) -> np.ndarray:
    ket = KETS[name].astype(complex)
    return np.outer(ket, ket.conj())


# --------------------------------------------------------------------------
# Noise functions and channels
# --------------------------------------------------------------------------


def rtn_p(t, a: float, gamma: float) -> np.ndarray:
    """exp(-gamma t)(cos(w gamma t) + sin(w gamma t)/w), w = sqrt((2a/gamma)^2 - 1)."""
    t = np.asarray(t, dtype=float)
    w = np.sqrt(complex((2 * a / gamma) ** 2 - 1))
    x = w * gamma * t
    return (np.exp(-gamma * t) * (np.cos(x) + np.sin(x) / w)).real


def oun_p(t, G: float, g: float) -> np.ndarray:
    """exp[-(G/2)(t + (exp(-g t) - 1)/g)]."""
    t = np.asarray(t, dtype=float)
    return np.exp(-(G / 2) * (t + (np.exp(-g * t) - 1) / g))


def nmad_damping(t, gamma0: float, g: float) -> np.ndarray:
    """Damping probability 1 - G(t)^2 of non-Markovian amplitude damping."""
    t = np.asarray(t, dtype=float)
    l = np.sqrt(complex(g * g - 2 * gamma0 * g))
    x = l * t / 2
    big_g = (np.exp(-g * t / 2) * (np.cosh(x) + (g / l) * np.sinh(x))).real
    return np.clip(1 - big_g ** 2, 0.0, 1.0)


def tau(p, mu: float):
    return mu + (1 - mu) * np.asarray(p) ** 2


def dephasing_factors(p: float, mu: float) -> np.ndarray:
    """Entrywise factors of correlated dephasing on a 4x4 state.

    Entry (i, j) picks up 1, p or tau according to how many qubits differ
    between |i> and |j>: none, one, or both (the anti-diagonal).
    """
    flipped_qubits = np.array([0, 1, 1, 2])[np.bitwise_xor.outer(np.arange(4), np.arange(4))]
    return np.array([1.0, p, float(tau(p, mu))])[flipped_qubits]


def dephasing_evolve(rho: np.ndarray, p: float, mu: float) -> np.ndarray:
    return rho * dephasing_factors(p, mu)


def nmad_kraus(p: float, mu: float) -> list[tuple[float, np.ndarray]]:
    """(weight, operator) pairs of (1 - mu) E_uncorrelated + mu E_fully_correlated."""
    a0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    a1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    e00 = np.diag([1, 1, 1, np.sqrt(1 - p)]).astype(complex)
    e11 = np.zeros((4, 4), dtype=complex)
    e11[0, 3] = np.sqrt(p)
    ops = [(1 - mu, np.kron(x, y)) for x in (a0, a1) for y in (a0, a1)]
    return ops + [(mu, e00), (mu, e11)]


def nmad_evolve(rho: np.ndarray, p: float, mu: float) -> np.ndarray:
    return sum(w * k @ rho @ k.conj().T for w, k in nmad_kraus(p, mu))


def nmad_volume(p: float, mu: float) -> float:
    """det of the superoperator sum_k w_k K_k (x) conj(K_k).

    The Pauli transfer matrix is this superoperator in an orthonormal
    basis, so both have the same determinant.
    """
    sup = sum(w * np.kron(k, k.conj()) for w, k in nmad_kraus(p, mu))
    return float(np.linalg.det(sup).real)


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum())


def positive_variation(values) -> float:
    diffs = np.diff(np.asarray(values, dtype=float))
    return float(diffs[diffs > 1e-12].sum())


# --------------------------------------------------------------------------
# Six-qubit code
# --------------------------------------------------------------------------


def _codewords() -> tuple[np.ndarray, np.ndarray]:
    plus = np.array([1, 0, 0, 1]) / _R2
    minus = np.array([1, 0, 0, -1]) / _R2
    return (np.kron(np.kron(plus, plus), plus),
            np.kron(np.kron(minus, minus), minus))


def _z_signs(word: str) -> np.ndarray:
    """Diagonal of a Z-string; qubit k is bit 5 - k of the basis index."""
    idx = np.arange(64)
    signs = np.ones(64)
    for k, ch in enumerate(word):
        if ch == "Z":
            signs *= 1 - 2 * ((idx >> (5 - k)) & 1)
    return signs


WORDS = tuple("".join(w) for w in itertools.product("IZ", repeat=6))


def _detectable_words() -> frozenset[str]:
    zero, one = _codewords()
    out = set()
    for word in WORDS:
        s = _z_signs(word)
        if (abs(zero @ (s * zero) - one @ (s * one)) < 1e-12
                and abs(zero @ (s * one)) < 1e-12):
            out.add(word)
    return frozenset(out)


DETECTABLE = _detectable_words()


def _correctable_words() -> tuple[str, ...]:
    """Greedy maximal set, lowest weight first: every pairwise product
    (the XOR of the Z patterns) stays detectable."""
    def xor(a, b):
        return "".join("Z" if x != y else "I" for x, y in zip(a, b))
    chosen: list[str] = []
    for word in sorted(WORDS, key=lambda w: (w.count("Z"), w)):
        if word in DETECTABLE and all(xor(word, c) in DETECTABLE for c in chosen):
            chosen.append(word)
    return tuple(chosen)


CORRECTABLE = _correctable_words()


def chained_probability(word: str, p: float, mu: float) -> float:
    q = {"I": (1 + p) / 2, "Z": (1 - p) / 2}
    prob = q[word[5]]
    for a, b in zip(word, word[1:]):
        prob *= (1 - mu) * q[a] * q[b] + (mu * q[a] if a == b else 0.0)
    return prob


def qec_success(p: float, mu: float, normalized: bool) -> float:
    value = sum(chained_probability(w, p, mu) for w in CORRECTABLE)
    if normalized:
        value /= sum(chained_probability(w, p, mu) for w in WORDS)
    return value


# --------------------------------------------------------------------------
# Checks, one per subcommand
# --------------------------------------------------------------------------


def _rows(text: str, header: list[str]) -> np.ndarray | str:
    """Numeric rows of a CSV, or a reason when the header does not match."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return f"unexpected CSV header {rows[0] if rows else None}"
    try:
        return np.array([[float(x) for x in row] for row in rows[1:]])
    except ValueError as exc:
        return f"non-numeric CSV cell: {exc}"


def _grid(mus, tmax, steps):
    """(t, mu) in the CLI's row order: mu outer, t inner."""
    return [(t, mu) for mu in mus for t in np.linspace(0.0, tmax, steps)]


def _compare(what: str, got, expected, atol: float = ATOL) -> str | None:
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape:
        return f"{what}: {got.size} values, expected {expected.size}"
    err = np.abs(got - expected)
    if not np.all(err <= atol):  # NaN must fail too
        k = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        return f"{what}: {got.flat[k]!r} vs reference {expected.flat[k]!r}"
    return None


def check_evolve_nmad(text, gamma0, g, mus, tmax, steps, state) -> str | None:
    header = ["t", "mu"] + [f"rho{i}{j}_{part}" for i in range(1, 5)
                            for j in range(1, 5) for part in ("re", "im")]
    rows = _rows(text, header)
    if isinstance(rows, str):
        return rows
    grid = _grid(mus, tmax, steps)
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    rho0 = density(state)
    rhos = rows[:, 2::2] + 1j * rows[:, 3::2]
    t0 = rows[:, 0] == 0.0
    msg = _compare("rho at t = 0", rhos[t0], np.tile(rho0.ravel(), (int(t0.sum()), 1)))
    if msg:
        return msg
    diag = rhos[:, [0, 5, 10, 15]]
    if not (np.all(np.abs(rhos) <= 1 + ATOL) and np.all(diag.real >= -ATOL)
            and np.all(np.abs(diag.sum(axis=1) - 1) <= ATOL)):
        return "an evolved entry is out of range or the trace is not 1"
    ps = nmad_damping([t for t, _ in grid], gamma0, g)
    expected = [nmad_evolve(rho0, p, mu).ravel() for (_, mu), p in zip(grid, ps)]
    return _compare("grid", rows[:, :2], grid) or _compare("rho(t)", rhos, expected)


def check_tau_series(text, column, p_of_t, mus, tmax, steps,
                     atol: float = ATOL) -> str | None:
    """Concurrence of a Bell state and trace distance of a Bell pair under
    correlated dephasing both equal tau(mu) = mu + (1 - mu) p^2."""
    rows = _rows(text, ["t", "mu", column])
    if isinstance(rows, str):
        return rows
    grid = _grid(mus, tmax, steps)
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    expected = [float(tau(p_of_t(t), mu)) for t, mu in grid]
    return _compare("grid", rows[:, :2], grid) or _compare(column, rows[:, 2], expected, atol)


def check_blp(text, p_of_t, mus, tmax, steps, n_random) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    labels = list(DEFAULT_PAIRS) + [f"random{k}" for k in range(n_random)] + ["max"]
    expected_keys = [(mu, label) for mu in mus for label in labels]
    if rows[:1] != [["mu", "pair", "blp"]] or len(rows) != len(expected_keys) + 1:
        return "unexpected BLP table shape"
    times = np.linspace(0.0, tmax, steps)
    ps = p_of_t(times)
    for (mu, label), row in zip(expected_keys, rows[1:]):
        if row[1] != label or abs(float(row[0]) - mu) > ATOL:
            return f"unexpected row {row}"
    for mu in mus:
        block = {row[1]: float(row[2]) for row in rows[1:] if abs(float(row[0]) - mu) <= ATOL}
        for label in DEFAULT_PAIRS:
            r1, r2 = (density(name) for name in label.split(":"))
            series = [trace_distance(dephasing_evolve(r1, p, mu), dephasing_evolve(r2, p, mu))
                      for p in ps]
            msg = _compare(f"BLP of {label} at mu={mu}", block[label], positive_variation(series))
            if msg:
                return msg
        values = [v for k, v in block.items() if k != "max"]
        if min(values) < 0 or abs(block["max"] - max(values)) > ATOL:
            return f"BLP max row at mu={mu} is not the largest pair value"
    return None


def check_volume(text, volume_of, mus, tmax, steps) -> str | None:
    """V(t) against the reference, and each witness flag whose rise or fall
    is clear of the 1e-12 threshold."""
    rows = _rows(text, ["t", "mu", "volume", "witness_flag"])
    if isinstance(rows, str):
        return rows
    grid = _grid(mus, tmax, steps)
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    expected = np.array([volume_of(t, mu) for t, mu in grid])
    msg = _compare("grid", rows[:, :2], grid) or _compare("volume", rows[:, 2], expected)
    if msg:
        return msg
    for k in range(len(mus)):
        v = expected[k * steps:(k + 1) * steps]
        flags = rows[k * steps:(k + 1) * steps, 3]
        rise = np.concatenate(([0.0], np.diff(v)))
        clear = np.abs(rise) > 1e-9
        if flags[0] != 0 or np.any(flags[clear] != (rise[clear] > 0)):
            return f"witness flags at mu={mus[k]} disagree with the volume's rises"
    return None


def sss_markov_zeta(G, g_inverse, mu, tmax, steps) -> float:
    """zeta against the memoryless generator diag(-G/2 x8, -G x4).

    L(t) = dF/dt F^-1 is diagonal with d ln p/dt on the eight single-flip
    slots and d ln tau/dt on the four double-flip slots.
    """
    t = np.linspace(0.0, tmax, steps)
    g = 1.0 / g_inverse
    p = oun_p(t, G, g)
    single = -(G / 2) * (1 - np.exp(-g * t))
    double = 2 * (1 - mu) * p ** 2 * single / tau(p, mu)
    norms = np.sqrt(8 * (single + G / 2) ** 2 + 4 * (double + G) ** 2)
    return float(np.trapezoid(norms, t) / tmax)


def check_sss(text, G, g_inverses, mus, tmax, steps, family, markov_text) -> str | None:
    """markov: zeta equals the closed form. free: 0 <= zeta_free <= zeta_markov
    at every (g^-1, mu), since the free family contains the markov generator."""
    rows = _rows(text, ["g_inverse", "mu", "zeta"])
    if isinstance(rows, str):
        return rows
    grid = [(gi, mu) for gi in g_inverses for mu in mus]
    msg = _compare("grid", rows[:, :2], grid)
    if msg:
        return msg
    markov = [sss_markov_zeta(G, gi, mu, tmax, steps) for gi, mu in grid]
    if family == "markov":
        return _compare("zeta_markov", rows[:, 2], markov)
    if markov_text is None:
        return "no markov output to compare zeta_free with"
    given = _rows(markov_text, ["g_inverse", "mu", "zeta"])
    if isinstance(given, str) or _compare("zeta_markov", given[:, 2], markov):
        return "markov output missing or wrong"
    free = rows[:, 2]
    if not np.all((free >= -ATOL) & (free <= given[:, 2] + ATOL)):
        return "zeta_free is negative or exceeds zeta_markov"
    return None


def check_qec(text, p_of_t, mus, tmax, steps, normalized) -> str | None:
    column = "p_success_normalized" if normalized else "p_success"
    rows = _rows(text, ["t", "mu", column])
    if isinstance(rows, str):
        return rows
    grid = _grid(mus, tmax, steps)
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    expected = [qec_success(float(p_of_t(t)), mu, normalized) for t, mu in grid]
    return _compare("grid", rows[:, :2], grid) or _compare(column, rows[:, 2], expected)


def check_classify(text) -> str | None:
    """The 8 undetectable, 56 detectable and 32 correctable error words."""
    expected = {"undetectable": frozenset(WORDS) - DETECTABLE,
                "detectable": DETECTABLE,
                "correctable": frozenset(CORRECTABLE)}
    lines = text.strip().splitlines()
    if len(lines) != 3:
        return f"expected three lines, got {len(lines)}"
    for line, (name, words) in zip(lines, expected.items()):
        head, _, body = line.partition(": ")
        if head != f"{name} ({len(words)})" or frozenset(body.split()) != words:
            return f"wrong {name} set: {head}"
    return None


def freezing_verdict(state: str, kind: str, mu: float) -> str:
    """frozen when the channel fixes the state at every noise value,
    conditional when it would only at mu = 1, not_frozen otherwise."""
    rho = density(state)
    if kind == "nmad":
        evolve, samples = nmad_evolve, (0.25, 0.7, 1.0)
    else:
        evolve, samples = dephasing_evolve, (-0.6, 0.25, 0.7)

    def fixed(m):
        return all(np.abs(evolve(rho, p, m) - rho).max() <= 1e-12 for p in samples)
    if fixed(mu):
        return "frozen"
    return "conditional" if fixed(1.0) else "not_frozen"


def check_freeze(text, state, kind, mu) -> str | None:
    lines = text.splitlines()
    expected = freezing_verdict(state, kind, mu)
    if not lines or lines[0] != expected:
        return f"verdict {lines[0] if lines else None!r}, expected {expected!r}"
    return None
