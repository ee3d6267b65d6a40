"""Dense angular-momentum blocks and closed forms used as test oracles,
and the sector kinds the fisher split records, read as the tests need them."""

import functools
import math

import numpy as np

from qfilab.fisher import _GENERAL, _TWO_BRANCH, _split


def sector_kinds(pre):
    """The index of the n_a = 0 entry of each two-branch sector of the
    pre-measurement state pre, and pre restricted to its general sectors:
    the kinds fisher._split records for pre read with no first splitter."""
    kind = _split(pre, "MMZI").kind
    _, lo, hi = pre.sectors
    return lo[kind == _TWO_BRANCH], pre.subset(np.repeat(kind == _GENERAL, hi - lo))


def schwinger_matrices(n_total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (J1, J2, J3) blocks on the N-photon sector, basis indexed by n_a."""
    dim = n_total + 1
    k = np.arange(n_total)
    c = 0.5 * np.sqrt((k + 1.0) * (n_total - k))
    j1 = np.zeros((dim, dim), dtype=np.complex128)
    j1[k + 1, k] = c
    j1[k, k + 1] = c
    j2 = np.zeros((dim, dim), dtype=np.complex128)
    j2[k + 1, k] = -1j * c
    j2[k, k + 1] = 1j * c
    j3 = np.diag(np.arange(dim) - n_total / 2.0).astype(np.complex128)
    return j1, j2, j3


def j2_stencil(z, n_total: int) -> np.ndarray:
    """-i J2 z along the last axis of one N-photon sector's outcome
    amplitudes (n_a = 0..N), written as the rule's per-sector formula
    e_k z_{k+1} - e_{k-1} z_{k-1} with e_k = sqrt((k+1)(N-k))/2."""
    k = np.arange(n_total)
    e = 0.5 * np.sqrt((k + 1.0) * (n_total - k))
    dz = np.zeros_like(z)
    dz[..., :-1] = z[..., 1:] * e
    dz[..., 1:] -= z[..., :-1] * e
    return dz


@functools.lru_cache(maxsize=None)
def dense_splitter(n_total: int) -> np.ndarray:
    """The 50:50 splitter expm(i*pi*J1/2) of the N-photon sector's dense J1
    block, read-only (it is cached)."""
    from scipy.linalg import expm

    split = expm(0.5j * np.pi * schwinger_matrices(n_total)[0])
    split.flags.writeable = False
    return split


def _phased_inputs(state, phis, pipeline: str, sectors=None):
    """Yield (N, chi, m) per occupied sector of state, or per one in
    sectors: chi[i] its input at phis[i] after exp(-i*phi*J3), which for
    "MZI" follows a dense_splitter, and m its J3 eigenvalues."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    inputs = {}
    for (a, b), amp in state.items():
        if sectors is None or a + b in sectors:
            inputs.setdefault(a + b, np.zeros(a + b + 1, dtype=np.complex128))[a] = amp
    for n, vec in inputs.items():
        m = np.arange(n + 1) - n / 2.0
        yield n, np.exp(-1j * np.outer(phis, m)) * (dense_splitter(n) @ vec if pipeline == "MZI" else vec), m


def counting_amplitudes(state, phis, pipeline: str) -> dict:
    """Counting amplitudes {(n_a, n_b): (z, dz)}, arrays over phis, of state
    sent through a pipeline, with dz their phase derivative: exp(-i*phi*J3)
    and then a dense_splitter, for "MZI" after a dense_splitter once before
    the phase too; independent of the library's splitter columns, phase
    kernel and rotation."""
    amps = {}
    for n, chi, m in _phased_inputs(state, phis, pipeline):
        split = dense_splitter(n)
        out, dout = chi @ split.T, (chi * (-1j * m)) @ split.T
        for a in range(n + 1):
            amps[(a, n - a)] = (out[:, a], dout[:, a])
    return amps


def counting_probabilities(state, phis, pipeline: str, keys) -> dict:
    """Counting probabilities {(n_a, n_b): array over phis} of the outcomes
    keys of state sent through a pipeline, by counting_amplitudes' route,
    taking only those outcomes' rows of the final splitter."""
    probs = {}
    for n, chi, _ in _phased_inputs(state, phis, pipeline, {a + b for a, b in keys}):
        a = [k[0] for k in keys if sum(k) == n]
        for k, z in zip(a, (chi @ dense_splitter(n)[a].T).T):
            probs[(k, n - k)] = np.abs(z) ** 2
    return probs


def dual_fock_after_bs(n: int):
    """Closed-form image of |N,N> under the 50:50 splitter, N >= 1.

    Only even occupations survive; the amplitude on |2k, 2N-2k> is
    i^N * sqrt(C(2k,k) * C(2N-2k,N-k)) / 2^N, its binomials taken in log
    space so the expression stays finite at large N. Component k has J3
    eigenvalue 2k-N, so the per-component sensitivity weights are
    (2N-4k)^2. Independent of the library's splitter columns and rotation.
    """
    from scipy.special import gammaln

    from qfilab import InvalidNError, make_state

    if n < 1:
        raise InvalidNError("closed form defined for N >= 1")
    k = np.arange(n + 1)
    log_mag = 0.5 * (
        gammaln(2 * k + 1) - 2 * gammaln(k + 1)
        + gammaln(2 * (n - k) + 1) - 2 * gammaln(n - k + 1)
    ) - n * math.log(2.0)
    amps = np.exp(log_mag) * (1j ** n)
    return make_state(list(zip((2 * k).tolist(), (2 * (n - k)).tolist(), amps.tolist())), cutoff=2 * n)
