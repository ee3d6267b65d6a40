"""Dense angular-momentum blocks used as test oracles."""

import numpy as np


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


def mzi_probabilities(state, phis) -> dict:
    """Counting probabilities {(n_a, n_b): array over phis} of state sent
    through an MZI, from dense splitters expm(i*pi*J1/2) of each sector's
    J1 block with exp(-i*phi*J3) between them; independent of the
    library's splitter columns and phase kernel."""
    from scipy.linalg import expm

    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    inputs = {}
    for (a, b), amp in state.items():
        inputs.setdefault(a + b, np.zeros(a + b + 1, dtype=np.complex128))[a] = amp
    probs = {}
    for n, vec in inputs.items():
        j1, _, j3 = schwinger_matrices(n)
        split = expm(0.5j * np.pi * j1)
        out = (np.exp(-1j * np.outer(phis, np.diag(j3).real)) * (split @ vec)) @ split.T
        for a in range(n + 1):
            probs[(a, n - a)] = np.abs(out[:, a]) ** 2
    return probs
