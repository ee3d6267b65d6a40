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
