"""Reference component analysis through the full N x M SVD.

This is the straightforward path the level-space fit in ``fftasca.sca``
replaced, kept as a test oracle: the SVD of the whole effect matrix gives
the scores and loadings, and every sample row of the effect is
inverse-transformed on its own.  The level-space fit must agree with it to
rounding, component by component, with the same phase convention.
"""

import numpy as np

from fftasca.errors import RankExceeded
from fftasca.linalg import rank_from_singular_values
from fftasca.sca import _canonical_phase


def full_sca_fit(effect, residuals, n_components=None, cap=None):
    """(scores, projected scores, loadings, explained ssq) of the effect."""
    u, s, vh = np.linalg.svd(effect, full_matrices=False)
    rank = rank_from_singular_values(s, effect.shape)
    if rank == 0:
        raise RankExceeded("effect matrix is zero")
    if n_components is None:
        energy = np.cumsum(s[:rank] ** 2) / np.sum(s[:rank] ** 2)
        wanted = int(np.searchsorted(energy, 0.95) + 1)
        n_components = max(1, min(wanted, rank if cap is None else cap, rank))
    if not 1 <= n_components <= rank:
        raise RankExceeded(f"{n_components} components, rank {rank}")
    loadings = vh[:n_components].conj().T.copy()
    scores = u[:, :n_components] * s[:n_components]
    for r in range(n_components):
        phase = _canonical_phase(loadings[:, r])
        loadings[:, r] *= phase
        scores[:, r] *= phase
    return scores, (effect + residuals) @ loadings, loadings, s[:n_components] ** 2


def full_effect_to_time(decomp, term, include_mean=False):
    """(real time-domain effect, largest discarded imaginary part), every
    sample row transformed."""
    values = decomp.effect(term)
    if include_mean:
        values = values + decomp.grand_mean_row
    time = np.fft.ifft(values, axis=1)
    return time.real, float(np.max(np.abs(time.imag)))
