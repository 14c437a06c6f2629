"""Reference permutation stream: one freshly seeded generator per permutation.

This is the loop ``fftasca.design.permute_rows`` replaced with a seeding
computed once per stream, kept as a test oracle.  Permutation ``i`` of the
stream for ``seed`` is that of a ``PCG64`` generator seeded from
``SeedSequence(seed, spawn_key=(i,))``; ``permute_rows`` must reproduce it
bit for bit under the installed numpy.
"""

import numpy as np


def rng_for(seed, index):
    """Independent generator for permutation ``index`` of a seeded stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def permutation_stream(n, count, seed):
    """The first ``count`` permutations of ``range(n)`` for ``seed``."""
    out = np.empty((count, n), dtype=np.intp)
    for i in range(count):
        out[i] = rng_for(seed, i).permutation(n)
    return out
