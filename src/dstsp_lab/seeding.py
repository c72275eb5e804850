"""Deterministic RNG substream derivation.

Every stochastic routine takes either a Generator or a 64-bit seed. Trial t of
a multi-trial experiment always draws from a substream derived from
(base_seed, t) by a fixed integer mix, so a trial's results do not depend on
which trials ran before it or in what order.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def _salt_words(salt):
    # strings fold as little-endian 8-byte words; ints pass through
    if isinstance(salt, str):
        data = salt.encode()
        return [int.from_bytes(data[i:i + 8], "little")
                for i in range(0, max(len(data), 1), 8)]
    return [int(salt)]


def derive_seed(base_seed, *salts):
    # splitmix64 finalizer applied over base and each salt in order
    state = int(base_seed) & _MASK64
    for salt in salts:
        for word in _salt_words(salt):
            state = (state + 0x9E3779B97F4A7C15 + (word & _MASK64)) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state = z ^ (z >> 31)
    return state


def make_rng(base_seed, *salts):
    return np.random.Generator(np.random.PCG64(derive_seed(base_seed, *salts)))
