"""Deterministic random streams.

Every source of randomness in the package draws from a counter-based Philox
generator keyed by (root seed, purpose, index).  Streams for different
purposes are independent, so e.g. changing the number of training epochs
never perturbs the data-generation draws.
"""

import numpy as np

# Fixed purpose indices; extending the table is backwards compatible as long
# as existing entries keep their numbers.
PURPOSES = {
    "data": 0,
    "init": 1,
    "shuffle": 2,
    "grf": 3,
    "test": 4,
}


def stream(root_seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return the generator for (root_seed, purpose, index)."""
    if purpose not in PURPOSES:
        raise KeyError(f"unknown RNG purpose {purpose!r}")
    seq = np.random.SeedSequence(root_seed, spawn_key=(PURPOSES[purpose], index))
    return np.random.Generator(np.random.Philox(seq))
