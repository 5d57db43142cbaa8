"""Deterministic 64-bit seed derivation and a tiny counter-based PRNG.

Every seed in this package is ``mix64`` of integer seeds and coordinates, and
no step reads global RNG state, so results do not depend on thread count or
evaluation order.  Two generators draw from those seeds:

- shots-mode kernel entries draw their per-shot uniforms from the SplitMix64
  stream below: 64-bit integer arithmetic, the same on every platform and
  numpy version;
- ``data.sample_subset`` and the two data generators
  (``synthetic_raw_series``, ``quantum_separable_dataset``) draw from
  ``np.random.default_rng(mix64(...))``, numpy's PCG64.  numpy keeps that bit
  stream, but does not promise that its ``permutation``, ``standard_normal``,
  ``uniform`` and other methods map it to the same values in another numpy
  version (NEP 19), so their subsets and data are reproducible bit-for-bit
  under one numpy version.

The mixing function is the SplitMix64 finalizer (Steele, Lea & Flood 2014):

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

all arithmetic modulo 2**64.  ``mix64`` absorbs words by modular addition
followed by the finalizer; the raw stream is the counter form
``out[k] = finalize(seed + (k+1) * GOLDEN)``.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def finalize64(z: int) -> int:
    """SplitMix64 output mix on a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def mix64(*words: int) -> int:
    """Hash integer words into one 64-bit seed.

    Starts from GOLDEN and absorbs each word with an add-then-finalize
    round, so the result is order-sensitive: mix64(a, b) != mix64(b, a).
    Negative words are reduced modulo 2**64 first.
    """
    acc = GOLDEN
    for w in words:
        acc = finalize64((acc + (w & MASK64)) & MASK64)
    return acc


def splitmix64_stream(seed: int, n: int) -> np.ndarray:
    """First ``n`` SplitMix64 outputs for ``seed``, as a uint64 array.

    Output k equals finalize64(seed + (k+1)*GOLDEN); the counter form makes
    the stream random-access and vectorizable.  The finalizer is repeated with ``np.uint64``
    operands: ``finalize64``'s Python ints and masks cost about 3 us per 1024-shot entry.
    """
    base = np.uint64(seed & MASK64)
    ks = np.arange(1, n + 1, dtype=np.uint64)
    z = base + ks * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MULT1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MULT2)
    return z ^ (z >> np.uint64(31))


def uniforms(seed: int, n: int) -> np.ndarray:
    """``n`` uniform doubles in [0, 1): top 53 bits of each stream output."""
    return (splitmix64_stream(seed, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
