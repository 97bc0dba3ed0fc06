"""Deterministic RNG derivation, chunk iteration and report serialisation.

Every stochastic operation in this package takes an integer seed and derives
independent generators from (seed, index, ...) tuples.  Work split into chunks
uses one generator per chunk index, so results never depend on scheduling,
thread count or chunk evaluation order.
"""

from dataclasses import fields

import numpy as np

# Trials per chunk in the survey and utility samplers.  They keep O(1)
# counts per trial, so a chunk's memory does not grow with the population.
CHUNK_TRIALS = 1 << 16


def check_seed(seed):
    """Validate and normalize a user-supplied seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def as_generator(seed_or_rng):
    """Accept an integer seed or a numpy Generator and return a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(check_seed(seed_or_rng))


def subseed_rng(seed, *path):
    """Generator derived deterministically from (seed, *path)."""
    entropy = [check_seed(seed)] + [int(p) for p in path]
    return np.random.default_rng(entropy)


def derive_seed(seed, *path):
    """Independent integer sub-seed for a named role under a master seed."""
    ss = np.random.SeedSequence([check_seed(seed)] + [int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])


def chunk_sizes(total, size):
    """Yield (chunk_index, count) pairs covering `total` items."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    size = max(1, int(size))
    index = 0
    done = 0
    while done < total:
        count = min(size, total - done)
        yield index, count
        index += 1
        done += count


def merge_moments(moments, values):
    """Fold a chunk of values into a running (count, mean, M2) triple.

    M2 is the sum of squared deviations from the mean.  Chunks are merged
    by Chan, Golub & LeVeque (1979), so the variance suffers no cancellation.
    """
    count, mean, m2 = moments
    size = values.size
    chunk_mean = float(values.mean())
    shift = chunk_mean - mean
    count += size
    mean += shift * size / count
    m2 += float(((values - chunk_mean) ** 2).sum()) + shift**2 * (count - size) * size / count
    return count, mean, m2


def report_dict(report):
    """A report dataclass's fields in declaration order, as a `to_dict`.

    Fields declared with compare=False hold data kept for the CLI's CSV
    records only, and are left out.
    """
    return {f.name: getattr(report, f.name) for f in fields(report) if f.compare}
