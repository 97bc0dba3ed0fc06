"""Deterministic RNG derivation, chunk iteration, config objects and report
serialisation.

Every stochastic operation in this package takes an integer seed and derives
independent generators from (seed, index, ...) tuples.  Work split into chunks
uses one generator per chunk index, so results never depend on scheduling,
thread count or chunk evaluation order.
"""

import sys
from dataclasses import MISSING, fields

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
    for index, start in enumerate(range(0, total, size)):
        yield index, min(size, total - start)


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


def cross_check(exact, mc, se, samples):
    """A Monte Carlo cross-check's record: {exact, mc, se, samples, z}, with
    z = (mc - exact) / se, z = 0 where mc equals exact, and z = None where
    they differ but the draws had no spread (se = 0)."""
    z = 0.0 if mc == exact else (mc - exact) / se if se > 0.0 else None
    return {"exact": exact, "mc": mc, "se": se, "samples": samples, "z": z}


def report_dict(report):
    """A report dataclass's fields in declaration order, as a `to_dict`.

    Fields declared with compare=False hold data kept for the CLI's CSV
    records only, and are left out.
    """
    return {f.name: getattr(report, f.name) for f in fields(report) if f.compare}


def is_number(value):
    """Whether a config value is a finite JSON number; a bool is not one."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def from_config(kinds, d, path):
    """Build the config dataclass that the JSON object `d` describes.

    `kinds` is a dataclass, or a table from each "kind" value to one, and
    then the object's "kind" key picks it.  Every other key must name a
    field, and a field without a default is required.  A float or int field
    takes a finite JSON number (an int field an integer only); a field whose
    metadata names a kind table is built by this function under
    `path.field`.  Other values go to the dataclass as given, for its
    __post_init__ to check.  Every error is a ValueError naming the path;
    one raised by __post_init__ gets `path: ` prefixed.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{path} must be an object, got {d!r}")
    cls = kinds
    if isinstance(kinds, dict):
        d = dict(d)
        kind = d.pop("kind", None)
        if type(kind) is not str or kind not in kinds:
            raise ValueError(f"{path} needs a 'kind' in {tuple(kinds)}, got {kind!r}")
        cls = kinds[kind]
    known = {f.name: f for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ValueError(f"{path} has no key {key!r}")
    values = {}
    for name, f in known.items():
        if name not in d:
            if f.default is MISSING:
                raise ValueError(f"{path} is missing key {name!r}")
            continue
        value = d[name]
        if "kinds" in f.metadata:
            value = from_config(f.metadata["kinds"], value, f"{path}.{name}")
        elif f.type in (int, float):
            if not is_number(value) or (f.type is int and type(value) is not int):
                need = "an integer" if f.type is int else "a finite number"
                raise ValueError(f"{path}.{name} must be {need}, got {value!r}")
            value = f.type(value)
        values[name] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
