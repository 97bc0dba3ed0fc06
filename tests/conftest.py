import pytest

from peersurvey.priors import PriorSpec

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "repeatable",
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("repeatable")
except ImportError:
    pass


@pytest.fixture
def uniform_prior():
    """Beta(1,1) latent rate with Uniform[0,1] costs on both bits."""
    return PriorSpec.from_dict({
        "family": "conditional_iid",
        "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
        "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    })


@pytest.fixture
def atom_prior():
    """Two-point latent rate; asymmetric uniform costs."""
    return PriorSpec.from_dict({
        "family": "conditional_iid",
        "mixing": {"kind": "atoms", "atoms": [[0.5, 0.2], [0.5, 0.8]]},
        "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "cost1": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
    })


@pytest.fixture
def point_prior():
    """Degenerate latent rate 0.5 with point-mass costs."""
    return PriorSpec.from_dict({
        "family": "conditional_iid",
        "mixing": {"kind": "point", "theta": 0.5},
        "cost0": {"kind": "point_mass", "value": 0.3},
        "cost1": {"kind": "point_mass", "value": 0.3},
    })
