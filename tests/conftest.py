import numpy as np
import pytest
from hypothesis import settings

from omtube import geometry as geo

# Property tests draw from a fixed seed so that tier-1 stays deterministic,
# and a bounded example count keeps its wall time bounded.
settings.register_profile("omtube", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("omtube")


def fit_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def random_ball_points(rng, d, radius, n):
    """Uniform-direction points with |x| < radius (not uniform in volume)."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * (radius * rng.random((n, 1)))


@pytest.fixture(scope="session")
def sphere2_chart():
    return geo.fermi_chart(geo.sphere(2, 1.0), geo.constant_curve(T=0.5), 0.6)


@pytest.fixture(scope="session")
def sphere3_chart():
    return geo.fermi_chart(geo.sphere(3, 1.0), geo.constant_curve(T=0.5), 0.6)


@pytest.fixture(scope="session")
def hyperbolic2_chart():
    return geo.fermi_chart(geo.hyperbolic(2, 1.0), geo.constant_curve(T=0.5), 0.6)


@pytest.fixture(scope="session")
def hyperbolic3_chart():
    return geo.fermi_chart(geo.hyperbolic(3, 1.0), geo.constant_curve(T=0.5), 0.6)


@pytest.fixture(scope="session")
def euclid1_chart():
    return geo.fermi_chart(geo.euclidean(1), geo.constant_curve(T=1.0), 5.0)


@pytest.fixture(scope="session")
def euclid2_chart():
    return geo.fermi_chart(geo.euclidean(2), geo.constant_curve(T=0.5), 1.0)


@pytest.fixture(scope="session")
def warped3_chart():
    model = geo.warped_diagonal(3, "bump_strong")
    curve = geo.constant_curve(T=0.1, point=[0.35, 0.15, -0.25])
    return geo.fermi_chart(model, curve, 0.3)
