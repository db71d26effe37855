import numpy as np
import pytest

from cronlab.grid import divergence, gradient, lebesgue_norm


def _divergence_free(V, tol=1e-10) -> bool:
    """The oracle for a divergence-free vector field: sup |div V| within tol of
    the largest sup |d_i V_j|."""
    dv = lebesgue_norm(divergence(V), np.inf)
    scale = max(lebesgue_norm(d, np.inf)
                for c in V.components for d in gradient(c).components)
    return dv <= tol * max(scale, 1e-300)


@pytest.fixture
def divergence_free():
    return _divergence_free
