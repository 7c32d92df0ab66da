"""Property tests of the representation matrix of U_g."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cdhom import GroupElement, ModelParams, TriangularRep, exp_basis, representation_matrix  # noqa: E402
from cdhom.mobius import X1, Y  # noqa: E402
from helpers import active_slots  # noqa: E402


@st.composite
def small_elements(draw):
    theta, s, t = draw(st.floats(-1.0, 1.0)), draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
    return GroupElement.rotation(theta) @ exp_basis(X1, s) @ exp_basis(Y, t)


@pytest.mark.filterwarnings("ignore::cdhom.TruncationLossWarning")  # the columns past N/2 may leak
@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(st.integers(0, 8), st.floats(0.05, 3.0), small_elements(), small_elements())
def test_representation_is_multiplicative_on_low_degrees(m, excess, g, h):
    # U_gh = U_g U_h on the degrees <= N/2, where the truncation at N = 60 cuts off nothing.
    p = ModelParams(lam=m / 2.0 + excess, m=m, mu=(1.0,) * (m + 1))
    rep = TriangularRep.from_params(p)
    n_trunc, keep = 60, active_slots(m, 30)
    u_g, u_h, u_gh = (representation_matrix(x, p, rep, n_trunc).matrix for x in (g, h, g @ h))
    assert np.max(np.abs(u_gh[np.ix_(keep, keep)] - u_g[keep] @ u_h[:, keep])) <= 1e-13
