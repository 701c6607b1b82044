"""Property-based tests of the log-space power-weight integral test."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from levy_transience.verdicts import (
    AT_INFINITY,
    AT_ORIGIN,
    verdict_from_radial_integrand,
)


@given(exponent=st.floats(-3.0, 1.0), shift=st.floats(-3000.0, 3000.0),
       r=st.floats(1e-3, 10.0),
       singularity=st.sampled_from([AT_ORIGIN, AT_INFINITY]))
@example(exponent=-1.0, shift=3000.0, r=1.0, singularity=AT_ORIGIN)
@example(exponent=-1.0, shift=-3000.0, r=1.0, singularity=AT_INFINITY)
def test_verdict_ignores_the_scale_of_the_integrand(exponent, shift, r,
                                                    singularity):
    # G = e^shift * rho^exponent: the scale e^shift, far outside the float
    # range at the ends of the range, must not move the verdict
    def power(c):
        return verdict_from_radial_integrand(
            lambda rhos: c + exponent * np.log(rhos), r,
            singularity=singularity)

    got, want = power(shift), power(0.0)
    assert got.state == want.state
    assert got.refined_state == want.refined_state
    assert math.isclose(got.exponent, want.exponent, rel_tol=1e-9,
                        abs_tol=1e-9)
    assert not any(math.isnan(value) for _, value in got.partials)
