"""Property tests of the boundary constant A(p) over the whole range p > 2."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from disknorms import profiles as pf

EXPONENTS = st.floats(min_value=2.0 + 1e-5, max_value=1e6, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(EXPONENTS, EXPONENTS)
def test_a_p_answers_in_one_block_under_its_ceiling_and_decreases(p1, p2):
    small, large = sorted((p1, p2))
    brackets = []
    for p in (small, large):
        got = pf.a_p_constant(p, 1e-12)
        assert math.isfinite(got.value) and math.isfinite(got.tail_bound)
        # one 4096-term block after t_0: the work, and so the time, is fixed
        assert got.terms_used <= 4097
        assert got.value + got.tail_bound < pf.a_p_upper_bound(p)
        brackets.append((got.value - got.tail_bound, got.value + got.tail_bound))
    # A is decreasing in p, so the bracket at the smaller exponent must reach
    # at least the lower end of the bracket at the larger one
    assert brackets[0][1] >= brackets[1][0]
