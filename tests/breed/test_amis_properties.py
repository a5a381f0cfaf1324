"""Property tests of the one-step AMIS invariants (Section 3.2).

For any window of in-box locations with finite, non-negative ``Q_j`` values:
the importance weights are self-normalised, the Kish effective sample size
lies in ``[1, N]``, and every proposed parameter vector — Gaussian draw,
fallback location or uniform exploration point — lies inside the box.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.breed import AMISConfig, AdaptiveImportanceSampler
from repro.sampling.bounds import ParameterBounds


@st.composite
def amis_problems(draw):
    dim = draw(st.integers(1, 4))
    low = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim)))
    width = np.array(draw(st.lists(st.floats(0.01, 50.0), min_size=dim, max_size=dim)))
    bounds = ParameterBounds(tuple(low), tuple(low + width))
    n_window = draw(st.integers(1, 24))
    unit = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n_window * dim, max_size=n_window * dim))
    ).reshape(n_window, dim)
    locations = bounds.clip(bounds.scale_from_unit(unit))
    q_values = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
                min_size=n_window,
                max_size=n_window,
            )
        )
    )
    config = AMISConfig(
        sigma=draw(st.floats(1e-3, 100.0)),
        sigma_decrement=draw(st.floats(0.0, 5.0)),
        max_retries=draw(st.integers(0, 6)),
    )
    return {
        "bounds": bounds,
        "config": config,
        "locations": locations,
        "q_values": q_values,
        "n_samples": draw(st.integers(1, 40)),
        "concentrate": draw(st.floats(0.0, 1.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=150, deadline=None)
@given(amis_problems())
def test_amis_invariants(problem):
    sampler = AdaptiveImportanceSampler(problem["bounds"], problem["config"])
    n_window = problem["locations"].shape[0]
    result = sampler.propose(
        locations=problem["locations"],
        q_values=problem["q_values"],
        n_samples=problem["n_samples"],
        concentrate_probability=problem["concentrate"],
        rng=np.random.default_rng(problem["seed"]),
    )
    # Self-normalised importance weights over the window.
    assert result.weights.shape == (n_window,)
    assert np.all(result.weights >= 0.0)
    assert result.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # Kish effective sample size within [1, N].
    assert 1.0 - 1e-9 <= result.ess <= n_window + 1e-9
    # Every proposed vector lies in the parameter box.
    assert result.samples.shape == (problem["n_samples"], problem["bounds"].dim)
    assert problem["bounds"].contains_all(result.samples)
    assert np.all(result.resampled_indices >= 0) and np.all(result.resampled_indices < n_window)
    assert result.n_fallbacks <= problem["n_samples"]
