"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.sample_size import minimum_sample_size
from repro.data.resampling import out_of_bootstrap_indices
from repro.hpo.space import LogUniformDimension, SearchSpace, UniformDimension
from repro.stats.binomial import binomial_accuracy_std
from repro.stats.correlated import correlated_mean_variance
from repro.stats.mann_whitney import (
    paired_probability_of_outperforming,
    probability_of_outperforming,
)
from repro.utils.rng import SeedBundle, derive_seed

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
score_arrays = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=30),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class TestProbabilityOfOutperformingProperties:
    @given(a=score_arrays, b=score_arrays)
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_antisymmetric(self, a, b):
        p_ab = probability_of_outperforming(a, b)
        p_ba = probability_of_outperforming(b, a)
        assert 0.0 <= p_ab <= 1.0
        assert p_ab + p_ba == 1.0

    @given(a=score_arrays)
    @settings(max_examples=30, deadline=None)
    def test_self_comparison_is_half(self, a):
        assert paired_probability_of_outperforming(a, a.copy()) == 0.5

    @given(a=score_arrays, shift=st.floats(min_value=1e-3, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_uniform_improvement_gives_one(self, a, shift):
        assert paired_probability_of_outperforming(a + shift, a) == 1.0


class TestBinomialProperties:
    @given(
        accuracy=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_std_bounded_by_half_over_sqrt_n(self, accuracy, n):
        std = binomial_accuracy_std(accuracy, n)
        assert 0.0 <= std <= 0.5 / np.sqrt(n) + 1e-12


class TestEquation7Properties:
    @given(
        variance=st.floats(min_value=0.0, max_value=100.0),
        k=st.integers(min_value=1, max_value=1000),
        rho=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_variance_between_iid_and_full_correlation(self, variance, k, rho):
        value = correlated_mean_variance(variance, k, rho)
        assert variance / k - 1e-9 <= value <= variance + 1e-9

    @given(
        variance=st.floats(min_value=1e-6, max_value=10.0),
        k=st.integers(min_value=2, max_value=100),
        rho_low=st.floats(min_value=0.0, max_value=0.5),
        rho_delta=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_correlation(self, variance, k, rho_low, rho_delta):
        assert correlated_mean_variance(variance, k, rho_low) <= correlated_mean_variance(
            variance, k, rho_low + rho_delta
        ) + 1e-12


class TestBootstrapProperties:
    @given(n=st.integers(min_value=2, max_value=500), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_out_of_bag_disjoint_and_in_range(self, n, seed):
        rng = np.random.default_rng(seed)
        in_bag, out_of_bag = out_of_bootstrap_indices(n, rng)
        assert in_bag.size == n
        assert set(in_bag).isdisjoint(out_of_bag)
        assert set(in_bag) | set(out_of_bag) <= set(range(n))
        assert np.all(np.bincount(in_bag, minlength=n)[list(out_of_bag)] == 0)


class TestSeedProperties:
    @given(base=st.integers(min_value=0, max_value=2**31), key=st.text(max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_derive_seed_deterministic_and_in_range(self, base, key):
        seed = derive_seed(base, key)
        assert seed == derive_seed(base, key)
        assert 0 <= seed < 2**32

    @given(
        base=st.integers(min_value=0, max_value=2**31),
        source=st.sampled_from(["data", "init", "order", "hopt"]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_randomizing_one_source_preserves_others(self, base, source, seed):
        bundle = SeedBundle(base_seed=base)
        updated = bundle.with_seeds(**{source: seed})
        for other in ("data", "init", "order", "dropout", "augment", "hopt", "numerical"):
            if other != source:
                assert updated.seed_for(other) == bundle.seed_for(other)


class TestSearchSpaceProperties:
    @given(
        low=st.floats(min_value=-100, max_value=99),
        width=st.floats(min_value=1e-3, max_value=100),
        unit=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_unit_roundtrip(self, low, width, unit):
        dim = UniformDimension(low, low + width)
        assert abs(dim.to_unit(dim.from_unit(unit)) - unit) < 1e-6

    @given(
        log_low=st.floats(min_value=-8, max_value=0),
        log_width=st.floats(min_value=0.1, max_value=6),
        unit=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_loguniform_sample_and_roundtrip(self, log_low, log_width, unit):
        dim = LogUniformDimension(10**log_low, 10 ** (log_low + log_width))
        value = dim.from_unit(unit)
        assert dim.low * (1 - 1e-9) <= value <= dim.high * (1 + 1e-9)
        assert abs(dim.to_unit(value) - unit) < 1e-6

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_space_sample_within_bounds(self, seed):
        space = SearchSpace(
            {
                "lr": LogUniformDimension(1e-5, 1e-1),
                "momentum": UniformDimension(0.5, 0.99),
            }
        )
        config = space.sample(np.random.default_rng(seed))
        assert 1e-5 <= config["lr"] <= 1e-1
        assert 0.5 <= config["momentum"] <= 0.99


class TestSampleSizeProperties:
    @given(gamma=st.floats(min_value=0.51, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_positive_and_monotone(self, gamma):
        size = minimum_sample_size(gamma)
        assert size >= 1
        if gamma < 0.98:
            assert minimum_sample_size(gamma + 0.01) <= size
