import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skellam_fields import (
    CfGrid,
    ComparisonReport,
    GsrfParams,
    McConfig,
    Metric,
    PmfTable,
    RngStream,
    SkellamParams,
    ValidationError,
    convergence_study,
    covariance_z_check,
    empirical_cf,
    empirical_pmf,
    moment_z_check,
    sample_sharded,
    srf_pmf_table,
    tv_distance,
    variance_z_check,
)
from skellam_fields.verification import _tv_noise_floor

PARAMS = GsrfParams(((1.0, 2.0), (-1.0, 1.0)))


class TestEmpiricalPmf:
    def test_point_mass(self):
        table = empirical_pmf([0] * 50, -3, 3)
        assert table.prob(0) == 1.0
        assert table.tail_mass == 0.0

    def test_window_exclusion(self):
        table = empirical_pmf([10, 12, -11], -3, 3)
        assert table.tail_mass == 1.0

    def test_counting_identity(self):
        samples = [0, 1, 1, 2, -5, 7]
        table = empirical_pmf(samples, -2, 2)
        assert float(table.probs.sum()) + table.tail_mass == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            empirical_pmf([], 0, 1)


def random_table(rng, n_min, n_max):
    weights = rng.random(n_max - n_min + 2)
    weights /= weights.sum()
    return PmfTable(n_min, n_max, weights[:-1], float(weights[-1]))


class TestTvDistance:
    def test_identity(self):
        t = empirical_pmf([0, 1, 2], 0, 2)
        assert tv_distance(t, t) == 0.0

    def test_disjoint_masses(self):
        a = empirical_pmf([0] * 10, 0, 1)
        b = empirical_pmf([1] * 10, 0, 1)
        assert tv_distance(a, b) == 1.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, seed):
        gen = RngStream(seed).generator
        p = random_table(gen, -2, 2)
        q = random_table(gen, -2, 2)
        r = random_table(gen, -2, 2)
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
        assert tv_distance(p, p) == 0.0


class TestEmpiricalCf:
    def test_unit_at_zero(self):
        vals = empirical_cf([1.5, -2.0, 7.0], CfGrid((0.0, 1.0)))
        assert vals[0] == 1.0 + 0.0j

    def test_all_zero_samples(self):
        vals = empirical_cf([0.0] * 5, CfGrid((-1.0, 0.0, 1.0)))
        assert np.allclose(vals, 1.0)

    def test_conjugate_symmetry(self):
        grid = CfGrid((-1.3, 0.0, 1.3))
        vals = empirical_cf([0.3, 1.9, -0.7, 4.0], grid)
        assert vals[0] == pytest.approx(np.conj(vals[2]))


class TestZChecks:
    def test_pass_under_null(self):
        draws = RngStream(1).generator.normal(2.0, 3.0, size=100_000)
        assert moment_z_check(draws, 2.0, 9.0).passed

    def test_fail_with_shifted_mean(self):
        draws = RngStream(2).generator.normal(0.0, 1.0, size=100_000)
        shifted = 10.0 * math.sqrt(1.0 / draws.size)
        assert not moment_z_check(draws, shifted, 1.0).passed

    def test_translation_invariance(self):
        draws = RngStream(3).generator.normal(0.0, 1.0, size=10_000)
        z1 = moment_z_check(draws, 0.1, 1.0).value
        z2 = moment_z_check(draws + 5.0, 5.1, 1.0).value
        assert z1 == pytest.approx(z2, rel=1e-9)

    def test_variance_gate(self):
        draws = RngStream(4).generator.normal(0.0, 2.0, size=100_000)
        assert variance_z_check(draws, 4.0).passed
        assert not variance_z_check(draws, 5.0).passed

    def test_covariance_gate(self):
        gen = RngStream(5).generator
        shared = gen.poisson(2.0, size=100_000)
        x = shared + gen.poisson(1.0, size=100_000)
        y = shared + gen.poisson(3.0, size=100_000)
        report = covariance_z_check(x, y, 3.0, 5.0, 2.0)
        assert report.passed
        assert not covariance_z_check(x, y, 3.0, 5.0, 3.0).passed


class TestComparisonReport:
    def test_pass_iff_value_below_threshold(self):
        assert ComparisonReport(Metric.TV, 0.01, 0.02).passed
        assert not ComparisonReport(Metric.TV, 0.03, 0.02).passed
        assert ComparisonReport(Metric.TV, 0.02, 0.02).passed

    def test_serialization(self):
        rep = ComparisonReport(Metric.MOMENT_Z, 1.0, 4.0, metadata={"kind": "mean"})
        d = rep.to_dict()
        assert d["pass"] is True
        assert d["metric"] == "MOMENT_Z"

    def test_mcconfig_validation(self):
        with pytest.raises(ValidationError):
            McConfig(0, 1)
        with pytest.raises(ValidationError):
            McConfig(10, 1, workers=0)


class TestShardedSampling:
    def test_deterministic_and_worker_invariant(self):
        def draw(stream, n):
            return stream.generator.normal(size=n)

        base = RngStream(77)
        a = sample_sharded(draw, 20_000, base, workers=1)
        b = sample_sharded(draw, 20_000, RngStream(77), workers=4)
        assert np.array_equal(a, b)

    def test_total_respected(self):
        out = sample_sharded(lambda s, n: np.ones(n), 12_345, RngStream(1), workers=2)
        assert out.size == 12_345


class TestConvergenceStudy:
    CFG = McConfig(20_000, 99, workers=1)

    def test_reports_carry_noise_floor(self):
        reports = convergence_study(PARAMS, 1.0, 1.0, (8, 16), self.CFG)
        assert all("noise_floor" in r.metadata for r in reports)
        assert [r.metadata["k"] for r in reports] == [8, 16]

    def test_coarse_lattice_has_largest_tv(self):
        reports = convergence_study(PARAMS, 1.0, 1.0, (2, 64), self.CFG, tv_threshold=1.0)
        assert reports[0].value > reports[1].value

    def test_worker_invariance(self):
        r1 = convergence_study(PARAMS, 1.0, 1.0, (8,), McConfig(20_000, 5, 1))
        r4 = convergence_study(PARAMS, 1.0, 1.0, (8,), McConfig(20_000, 5, 4))
        assert r1[0].value == r4[0].value

    def test_determinism(self):
        r1 = convergence_study(PARAMS, 1.0, 1.0, (8,), self.CFG)
        r2 = convergence_study(PARAMS, 1.0, 1.0, (8,), self.CFG)
        assert r1[0].value == r2[0].value

    def test_k_values_validated(self):
        with pytest.raises(ValidationError):
            convergence_study(PARAMS, 1.0, 1.0, (16, 8), self.CFG)

    def test_non_skellam_jumps_use_mc_reference(self):
        params = GsrfParams(((1.0, 1.0), (2.0, 0.5)))
        reports = convergence_study(params, 1.0, 1.0, (32,), self.CFG, tv_threshold=1.0)
        assert reports[0].value < 0.1

    def test_noise_floor_value_counts_the_tail(self):
        # A window that leaves a tenth of the mass outside, so the tail term matters.
        ref = srf_pmf_table(SkellamParams(2.0, 1.0), 1.0, 1.0, -1, 2)
        assert ref.tail_mass > 0.1
        n = 5000
        direct = (0.5 * sum(math.sqrt(p * (1.0 - p) / n) for p in ref.probs)
                  + 0.5 * math.sqrt(ref.tail_mass * (1.0 - ref.tail_mass) / n))
        assert _tv_noise_floor(ref, n) == pytest.approx(direct, rel=1e-12)

    def test_skellam_jumps_use_exact_bessel_reference(self):
        # The floor of an empirical reference would differ from the Bessel table's.
        reports = convergence_study(PARAMS, 1.0, 1.0, (8,), self.CFG, window=(-2, 3))
        exact = srf_pmf_table(SkellamParams(2.0, 1.0), 1.0, 1.0, -2, 3)
        assert reports[0].metadata["noise_floor"] == _tv_noise_floor(exact, self.CFG.replicates)
