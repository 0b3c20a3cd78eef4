import numpy as np
import pytest
from dataclasses import asdict, replace

from socfem import AffineInW, example1, example2, verify_manufactured


@pytest.fixture(scope="module")
def prob1():
    return example1()


@pytest.fixture(scope="module")
def prob2():
    return example2()


def sample_points(dim, n=40, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, (n, dim))


class TestExample1:
    def test_delta(self, prob1):
        assert prob1.delta == pytest.approx(1 / np.pi, rel=1e-15)

    def test_adjoint_is_minus_alpha_control(self, prob1):
        pts = sample_points(1)
        for t in (0.0, 0.3, 0.77, 1.0):
            assert prob1.exact_y(t, pts) == pytest.approx(
                -prob1.spec.alpha * prob1.exact_u(t, pts), abs=1e-15
            )

    def test_initial_state_zero(self, prob1):
        pts = sample_points(1)
        assert np.abs(prob1.exact_x.mean(0.0, pts)).max() == 0.0
        assert np.abs(prob1.spec.x0(pts)).max() == 0.0

    def test_affine_in_w(self, prob1):
        pts = sample_points(1)
        for t in (0.1, 0.5, 0.9):
            x = prob1.exact_x
            plus = x.mean(t, pts) + x.slope(t, pts)
            minus = x.mean(t, pts) - x.slope(t, pts)
            mid = x.mean(t, pts)
            assert np.abs(plus + minus - 2 * mid).max() <= 1e-12

    def test_auto_reading_selection(self, prob1):
        assert prob1.xd_reading == "beta_w"
        assert set(prob1.xd_variants) == {"beta_w", "plain_w"}

    def test_readings_share_the_mean_problem(self, prob1):
        other = example1(xd_reading="plain_w")
        pts = sample_points(1)
        for t in (0.2, 0.6, 1.0):
            assert prob1.spec.target.mean(t, pts) == pytest.approx(
                other.spec.target.mean(t, pts), abs=1e-15
            )

    def test_explicit_reading(self):
        assert example1(xd_reading="plain_w").xd_reading == "plain_w"
        with pytest.raises(ValueError):
            example1(xd_reading="nonsense")


class TestExample2:
    def test_delta(self, prob2):
        expected = (17 * 0.2 + 28) / (3 * np.pi**2)
        assert prob2.delta == pytest.approx(expected, rel=1e-15)
        assert prob2.delta == pytest.approx(1.0605, abs=1e-4)

    def test_initial_state(self, prob2):
        pts = sample_points(2)
        expected = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        assert prob2.spec.x0(pts) == pytest.approx(expected, abs=1e-15)
        assert prob2.exact_x.mean(0.0, pts) == pytest.approx(expected, abs=1e-15)

    def test_lambda_zero_reduction(self):
        prob = example2(lam=0.0)
        pts = sample_points(2)
        assert prob.exact_x.mean(0.0, pts) == pytest.approx(prob.spec.x0(pts), abs=1e-15)

    def test_adjoint_is_minus_alpha_control(self, prob2):
        pts = sample_points(2)
        for t in (0.0, 0.4, 1.0):
            assert prob2.exact_y(t, pts) == pytest.approx(
                -prob2.spec.alpha * prob2.exact_u(t, pts), abs=1e-15
            )

    def test_affine_in_w(self, prob2):
        pts = sample_points(2)
        for t in (0.1, 0.5, 0.9):
            x = prob2.exact_x
            plus = x.mean(t, pts) + x.slope(t, pts)
            minus = x.mean(t, pts) - x.slope(t, pts)
            mid = x.mean(t, pts)
            assert np.abs(plus + minus - 2 * mid).max() <= 1e-12


class TestVerify:
    def test_example1_residuals(self, prob1):
        rep = verify_manufactured(prob1, samples=200, seed=1)
        assert rep.state_residual <= 1e-8
        assert rep.adjoint_mean_residual <= 1e-8
        assert rep.noise_mismatch <= 1e-12
        assert rep.optimality_residual <= 1e-14
        assert rep.delta_error <= 1e-8
        assert rep.selected_reading == "beta_w"
        assert rep.target_w_mismatch["beta_w"] < rep.target_w_mismatch["plain_w"]

    def test_example2_residuals(self, prob2):
        rep = verify_manufactured(prob2, samples=200, seed=2)
        assert rep.state_residual <= 1e-8
        assert rep.adjoint_mean_residual <= 1e-8
        assert rep.noise_mismatch <= 1e-12
        assert rep.delta_error <= 1e-8

    def test_injected_forcing_fault_detected(self, prob1):
        f = prob1.spec.forcing
        broken_forcing = AffineInW(lambda t, p: f.mean(t, p) + 1.0, f.slope)
        broken = replace(prob1, spec=replace(prob1.spec, forcing=broken_forcing))
        rep = verify_manufactured(broken, samples=100, seed=3)
        assert rep.state_residual == pytest.approx(1.0, abs=1e-6)

    def test_injected_target_fault_detected(self, prob1):
        xd = prob1.spec.target
        broken_target = AffineInW(lambda t, p: xd.mean(t, p) + 0.5, xd.slope)
        broken = replace(prob1, spec=replace(prob1.spec, target=broken_target))
        rep = verify_manufactured(broken, samples=100, seed=3)
        assert rep.adjoint_mean_residual == pytest.approx(0.5, abs=1e-6)

    def test_report_serializes(self, prob1):
        import json

        rep = verify_manufactured(prob1, samples=50, seed=4)
        payload = json.loads(json.dumps(asdict(rep)))
        assert payload["problem"] == "example1"
        assert payload["samples"] == 50

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected_before_any_work(self, prob1, samples, monkeypatch):
        # a report of no samples would read as a clean pass with every residual 0.0
        def no_work(*args, **kwargs):
            raise AssertionError("verify_manufactured started work")

        monkeypatch.setattr("socfem.problems.default_rng", no_work)
        with pytest.raises(ValueError, match="samples must be positive"):
            verify_manufactured(prob1, samples=samples)
