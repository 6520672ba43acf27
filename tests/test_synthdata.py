"""Tests for the synthetic data models."""

import numpy as np
import pytest

from symtest import (
    BadParameters,
    Generator,
    UnsupportedKind,
    chi_sample,
    exchangeable_cov,
    parse_generator,
    sample,
    vmf_sample,
)
from symtest.synthdata import MODELS


RNG = lambda s: np.random.default_rng(s)


class TestExchangeableCov:
    def test_positive_case(self):
        c = exchangeable_cov(4, +1)
        assert np.allclose(np.diag(c), 1.0)
        off = c[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.25)
        assert np.linalg.eigvalsh(c).min() > 0

    def test_negative_case_is_singular_psd(self):
        c = exchangeable_cov(5, -1)
        off = c[~np.eye(5, dtype=bool)]
        assert np.allclose(off, -0.25)
        vals = np.linalg.eigvalsh(c)
        assert vals.min() == pytest.approx(0.0, abs=1e-12)

    def test_negative_rows_sum_to_zero(self):
        # rank deficiency direction: the all-ones vector is in the kernel
        c = exchangeable_cov(6, -1)
        assert np.allclose(c @ np.ones(6), 0.0, atol=1e-12)


class TestMarginalModels:
    def test_gauss_iso_moments(self):
        x = sample(Generator("gauss-iso", 3), 20000, RNG(0))
        assert np.allclose(x.mean(axis=0), 0.0, atol=0.05)
        assert np.allclose(np.cov(x.T), np.eye(3), atol=0.05)

    def test_gauss_mean_shift(self):
        mu = np.array([0.4, 0.0, 0.0, 0.0])
        x = sample(Generator("gauss-mean", 4, mu=mu), 20000, RNG(1))
        assert np.allclose(x.mean(axis=0), mu, atol=0.05)

    def test_exch_minus_rows_sum_to_zero(self):
        x = sample(Generator("exch-minus", 5), 500, RNG(3))
        assert np.allclose(x.sum(axis=1), 0.0, atol=1e-9)

    def test_exch_plus_row_sum_variance(self):
        # var(sum) = d + d(d-1) rho = d + (d-1) = 2d - 1 with rho = 1/d
        d = 6
        x = sample(Generator("exch-plus", d), 40000, RNG(4))
        assert x.sum(axis=1).var() == pytest.approx(2 * d - 1, rel=0.06)

    def test_wishart_cov_is_exchangeable_in_law(self):
        # each draw has a random covariance; marginal second moment is
        # E sigma = d * I for Wishart(I, d)
        d = 3
        rng = RNG(5)
        acc = np.zeros((d, d))
        for _ in range(400):
            x = sample(Generator("wishart", d), 50, rng)
            acc += x.T @ x / 50
        assert np.allclose(acc / 400, d * np.eye(d), atol=0.5)

    def test_vmf_radius_and_direction(self):
        gen = Generator("vmf", 3, kappa=5.0)
        x = sample(gen, 5000, RNG(6))
        u = x / np.linalg.norm(x, axis=1, keepdims=True)
        # concentrated around e1
        assert u[:, 0].mean() > 0.7
        # radius is chi(3): mean squared radius is 3
        assert (np.linalg.norm(x, axis=1) ** 2).mean() == pytest.approx(
            3.0, rel=0.05
        )


class TestVmfSampler:
    def test_unit_norms(self):
        u = vmf_sample(np.array([0.0, 0.0, 1.0]), 10.0, 200, RNG(7))
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_kappa_zero_is_uniform(self):
        u = vmf_sample(np.array([1.0, 0.0, 0.0]), 0.0, 20000, RNG(8))
        assert np.allclose(u.mean(axis=0), 0.0, atol=0.03)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_concentration_grows_with_kappa(self):
        mu = np.array([0.0, 1.0, 0.0])
        lo = vmf_sample(mu, 1.0, 4000, RNG(9)) @ mu
        hi = vmf_sample(mu, 50.0, 4000, RNG(10)) @ mu
        assert hi.mean() > lo.mean() > 0.0

    def test_zero_mean_direction_rejected(self):
        with pytest.raises(BadParameters):
            vmf_sample(np.zeros(3), 1.0, 5, RNG(11))

    def test_bad_kappa_rejected(self):
        for kappa in (-1.0, np.nan, np.inf):
            with pytest.raises(BadParameters):
                vmf_sample(np.ones(3), kappa, 5, RNG(11))


class TestChi:
    def test_mean_square_is_dof(self):
        r = chi_sample(7, RNG(12), 30000)
        assert (r**2).mean() == pytest.approx(7.0, rel=0.03)
        assert np.all(r >= 0)


class TestConditionalModels:
    def test_cond_shift_pairs(self):
        x, y = sample(Generator("cond-shift", 3), 2000, RNG(13))
        assert x.shape == y.shape == (2000, 3)
        resid = y - x
        assert np.allclose(resid.mean(axis=0), 0.0, atol=0.08)
        assert np.allclose(np.cov(resid.T), np.eye(3), atol=0.1)

    def test_cond_abs_breaks_sign_symmetry(self):
        x, y = sample(Generator("cond-abs", 3), 2000, RNG(14))
        assert np.allclose(y - np.abs(x), (y - np.abs(x)), atol=1e-12)
        assert (y - np.abs(x)).mean() == pytest.approx(0.0, abs=0.08)

    def test_cond_proj_uses_first_coordinate(self):
        x, y = sample(Generator("cond-proj", 4), 2000, RNG(15))
        resid = y - x[:, :1]
        assert np.allclose(resid.mean(axis=0), 0.0, atol=0.1)

    def test_top_quark_shapes_and_mass_shell(self):
        x, y = sample(Generator("top-quark", 8), 3000, RNG(16))
        assert x.shape == (3000, 8)
        assert y.shape == (3000, 1)
        # energies exceed momentum norms (timelike four-vectors)
        for blk in (0, 4):
            e = x[:, blk]
            p = np.linalg.norm(x[:, blk + 1:blk + 4], axis=1)
            assert np.all(e >= p)

    def test_top_quark_label_frequencies(self):
        x, y = sample(Generator("top-quark", 8), 20000, RNG(17))
        hi = x[:, 0] >= 200.0
        assert y[hi, 0].mean() == pytest.approx(0.9, abs=0.02)
        assert y[~hi, 0].mean() == pytest.approx(0.1, abs=0.02)

    def test_conditional_flag(self):
        assert Generator("cond-abs", 2).conditional
        assert not Generator("gauss-iso", 2).conditional


class TestValidation:
    def test_unknown_tag(self):
        with pytest.raises(UnsupportedKind):
            Generator("nope", 3)

    def test_bad_dimension(self):
        with pytest.raises(BadParameters):
            Generator("gauss-iso", 0)
        with pytest.raises(BadParameters):
            Generator("exch-minus", 1)
        with pytest.raises(BadParameters):
            Generator("top-quark", 4)

    def test_bad_kappa(self):
        # a NaN or infinite concentration would never leave the rejection loop
        for kappa in (-1.0, np.nan, np.inf):
            with pytest.raises(BadParameters):
                Generator("vmf", 3, kappa=kappa)

    def test_bad_sample_size(self):
        with pytest.raises(BadParameters):
            sample(Generator("gauss-iso", 2), 0, RNG(18))


class TestParsing:
    def test_simple_forms(self):
        g = parse_generator("gauss-iso(d=3)")
        assert g.tag == "gauss-iso" and g.d == 3
        g = parse_generator("wishart(d=10)")
        assert g.tag == "wishart" and g.d == 10
        g = parse_generator("exch-minus(d=10)")
        assert g.tag == "exch-minus"
        g = parse_generator("top-quark")
        assert g.tag == "top-quark" and g.d == 8

    def test_mean_descriptor_is_axis_vector(self):
        # '0.4e1' means 0.4 along the first axis, not the float 4.0
        g = parse_generator("gauss-mean(d=4,mu=0.4e1)")
        assert np.allclose(g.mu, [0.4, 0.0, 0.0, 0.0])
        g = parse_generator("gauss-mean(d=3,mu=2e3)")
        assert np.allclose(g.mu, [0.0, 0.0, 2.0])

    def test_vmf_kappa(self):
        g = parse_generator("vmf(d=5,kappa=2.5)")
        assert g.kappa == 2.5

    def test_conditional_forms(self):
        assert parse_generator("cond-abs(d=3)").tag == "cond-abs"
        assert parse_generator("cond-shift(d=2)").tag == "cond-shift"

    def test_errors(self):
        with pytest.raises(UnsupportedKind):
            parse_generator("gauss iso d3")
        with pytest.raises(BadParameters):
            parse_generator("gauss-iso()")
        with pytest.raises(BadParameters):
            parse_generator("gauss-mean(d=3)")
        with pytest.raises(UnsupportedKind):
            parse_generator("gauss-mean(d=3,mu=banana)")
        with pytest.raises(BadParameters):
            parse_generator("gauss-mean(d=3,mu=1e7)")
        with pytest.raises(UnsupportedKind):
            parse_generator("laplace(d=3)")

    def test_bad_numbers(self):
        for text in ("gauss-iso(d=x)", "gauss-iso(d=2.5)", "vmf(d=3,kappa=high)",
                     "gauss-mean(d=3,mu=1.2.3e1)"):
            with pytest.raises(UnsupportedKind):
                parse_generator(text)


# one argument each model does not take, since a dropped argument would
# silently change the model (vmf without kappa is the uniform null)
UNTAKEN_ARGUMENTS = {
    "gauss-iso": "gauss-iso(d=3,mu=0.5e1)",
    "gauss-mean": "gauss-mean(d=3,mu=0.5e1,kappa=1)",
    "wishart": "wishart(d=3,df=5)",
    "exch-plus": "exch-plus(d=3,rho=0.5)",
    "exch-minus": "exch-minus(d=3,sign=1)",
    "vmf": "vmf(d=3,kapa=1)",
    "cond-shift": "cond-shift(d=3,mu=0.5e1)",
    "cond-abs": "cond-abs(d=3,foo=1)",
    "cond-proj": "cond-proj(d=3,axis=2)",
    "top-quark": "top-quark(d=8)",
}


@pytest.mark.parametrize("name", list(MODELS))
def test_untaken_argument_raises(name):
    with pytest.raises(UnsupportedKind, match="takes no argument"):
        parse_generator(UNTAKEN_ARGUMENTS[name])


# The first three values of X, then of Y for the models that draw
# responses, of sample(parse_generator(desc), 5, default_rng(0)), to 12
# significant digits: each model's random stream, call by call.
PINNED_STREAM_HEADS = {
    "gauss-iso(d=3)": (0.125730221093, -0.132104863291, 0.640422650443),
    "gauss-mean(d=3,mu=0.5e1)": (0.625730221093, -0.132104863291, 0.640422650443),
    "wishart(d=3)": (-0.09556812385, -0.613172735142, -0.0823370866174),
    "exch-plus(d=3)": (0.356283819404, 0.52811912782, 0.547625633497),
    "exch-minus(d=3)": (0.419448588202, 0.224719961208, -0.64416854941),
    "vmf(d=3,kappa=2)": (0.507942224694, -1.6806642239, -0.333171405991),
    "cond-shift(d=3)": (-0.09556812385, -0.613172735142, -0.0823370866174,
                        0.807902057802, -0.519160437381, -0.825836335971),
    "cond-abs(d=3)": (-0.09556812385, -0.613172735142, -0.0823370866174,
                      0.999038305502, 0.707185032903, -0.661162162736),
    "cond-proj(d=3)": (-0.09556812385, -0.613172735142, -0.0823370866174,
                       0.807902057802, -0.00155582608915, -0.839067373204),
    "top-quark": (75.9904483664, 12.5730221093, -13.2104863291, 0.0, 0.0, 0.0),
}


def test_stream_pins_cover_every_model():
    assert sorted(parse_generator(d).tag for d in PINNED_STREAM_HEADS) == sorted(MODELS)


@pytest.mark.parametrize("desc", list(PINNED_STREAM_HEADS))
def test_pinned_stream_head(desc):
    gen = parse_generator(desc)
    out = sample(gen, 5, RNG(0))
    arrays = out if gen.conditional else (out,)
    head = tuple(float(f"{v:.12g}") for a in arrays for v in a.ravel()[:3])
    assert head == PINNED_STREAM_HEADS[desc]
