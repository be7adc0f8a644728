"""Solenoid model tests: geometry gates, domination product, attractor cloud."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mixlab.errors import GeometryViolation
from mixlab.roof import constant_roof
from mixlab.skew_product import validate_contraction, validate_invariance
from mixlab.solenoid import attractor_sample, build, check_domination, cloud_csv
from mixlab.suspension import suspend


def test_geometry_violations_name_the_inequality():
    with pytest.raises(GeometryViolation, match="expansion degree"):
        build(1, 20.0, 0.25)
    with pytest.raises(GeometryViolation, match="contraction factor"):
        build(2, 1.0, 0.25)
    with pytest.raises(GeometryViolation, match="offset"):
        build(2, 20.0, 0.0)
    with pytest.raises(GeometryViolation, match="invariance"):
        build(2, 2.0, 0.9)
    with pytest.raises(GeometryViolation, match="injectivity"):
        build(2, 20.0, 0.04)


def test_fraction_parameters_accepted():
    model = build(2, Fraction(20), Fraction(1, 4), Fraction(1, 3))
    assert model.kappa == pytest.approx(0.05)
    assert float(model.image_radius_bound) == pytest.approx(1.0 / 60.0 + 0.25)


def test_domination_product_frozen():
    report = check_domination(build(2, 20.0, 0.25))
    expected = (4.0 + (math.pi / 2.0) ** 2 + 1.0 / 400.0) / 20.0
    assert report.product_bound == pytest.approx(expected, abs=1e-12)
    assert report.product_bound == pytest.approx(0.323495055, abs=1e-6)
    assert report.passed


def test_domination_fails_for_weak_contraction():
    report = check_domination(build(2, 10.0, 0.5))
    assert report.product_bound == pytest.approx((4.0 + math.pi**2 + 0.01) / 10.0, abs=1e-12)
    assert report.product_bound == pytest.approx(1.387960, abs=1e-5)
    assert not report.passed


def test_empirical_product_below_certified_bound():
    for args in ((2, 20.0, 0.25), (2, 10.0, 0.5), (3, 15.0, 0.3)):
        report = check_domination(build(*args))
        assert 0.0 < report.empirical_product <= report.product_bound + 1e-12


def test_domination_bound_improves_with_contraction():
    bounds = [check_domination(build(2, c, 0.25)).product_bound for c in (10.0, 20.0, 30.0)]
    assert bounds[0] > bounds[1] > bounds[2]


def test_domination_csv_shape():
    text = check_domination(build(2, 20.0, 0.25)).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "quantity,value,threshold"
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "product_bound",
        "empirical_product",
        "passed",
    ]
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_skew_is_built_once_with_the_model():
    # suspend needs the roof's base to be the skew's own base map
    model = build(2, Fraction(20), Fraction(1, 4), Fraction(1, 3))
    assert model.skew is model.skew
    susp = suspend(model.skew, constant_roof(model.skew.base, 1))
    assert susp.skew is model.skew and susp.mean_roof == 1.0


def test_skew_satisfies_probed_axioms():
    model = build(2, 20.0, 0.25)
    skew = model.skew
    assert validate_contraction(skew, pairs=500) == pytest.approx(0.05, abs=1e-12)
    assert validate_invariance(skew, probes=200) < 0.0


def _closure_translation(rho):
    # the solenoid translation as a closure, before the fiber family held its offset
    def translation(th):
        angle = 2.0 * np.pi * np.asarray(th)
        out = np.empty(np.shape(angle) + (2,))
        np.cos(angle, out=out[..., 0])
        np.sin(angle, out=out[..., 1])
        np.multiply(rho, out, out=out)
        return out

    return translation


def test_translation_keeps_the_closure_bytes():
    # Monte Carlo pushes, sandwich estimates and attractor clouds read these bytes
    model = build(2, Fraction(20), Fraction(1, 4), Fraction(1, 3))
    fam = model.skew.fiber_map
    old = _closure_translation(float(model.offset))
    thetas = np.random.default_rng(11).random((257, 3))
    for th in (thetas, 0.3712, np.float64(0.9)):
        got, want = fam.translation_at(th), old(np.asarray(th, dtype=float))
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    z = np.random.default_rng(12).random((257, 3, 2))
    want = float(model.kappa) * z + old(thetas)
    assert fam(thetas, z).tobytes() == want.tobytes()


def test_attractor_sample_respects_invariant_radius():
    model = build(2, 20.0, 0.25)
    theta, z = attractor_sample(model, 500, burn_in=5, seed=7)
    assert theta.shape == (500,)
    assert z.shape == (500, 2)
    assert np.all((0.0 <= theta) & (theta < 1.0))
    assert np.max(np.linalg.norm(z, axis=1)) <= model.image_radius_bound + 1e-12


def test_attractor_sample_deterministic_in_seed():
    model = build(2, 20.0, 0.25)
    t1, z1 = attractor_sample(model, 100, burn_in=3, seed=11)
    t2, z2 = attractor_sample(model, 100, burn_in=3, seed=11)
    assert np.array_equal(t1, t2) and np.array_equal(z1, z2)


def test_attractor_sample_rejects_empty_request():
    with pytest.raises(ValueError):
        attractor_sample(build(2, 20.0, 0.25), 0)


def test_cloud_csv_shape():
    model = build(2, 20.0, 0.25)
    theta, z = attractor_sample(model, 10, burn_in=2, seed=1)
    text = cloud_csv(theta, z, 0.125)
    lines = text.strip().splitlines()
    assert lines[0] == "theta,z1,z2,attractor_dist_bound"
    assert len(lines) == 11
    assert all(line.split(",")[3] == "0.125" for line in lines[1:])
