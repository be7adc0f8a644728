"""Skew product tests: fiber geometry, disintegration trees, eta integrals."""

import numpy as np
import pytest

from mixlab.errors import BoundaryPoint, DepthOverflow
from mixlab.markov_maps import doubling_map, three_branch_map
from mixlab.skew_product import (
    AffineFiberFamily,
    Disintegration,
    FiberBall,
    HyperbolicSkewProduct,
    eta_integral,
    sandwich_estimate,
    validate_contraction,
    validate_invariance,
)


def _cos_translation(xs):
    return 0.4 * np.cos(2.0 * np.pi * np.asarray(xs, dtype=float))[..., None]


def _const_translation(xs):
    return np.full(np.shape(np.asarray(xs)) + (1,), 0.3)


def _skew(translation=_cos_translation, contraction=0.5, radius=1.0):
    return HyperbolicSkewProduct(
        base=doubling_map(),
        fiber_space=FiberBall(np.zeros(1), radius),
        fiber_map=AffineFiberFamily(contraction=contraction, translation=translation),
    )


def _coord(xs, zs):
    return np.asarray(zs)[..., 0]


def _ones(xs, zs):
    return np.ones(np.shape(xs))


# -- geometry and guards -----------------------------------------------------


def test_fiber_ball_geometry():
    ball = FiberBall(np.array([1.0, -1.0]), 0.25)
    assert ball.dimension == 2
    assert ball.diameter == 0.5
    assert ball.contains(np.array([1.0, -0.8]))
    assert not ball.contains(np.array([1.3, -1.0]))
    assert ball.overshoot(np.array([1.5, -1.0])) == pytest.approx(0.25)


def test_kappa_must_contract():
    with pytest.raises(ValueError):
        HyperbolicSkewProduct(
            base=doubling_map(),
            fiber_space=FiberBall(np.zeros(1), 1.0),
            fiber_map=AffineFiberFamily(contraction=1.0, translation=_const_translation),
        )


def test_kappa_is_the_fiber_contraction_modulus():
    skew = _skew(contraction=-0.25)
    assert skew.kappa == 0.25
    # kappa^depth * fiber Lipschitz constant * diameter of the unit ball
    assert Disintegration(skew, depth=3).truncation_bound(2.0) == 0.25**3 * 2.0 * 2.0


def test_base_point_must_lie_in_ball():
    with pytest.raises(ValueError):
        HyperbolicSkewProduct(
            base=doubling_map(),
            fiber_space=FiberBall(np.zeros(1), 1.0),
            fiber_map=AffineFiberFamily(contraction=0.5, translation=_const_translation),
            base_point=np.array([2.0]),
        )


# -- axiom probes ------------------------------------------------------------


def test_contraction_ratio_exact_for_affine_family():
    assert validate_contraction(_skew(contraction=0.05), pairs=500) == pytest.approx(
        0.05, abs=1e-12
    )
    assert validate_contraction(_skew(contraction=0.5), pairs=500) == pytest.approx(
        0.5, abs=1e-12
    )


def test_invariance_overshoot_negative_when_strictly_inside():
    # images stay within radius 0.9 of a unit ball: slack at least 0.1
    assert validate_invariance(_skew(), probes=300) <= -0.1 + 1e-12


# -- disintegration ----------------------------------------------------------


def test_eta_of_constants_is_one():
    dis = Disintegration(_skew(), depth=8)
    for x in (0.1, 0.3, 0.7):
        assert dis.evaluate(x, _ones) == pytest.approx(1.0, abs=1e-12)


def test_eta_constant_translation_closed_form():
    # every leaf lands on sum_{j<d} kappa^j t + kappa^d origin
    depth = 10
    dis = Disintegration(_skew(translation=_const_translation), depth=depth)
    expected = 0.3 * (1.0 - 0.5**depth) / 0.5
    assert dis.evaluate(0.37, _coord) == pytest.approx(expected, abs=1e-12)
    shifted = dis.evaluate(0.37, _coord, origin=np.array([0.8]))
    assert shifted == pytest.approx(expected + 0.5**depth * 0.8, abs=1e-12)


def test_origin_choice_washes_out_at_contraction_rate():
    depth = 6
    dis = Disintegration(_skew(), depth=depth)
    a = dis.evaluate(0.37, _coord, origin=np.array([0.9]))
    b = dis.evaluate(0.37, _coord, origin=np.array([-0.9]))
    assert abs(a - b) <= 0.5**depth * 1.8 + 1e-12


def test_truncation_bound_formula():
    dis = Disintegration(_skew(), depth=7)
    assert dis.truncation_bound(2.5) == pytest.approx(0.5**7 * 2.5 * 2.0)


def test_depth_overflow_affine_tree():
    dis = Disintegration(_skew(), depth=8, node_budget=100)
    with pytest.raises(DepthOverflow):
        dis.evaluate(0.3, _ones)


def _counted_translation(points):
    def translation(xs):
        points.append(np.size(xs))
        return _cos_translation(xs)

    return translation


def test_depth_overflow_names_the_first_level_over_budget():
    # levels hold 2, 4, ..., 128 nodes: level 7 is the first above 100, and it
    # is refused before any of its nodes is translated
    points = []
    dis = Disintegration(_skew(translation=_counted_translation(points)), depth=9, node_budget=100)
    with pytest.raises(DepthOverflow, match=r"^level 7 holds 128 nodes, budget 100$"):
        dis.evaluate(0.3, _ones)
    assert sum(points) == 2 + 4 + 8 + 16 + 32 + 64


def test_one_evaluate_builds_one_tree():
    # each tree node is translated once and the observable reads each leaf once
    depth = 8
    points, leaves = [], []

    def coord(xs, zs):
        leaves.append(len(xs))
        return _coord(xs, zs)

    dis = Disintegration(_skew(translation=_counted_translation(points)), depth=depth)
    dis.evaluate(0.37, coord)
    assert sum(points) == 2 ** (depth + 1) - 2
    assert leaves == [2**depth]


def _chain_walk_leaves(skew, x, depth):
    """(weight, fiber point) of every depth-n inverse-branch chain at x.

    Walks one chain at a time and pushes the origin forward along it, an
    independent route to the level-by-level arrays of Disintegration.
    """
    leaves = []
    stack = [(x, 1.0, ())]
    while stack:
        pt, w, chain = stack.pop()
        if len(chain) == depth:
            # the fiber map is applied at the leaf and every ancestor except the root
            z = skew.base_point
            for y in (pt,) + tuple(reversed(chain))[:-1]:
                z = skew.fiber_map(y, z)
            leaves.append((w, z))
            continue
        for b in skew.base.branches:
            if float(b.image_lo) <= pt < float(b.image_hi):
                y = float(b.inverse(pt))
                stack.append((y, w / abs(float(b.slope)), chain + (pt,)))
    return leaves


def test_affine_and_generic_trees_agree():
    # the vectorized tree and a chain-by-chain walk must produce the same measure
    skew = _skew()
    dis = Disintegration(skew, depth=6)
    for x in (0.11, 0.52, 0.93):
        leaves = _chain_walk_leaves(skew, x, 6)
        assert len(leaves) == 2**6
        walked = sum(w * float(z[0]) for w, z in leaves)
        assert dis.evaluate(x, _coord) == pytest.approx(walked, abs=1e-12)


def test_tree_over_non_full_branch_base_matches_chain_walk():
    # three_branch's first image is [1/3, 1): points below 1/3 have two
    # preimages and the rest three, so each level takes the masked path
    skew = HyperbolicSkewProduct(
        base=three_branch_map(),
        fiber_space=FiberBall(np.zeros(1), 1.0),
        fiber_map=AffineFiberFamily(contraction=0.5, translation=_cos_translation),
    )
    dis = Disintegration(skew, depth=6)
    for x in (0.11, 0.52, 0.93):
        leaves = _chain_walk_leaves(skew, x, 6)
        _, ws, _ = dis._leaves(x, None)
        assert len(ws) == len(leaves)
        assert float(ws.sum()) == pytest.approx(sum(w for w, _ in leaves), abs=1e-12)
        walked = sum(w * float(z[0]) for w, z in leaves)
        assert dis.evaluate(x, _coord) == pytest.approx(walked, abs=1e-12)


def test_boundary_point_rejected():
    dis = Disintegration(_skew(), depth=4)
    with pytest.raises(BoundaryPoint):
        dis.evaluate(0.5, _ones)


# -- integrals against the base measure ---------------------------------------


def test_eta_integral_of_constant_is_one():
    dis = Disintegration(_skew(), depth=6)
    assert eta_integral(dis, _ones, panels=16) == pytest.approx(1.0, abs=1e-10)


def test_eta_integral_agrees_with_forward_sandwich():
    depth = 10
    skew = _skew()
    dis = Disintegration(skew, depth=depth)
    integral = eta_integral(dis, _coord, panels=128)
    sw = sandwich_estimate(skew, _coord, depth=depth, fiber_lipschitz=1.0, samples=20_000, seed=3)
    assert sw.gap == pytest.approx(0.5**depth * 2.0)
    slack = sw.gap / 2.0 + 5.0 * sw.stat_error + 0.01
    assert abs(integral - sw.midpoint) <= slack

