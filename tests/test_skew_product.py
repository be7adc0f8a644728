"""Skew product tests: fiber geometry, disintegration trees, eta integrals."""

import math

import numpy as np
import pytest

from mixlab.errors import BoundaryPoint, DepthOverflow
from mixlab.markov_maps import expanding_circle_map
from mixlab import skew_product
from mixlab.skew_product import (
    NODE_BUDGET,
    AffineFiberFamily,
    Disintegration,
    HyperbolicSkewProduct,
    eta_integral,
    sandwich_estimate,
    validate_contraction,
    validate_invariance,
)


def _skew(contraction=0.5, radius=1.0, offset=0.4, degree=2):
    # images of the unit disk stay within radius 0.5 + 0.4 = 0.9
    return HyperbolicSkewProduct(
        degree=degree,
        radius=radius,
        fiber_map=AffineFiberFamily(contraction=contraction, offset=offset),
    )


def _coord(xs, zs):
    return np.asarray(zs)[..., 0]


def _ones(xs, zs):
    return np.ones(np.shape(xs))


# -- geometry and guards -----------------------------------------------------


def test_fiber_ball_geometry():
    # the fiber is the disk of the given radius about 0
    for radius in (0.0, -0.25):
        with pytest.raises(ValueError, match="radius"):
            _skew(radius=radius)
    probes = skew_product._ball_probes(0.25, 1_000, seed=1)
    assert probes.shape == (1_000, 2)
    assert np.max(np.linalg.norm(probes, axis=1)) <= 0.25
    # its diameter, 0.5, enters the truncation bound
    assert Disintegration(_skew(radius=0.25), depth=1).truncation_bound(1.0) == 0.5 * 0.5


def test_fiber_step_in_place_is_the_allocating_step():
    fam = AffineFiberFamily(contraction=-0.37, offset=0.4)
    rng = np.random.default_rng(2)
    x, z = rng.random(1000), rng.uniform(-1.0, 1.0, (1000, 2))
    want = fam(x, z)
    other = np.empty_like(z)
    assert fam(x, z, out=other) is other and other.tobytes() == want.tobytes()
    assert fam(x, z, out=z) is z and z.tobytes() == want.tobytes()


def test_kappa_must_contract():
    with pytest.raises(ValueError):
        _skew(contraction=1.0)


def test_kappa_is_the_fiber_contraction_modulus():
    skew = _skew(contraction=-0.25)
    assert skew.kappa == 0.25
    # kappa^depth * fiber Lipschitz constant * diameter of the unit ball
    assert Disintegration(skew, depth=3).truncation_bound(2.0) == 0.25**3 * 2.0 * 2.0


def test_skew_needs_a_full_branch_circle_base_and_a_disk_fiber():
    # the skew builds its base x -> d x mod 1 from the degree, at least 2
    fam = AffineFiberFamily(contraction=0.5, offset=0.3)
    with pytest.raises(ValueError, match="degree"):
        HyperbolicSkewProduct(1, 1.0, fam)
    skew = HyperbolicSkewProduct(3, 1.0, fam)
    assert skew.degree == 3 and skew.base.transition == ((1, 1, 1),) * 3
    assert skew.base.branches == expanding_circle_map(3).branches
    assert skew.fiber_map(0.25, np.zeros(2)).shape == (2,)


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
    for degree in (2, 3):
        dis = Disintegration(_skew(degree=degree), depth=8)
        for x in (0.1, 0.3, 0.7):
            assert dis.evaluate(x, _ones) == pytest.approx(1.0, abs=1e-12)


def test_eta_barycentre_is_the_transported_origin():
    # each level's rotations sum to zero, so the mean fiber point is the
    # tree's origin, the centre, pushed by contraction^depth: 0
    depth = 9
    for degree in (2, 3):
        dis = Disintegration(_skew(contraction=-0.5, degree=degree), depth=depth)
        for x in (0.37, 0.81):
            for axis in (0, 1):
                got = dis.evaluate(x, lambda xs, zs: zs[..., axis])
                assert got == pytest.approx(0.0, abs=1e-12)


def test_deeper_trees_stay_within_the_truncation_bound():
    # a depth-D leaf and the d^2 depth-(D+2) leaves below it differ by
    # contraction^D times a point of the disk, so eta moves by less than the bound
    for degree, depth in [(2, 4), (2, 8), (3, 5)]:
        skew = _skew(contraction=-0.45, degree=degree)
        shallow, deep = Disintegration(skew, depth=depth), Disintegration(skew, depth=depth + 2)
        for x in (0.11, 0.37, 0.93):
            gap = abs(shallow.evaluate(x, _coord) - deep.evaluate(x, _coord))
            assert 0.0 < gap <= shallow.truncation_bound(1.0)


def test_truncation_bound_formula():
    dis = Disintegration(_skew(), depth=7)
    assert dis.truncation_bound(2.5) == pytest.approx(0.5**7 * 2.5 * 2.0)


def test_depth_overflow_affine_tree():
    # level 21 holds 2^21 > NODE_BUDGET nodes
    dis = Disintegration(_skew(), depth=21)
    with pytest.raises(DepthOverflow):
        dis.evaluate(0.3, _ones)


@pytest.fixture
def translated(monkeypatch):
    """Sizes of the arrays every fiber translation is asked for."""
    points = []
    plain = AffineFiberFamily.translation_at

    def counted(self, x):
        points.append(np.size(x))
        return plain(self, x)

    monkeypatch.setattr(AffineFiberFamily, "translation_at", counted)
    return points


def test_depth_overflow_names_the_first_level_over_budget(translated):
    # levels hold d, d^2, ... nodes: the first above NODE_BUDGET is refused
    # before any node of the tree is translated
    assert NODE_BUDGET == 2_000_000
    for degree, message in [
        (2, r"^level 21 holds 2097152 nodes, budget 2000000$"),
        (3, r"^level 14 holds 4782969 nodes, budget 2000000$"),
    ]:
        dis = Disintegration(_skew(degree=degree), depth=23)
        with pytest.raises(DepthOverflow, match=message):
            dis.evaluate(0.3, _ones)
        assert "_roots" not in vars(dis)
    assert translated == []


def test_one_evaluate_builds_one_tree(translated):
    # one translation of the depth phases x/d^k; the observable reads each leaf once
    depth = 8
    leaves = []

    def coord(xs, zs):
        leaves.append(len(xs))
        return _coord(xs, zs)

    Disintegration(_skew(), depth=depth).evaluate(0.37, coord)
    assert translated == [depth]
    assert leaves == [2**depth]


def _chain_walk_leaves(skew, x, depth):
    """(base point, weight, fiber point) of every depth-n inverse-branch chain at x.

    Walks one chain at a time and pushes the origin forward along it, an
    independent route to the closed-form levels of Disintegration.
    """
    leaves = []
    stack = [(x, 1.0, ())]
    while stack:
        pt, w, chain = stack.pop()
        if len(chain) == depth:
            # the fiber map is applied at the leaf and every ancestor except the root
            z = np.zeros(2)
            for y in (pt,) + tuple(reversed(chain))[:-1]:
                z = skew.fiber_map(y, z)
            leaves.append((pt, w, z))
            continue
        for b in skew.base.branches:
            if float(b.image_lo) <= pt < float(b.image_hi):
                y = float(b.inverse(pt))
                stack.append((y, w / abs(float(b.slope)), chain + (pt,)))
    return leaves


def _leaves(dis, x):
    """Every fiber point of the depth-n tree at x, shape (d^depth, 2).

    The oracle keeps the whole tree: it copies each block that evaluate
    would read, since the next block reuses its buffer.
    """
    blocks = dis._leaf_blocks(dis._phases(float(x)))
    return np.concatenate([block.copy() for block in blocks], axis=None).view(float).reshape(-1, 2)


def _digit_reversed(p, degree, depth):
    j = 0
    for _ in range(depth):
        p, digit = divmod(p, degree)
        j = j * degree + digit
    return j


def test_affine_and_generic_trees_agree():
    # leaf p of the closed-form tree is the chain walk's leaf at
    # (x + J)/d^depth, J the digit reversal of p, with the same fiber point;
    # every chain weighs d^-depth, the weight evaluate divides by
    for degree, depth in [(2, 6), (2, 8), (3, 6), (3, 7)]:
        skew = _skew(degree=degree)
        dis = Disintegration(skew, depth=depth)
        n = degree**depth
        for x in (0.11, 0.52, 0.93):
            walked = {}
            for y, w, z in _chain_walk_leaves(skew, x, depth):
                walked[round(y * n - x)] = (w, z)
            zs = _leaves(dis, x)
            assert len(walked) == len(zs) == n
            for p in range(n):
                w, z = walked[_digit_reversed(p, degree, depth)]
                assert w == pytest.approx(1.0 / n, rel=1e-14)
                assert np.max(np.abs(zs[p] - z)) <= 1e-12
            assert dis.evaluate(x, _coord) == pytest.approx(
                sum(w * float(z[0]) for w, z in walked.values()), abs=1e-12
            )


def _level_by_level_leaves(dis, x):
    """Fiber points of the depth-n tree at x, built one whole level at a time.

    Each level is the roots prefix times its transported translation, plus
    the parent level added to every child slice [i::d]: the same operations
    on every node as the blocked build, in an order that streams each
    level through memory whole.
    """
    skew = dis.skew
    d = skew.degree
    roots = dis._roots
    trans = skew.fiber_map.translation_at(x / float(d) ** np.arange(1, dis.depth + 1))
    n = d**dis.depth
    bufs = (np.empty(n, dtype=complex), np.empty(n // d, dtype=complex))
    tree = np.zeros(1, dtype=complex)
    scale = 1.0
    for k in range(dis.depth):
        out = bufs[(dis.depth - 1 - k) % 2][: d ** (k + 1)]
        child = np.multiply(roots[: d ** (k + 1)], scale * complex(*trans[k]), out=out)
        for i in range(d):
            child[i::d] += tree
        tree = child
        scale *= skew.fiber_map.contraction
    return tree.view(float).reshape(n, 2)


def _pairwise_eta(dis, values):
    """The documented reduction of leaf values to eta_x(v).

    Pairwise over each top position's leaves, then over the d^top position
    sums, then divided by d^depth.
    """
    d = dis.skew.degree
    top = max(k for k in range(dis.depth + 1) if d**k <= skew_product._TOP_NODES)
    per_position = np.add.reduce(values.reshape(d**top, -1), axis=1)
    return float(np.add.reduce(per_position) / d**dis.depth)


# (top nodes, leaves per block): the module's own, then small blocks that
# split the top level unevenly and leave a short last block
BLOCKINGS = [(None, None), (8, 50), (27, 1)]


@pytest.mark.parametrize("blocking", BLOCKINGS, ids=["module", "8-50", "27-1"])
@pytest.mark.parametrize(
    "degree, depth", [(2, 6), (2, 10), (2, 13), (2, 18), (3, 7), (3, 9), (5, 5)]
)
def test_blocked_tree_is_the_level_by_level_tree(monkeypatch, blocking, degree, depth):
    # byte-equal leaves and == evaluates below, at and above the top levels
    top_nodes, block_leaves = blocking
    if top_nodes is not None:
        monkeypatch.setattr(skew_product, "_TOP_NODES", top_nodes)
        monkeypatch.setattr(skew_product, "_BLOCK_LEAVES", block_leaves)
    dis = Disintegration(_skew(contraction=-0.37, degree=degree), depth=depth)
    n = degree**depth
    for x in (0.11, 0.52, 0.93):
        want = _level_by_level_leaves(dis, x)
        zs = _leaves(dis, x)
        assert zs.shape == (n, 2) and zs.tobytes() == want.tobytes()
        assert dis.evaluate(x, _coord) == _pairwise_eta(dis, want[:, 0])


@pytest.mark.parametrize("degree, depth", [(2, 6), (2, 13), (3, 9), (5, 5)])
def test_evaluate_bytes_do_not_depend_on_the_block_size(monkeypatch, degree, depth):
    # only _BLOCK_LEAVES moves, so the top level and the reduction stay put;
    # eta_x(1) is exactly 1, since every partial sum is a whole number
    dis = Disintegration(_skew(contraction=-0.37, degree=degree), depth=depth)

    def values(x):
        v = lambda xs, zs: zs[..., 0] * (1.0 + zs[..., 1])
        return [dis.evaluate(x, f).hex() for f in (_coord, _ones, v)]

    want = {x: values(x) for x in (0.11, 0.52, 0.93)}
    for block_leaves in (1, 50, 1 << 12, 1 << 20):
        monkeypatch.setattr(skew_product, "_BLOCK_LEAVES", block_leaves)
        for x, expected in want.items():
            assert values(x) == expected
            assert dis.evaluate(x, _ones) == 1.0


def test_observable_sees_broadcast_blocks_that_cover_the_tree():
    degree, depth, x = 2, 18, 0.37
    dis = Disintegration(_skew(degree=degree), depth=depth)
    lengths = []

    def coord(xs, zs):
        assert xs.strides == (0,) and not xs.flags.writeable and np.all(xs == x)
        assert zs.shape == (len(xs), 2)
        lengths.append(len(xs))
        return zs[..., 0]

    dis.evaluate(x, coord)
    assert len(lengths) > 1 and sum(lengths) == degree**depth


def test_evaluate_streams_below_one_leaf_array(traced_peak):
    # with the roots table built, a depth-18 tree's whole leaf array is 4 MB
    dis = Disintegration(_skew(), depth=18)
    dis._roots
    leaf_bytes = 2**18 * 16
    for v in (_coord, _ones):
        assert traced_peak(lambda: dis.evaluate(0.37, v)) < leaf_bytes


def _roots_from_int_reversals(degree, depth):
    """The roots table from integer digit reversals and a separate angle array."""
    rev = np.zeros(1, dtype=np.int64)
    for k in range(depth):
        rev = (rev[:, None] + degree**k * np.arange(degree)).ravel()
    angle = (2.0 * np.pi) * (rev / float(len(rev)))
    roots = np.empty(len(rev), dtype=complex)
    np.cos(angle, out=roots.real)
    np.sin(angle, out=roots.imag)
    return roots


@pytest.mark.parametrize("degree, depth", [(2, 1), (2, 10), (2, 18), (3, 1), (3, 7), (3, 11)])
def test_roots_table_is_the_int_reversal_formula(degree, depth):
    got = Disintegration(_skew(degree=degree), depth=depth)._roots
    assert got.tobytes() == _roots_from_int_reversals(degree, depth).tobytes()


def test_roots_build_holds_the_table_and_the_reversals_only(traced_peak):
    # 4 MB of table and 0.5 MB of low digit reversals, plus a page for array headers
    n = 2**18
    dis = Disintegration(_skew(), depth=18)
    assert traced_peak(lambda: dis._roots) <= n * 16 + skew_product._BLOCK_LEAVES * 8 + 4096


def test_boundary_point_rejected():
    dis = Disintegration(_skew(), depth=4)
    with pytest.raises(BoundaryPoint):
        dis.evaluate(0.5, _ones)


# -- integrals against the base measure ---------------------------------------


def test_eta_integral_of_constant_is_one():
    dis = Disintegration(_skew(), depth=6)
    assert eta_integral(dis, _ones) == pytest.approx(1.0, abs=1e-10)


def test_eta_integral_agrees_with_forward_sandwich(monkeypatch):
    monkeypatch.setattr(skew_product, "_ETA_PANELS", 128)
    depth = 10
    skew = _skew()
    dis = Disintegration(skew, depth=depth)
    integral = eta_integral(dis, _coord)
    sw = sandwich_estimate(skew, _coord, depth=depth, fiber_lipschitz=1.0, samples=20_000, seed=3)
    assert sw.gap == pytest.approx(0.5**depth * 2.0)
    slack = sw.gap / 2.0 + 5.0 * sw.stat_error + 0.01
    assert abs(integral - sw.midpoint) <= slack


def _unblocked_sandwich(skew, v, depth, fiber_lipschitz, samples, seed):
    """sandwich_estimate with every step pushed through the whole sample at once.

    Its set-up allocates anew as well: base points scaled into a new array,
    fiber points tiled from the centre.
    """
    base = skew.base
    pad = skew.kappa**depth * fiber_lipschitz * skew.radius
    lo_b, hi_b = float(base.domain_lo), float(base.domain_hi)
    rng = np.random.default_rng([seed])
    y = lo_b + (hi_b - lo_b) * rng.random(samples)
    zs = np.tile(np.zeros(2), (samples, 1))
    for _ in range(depth):
        zs = skew.fiber_map(y, zs)
        y = base.evaluate_many(y)
    vals = np.asarray(v(y, zs), dtype=float)
    mean = float(vals.mean())
    err = float(vals.std(ddof=1) / math.sqrt(samples))
    return mean - pad, mean + pad, err


def test_blocked_sandwich_is_the_unblocked_push():
    # 20_001 samples leave a short last block; v reads each block once
    skew = _skew(contraction=-0.37, degree=3)
    calls = []

    def coord(xs, zs):
        calls.append((np.shape(xs), np.shape(zs)))
        return zs[..., 0] * (1.0 + xs)

    samples = 20_001
    assert samples % skew_product._PUSH_BLOCK
    sw = sandwich_estimate(skew, coord, depth=12, fiber_lipschitz=2.0, samples=samples, seed=5)
    block = skew_product._PUSH_BLOCK
    assert calls == [((block,), (block, 2)), ((samples - block,), (samples - block, 2))]
    want = _unblocked_sandwich(skew, coord, 12, 2.0, samples, 5)
    assert (sw.lower, sw.upper, sw.stat_error) == want


def test_push_is_the_step_by_step_loop_in_place():
    # a length that leaves a short last block
    skew = _skew(contraction=-0.37, degree=3)
    n = 2 * skew_product._PUSH_BLOCK + 5
    assert n % skew_product._PUSH_BLOCK
    rng = np.random.default_rng(11)
    y, z = rng.random(n), 0.5 * rng.uniform(-1.0, 1.0, (n, 2))
    want_y, want_z = y.copy(), z.copy()
    for _ in range(7):
        want_z = skew.fiber_map(want_y, want_z)
        want_y = skew.base.evaluate_many(want_y)
    assert skew.push(y, z, 7) is None
    assert y.tobytes() == want_y.tobytes()
    assert z.tobytes() == want_z.tobytes()


def _masked_ball_probes(radius, count, seed):
    """_ball_probes gathered by boolean mask and scaled into a new array."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 2))
    have = 0
    while have < count:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (count - have) + 8, 2))
        keep = cand[np.einsum("ij,ij->i", cand, cand) <= 1.0]
        take = min(len(keep), count - have)
        out[have : have + take] = keep[:take]
        have += take
    return radius * out


@pytest.mark.parametrize("block", [7, skew_product._PUSH_BLOCK])
def test_chunked_ball_probes_and_contraction_are_the_whole_draw(monkeypatch, block):
    # counts beyond one block: the candidate stream is drawn a block at a time
    monkeypatch.setattr(skew_product, "_PUSH_BLOCK", block)
    skew = _skew(contraction=-0.37, radius=0.7)
    counts = (1, 3, 50, 1_000) if block == 7 else (block + 1, 40_000)
    for count in counts:
        for seed in (777, 12345):
            got = skew_product._ball_probes(0.7, count, seed=seed)
            assert got.tobytes() == _masked_ball_probes(0.7, count, seed).tobytes()
    # the two streams validate_contraction pairs, read a block of each at a time
    for pairs in counts:
        for seed in (12345, 54321):
            blocks = list(skew_product._ball_blocks(0.7, pairs, seed))
            assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
            assert 0 < len(blocks[-1]) <= block
            whole = _masked_ball_probes(0.7, pairs, seed)
            assert np.concatenate(blocks).tobytes() == whole.tobytes()
        sep = np.linalg.norm(
            _masked_ball_probes(0.7, pairs, 12345) - _masked_ball_probes(0.7, pairs, 54321), axis=1
        )
        sep = sep[sep > 0]
        assert validate_contraction(skew, pairs=pairs) == float(np.max(0.37 * sep / sep))


def test_ball_probes_and_contraction_keep_their_bytes():
    pairs = 5_000
    skew = _skew(contraction=-0.37, radius=0.7)
    for count in (1, 3, pairs):
        for seed in (777, 12345, 54321):
            got = skew_product._ball_probes(0.7, count, seed=seed)
            assert got.tobytes() == _masked_ball_probes(0.7, count, seed).tobytes()
    z1 = _masked_ball_probes(skew.radius, pairs, 12345)
    z2 = _masked_ball_probes(skew.radius, pairs, 54321)
    sep = np.linalg.norm(z1 - z2, axis=1)
    sep = sep[sep > 0]
    assert validate_contraction(skew, pairs=pairs) == float(np.max(0.37 * sep / sep))
