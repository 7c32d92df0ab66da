"""Point-array forms of the action and the multipliers against their per-point values."""

import cmath

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cdhom import ModelParams, TriangularRep, act, check_cocycle, exp_basis, multiplier_J  # noqa: E402
from cdhom.mobius import X0, X1, Y  # noqa: E402

GENERATORS = (X0, X1, Y)


def _element(draw):
    return exp_basis(GENERATORS[draw(st.integers(0, 2))], draw(st.floats(-1.0, 1.0)))


@st.composite
def cases(draw):
    m = draw(st.integers(0, 6))
    excess = draw(st.floats(0.2, 3.0))  # 2*lam - m
    mu = tuple(draw(st.floats(0.5, 2.0)) for _ in range(m + 1))
    shape = draw(st.sampled_from([(1,), (5,), (2, 3)]))
    radii = draw(st.lists(st.floats(0.0, 0.9), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    angles = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=len(radii), max_size=len(radii)))
    zs = np.array([cmath.rect(r, a) for r, a in zip(radii, angles)]).reshape(shape)
    return ModelParams(lam=(m + excess) / 2.0, m=m, mu=mu), zs, _element(draw), _element(draw)


def _close(got, ref, scale):
    return np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, scale)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(cases())
def test_array_forms_match_pointwise(case):
    p, zs, g, h = case
    rep = TriangularRep.from_params(p)
    points = [complex(z) for z in zs.ravel()]
    block = zs.shape + (p.m + 1, p.m + 1)

    got = act(g, zs)
    assert got.shape == zs.shape
    assert _close(got.ravel(), np.array([act(g, z) for z in points]), 1.0)

    got = multiplier_J(g, zs, p, rep)
    ref = np.array([multiplier_J(g, z, p, rep) for z in points])
    assert got.shape == block
    assert _close(got.reshape(ref.shape), ref, float(np.max(np.abs(ref))))

    got, got_scale = check_cocycle(g, h, zs, p, rep)
    ref, ref_scale = np.array([check_cocycle(g, h, z, p, rep) for z in points]).T
    j_scale = float(np.max(np.abs(multiplier_J(g @ h, zs, p, rep))))
    assert got.shape == got_scale.shape == zs.shape
    assert _close(got.ravel(), ref, j_scale)
    assert _close(got_scale.ravel(), ref_scale, float(np.max(ref_scale)))


@st.composite
def element_sequences(draw):
    p, zs, _, _ = draw(cases())
    gs = [_element(draw) for _ in range(draw(st.integers(1, 4)))]
    hs = [_element(draw) for _ in range(draw(st.integers(1, 4)))]
    return p, zs, gs, hs


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(element_sequences())
def test_cocycle_over_sequences_matches_per_pair_calls(case):
    p, zs, gs, hs = case
    rep = TriangularRep.from_params(p)
    got, got_scale = check_cocycle(gs, hs, zs, p, rep)
    assert got.shape == got_scale.shape == (len(gs), len(hs)) + zs.shape
    for i, g in enumerate(gs):
        for k, h in enumerate(hs):
            ref, ref_scale = check_cocycle(g, h, zs, p, rep)
            j_scale = float(np.max(np.abs(multiplier_J(g @ h, zs, p, rep))))
            assert _close(got[i, k], ref, j_scale)
            assert _close(got_scale[i, k], ref_scale, float(np.max(ref_scale)))
