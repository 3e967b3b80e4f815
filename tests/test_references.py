"""One registry of (function, reference, strategy) triples: each library
function must return exactly what its reference in ``oracles.py`` returns
(``==`` on plain values) on every drawn input."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan.clustering import ClusterGeometry, TransformParams
from sceneplan.core import DetectionBox
from sceneplan.ppo import masked_log_softmax, policy_sample
from sceneplan.rl_env import action_mask, encode_state

from oracles import (
    action_mask_reference,
    encode_state_reference,
    geometry_stats_reference,
    policy_sample_reference,
    random_config,
)


def plain(value):
    """Arrays, tuples and lists as nested lists of Python scalars; an
    array keeps its dtype and shape beside its values."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tolist())
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    return value


# --- ClusterGeometry.stats ---------------------------------------------------

COORD = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]),
                  st.floats(0.0, 1.0))
SIDE = st.one_of(st.just(1.0), st.floats(1e-3, 1.0))
BOX = st.builds(DetectionBox, COORD, COORD, SIDE, SIDE)
TRANSFORM = st.sampled_from([None, TransformParams(0.5), TransformParams(0.3)])


@st.composite
def geometry_args(draw):
    """Frames whose boxes repeat a small pool (duplicated centres, zero
    coordinates), and clusters of 1-12 members, 7 and 8 drawn often."""
    k = draw(st.one_of(st.sampled_from([7, 8]), st.integers(1, 12)))
    pool = draw(st.lists(BOX, min_size=1, max_size=k))
    dets = tuple(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k + 3)))
    members = tuple(sorted(draw(st.permutations(range(len(dets))))[:k]))
    return dets, draw(TRANSFORM), members


def stats_new(dets, transform, members):
    return ClusterGeometry(dets, transform).stats(members)


def stats_reference(dets, transform, members):
    # the reference's centroid is a numpy pair; stats gives a float pair
    centroid, spread, area_var = geometry_stats_reference(
        ClusterGeometry(dets, transform), members)
    return (float(centroid[0]), float(centroid[1])), spread, area_var


# --- encode_state and action_mask ----------------------------------------------

@st.composite
def config_args(draw):
    """Random configurations (singleton-only ones leave keep as the only
    valid action), padded or truncated to n_pad slots."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    max_size = draw(st.sampled_from([1, 3, 8]))
    config = random_config(rng, draw(st.integers(1, 12)), 1, max_size)
    return config, draw(st.integers(1, 15))


@st.composite
def state_args(draw):
    config, n_pad = draw(config_args())
    total = draw(st.sampled_from([len(config.detections), 0]))
    return config, n_pad, total, draw(st.booleans())


# --- policy_sample --------------------------------------------------------------

LOGIT = st.one_of(st.sampled_from([0.0, 700.0, -700.0, 800.0]), st.floats(-50.0, 50.0))


@st.composite
def sample_args(draw):
    """Logits up to 1,500 apart (zero probabilities), masks with one or
    more valid actions, and a generator seed."""
    n = draw(st.integers(1, 12))
    logits = np.array(draw(st.lists(LOGIT, min_size=n, max_size=n)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mask[draw(st.integers(0, n - 1))] = True
    if draw(st.booleans()):  # a single valid action
        mask[:] = False
        mask[draw(st.integers(0, n - 1))] = True
    return logits, mask, draw(st.integers(0, 2 ** 32 - 1))


def seeded(sample):
    """The draw and the generator's next double, from a fresh generator."""
    def run(logits, mask, seed):
        rng = np.random.default_rng(seed)
        return sample(logits, mask, rng), rng.random()
    return run


REGISTRY = [
    ("geometry_stats", stats_new, stats_reference, geometry_args()),
    ("encode_state", encode_state, encode_state_reference, state_args()),
    ("action_mask", action_mask, action_mask_reference, config_args()),
    ("policy_sample", seeded(policy_sample), seeded(policy_sample_reference),
     sample_args()),
]


@pytest.mark.parametrize("function, reference, strategy",
                         [entry[1:] for entry in REGISTRY],
                         ids=[entry[0] for entry in REGISTRY])
def test_function_equals_reference(function, reference, strategy):
    @settings(max_examples=200, deadline=None)
    @given(strategy)
    def check(args):
        assert plain(function(*args)) == plain(reference(*args))

    check()


@pytest.mark.parametrize("sample", [policy_sample, policy_sample_reference])
def test_policy_sample_nan_logit_raises(sample):
    logits = np.array([0.0, float("nan"), 1.0])
    with pytest.raises(ValueError):
        sample(logits, np.array([True, True, False]), np.random.default_rng(0))


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_policy_sample_draw_on_cdf_boundary_matches_reference(seed):
    # logits (0, l) whose normalised cdf starts exactly at the generator's
    # next double u; choice's searchsorted(side="right") then picks action 1
    u = np.random.default_rng(seed).random()
    mask = np.array([True, True])

    def first_cdf(l):
        p = np.exp(masked_log_softmax(np.array([0.0, l]), mask))
        cdf = (p / p.sum()).cumsum()
        return cdf[0] / cdf[-1]

    lo = hi = math.log((1.0 - u) / u)
    while first_cdf(lo) != u and first_cdf(hi) != u:
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    logits = np.array([0.0, lo if first_cdf(lo) == u else hi])
    got = policy_sample(logits, mask, np.random.default_rng(seed))
    assert got == policy_sample_reference(logits, mask, np.random.default_rng(seed))
    assert got[0] == 1
