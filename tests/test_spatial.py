import math
import tracemalloc

import numpy as np
import pytest

from stereobridge.spatial import (
    D_MODEL,
    ENERGY_BINS,
    EnergyVector,
    SceneFeatureGrid,
    SpeakerPose,
    _pool_pairs,
    attention_weights,
    build_spatial_embedding,
    conv_stack,
    cross_modal_attention,
    energy_vector,
    fuse_text,
    init_spatial_encoder,
    pose_encoding,
    position_encoding,
    read_grid,
    viewpoint_split,
    with_position_encoding,
    write_grid,
)

def random_grid(seed=0, h=4, w=8, c=D_MODEL):
    rng = np.random.default_rng(seed)
    return SceneFeatureGrid(rng.standard_normal((h, w, c)))


def make_encoder(seed=0):
    return init_spatial_encoder(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Grids and masking
# ---------------------------------------------------------------------------

def test_grid_rejects_small_or_bad_input():
    with pytest.raises(ValueError):
        SceneFeatureGrid(np.zeros((3, 8, 2)))
    with pytest.raises(ValueError):
        SceneFeatureGrid(np.zeros((8, 3, 2)))
    with pytest.raises(ValueError):
        SceneFeatureGrid(np.zeros((8, 8)))
    bad = np.zeros((4, 4, 1))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        SceneFeatureGrid(bad)


def test_viewpoint_split_masks_quarter_columns():
    g = random_grid(w=8)
    left, right = viewpoint_split(g)
    assert np.array_equal(left.features[:, :2, :], np.zeros((4, 2, D_MODEL)))
    assert np.array_equal(left.features[:, 2:, :], g.features[:, 2:, :])
    assert np.array_equal(right.features[:, 6:, :], np.zeros((4, 2, D_MODEL)))
    assert np.array_equal(right.features[:, :6, :], g.features[:, :6, :])


def test_viewpoint_split_zero_grid():
    g = SceneFeatureGrid(np.zeros((4, 4, 2)))
    left, right = viewpoint_split(g)
    assert not left.features.any()
    assert not right.features.any()


def test_viewpoint_split_mirror_symmetry():
    g = random_grid(seed=1, w=9)
    mirrored = SceneFeatureGrid(g.features[:, ::-1, :])
    left_of_mirror, _ = viewpoint_split(mirrored)
    _, right = viewpoint_split(g)
    assert np.array_equal(left_of_mirror.features, right.features[:, ::-1, :])


def test_position_encoding_shape_and_distinctness():
    pe = position_encoding(4, 5, 7)
    assert pe.shape == (4, 5, 7)
    flat = pe.reshape(-1, 7)
    assert np.all(np.isfinite(pe))
    # Adjacent positions must be distinguishable.
    assert np.max(np.abs(flat[0] - flat[1])) > 1e-3


@pytest.mark.parametrize("extents", [(0, 5, 7), (4, 0, 7), (4, 5, 0)])
def test_position_encoding_rejects_a_zero_extent(extents):
    with pytest.raises(ValueError, match="all extents must be positive"):
        position_encoding(*extents)


def test_with_position_encoding_after_masking():
    # The pipeline adds the encoding after the split, so masked cells carry
    # exactly the positional signal and nothing else.
    g = random_grid(seed=3, w=8)
    left, _ = viewpoint_split(g)
    encoded = with_position_encoding(left)
    pe = position_encoding(4, 8, D_MODEL)
    assert np.array_equal(encoded.features[:, :2, :], pe[:, :2, :])
    assert np.array_equal(encoded.features[:, 2:, :],
                          g.features[:, 2:, :] + pe[:, 2:, :])


# ---------------------------------------------------------------------------
# Pose
# ---------------------------------------------------------------------------

def test_pose_encoding_hand_values():
    assert np.allclose(pose_encoding(SpeakerPose(1.0, 0.0)), [1.0, 0.0, 1.0])
    enc = pose_encoding(SpeakerPose(2.0, math.pi / 2))
    assert enc[0] == 2.0
    assert enc[1] == pytest.approx(1.0)
    assert enc[2] == pytest.approx(0.0, abs=1e-15)


def test_pose_angle_wrapping():
    assert SpeakerPose(1.0, 3 * math.pi).alpha == pytest.approx(math.pi)
    assert SpeakerPose(1.0, -math.pi).alpha == pytest.approx(math.pi)
    assert SpeakerPose(1.0, math.pi).alpha == pytest.approx(math.pi)
    assert SpeakerPose(1.0, 5 * math.pi / 2).alpha == pytest.approx(math.pi / 2)
    wrapped = SpeakerPose(1.0, -11.0).alpha
    assert -math.pi < wrapped <= math.pi


def test_pose_trig_identity_many_angles():
    rng = np.random.default_rng(4)
    for alpha in rng.uniform(-50.0, 50.0, size=10_000):
        v = pose_encoding(SpeakerPose(1.0, float(alpha)))
        assert abs(v[1] ** 2 + v[2] ** 2 - 1.0) <= 1e-12


def test_pose_rejects_bad_values():
    with pytest.raises(ValueError):
        SpeakerPose(-0.5, 0.0)
    with pytest.raises(ValueError):
        SpeakerPose(1.0, np.inf)


# ---------------------------------------------------------------------------
# Energy quantizer
# ---------------------------------------------------------------------------

def test_energy_vector_silent_frame_code_zero():
    silent = np.zeros((3, 10))
    ve = energy_vector(silent, silent)
    assert np.array_equal(ve.codes, np.zeros((3, 2), dtype=np.intp))


def test_energy_vector_identical_channels_identical_codes():
    spec = np.random.default_rng(5).uniform(0.0, 2.0, size=(7, 20))
    ve = energy_vector(spec, spec)
    assert np.array_equal(ve.codes[:, 0], ve.codes[:, 1])


def test_energy_vector_doubling_shifts_one_bin():
    # Unit energy sits exactly on a bin edge: level (0+6)/8 = 0.75 -> bin 24;
    # doubling adds log10(2) ~ 0.3010, i.e. 32*0.3010/8 ~ 1.2 bins -> 25.
    spec = np.zeros((1, 4))
    spec[0, 0] = 1.0
    ve = energy_vector(spec, spec)
    assert ve.codes[0, 0] == 24
    ve2 = energy_vector(2.0 * spec, 2.0 * spec)
    assert ve2.codes[0, 0] == 25


def test_energy_vector_monotone_under_scaling():
    rng = np.random.default_rng(6)
    left = rng.uniform(0.0, 5.0, size=(20, 8))
    right = rng.uniform(0.0, 5.0, size=(20, 8))
    base = energy_vector(left, right).codes
    for scale in (1.5, 3.0, 10.0):
        scaled = energy_vector(scale * left, scale * right).codes
        assert np.all(scaled >= base)


def test_energy_vector_clamps_extremes():
    huge = np.full((2, 4), 1e9)
    tiny = np.full((2, 4), 1e-12)
    ve = energy_vector(huge, tiny)
    assert np.all(ve.codes[:, 0] == ENERGY_BINS - 1)
    assert np.all(ve.codes[:, 1] == 0)


def test_energy_vector_frame_mismatch():
    with pytest.raises(ValueError):
        energy_vector(np.zeros((3, 4)), np.zeros((4, 4)))


def test_energy_vector_type_rejects_bad_codes():
    with pytest.raises(ValueError):
        EnergyVector(codes=np.array([[0, ENERGY_BINS]]))
    with pytest.raises(ValueError):
        EnergyVector(codes=np.array([[-1, 0]]))
    for shape in ((4,), (4, 3)):
        with pytest.raises(ValueError, match=r"codes must be \(frames, 2\)"):
            EnergyVector(codes=np.zeros(shape, dtype=int))


def test_energy_vector_rejects_one_dimensional_magnitudes():
    with pytest.raises(ValueError, match="must be 2-D"):
        energy_vector(np.zeros(4), np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# Convolution stack
# ---------------------------------------------------------------------------

def test_conv_stack_pools_frames_by_two():
    enc = make_encoder()
    vloc = pose_encoding(SpeakerPose(1.0, 0.3))
    for frames, expect in ((4, 2), (5, 3), (1, 1)):
        codes = np.zeros((frames, 2), dtype=int)
        out = conv_stack(enc, EnergyVector(codes), vloc)
        assert out.shape == (expect, D_MODEL)


@pytest.mark.parametrize("frames", [1, 2, 345, 1723, 1724])
def test_pair_pooling_matches_loop_bitwise(frames):
    h = np.random.default_rng(frames).standard_normal((frames, D_MODEL))
    loop = np.empty(((frames + 1) // 2, D_MODEL))
    for i in range(len(loop)):
        loop[i] = h[2 * i: 2 * i + 2].mean(axis=0)
    assert np.array_equal(_pool_pairs(h), loop)


def test_conv_stack_zero_weights_zero_output():
    enc = make_encoder()
    for name in ("embed", "conv1_w", "conv1_b", "conv2_w", "conv2_b"):
        setattr(enc, name, np.zeros_like(getattr(enc, name)))
    ve = EnergyVector(np.ones((6, 2), dtype=int))
    out = conv_stack(enc, ve, pose_encoding(SpeakerPose(2.0, 1.0)))
    assert np.array_equal(out, np.zeros_like(out))


def test_conv_stack_sensitive_to_codes():
    enc = make_encoder(seed=7)
    vloc = pose_encoding(SpeakerPose(1.0, 0.0))
    a = conv_stack(enc, EnergyVector(np.full((6, 2), 3, dtype=int)), vloc)
    b = conv_stack(enc, EnergyVector(np.full((6, 2), 9, dtype=int)), vloc)
    assert np.max(np.abs(a - b)) > 1e-6


def test_conv_stack_sensitive_to_pose():
    enc = make_encoder(seed=8)
    ve = EnergyVector(np.full((6, 2), 5, dtype=int))
    a = conv_stack(enc, ve, pose_encoding(SpeakerPose(1.0, 0.0)))
    b = conv_stack(enc, ve, pose_encoding(SpeakerPose(4.0, 2.0)))
    assert np.max(np.abs(a - b)) > 1e-6


def test_conv_stack_rejects_bad_pose_shape():
    enc = make_encoder()
    with pytest.raises(ValueError):
        conv_stack(enc, EnergyVector(np.zeros((2, 2), dtype=int)),
                   np.zeros(4))


def test_conv_stack_rejects_an_empty_energy_vector():
    with pytest.raises(ValueError, match="energy vector has no frames"):
        conv_stack(make_encoder(), EnergyVector(np.zeros((0, 2), dtype=int)),
                   pose_encoding(SpeakerPose(1.0, 0.0)))


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def test_attention_single_kv_returns_it():
    rng = np.random.default_rng(9)
    q = rng.standard_normal((5, 6))
    kv = rng.standard_normal((1, 6))
    out = cross_modal_attention(q, kv)
    assert np.array_equal(out, np.repeat(kv, 5, axis=0))


def test_attention_identical_kvs_return_the_vector():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(6)
    kv = np.tile(v, (7, 1))
    out = cross_modal_attention(rng.standard_normal((3, 6)), kv)
    assert np.allclose(out, v, rtol=0, atol=1e-12)


def test_attention_rows_are_distributions():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.standard_normal((4, 8)) * rng.uniform(0.1, 30.0)
        kv = rng.standard_normal((6, 8)) * rng.uniform(0.1, 30.0)
        w = attention_weights(q, kv)
        assert np.all(w >= 0.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-9


def test_attention_permutation_invariant():
    rng = np.random.default_rng(12)
    q = rng.standard_normal((3, 5))
    kv = rng.standard_normal((8, 5))
    perm = rng.permutation(8)
    a = cross_modal_attention(q, kv)
    b = cross_modal_attention(q, kv[perm])
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def softmax_with_temporaries(q, kv):
    """The attention weights as computed before the in-place softmax."""
    logits = q @ kv.T / math.sqrt(q.shape[1])
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


# Criterion 08's two shapes, then the audio benchmark's conditioning calls:
# (queries, width, tokens), frames over a 1024-token side.
@pytest.mark.parametrize("queries, width, tokens",
                         [(32, 8, 50), (7, D_MODEL, 9), (862, D_MODEL, 1024),
                          (173, D_MODEL, 1024)])
def test_in_place_softmax_matches_the_temporaries_bitwise(queries, width, tokens):
    rng = np.random.default_rng(queries)
    q = rng.standard_normal((queries, width))
    kv = 3.0 * rng.standard_normal((tokens, width))
    assert np.array_equal(attention_weights(q, kv), softmax_with_temporaries(q, kv))


def test_attention_errors():
    with pytest.raises(ValueError):
        cross_modal_attention(np.zeros((2, 4)), np.zeros((0, 4)))
    with pytest.raises(ValueError):
        cross_modal_attention(np.zeros((2, 4)), np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# Spatial embedding and text fusion
# ---------------------------------------------------------------------------

def test_build_embedding_zero_inputs_zero_output():
    enc = make_encoder(seed=13)
    zeros = SceneFeatureGrid(np.zeros((4, 4, D_MODEL)))
    frames = np.zeros((5, D_MODEL))
    es = build_spatial_embedding(enc, zeros, zeros, frames)
    assert np.array_equal(es, np.zeros((5, D_MODEL)))


def test_build_embedding_shape_contract():
    enc = make_encoder(seed=14)
    frames = np.random.default_rng(15).standard_normal((9, D_MODEL))
    for h, w in ((4, 4), (6, 10), (12, 5)):
        g = random_grid(seed=h * w, h=h, w=w)
        es = build_spatial_embedding(enc, g, g, frames)
        assert es.shape == (9, D_MODEL)


def test_build_embedding_sensitive_to_view_swap():
    enc = make_encoder(seed=16)
    a = random_grid(seed=17)
    b = random_grid(seed=18)
    frames = np.random.default_rng(19).standard_normal((4, D_MODEL))
    ab = build_spatial_embedding(enc, a, b, frames)
    ba = build_spatial_embedding(enc, b, a, frames)
    assert np.max(np.abs(ab - ba)) > 1e-6


def test_build_embedding_rejects_channel_mismatch():
    enc = make_encoder()
    bad = SceneFeatureGrid(np.zeros((4, 4, D_MODEL + 1)))
    good = SceneFeatureGrid(np.zeros((4, 4, D_MODEL)))
    with pytest.raises(ValueError):
        build_spatial_embedding(enc, bad, good, np.zeros((2, D_MODEL)))


@pytest.mark.parametrize("frames, message", [
    (np.zeros((0, D_MODEL)), "need at least one frame feature"),
    (np.zeros((2, D_MODEL - 1)), f"frame dim {D_MODEL - 1} != d_model {D_MODEL}"),
], ids=["no-frames", "wrong-width"])
def test_build_embedding_rejects_bad_frames(frames, message):
    g = random_grid()
    with pytest.raises(ValueError, match=message):
        build_spatial_embedding(make_encoder(), g, g, frames)


def test_build_embedding_rejects_a_non_finite_result():
    # Finite inputs whose attention logits overflow: the summary is NaN, and
    # the check reports it without a RuntimeWarning first.
    huge = SceneFeatureGrid(np.full((4, 4, D_MODEL), 1e300))
    with pytest.raises(ValueError, match="non-finite"):
        build_spatial_embedding(make_encoder(), huge, huge, np.full((2, D_MODEL), 1e300))


def test_fuse_text_identity_with_zero_projection():
    enc = make_encoder(seed=20)
    h_txt = np.random.default_rng(21).standard_normal((11, D_MODEL))
    es = np.random.default_rng(22).standard_normal((4, D_MODEL))
    fused = fuse_text(h_txt, es, enc)
    assert np.array_equal(fused, h_txt)


def test_fuse_text_changes_states_once_trained():
    enc = make_encoder(seed=23)
    enc.proj[:] = np.random.default_rng(26).standard_normal(enc.proj.shape)
    h_txt = np.random.default_rng(24).standard_normal((5, D_MODEL))
    es = np.random.default_rng(25).standard_normal((3, D_MODEL))
    fused = fuse_text(h_txt, es, enc)
    assert fused.shape == h_txt.shape
    assert np.max(np.abs(fused - h_txt)) > 1e-6


def test_fuse_text_dimension_mismatch():
    enc = make_encoder()
    with pytest.raises(ValueError):
        fuse_text(np.zeros((3, D_MODEL + 2)), np.zeros((2, D_MODEL)), enc)


# ---------------------------------------------------------------------------
# Grid file format
# ---------------------------------------------------------------------------

def test_grid_file_round_trip(tmp_path):
    rng = np.random.default_rng(26)
    feats = rng.standard_normal((5, 6, 3)).astype(np.float32)
    g = SceneFeatureGrid(feats.astype(np.float64))
    path = tmp_path / "scene.grid"
    write_grid(path, g)
    back = read_grid(path)
    assert back.shape == (5, 6, 3)
    assert np.array_equal(back.features, g.features)


def test_grid_file_header_layout(tmp_path):
    g = SceneFeatureGrid(np.zeros((4, 5, 2)))
    path = tmp_path / "scene.grid"
    write_grid(path, g)
    blob = path.read_bytes()
    assert len(blob) == 12 + 4 * 4 * 5 * 2
    assert np.array_equal(np.frombuffer(blob[:12], dtype="<i4"), [4, 5, 2])


def test_grid_file_truncation_detected(tmp_path):
    g = SceneFeatureGrid(np.zeros((4, 4, 2)))
    path = tmp_path / "scene.grid"
    write_grid(path, g)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_grid(path)


@pytest.mark.parametrize("extents", [(2**31 - 1,) * 3, (40000, 40000, 16)])
def test_grid_file_oversized_header_is_truncation(tmp_path, extents):
    # 4·h·w·c overflows an allocation at the first header and asks for
    # about 102 GB at the second; the file holds 64 payload bytes.
    path = tmp_path / "scene.grid"
    path.write_bytes(np.array(extents, dtype="<i4").tobytes() + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated"):
            read_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_grid_file_bad_header(tmp_path):
    path = tmp_path / "scene.grid"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError):
        read_grid(path)
    path.write_bytes(np.array([2, 4, 1], dtype="<i4").tobytes() + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_grid(path)
