"""Spatial conditioning: viewpoint masks, pose and energy codes, attention.

This module turns a scene description (a feature grid standing in for an
image-encoder output), a speaker pose and a stereo spectrogram pair into a
spatial embedding sequence, and fuses that embedding into text-hidden states
through single-head cross attention with a residual projection.

The pipeline order is: mask the grid into two eye views, add positional
encodings, embed quantized per-frame channel energies together with the pose
through a small convolution stack, attend the frame features over the grid
tokens, and finally attend text states over the resulting embedding.
Masking itself never alters surviving cells; the positional encoding is a
separate, explicit step so the split stays bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

D_MODEL = 16        # encoder width; grids and text states carry this many channels
EMBED_DIM = 8       # width of one energy-code embedding
ENERGY_BINS = 32    # energy quantization levels, one embedding row each


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneFeatureGrid:
    """H x W grid of C-dimensional feature vectors.

    A synthetic stand-in for the output of an image encoder; anything that
    writes the documented binary layout (see :func:`read_grid`) can supply
    real features instead.  Both spatial extents must be at least 4 so a
    quarter mask removes at least one full column.
    """

    features: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 3:
            raise ValueError(f"grid must be (H, W, C), got shape {f.shape}")
        h, w, _ = f.shape
        if h < 4 or w < 4:
            raise ValueError(f"grid extents must be >= 4, got {h}x{w}")
        if not np.all(np.isfinite(f)):
            raise ValueError("grid contains non-finite entries")
        object.__setattr__(self, "features", f)

    @property
    def shape(self):
        return self.features.shape


@dataclass(frozen=True)
class SpeakerPose:
    """Distance (meters) and planar rotation angle, wrapped to (-pi, pi]."""

    d: float
    alpha: float

    def __post_init__(self):
        if not (self.d >= 0.0 and np.isfinite(self.d)):
            raise ValueError(f"distance must be finite and >= 0, got {self.d}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"angle must be finite, got {self.alpha}")
        a = math.remainder(float(self.alpha), math.tau)
        if a <= -math.pi:
            a = math.pi
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class EnergyVector:
    """Quantized per-frame, per-channel log-energy codes.

    ``codes`` has shape (frames, 2) with integer entries in [0, ENERGY_BINS).
    """

    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.shape[1] != 2:
            raise ValueError(f"codes must be (frames, 2), got {codes.shape}")
        if np.any(codes < 0) or np.any(codes >= ENERGY_BINS):
            raise ValueError("codes out of bin range")
        object.__setattr__(self, "codes", codes.astype(np.intp))

    @property
    def n_frames(self) -> int:
        return self.codes.shape[0]


# ---------------------------------------------------------------------------
# Viewpoint masking and positional encoding
# ---------------------------------------------------------------------------

def viewpoint_split(grid: SceneFeatureGrid):
    """Zero out one quarter of the columns for each eye view.

    Returns ``(left_view, right_view)``: the left view zeroes the leftmost
    ``floor(W/4)`` columns and the right view the rightmost.  Unmasked
    cells pass through bit-exactly.
    """
    f = grid.features
    w = f.shape[1]
    k = w // 4
    left = f.copy()
    right = f.copy()
    left[:, :k, :] = 0.0
    right[:, w - k:, :] = 0.0
    return SceneFeatureGrid(left), SceneFeatureGrid(right)


def position_encoding(height: int, width: int, channels: int) -> np.ndarray:
    """Absolute sinusoidal encoding over flattened grid positions.

    Position p = row * W + col gets the usual geometric-frequency sin/cos
    features, truncated to C channels; returns shape (H, W, C).
    """
    if height < 1 or width < 1 or channels < 1:
        raise ValueError("all extents must be positive")
    pos = np.arange(height * width, dtype=np.float64)
    half = (channels + 1) // 2
    freqs = np.exp(-np.log(10_000.0) * np.arange(half) / max(half - 1, 1))
    angles = pos[:, None] * freqs[None, :]
    table = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)[:, :channels]
    return table.reshape(height, width, channels)


def with_position_encoding(grid: SceneFeatureGrid) -> SceneFeatureGrid:
    """Add the absolute positional encoding to every grid cell."""
    h, w, c = grid.shape
    return SceneFeatureGrid(grid.features + position_encoding(h, w, c))


# ---------------------------------------------------------------------------
# Pose and energy encoding
# ---------------------------------------------------------------------------

def pose_encoding(p: SpeakerPose) -> np.ndarray:
    """(d, sin(alpha), cos(alpha)) as a float64 3-vector."""
    return np.array([p.d, math.sin(p.alpha), math.cos(p.alpha)])


LOG_ENERGY_RANGE = (-6.0, 2.0)
ENERGY_EPS = 1e-8


def energy_vector(spec_left: np.ndarray, spec_right: np.ndarray) -> EnergyVector:
    """Quantize per-frame channel energies on a base-10 log scale.

    ``spec_left``/``spec_right`` are (frames, freq) magnitude arrays.  Each
    frame's L2 norm is mapped through ``log10(e + 1e-8)``, scaled affinely
    from ``LOG_ENERGY_RANGE`` onto [0, ENERGY_BINS) and floored, then
    clamped into range.  A silent frame lands in bin 0.
    """
    if spec_left.ndim != 2 or spec_right.ndim != 2:
        raise ValueError("spectrogram magnitudes must be 2-D (frames, freq)")
    if spec_left.shape[0] != spec_right.shape[0]:
        raise ValueError(
            f"frame counts differ: {spec_left.shape[0]} vs {spec_right.shape[0]}"
        )
    lo, hi = LOG_ENERGY_RANGE
    codes = np.empty((spec_left.shape[0], 2), dtype=np.intp)
    for ch, spec in enumerate((spec_left, spec_right)):
        e = np.sqrt(np.sum(spec * spec, axis=1))
        level = (np.log10(e + ENERGY_EPS) - lo) / (hi - lo)
        codes[:, ch] = np.clip(np.floor(ENERGY_BINS * level).astype(np.intp),
                               0, ENERGY_BINS - 1)
    return EnergyVector(codes=codes)


# ---------------------------------------------------------------------------
# Learned encoder weights
# ---------------------------------------------------------------------------

@dataclass
class SpatialEncoder:
    """Weights for the energy/pose convolution stack and both fusions.

    ``embed`` maps energy codes to vectors (shared across channels);
    ``conv*`` are kernel-3 1-D convolutions over frames; ``mix`` combines
    the two attended view summaries; ``proj`` is the residual output
    projection of :func:`fuse_text` and starts at zero so fusion is the
    identity until trained.
    """

    embed: np.ndarray
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    mix: np.ndarray
    proj: np.ndarray

    @property
    def d_model(self) -> int:
        return self.conv1_w.shape[2]


def init_spatial_encoder(rng: np.random.Generator) -> SpatialEncoder:
    """He-normal weights; the fuse projection is zero."""
    in_dim = 2 * EMBED_DIM + 3
    def he(*shape):
        return rng.standard_normal(shape) * np.sqrt(2.0 / shape[-2])
    return SpatialEncoder(
        embed=rng.standard_normal((ENERGY_BINS, EMBED_DIM)) / np.sqrt(EMBED_DIM),
        conv1_w=he(3, in_dim, D_MODEL),
        conv1_b=np.zeros(D_MODEL),
        conv2_w=he(3, D_MODEL, D_MODEL),
        conv2_b=np.zeros(D_MODEL),
        mix=rng.standard_normal((2 * D_MODEL, D_MODEL)) / np.sqrt(2 * D_MODEL),
        proj=np.zeros((D_MODEL, D_MODEL)),
    )


def _conv1d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Length-preserving kernel-3 convolution: (F, Cin) -> (F, Cout)."""
    frames = x.shape[0]
    pad = np.zeros((frames + 2, x.shape[1]))
    pad[1:-1] = x
    out = b + sum(pad[k:k + frames] @ w[k] for k in range(3))
    return out


def conv_stack(enc: SpatialEncoder, ve: EnergyVector, vloc: np.ndarray) -> np.ndarray:
    """Frame-level fusion of energy codes with the pose vector.

    Embeds both channel codes, appends the broadcast pose, runs two
    kernel-3 convolutions with a tanh between them, and mean-pools frames
    by a factor of two (a trailing odd frame forms its own pool).  Output
    shape is (ceil(F/2), d_model).
    """
    if vloc.shape != (3,):
        raise ValueError(f"pose vector must have shape (3,), got {vloc.shape}")
    if ve.n_frames == 0:
        raise ValueError("energy vector has no frames")
    emb = enc.embed[ve.codes]                       # (F, 2, embed_dim)
    flat = emb.reshape(ve.n_frames, -1)
    x = np.concatenate(
        [flat, np.broadcast_to(vloc, (ve.n_frames, 3))], axis=1
    )
    h = np.tanh(_conv1d_same(x, enc.conv1_w, enc.conv1_b))
    h = _conv1d_same(h, enc.conv2_w, enc.conv2_b)
    return _pool_pairs(h)


def _pool_pairs(h: np.ndarray) -> np.ndarray:
    """Mean of each pair of consecutive rows; a trailing odd row stays as is."""
    m = h.shape[0] // 2
    pooled = np.empty(((h.shape[0] + 1) // 2, h.shape[1]))
    pooled[:m] = (h[0:2 * m:2] + h[1:2 * m:2]) / 2.0
    if h.shape[0] % 2:
        pooled[m] = h[-1]
    return pooled


# ---------------------------------------------------------------------------
# Attention and fusion
# ---------------------------------------------------------------------------

def attention_weights(q_states: np.ndarray, kv_states: np.ndarray) -> np.ndarray:
    """Row-stochastic attention matrix softmax(Q K^T / sqrt(d_k)), with d_k
    the query width."""
    if kv_states.shape[0] == 0:
        raise ValueError("attention needs at least one key/value vector")
    if q_states.shape[1] != kv_states.shape[1]:
        raise ValueError(
            f"query dim {q_states.shape[1]} does not match key dim {kv_states.shape[1]}"
        )
    logits = q_states @ kv_states.T
    logits /= math.sqrt(q_states.shape[1])
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def cross_modal_attention(q_states: np.ndarray, kv_states: np.ndarray) -> np.ndarray:
    """Single-head scaled dot-product attention with K = V = kv_states."""
    return attention_weights(q_states, kv_states) @ kv_states


def build_spatial_embedding(
    enc: SpatialEncoder,
    left: SceneFeatureGrid,
    right: SceneFeatureGrid,
    frames: np.ndarray,
) -> np.ndarray:
    """Attend frame features over both view grids and mix the summaries.

    The grids are flattened to token sequences (their channel count must
    equal the encoder's model dimension); each frame vector queries both
    views, and the concatenated per-frame summaries are mixed back down to
    d_model.  Output shape (M, d_model) with M the number of frame rows.
    """
    d = enc.d_model
    if frames.shape[0] == 0:
        raise ValueError("need at least one frame feature")
    if frames.shape[1] != d:
        raise ValueError(f"frame dim {frames.shape[1]} != d_model {d}")
    for name, g in (("left", left), ("right", right)):
        if g.shape[2] != d:
            raise ValueError(
                f"{name} grid channels {g.shape[2]} != d_model {d}"
            )
    left_tokens = left.features.reshape(-1, d)
    right_tokens = right.features.reshape(-1, d)
    summary = np.concatenate(
        [cross_modal_attention(frames, left_tokens),
         cross_modal_attention(frames, right_tokens)], axis=1
    )
    es = summary @ enc.mix
    if not np.all(np.isfinite(es)):
        raise ValueError("spatial embedding is non-finite")
    return es


def fuse_text(h_txt: np.ndarray, es: np.ndarray, enc: SpatialEncoder) -> np.ndarray:
    """Residual cross attention of text states over the spatial embedding.

    Returns ``h_txt + attention(h_txt, es) @ proj``; with the zero-initial
    projection this is exactly the identity, so an untrained encoder never
    perturbs the text pathway.
    """
    if h_txt.shape[1] != enc.d_model:
        raise ValueError(f"text dim {h_txt.shape[1]} != d_model {enc.d_model}")
    attended = cross_modal_attention(h_txt, es)
    return h_txt + attended @ enc.proj


# ---------------------------------------------------------------------------
# Grid file format
# ---------------------------------------------------------------------------

_GRID_HEADER = struct.Struct("<iii")


def write_grid(path, grid: SceneFeatureGrid) -> None:
    """Write ``H, W, C`` as little-endian int32 then row-major float32."""
    h, w, c = grid.shape
    with open(path, "wb") as fh:
        fh.write(_GRID_HEADER.pack(h, w, c))
        fh.write(np.ascontiguousarray(grid.features, dtype="<f4").tobytes())


def read_grid(path) -> SceneFeatureGrid:
    """Read a grid written by :func:`write_grid` (or any external encoder).

    The header's extents are checked against the bytes the file holds
    before any array is built; bytes past the payload are ignored.
    """
    with open(path, "rb") as fh:
        head = fh.read(_GRID_HEADER.size)
        if len(head) != _GRID_HEADER.size:
            raise ValueError(f"grid file {path!s} is too short for a header")
        h, w, c = _GRID_HEADER.unpack(head)
        if h < 4 or w < 4 or c < 1:
            raise ValueError(f"grid file {path!s} has bad extents {(h, w, c)}")
        payload = fh.read()
    if len(payload) < 4 * h * w * c:
        raise ValueError(
            f"grid file {path!s} truncated: expected {4 * h * w * c} payload "
            f"bytes, found {len(payload)}"
        )
    feats = np.frombuffer(payload, dtype="<f4", count=h * w * c).reshape(h, w, c)
    return SceneFeatureGrid(feats.astype(np.float64))
