"""Waveform I/O and spectral features at the project's fixed parameters.

Audio enters and leaves as 16-bit PCM RIFF/WAVE, parsed by hand so malformed
files fail with the offending chunk named.  Features are computed at
22050 Hz with a 512-sample frame, 128-sample hop, periodic Hann window and
an 80-filter mel bank; log-mels are mapped onto [-1, 1] with fixed bounds so
the scaling is invertible and identical across files.

The mel filter centers span [0, rate / 2] inclusive (the outermost triangles
extend past the range), which guarantees that every FFT bin inside the range
receives positive total weight — including the DC bin, which the common
edge-spanning construction leaves orphaned.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TARGET_RATE = 22050
FRAME_SIZE = 512
HOP = 128
N_MELS = 80
LOG_MEL_BOUNDS = (-11.5, 2.3)


# ---------------------------------------------------------------------------
# Waveforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StereoWaveform:
    """PCM audio as float64 samples, shape (n_samples, channels).

    Amplitudes are nominally in [-1, 1]; writing quantizes and clips.
    """

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[1] not in (1, 2):
            raise ValueError(f"samples must be (n, 1|2), got shape {s.shape}")
        if s.shape[0] < 1:
            raise ValueError("waveform is empty")
        if not np.all(np.isfinite(s)):
            raise ValueError("waveform contains non-finite samples")
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "rate", int(self.rate))

    @property
    def channels(self) -> int:
        return self.samples.shape[1]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.n_samples / self.rate

    def channel(self, i: int) -> np.ndarray:
        return self.samples[:, i]


class WavFormatError(ValueError):
    """Raised on malformed or unsupported WAV data, naming the bad chunk."""


_PCM_SCALE = 32768.0


def write_wav(path, w: StereoWaveform) -> None:
    """Write 16-bit PCM; samples are scaled by 32768, rounded and clipped."""
    q = w.samples * _PCM_SCALE
    np.round(q, out=q)
    np.clip(q, -32768, 32767, out=q)
    payload = q.astype("<i2").tobytes()
    block_align = 2 * w.channels
    fmt = struct.pack("<HHIIHH", 1, w.channels, w.rate,
                      w.rate * block_align, block_align, 16)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def read_wav(path) -> StereoWaveform:
    """Parse a PCM-16 RIFF/WAVE file written by anything reasonable.

    Walks the chunk list explicitly; any structural problem raises
    :class:`WavFormatError` naming the chunk at fault, and nothing partial
    is ever returned.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[:4] != b"RIFF":
        raise WavFormatError("RIFF chunk: missing or too short")
    if buf[8:12] != b"WAVE":
        raise WavFormatError(f"RIFF chunk: format tag {buf[8:12]!r} is not WAVE")

    fmt = None
    data = None
    offset = 12
    while offset + 8 <= len(buf):
        tag = buf[offset:offset + 4]
        (size,) = struct.unpack_from("<I", buf, offset + 4)
        start = offset + 8
        if start + size > len(buf):
            raise WavFormatError(
                f"{tag.decode('ascii', 'replace')} chunk: declared {size} "
                f"bytes but only {len(buf) - start} remain"
            )
        if tag == b"fmt ":
            if size < 16:
                raise WavFormatError("fmt chunk: too short")
            fmt = struct.unpack_from("<HHIIHH", buf, start)
        elif tag == b"data":
            data = buf[start:start + size]
        # Chunks are word-aligned; a padding byte follows odd sizes.
        offset = start + size + (size & 1)

    if fmt is None:
        raise WavFormatError("fmt chunk: not present")
    if data is None:
        raise WavFormatError("data chunk: not present")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1:
        raise WavFormatError(f"fmt chunk: unsupported audio format {audio_format}")
    if bits != 16:
        raise WavFormatError(f"fmt chunk: unsupported bit depth {bits}")
    if channels not in (1, 2):
        raise WavFormatError(f"fmt chunk: unsupported channel count {channels}")
    frame_bytes = 2 * channels
    if len(data) % frame_bytes != 0:
        raise WavFormatError(
            f"data chunk: {len(data)} bytes is not a whole number of "
            f"{channels}-channel frames"
        )
    q = np.frombuffer(data, dtype="<i2").reshape(-1, channels)
    return StereoWaveform(samples=q / _PCM_SCALE, rate=rate)


# ---------------------------------------------------------------------------
# STFT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT frames, shape (n_frames, FRAME_SIZE // 2 + 1)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[1] != FRAME_SIZE // 2 + 1:
            raise ValueError(
                f"expected (frames, {FRAME_SIZE // 2 + 1}) values, got {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_signal(x: np.ndarray) -> np.ndarray:
    """Windowed, centered analysis frames of a 1-D signal.

    Reflection padding centers frame i on sample i*HOP; the right padding
    is extended just enough that the frame count is exactly
    ``1 + ceil(len(x) / HOP)``.  The window multiplies a strided view of
    the padded signal, so no frame is gathered before it is windowed; the
    result is a fresh C-contiguous (n_frames, FRAME_SIZE) array.
    """
    if x.ndim != 1:
        raise ValueError("frame_signal expects a single channel")
    n = len(x)
    if n < FRAME_SIZE:
        raise ValueError(f"signal of {n} samples is shorter than one "
                         f"{FRAME_SIZE}-sample frame")
    n_frames = 1 + int(np.ceil(n / HOP))
    pad_left = FRAME_SIZE // 2
    pad_right = (n_frames - 1) * HOP + FRAME_SIZE - pad_left - n
    padded = np.pad(x, (pad_left, pad_right), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, FRAME_SIZE)[::HOP]
    return frames * periodic_hann(FRAME_SIZE)


def stft(x: np.ndarray) -> Spectrogram:
    """Short-time Fourier transform of one channel (periodic Hann window)."""
    return Spectrogram(values=np.fft.rfft(frame_signal(x), axis=1))


# ---------------------------------------------------------------------------
# Mel features
# ---------------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters, shape (N_MELS, FRAME_SIZE // 2 + 1).

    The N_MELS peaks are spaced uniformly on the mel scale from 0 Hz to
    TARGET_RATE / 2, so the first and last filters peak on the first and
    last FFT bins and their outer slopes extrapolate one mel step beyond
    the range.  Filters have unit peak weight.
    """
    bins = FRAME_SIZE // 2 + 1
    centers = np.linspace(_hz_to_mel(0.0), _hz_to_mel(TARGET_RATE / 2.0), N_MELS)
    step = centers[1] - centers[0]
    bin_mels = _hz_to_mel(np.arange(bins) * TARGET_RATE / FRAME_SIZE)
    offset = (bin_mels[None, :] - centers[:, None]) / step
    weights = np.maximum(0.0, 1.0 - np.abs(offset))
    return weights


def log_mel(w: StereoWaveform) -> np.ndarray:
    """Per-channel log-mel frames scaled onto [-1, 1].

    Returns shape (channels, n_frames, N_MELS).  The natural-log features
    ``ln(mel_magnitude + 1e-5)`` are mapped affinely from the fixed
    ``LOG_MEL_BOUNDS`` interval onto [-1, 1] and clamped, so silence sits
    exactly at the lower clamp and the mapping never depends on the input
    file.  The sample rate must match the 22050 Hz pipeline.
    """
    if w.rate != TARGET_RATE:
        raise ValueError(
            f"feature pipeline is fixed at {TARGET_RATE} Hz; "
            f"got {w.rate} Hz (resample upstream)"
        )
    fb = mel_filterbank()
    return np.stack([_channel_log_mel(w.channel(ch), fb)
                     for ch in range(w.channels)])


def _channel_log_mel(x: np.ndarray, fb: np.ndarray) -> np.ndarray:
    # A function of its own so that one channel's intermediate arrays are
    # freed before the next channel's STFT runs.
    lo, hi = LOG_MEL_BOUNDS
    mag = stft(x).magnitude
    mel = mag @ fb.T
    feats = np.log(mel + 1e-5)
    scaled = 2.0 * (feats - lo) / (hi - lo) - 1.0
    return np.clip(scaled, -1.0, 1.0)


@dataclass(frozen=True)
class MelCepstra:
    """Leading DCT coefficients of log-mel frames, shape (n_frames, k)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 2:
            raise ValueError(f"coeffs must be (frames, k), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("cepstra contain non-finite values")
        object.__setattr__(self, "coeffs", c)


@lru_cache(maxsize=8)
def _dct_basis(n: int, k: int) -> np.ndarray:
    """Rows 0..k-1 of the n-point orthonormal DCT-II matrix, as (n, k) columns."""
    # (2j + 1)·q is reduced mod 4n before scaling, so every angle is below 2π.
    j, q = np.arange(n)[:, None], np.arange(k)
    basis = np.cos(np.pi * ((2 * j + 1) * q % (4 * n)) / (2 * n)) * np.sqrt(2.0 / n)
    basis[:, 0] = np.sqrt(1.0 / n)
    basis.setflags(write=False)
    return basis


def mel_cepstra(log_mel_frames: np.ndarray, k: int) -> MelCepstra:
    """Orthonormal DCT-II over each frame, keeping coefficients 0..k-1: one
    product with the DCT matrix's first k rows, within about 1e-14 of an FFT
    DCT on log-mel frames."""
    if not 0 < k <= log_mel_frames.shape[1]:
        raise ValueError(f"k must be in (0, {log_mel_frames.shape[1]}], got {k}")
    return MelCepstra(coeffs=log_mel_frames @ _dct_basis(log_mel_frames.shape[1], k))
