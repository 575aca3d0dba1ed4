import tracemalloc

import numpy as np
import pytest
import scipy.fft

from stereobridge.dsp import (
    FRAME_SIZE,
    HOP,
    N_MELS,
    TARGET_RATE,
    MelCepstra,
    Spectrogram,
    StereoWaveform,
    WavFormatError,
    frame_signal,
    log_mel,
    mel_cepstra,
    mel_filterbank,
    periodic_hann,
    read_wav,
    stft,
    write_wav,
)


def sine_wave(freq, seconds=0.25, rate=TARGET_RATE, amp=0.5, channels=1):
    t = np.arange(int(seconds * rate)) / rate
    x = amp * np.sin(2 * np.pi * freq * t)
    if channels == 2:
        return StereoWaveform(np.stack([x, 0.5 * x], axis=1), rate)
    return StereoWaveform(x, rate)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

def test_wav_round_trip_quantization_bound(tmp_path):
    w = sine_wave(1000.0, amp=0.9)
    path = tmp_path / "sine.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.rate == TARGET_RATE
    assert back.channels == 1
    assert back.n_samples == w.n_samples
    assert np.max(np.abs(back.samples - w.samples)) <= 2.0 ** -15


def test_wav_full_scale_round_trip(tmp_path):
    # +1.0 must clip to the largest positive code, not wrap around.
    w = StereoWaveform(np.array([1.0, -1.0, 0.0, 0.5]), 22050)
    path = tmp_path / "edge.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.samples[0, 0] == pytest.approx(32767 / 32768)
    assert back.samples[1, 0] == -1.0
    assert np.max(np.abs(back.samples - w.samples)) <= 2.0 ** -15


def test_wav_quantization_matches_round_then_clip(tmp_path):
    # Full scale, half-LSB ties (round half to even), values past full scale
    # and -0.0 give the bytes of the plain round-then-clip expression.
    ties = (np.arange(-4, 4) + 0.5) / 32768
    x = np.concatenate([[1.0, -1.0, -0.0, 0.0, 1.5, -1.5, 32767.5 / 32768,
                         -32768.5 / 32768, np.nextafter(1.0, 2.0)], ties])
    w = StereoWaveform(np.stack([x, -x], axis=1), TARGET_RATE)
    path = tmp_path / "edge.wav"
    write_wav(path, w)
    expect = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    assert path.read_bytes()[-expect.nbytes:] == expect.tobytes()


def test_wav_stereo_channels(tmp_path):
    w = sine_wave(500.0, channels=2)
    path = tmp_path / "stereo.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.channels == 2
    assert back.samples.shape == w.samples.shape
    assert back.duration == w.n_samples / TARGET_RATE
    assert np.max(np.abs(back.samples - w.samples)) <= 2.0 ** -15


def test_wav_truncated_file_rejected(tmp_path):
    path = tmp_path / "cut.wav"
    write_wav(path, sine_wave(440.0))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(WavFormatError) as exc:
        read_wav(path)
    assert "data" in str(exc.value)


def test_wav_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(WavFormatError) as exc:
        read_wav(path)
    assert "RIFF" in str(exc.value)


def test_wav_missing_fmt_rejected(tmp_path):
    path = tmp_path / "nofmt.wav"
    payload = b"WAVE" + b"data" + np.uint32(4).tobytes() + b"\x00" * 4
    path.write_bytes(b"RIFF" + np.uint32(len(payload)).tobytes() + payload)
    with pytest.raises(WavFormatError) as exc:
        read_wav(path)
    assert "fmt" in str(exc.value)


def test_wav_unsupported_format_named(tmp_path):
    import struct
    fmt = struct.pack("<HHIIHH", 3, 1, 22050, 22050 * 2, 2, 16)
    payload = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
               + b"data" + struct.pack("<I", 0))
    path = tmp_path / "float.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(WavFormatError) as exc:
        read_wav(path)
    assert "fmt chunk" in str(exc.value)


def test_waveform_validation():
    with pytest.raises(ValueError):
        StereoWaveform(np.zeros((4, 3)), 22050)
    with pytest.raises(ValueError):
        StereoWaveform(np.zeros(4), 0)
    with pytest.raises(ValueError):
        StereoWaveform(np.array([np.nan]), 22050)
    for empty in (np.zeros(0), np.zeros((0, 2))):
        with pytest.raises(ValueError, match="waveform is empty"):
            StereoWaveform(empty, 22050)


# ---------------------------------------------------------------------------
# STFT
# ---------------------------------------------------------------------------

def test_stft_frame_count_formula():
    for n in (512, 640, 1000, 2048, 2049):
        x = np.random.default_rng(n).standard_normal(n)
        spec = stft(x)
        assert spec.n_frames == 1 + int(np.ceil(n / HOP))
        assert spec.values.shape[1] == FRAME_SIZE // 2 + 1


def test_stft_zero_signal():
    spec = stft(np.zeros(1024))
    assert np.array_equal(spec.magnitude, np.zeros_like(spec.magnitude))


def test_stft_rejects_short_signal():
    with pytest.raises(ValueError):
        stft(np.zeros(FRAME_SIZE - 1))


def test_framing_rejects_more_than_one_channel():
    with pytest.raises(ValueError, match="frame_signal expects a single channel"):
        frame_signal(np.zeros((FRAME_SIZE, 2)))


def test_stft_sine_concentrates_at_bin():
    # Bin-centered sine with a periodic Hann window leaks into exactly the
    # two adjacent bins; beyond +-2 bins the level is numerically zero.
    k = 40
    freq = k * TARGET_RATE / FRAME_SIZE
    x = sine_wave(freq, seconds=0.1).channel(0)
    spec = stft(x)
    mid = spec.magnitude[spec.n_frames // 2]
    assert np.argmax(mid) == k
    peak = mid[k]
    far = np.concatenate([mid[: k - 2], mid[k + 3:]])
    assert 20 * np.log10(peak / np.max(far)) >= 20.0


def test_stft_parseval_per_frame():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1024)
    frames = frame_signal(x)
    spec = stft(x)
    for i in range(frames.shape[0]):
        time_energy = np.sum(frames[i] ** 2)
        v = spec.values[i]
        spec_energy = (np.abs(v[0]) ** 2 + np.abs(v[-1]) ** 2
                       + 2.0 * np.sum(np.abs(v[1:-1]) ** 2)) / FRAME_SIZE
        assert abs(spec_energy - time_energy) <= 1e-6 * time_energy


def test_frame_signal_centering():
    # Frame i is centered on sample i*hop: an impulse there maximizes the
    # windowed frame at its middle sample.
    x = np.zeros(1024)
    x[256] = 1.0
    frames = frame_signal(x)
    i = 256 // HOP
    assert frames[i][FRAME_SIZE // 2] == pytest.approx(1.0, rel=1e-12)


def gathered_frames(x):
    """The analysis frames by an explicit (frames, FRAME_SIZE) index gather."""
    n_frames = 1 + -(-len(x) // HOP)
    pad_right = (n_frames - 1) * HOP + FRAME_SIZE // 2 - len(x)
    padded = np.pad(x, (FRAME_SIZE // 2, pad_right), mode="reflect")
    index = HOP * np.arange(n_frames)[:, None] + np.arange(FRAME_SIZE)
    return padded[index] * periodic_hann(FRAME_SIZE)


@pytest.mark.parametrize("n", [512, 513, 640, 1000, 22050])
def test_frame_signal_matches_the_index_gather_bitwise(n):
    x = np.random.default_rng(n).standard_normal(n)
    frames = frame_signal(x)
    assert frames.shape == (1 + -(-n // HOP), FRAME_SIZE)
    assert np.array_equal(frames, gathered_frames(x))
    assert frames.flags.c_contiguous
    assert not np.shares_memory(frames, x)


def test_spectrogram_bin_invariant():
    with pytest.raises(ValueError):
        Spectrogram(values=np.zeros((3, 100)))


def test_periodic_hann_endpoint():
    w = periodic_hann(8)
    assert w[0] == 0.0
    assert w.shape == (8,)
    # Periodic form: w[k] = 0.5 - 0.5 cos(2 pi k / 8); w[4] is the peak.
    assert w[4] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Mel filterbank
# ---------------------------------------------------------------------------

def test_filterbank_shape_and_nonnegativity():
    fb = mel_filterbank()
    assert fb.shape == (N_MELS, FRAME_SIZE // 2 + 1)
    assert np.all(fb >= 0.0)


def test_filterbank_unimodal_rows():
    fb = mel_filterbank()
    for row in fb:
        support = np.flatnonzero(row)
        peak = np.argmax(row)
        rising = row[support[0]: peak + 1]
        falling = row[peak: support[-1] + 1]
        assert np.all(np.diff(rising) >= -1e-12)
        assert np.all(np.diff(falling) <= 1e-12)


def test_filterbank_centers_monotone():
    # The outer filters peak exactly on the DC and Nyquist bins.
    fb = mel_filterbank()
    assert fb[0, 0] == fb[-1, -1] == 1.0
    assert np.all(np.diff(np.argmax(fb, axis=1)) >= 0)


def test_filterbank_covers_every_bin():
    fb = mel_filterbank()
    coverage = fb.sum(axis=0)
    assert np.all(coverage > 0.0)


def test_filterbank_flat_spectrum_positive_everywhere():
    fb = mel_filterbank()
    out = fb @ np.ones(FRAME_SIZE // 2 + 1)
    assert out.shape == (N_MELS,)
    assert np.all(out > 0.0)


# ---------------------------------------------------------------------------
# Log-mel scaling
# ---------------------------------------------------------------------------

def test_log_mel_silence_at_lower_clamp():
    w = StereoWaveform(np.zeros(1024), TARGET_RATE)
    feats = log_mel(w)
    assert feats.shape[0] == 1
    assert np.array_equal(feats, -np.ones_like(feats))


def test_log_mel_range_and_shape():
    w = sine_wave(1200.0, channels=2)
    feats = log_mel(w)
    n_frames = 1 + int(np.ceil(w.n_samples / HOP))
    assert feats.shape == (2, n_frames, N_MELS)
    assert np.all(feats >= -1.0)
    assert np.all(feats <= 1.0)


def test_log_mel_monotone_in_amplitude():
    quiet = sine_wave(800.0, amp=0.05)
    loud = sine_wave(800.0, amp=0.5)
    a = log_mel(quiet)
    b = log_mel(loud)
    assert np.all(b >= a - 1e-12)
    assert np.max(b) > np.max(a)


def test_log_mel_frees_each_channel_before_the_next():
    # 10 s of stereo: one channel's magnitudes and mel features take about
    # 6.5 MiB, and holding them through the second channel's STFT peaked at
    # 21.2 MiB against 14.7 MiB without.
    rng = np.random.default_rng(8)
    w = StereoWaveform(0.3 * rng.standard_normal((10 * TARGET_RATE, 2)), TARGET_RATE)
    log_mel(w)
    tracemalloc.start()
    try:
        log_mel(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_log_mel_rejects_other_rates():
    w = StereoWaveform(np.zeros(2048), 16000)
    with pytest.raises(ValueError):
        log_mel(w)


# ---------------------------------------------------------------------------
# Cepstra
# ---------------------------------------------------------------------------

def test_cepstra_constant_frame_only_c0():
    frames = np.full((3, N_MELS), 0.7)
    cep = mel_cepstra(frames, k=13)
    assert cep.coeffs.shape == (3, 13)
    # Orthonormal DCT of a constant: c0 = value * sqrt(n), rest zero.
    assert np.allclose(cep.coeffs[:, 0], 0.7 * np.sqrt(N_MELS))
    assert np.allclose(cep.coeffs[:, 1:], 0.0, atol=1e-12)


def test_cepstra_linearity():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, N_MELS))
    b = rng.standard_normal((4, N_MELS))
    ca = mel_cepstra(a, k=13).coeffs
    cb = mel_cepstra(b, k=13).coeffs
    cab = mel_cepstra(a + b, k=13).coeffs
    assert np.allclose(cab, ca + cb, atol=1e-12)


def test_cepstra_full_order_round_trip():
    rng = np.random.default_rng(9)
    frames = rng.standard_normal((5, N_MELS))
    cep = mel_cepstra(frames, k=N_MELS)
    back = scipy.fft.idct(cep.coeffs, type=2, norm="ortho", axis=1)
    assert np.max(np.abs(back - frames)) <= 1e-9


@pytest.mark.parametrize("n_frames", [1, 2, 7, 1723])
@pytest.mark.parametrize("k", [1, 13, N_MELS])
def test_cepstra_match_scipy_dct(n_frames, k):
    rng = np.random.default_rng(n_frames * k)
    frames = rng.uniform(-1.0, 1.0, (n_frames, N_MELS))
    ref = scipy.fft.dct(frames, type=2, norm="ortho", axis=1)[:, :k]
    cep = mel_cepstra(frames, k=k).coeffs
    assert cep.shape == (n_frames, k)
    assert np.max(np.abs(cep - ref)) <= 1e-12


def test_cepstra_validation():
    with pytest.raises(ValueError):
        mel_cepstra(np.zeros((2, 80)), k=0)
    with pytest.raises(ValueError):
        mel_cepstra(np.zeros((2, 80)), k=81)
    with pytest.raises(ValueError):
        MelCepstra(coeffs=np.array([[np.inf, 0.0]]))
    for shape in ((3,), (2, 3, 4)):
        with pytest.raises(ValueError, match=r"coeffs must be \(frames, k\)"):
            MelCepstra(coeffs=np.zeros(shape))
