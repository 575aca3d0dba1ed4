"""Objective evaluation metrics and the synthetic signals that verify them.

Three quantities are computed for a synthesized/reference pair, as the
paper scores visual acoustic matching: mel-cepstral distortion (dB),
left-right channel-energy-ratio error (dB) and reverberation-time error
(seconds, via Schroeder backward integration).  Each has a closed-form
oracle on synthetic input — single-coefficient cepstra, gain-scaled stereo
pairs, exponential-envelope impulse responses — so every implementation
detail is pinned by a test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .dsp import MelCepstra, StereoWaveform

LRE_ENERGY_GUARD = 1e-12
# Cepstral order for MCD: coefficients c0..c12 per frame; the metric skips c0.
MCD_ORDER = 13
# Longest IR convolved directly; longer ones go through the FFT.  Near
# this length both methods cost the same on seconds of audio.
_DIRECT_MAX_TAPS = 256
_MCD_CONST = 10.0 * math.sqrt(2.0) / math.log(10.0)


class UnreliableDecayError(ValueError):
    """Raised when an impulse response decays too little to fit RT60."""


@dataclass(frozen=True)
class MetricReport:
    """One evaluated pair: the Table-style metric tuple plus provenance.

    ``metadata`` records any documented substitutions in effect when the
    numbers were produced.
    """

    mcd_db: float
    lre_db: float
    rte_s: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("mcd_db", "lre_db", "rte_s"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Mel-cepstral distortion
# ---------------------------------------------------------------------------

def mcd(ref: MelCepstra, syn: MelCepstra) -> float:
    """Frame-aligned mel-cepstral distortion in dB, excluding c0.

    ``(10*sqrt(2)/ln 10) * mean_t sqrt(sum_{k>=1} (c_ref - c_syn)^2)``.
    Frames must already be aligned — no time warping here.
    """
    a, b = ref.coeffs, syn.coeffs
    if a.shape != b.shape:
        raise ValueError(
            f"cepstra are not frame-aligned: {a.shape} vs {b.shape}"
        )
    if a.shape[1] < 2:
        raise ValueError("need at least two coefficients (c0 is excluded)")
    diff = a[:, 1:] - b[:, 1:]
    per_frame = np.sqrt(np.sum(diff * diff, axis=1))
    return _MCD_CONST * float(np.mean(per_frame))


# ---------------------------------------------------------------------------
# Left-right energy ratio error
# ---------------------------------------------------------------------------

def _channel_energies(w: StereoWaveform, label: str):
    if w.channels != 2:
        raise ValueError(f"{label} waveform must be stereo, got "
                         f"{w.channels} channel(s)")
    e = np.sum(w.samples * w.samples, axis=0)
    return e[0] + LRE_ENERGY_GUARD, e[1] + LRE_ENERGY_GUARD


def lre(ref: StereoWaveform, syn: StereoWaveform) -> float:
    """Absolute error between the stereo energy ratios of two signals, in
    dB: ``|10 log10(EL/ER)_syn - 10 log10(EL/ER)_ref|``."""
    ref_l, ref_r = _channel_energies(ref, "reference")
    syn_l, syn_r = _channel_energies(syn, "synthesized")
    return abs(10.0 * math.log10(syn_l / syn_r)
               - 10.0 * math.log10(ref_l / ref_r))


# ---------------------------------------------------------------------------
# Reverberation time
# ---------------------------------------------------------------------------

def schroeder_curve(ir: np.ndarray) -> np.ndarray:
    """Energy decay curve in dB from backward integration of a squared IR."""
    ir = np.asarray(ir, dtype=np.float64)
    if ir.ndim != 1 or len(ir) == 0:
        raise ValueError("impulse response must be a nonempty 1-D array")
    energy = np.cumsum(ir[::-1] ** 2)[::-1]
    total = energy[0]
    if total <= 0.0:
        raise UnreliableDecayError("impulse response carries no energy")
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(energy / total)


def rt60_schroeder(ir: np.ndarray, rate: int) -> float:
    """RT60 from the -5..-35 dB span of the Schroeder decay curve.

    A straight line is least-squares fitted to the curve over that span and
    extrapolated to a 60 dB decay.  If the curve never reaches 10 dB below
    the -5 dB point the estimate would be guesswork, so an
    :class:`UnreliableDecayError` is raised instead.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    db = schroeder_curve(ir)
    finite = db[np.isfinite(db)]
    if len(finite) < 2 or finite.min() > -15.0:
        raise UnreliableDecayError(
            f"decay curve only reaches {finite.min() if len(finite) else 0.0:.1f} dB; "
            "need at least 10 dB below the -5 dB fit start"
        )
    mask = np.isfinite(db) & (db <= -5.0) & (db >= -35.0)
    if mask.sum() < 2:
        raise UnreliableDecayError(
            "fewer than two samples inside the -5..-35 dB fit span"
        )
    t = np.flatnonzero(mask) / rate
    slope, _ = np.polyfit(t, db[mask], 1)
    if not slope < 0.0:
        raise UnreliableDecayError(f"decay slope is not negative ({slope:.3g})")
    return 60.0 / abs(slope)


def exponential_ir(tau_s: float, rate: int, seconds: float,
                   rng: np.random.Generator) -> np.ndarray:
    """White noise under an exponential envelope exp(-t / tau_s).

    The analytic 60 dB decay time of the envelope is ``3 * tau_s * ln(10)``
    seconds, which makes this the standard oracle for RT60 estimators.
    """
    if tau_s <= 0.0 or seconds <= 0.0:
        raise ValueError("tau and duration must be positive")
    n = int(seconds * rate)
    t = np.arange(n) / rate
    return np.exp(-t / tau_s) * rng.standard_normal(n)


def analytic_rt60(tau_s: float) -> float:
    """Exact 60 dB decay time of an exp(-t / tau) amplitude envelope."""
    return 3.0 * tau_s * math.log(10.0)


def rte(rt60_ref: float, rt60_syn: float) -> float:
    """Absolute reverberation-time error in seconds."""
    if rt60_ref < 0.0 or rt60_syn < 0.0:
        raise ValueError("RT60 values must be >= 0")
    return abs(rt60_ref - rt60_syn)


# ---------------------------------------------------------------------------
# Reverberant stereo synthesis
# ---------------------------------------------------------------------------

def synth_reverb_stereo(dry: np.ndarray, ir_left: np.ndarray,
                        ir_right: np.ndarray, rate: int) -> StereoWaveform:
    """Convolve a dry mono signal with one impulse response per channel.

    Full convolution per channel, by one of two methods chosen from the IR
    length alone:

    - an IR of at most ``_DIRECT_MAX_TAPS`` (256) taps goes through
      ``np.convolve``, so short IRs (a delta, a delayed delta) reproduce
      the direct sum bit for bit;
    - a longer IR is convolved by FFT: the dry signal's real FFT, zero-padded
      to a fast length covering the longer channel, is taken once and
      multiplied by each IR's real FFT.  The result agrees with
      ``np.convolve`` to rounding (about 1e-15 absolute at unit scale).

    Each channel is trimmed to its own full length and the shorter one is
    zero-padded to the longer.  The result is rescaled only if its peak
    exceeds 1, so quiet material passes through exactly.
    """
    dry = np.asarray(dry, dtype=np.float64)
    if dry.ndim != 1 or len(dry) == 0:
        raise ValueError("dry signal must be a nonempty 1-D array")
    irs = []
    for name, ir in (("left", ir_left), ("right", ir_right)):
        ir = np.asarray(ir, dtype=np.float64)
        if ir.ndim != 1 or len(ir) == 0:
            raise ValueError(f"{name} impulse response must be nonempty 1-D")
        irs.append(ir)
    out = np.zeros((len(dry) + max(len(ir) for ir in irs) - 1, 2))
    n_fft = next_fast_len(len(out), real=True)
    dry_spectrum = None
    for i, ir in enumerate(irs):
        n = len(dry) + len(ir) - 1
        if len(ir) <= _DIRECT_MAX_TAPS:
            out[:n, i] = np.convolve(dry, ir, mode="full")
            continue
        if dry_spectrum is None:
            dry_spectrum = np.fft.rfft(dry, n_fft)
        out[:n, i] = np.fft.irfft(dry_spectrum * np.fft.rfft(ir, n_fft), n_fft)[:n]
    peak = np.max(np.abs(out))
    if peak > 1.0:
        out = out / peak
    return StereoWaveform(samples=out, rate=rate)


# ---------------------------------------------------------------------------
# Report aggregation
# ---------------------------------------------------------------------------

def write_aggregate_csv(path, rows) -> None:
    """Write (system_name, MetricReport) pairs in the standard column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["System", "MCD", "LRE", "RTE"])
        for system, report in rows:
            writer.writerow([system, f"{report.mcd_db:.6g}",
                             f"{report.lre_db:.6g}", f"{report.rte_s:.6g}"])
