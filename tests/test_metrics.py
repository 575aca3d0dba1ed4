import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import stereobridge
from stereobridge.dsp import MelCepstra, StereoWaveform
from stereobridge.metrics import (
    _DIRECT_MAX_TAPS,
    _fast_len,
    LRE_ENERGY_GUARD,
    MetricReport,
    UnreliableDecayError,
    analytic_rt60,
    exponential_ir,
    lre,
    mcd,
    rt60_schroeder,
    rte,
    schroeder_curve,
    synth_reverb_stereo,
    write_aggregate_csv,
)

RATE = 22050


def stereo(left, right, rate=RATE):
    return StereoWaveform(np.stack([np.asarray(left, dtype=np.float64),
                                    np.asarray(right, dtype=np.float64)],
                                   axis=1), rate)


# ---------------------------------------------------------------------------
# MCD
# ---------------------------------------------------------------------------

def test_mcd_identical_is_zero():
    cep = MelCepstra(np.random.default_rng(0).standard_normal((10, 13)))
    assert mcd(cep, cep) == 0.0


def test_mcd_single_coefficient_unit_case():
    # Delta of ln(10) / (10 sqrt(2)) on one coefficient inverts the leading
    # constant exactly, giving 1 dB.
    a = np.zeros((1, 13))
    b = np.zeros((1, 13))
    b[0, 1] = math.log(10.0) / (10.0 * math.sqrt(2.0))
    assert abs(mcd(MelCepstra(a), MelCepstra(b)) - 1.0) <= 1e-9


def test_mcd_ignores_c0():
    a = np.zeros((4, 13))
    b = np.zeros((4, 13))
    b[:, 0] = 999.0
    assert mcd(MelCepstra(a), MelCepstra(b)) == 0.0


def test_mcd_symmetry_and_offset_scaling():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 13))
    b = rng.standard_normal((6, 13))
    assert mcd(MelCepstra(a), MelCepstra(b)) == pytest.approx(
        mcd(MelCepstra(b), MelCepstra(a)), rel=1e-12)
    # A uniform offset of delta on all 12 used coefficients gives
    # const * delta * sqrt(12); doubling delta doubles the metric.
    off1 = MelCepstra(a + np.r_[0.0, np.full(12, 0.1)])
    off2 = MelCepstra(a + np.r_[0.0, np.full(12, 0.2)])
    assert mcd(MelCepstra(a), off2) == pytest.approx(
        2.0 * mcd(MelCepstra(a), off1), rel=1e-12)


def test_mcd_frame_mismatch_rejected():
    with pytest.raises(ValueError):
        mcd(MelCepstra(np.zeros((3, 13))), MelCepstra(np.zeros((4, 13))))


# ---------------------------------------------------------------------------
# LRE
# ---------------------------------------------------------------------------

def test_lre_identical_is_zero():
    rng = np.random.default_rng(2)
    w = stereo(rng.standard_normal(500), rng.standard_normal(500))
    assert lre(w, w) == 0.0


def test_lre_double_left_gain():
    rng = np.random.default_rng(3)
    left = 0.3 * rng.standard_normal(2000)
    right = 0.3 * rng.standard_normal(2000)
    ref = stereo(left, right)
    syn = stereo(2.0 * left, right)
    assert lre(ref, syn) == pytest.approx(10.0 * math.log10(4.0), abs=1e-6)
    assert lre(ref, syn) == pytest.approx(6.0206, abs=1e-3)


def test_lre_symmetric_reference_channel_swap():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1000)
    ref = stereo(x, x[::-1])  # identical energies by permutation
    swapped = stereo(x[::-1], x)
    assert lre(ref, swapped) == pytest.approx(0.0, abs=1e-12)


def test_lre_invariant_to_common_gain():
    rng = np.random.default_rng(5)
    left = rng.standard_normal(800)
    right = 0.5 * rng.standard_normal(800)
    ref = stereo(left, right)
    syn = stereo(1.3 * left, 0.9 * right)
    base = lre(ref, syn)
    scaled = lre(stereo(3.0 * left, 3.0 * right),
                 stereo(3.9 * left, 2.7 * right))
    assert scaled == pytest.approx(base, rel=1e-9)


def test_lre_rejects_mono():
    mono = StereoWaveform(np.zeros(100) + 0.1, RATE)
    w = stereo(np.full(100, 0.1), np.full(100, 0.1))
    with pytest.raises(ValueError):
        lre(mono, w)
    with pytest.raises(ValueError):
        lre(w, mono)


def axis_sum_lre(ref, syn):
    """LRE from both channel energies at once, ``np.sum(s * s, axis=0)``."""
    (ref_l, ref_r), (syn_l, syn_r) = (
        np.sum(w.samples * w.samples, axis=0) + LRE_ENERGY_GUARD for w in (ref, syn))
    return abs(10.0 * math.log10(syn_l / syn_r) - 10.0 * math.log10(ref_l / ref_r))


def test_lre_matches_the_axis_sum_reference():
    rng = np.random.default_rng(40)
    rng.standard_normal((12, 13))  # criterion 07 draws its cepstra first
    left = 0.1 * rng.standard_normal(22050)
    right = 0.1 * rng.standard_normal(22050)
    pairs = [(stereo(left, right), stereo(2.0 * left, right))]
    rng = np.random.default_rng(11)
    for n in (1000, 22050, 6 * RATE):
        a, b = rng.uniform(-1.0, 1.0, (2, 2, n)) * [[[1.0], [0.3]], [[0.5], [0.9]]]
        pairs.append((stereo(*a), stereo(*b)))
    for ref, syn in pairs:
        want = axis_sum_lre(ref, syn)
        assert want > 1.0
        assert lre(ref, syn) == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# RT60
# ---------------------------------------------------------------------------

def polyfit_rt60(ir, rate):
    """RT60 over the same fit span with ``np.polyfit`` as the line fit."""
    db = schroeder_curve(ir)
    mask = np.isfinite(db) & (db <= -5.0) & (db >= -35.0)
    slope, _ = np.polyfit(np.flatnonzero(mask) / rate, db[mask], 1)
    return 60.0 / abs(slope)


def two_stage_ir():
    rng = np.random.default_rng(8)
    fast = exponential_ir(0.1, RATE, 1.5, rng)
    return np.concatenate([fast, 1e-4 * rng.standard_normal(int(0.5 * RATE))])


def test_rt60_closed_form_fit_matches_polyfit():
    rng = np.random.default_rng(40)
    # criterion 07's draws before its impulse responses
    rng.standard_normal((12, 13))
    rng.standard_normal((2, 22050))
    irs = [exponential_ir(tau, RATE, seconds=6.0 * tau, rng=rng)
           for tau in (0.1, 0.25, 0.5, 0.75, 1.0)]
    for ir in irs + [two_stage_ir()]:
        assert rt60_schroeder(ir, RATE) == pytest.approx(
            polyfit_rt60(ir, RATE), rel=1e-12, abs=0.0)


def test_rt60_exponential_sweep_within_five_percent():
    rng = np.random.default_rng(6)
    for tau in (0.1, 0.25, 0.5, 0.75, 1.0):
        ir = exponential_ir(tau, RATE, seconds=6.0 * tau, rng=rng)
        est = rt60_schroeder(ir, RATE)
        truth = analytic_rt60(tau)
        assert abs(est - truth) <= 0.05 * truth, f"tau={tau}: {est} vs {truth}"


def test_rt60_amplitude_invariant():
    ir = exponential_ir(0.3, RATE, 2.0, np.random.default_rng(7))
    a = rt60_schroeder(ir, RATE)
    b = rt60_schroeder(1000.0 * ir, RATE)
    c = rt60_schroeder(1e-4 * ir, RATE)
    assert b == pytest.approx(a, rel=1e-9)
    assert c == pytest.approx(a, rel=1e-9)


def test_rt60_two_stage_decay_tracks_fast_section():
    est = rt60_schroeder(two_stage_ir(), RATE)
    truth = analytic_rt60(0.1)
    assert abs(est - truth) <= 0.10 * truth


def test_rt60_insufficient_decay_rejected():
    with pytest.raises(UnreliableDecayError, match="decay curve only reaches"):
        rt60_schroeder(np.ones(5), RATE)
    with pytest.raises(UnreliableDecayError):
        rt60_schroeder(np.zeros(100), RATE)


@pytest.mark.parametrize("fault", ["all-nan", "trailing-nan", "inf"])
def test_non_finite_impulse_response_is_rejected(fault):
    ir = exponential_ir(0.2, RATE, 1.0, np.random.default_rng(9))
    if fault == "all-nan":
        ir[:] = np.nan
    elif fault == "trailing-nan":
        ir[-1] = np.nan
    else:
        ir[100] = np.inf
    for fn in (schroeder_curve, lambda x: rt60_schroeder(x, RATE)):
        with pytest.raises(ValueError) as exc:
            fn(ir)
        assert not isinstance(exc.value, UnreliableDecayError)
        assert str(exc.value) == "impulse response contains non-finite samples"


def test_schroeder_curve_monotone_nonincreasing():
    ir = exponential_ir(0.2, RATE, 1.0, np.random.default_rng(9))
    db = schroeder_curve(ir)
    assert db[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(db) <= 1e-12)


# ---------------------------------------------------------------------------
# RTE
# ---------------------------------------------------------------------------

def test_rte_values():
    assert rte(0.5, 0.5) == 0.0
    assert rte(0.50, 0.45) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        rte(-0.1, 0.5)


# ---------------------------------------------------------------------------
# Reverb synthesis
# ---------------------------------------------------------------------------

def test_reverb_unit_impulse_passthrough():
    rng = np.random.default_rng(10)
    dry = np.clip(0.5 * rng.standard_normal(300), -0.99, 0.99)
    delta = np.array([1.0])
    out = synth_reverb_stereo(dry, delta, delta, RATE)
    assert out.channels == 2
    assert np.array_equal(out.channel(0), dry)
    assert np.array_equal(out.channel(1), dry)


def test_reverb_delayed_delta():
    rng = np.random.default_rng(11)
    dry = 0.1 * rng.standard_normal(64)
    k = 5
    ir = np.zeros(k + 1)
    ir[k] = 1.0
    out = synth_reverb_stereo(dry, ir, np.array([1.0]), RATE)
    assert np.array_equal(out.channel(0)[k: k + 64], dry)
    assert np.array_equal(out.channel(0)[:k], np.zeros(k))


def test_reverb_peak_normalization():
    dry = np.array([2.0, 0.0])
    out = synth_reverb_stereo(dry, np.array([1.0]), np.array([1.0]), RATE)
    assert np.max(np.abs(out.samples)) == 1.0
    quiet = synth_reverb_stereo(0.25 * dry, np.array([1.0]),
                                np.array([1.0]), RATE)
    assert np.max(np.abs(quiet.samples)) == 0.5


def test_reverb_energy_identity_exact_for_delta_input():
    rng = np.random.default_rng(12)
    ir = 0.01 * rng.standard_normal(200)
    dry = np.zeros(50)
    dry[0] = 1.0
    out = synth_reverb_stereo(dry, ir, ir, RATE)
    e_out = np.sum(out.channel(0) ** 2)
    e_expect = np.sum(dry ** 2) * np.sum(ir ** 2)
    assert e_out == pytest.approx(e_expect, rel=1e-12)


def test_reverb_energy_identity_in_expectation():
    # For white dry input the output energy equals E(dry) * E(ir) only in
    # expectation; average the ratio over seeds.
    ratios = []
    ir = 0.001 * np.random.default_rng(13).standard_normal(100)
    e_ir = np.sum(ir**2)
    for seed in range(20):
        dry = np.random.default_rng(100 + seed).standard_normal(4096)
        out = synth_reverb_stereo(0.01 * dry, ir, ir, RATE)
        e_out = np.sum(out.channel(0) ** 2)
        ratios.append(e_out / (np.sum((0.01 * dry) ** 2) * e_ir))
    assert abs(np.mean(ratios) - 1.0) <= 0.02


def test_reverb_rejects_empty_inputs():
    with pytest.raises(ValueError):
        synth_reverb_stereo(np.zeros(0), np.ones(3), np.ones(3), RATE)
    with pytest.raises(ValueError):
        synth_reverb_stereo(np.ones(10), np.zeros(0), np.ones(3), RATE)


def assert_matches_direct(out, dry, ir):
    """One channel equals the full direct convolution to 1e-12 of its peak."""
    ref = np.convolve(dry, ir, mode="full")
    err = np.max(np.abs(out[: len(ref)] - ref))
    assert err <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(out[len(ref):], np.zeros(len(out) - len(ref)))


def test_reverb_long_irs_match_direct_convolution():
    rng = np.random.default_rng(14)
    dry = 0.01 * rng.standard_normal(20000)
    ir_left = exponential_ir(0.05, RATE, 5000 / RATE, rng)
    ir_right = 0.7 * exponential_ir(0.05, RATE, 5000 / RATE, rng)
    out = synth_reverb_stereo(dry, ir_left, ir_right, RATE)
    assert out.n_samples == 20000 + 5000 - 1
    assert_matches_direct(out.channel(0), dry, ir_left)
    assert_matches_direct(out.channel(1), dry, ir_right)


def test_reverb_unequal_irs_pad_the_shorter_tail():
    rng = np.random.default_rng(15)
    dry = 0.01 * rng.standard_normal(8000)
    ir_short = 0.1 * rng.standard_normal(300)
    ir_long = exponential_ir(0.05, RATE, 5000 / RATE, rng)
    for irs in ((ir_short, ir_long), (ir_long, ir_short)):
        out = synth_reverb_stereo(dry, *irs, RATE)
        assert out.n_samples == 8000 + 5000 - 1
        for i, ir in enumerate(irs):
            assert_matches_direct(out.channel(i), dry, ir)


def test_reverb_methods_agree_across_the_crossover():
    rng = np.random.default_rng(16)
    dry = 0.01 * rng.standard_normal(4000)
    direct = 0.1 * rng.standard_normal(_DIRECT_MAX_TAPS)
    # One trailing zero tap: the same filter, convolved by FFT.
    by_fft = np.concatenate([direct, [0.0]])
    out = synth_reverb_stereo(dry, direct, by_fft, RATE)
    assert np.array_equal(out.channel(0)[:-1], np.convolve(dry, direct))
    gap = np.max(np.abs(out.channel(0) - out.channel(1)))
    assert gap <= 1e-12 * np.max(np.abs(out.channel(0)))


def test_reverb_peak_normalization_on_fft_path():
    rng = np.random.default_rng(17)
    dry = rng.standard_normal(6000)
    ir = exponential_ir(0.05, RATE, 2000 / RATE, rng)
    out = synth_reverb_stereo(dry, ir, 0.5 * ir, RATE)
    ref = np.convolve(dry, ir)
    assert np.max(np.abs(ref)) > 1.0
    assert np.max(np.abs(out.samples)) == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(out.channel(0) - ref / np.max(np.abs(ref)))) <= 1e-12
    assert np.max(np.abs(out.channel(1) - 0.5 * out.channel(0))) <= 1e-12


def test_fft_length_is_scipy_next_fast_len():
    # Every length up to 2^17, and the full-convolution lengths of the
    # 2-10 s takes rendered with 0.01-0.8 s IRs that the benchmark scores.
    renders = {int(dry * RATE) + int(ir * RATE) - 1
               for dry in (2, 4, 6, 8, 10)
               for ir in (0.01, 0.02, 0.03, 0.04, 0.05, 0.2, 0.3, 0.425, 0.55, 0.675, 0.8)}
    lengths = [*range(1, 2**17 + 1), *sorted(renders)]
    assert [_fast_len(n) for n in lengths] == \
        [scipy.fft.next_fast_len(n, real=True) for n in lengths]


def test_library_runs_without_importing_scipy(tmp_path):
    # SciPy is the tests' reference only: importing scipy.fft or
    # scipy.spatial costs tens of MB of resident memory.
    code = """
import json, sys
from pathlib import Path
import numpy as np
from stereobridge import cli, dsp, toys
from stereobridge.metrics import exponential_ir, synth_reverb_stereo

out = Path(sys.argv[1])
cfg = out / "tiny.json"
cfg.write_text(json.dumps({"schema_version": 1,
                           "run": {"steps": 5, "batch_size": 4, "probe_step": 2, "seed": 3},
                           "model": {"hidden": 16, "depth": 2, "time_embed_dim": 8}}))
assert cli.main(["train-toy", "--config", str(cfg), "--out", str(out / "train")]) == 0
assert cli.main(["sample", "--checkpoint", str(out / "train" / "model.ckpt"),
                 "--count", "8", "--out", str(out / "sample")]) == 0
rng = np.random.default_rng(0)
ir = exponential_ir(0.3, 22050, 1.0, rng)
take = synth_reverb_stereo(np.ones(1), ir, 0.5 * ir, 22050)
dsp.write_wav(out / "ref.wav", dsp.StereoWaveform(0.1 * take.samples, 22050))
dsp.write_wav(out / "syn.wav", dsp.StereoWaveform(0.08 * take.samples, 22050))
assert cli.main(["eval", "--ref", str(out / "ref.wav"), "--syn", str(out / "syn.wav"),
                 "--out", str(out / "eval")]) == 0
synth_reverb_stereo(rng.standard_normal(1000), np.ones(3), np.ones(300), 22050)
toys.energy_distance(rng.normal(size=(300, 2)), rng.normal(size=(40, 2)))
dsp.mel_cepstra(rng.standard_normal((4, dsp.N_MELS)), 13)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == [], loaded
"""
    src = Path(stereobridge.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_metric_report_validation():
    report = MetricReport(mcd_db=7.7, lre_db=1.0, rte_s=0.065)
    assert report.to_dict() == {"mcd_db": 7.7, "lre_db": 1.0, "rte_s": 0.065}
    with pytest.raises(ValueError):
        MetricReport(mcd_db=-1.0, lre_db=0.0, rte_s=0.0)
    with pytest.raises(ValueError):
        MetricReport(mcd_db=0.0, lre_db=0.0, rte_s=float("nan"))


def test_aggregate_csv_layout(tmp_path):
    rows = [
        ("bridge-1", MetricReport(7.7, 1.2, 0.065)),
        ("bridge-4", MetricReport(7.5, 1.1, 0.060)),
    ]
    path = tmp_path / "table.csv"
    write_aggregate_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["System", "MCD", "LRE", "RTE"]
    assert parsed[1] == ["bridge-1", "7.7", "1.2", "0.065"]
    assert float(parsed[2][2]) == pytest.approx(1.1)
