"""The three closed-loop workloads and their correctness gates.

Every workload reports the same end-to-end metric names; what each one
measures on each workload is listed in ``README.md`` and, for the names the
design used, in ``layers.json`` under ``issue_names``.

* ``train`` — ``train-toy`` requests at the reference recipe (hidden 192,
  depth 4, batch 16, 12-node grid, 5000 steps) from a fresh init,
  checkpointing every 500 steps as the command does.  The first request
  uses the recipe seed and is the one scored; later ones draw their seed
  from the workload seed.  Small matmuls, Adam, EMA and Python overhead; no DSP.
* ``sample`` — one checkpoint trained during set-up at the recipe seed, then
  ``sample`` requests cycling NFE 1, 2, 4, 8 at 4096 points with a fixed
  share of 64-point requests; a scoring phase runs the analytic oracle and
  energy distances.  BLAS-bound forward passes; no backward pass.

Set-up runs three times and scoring twice per run; the median wall time of
each is reported, and the repeats must give identical results.
* ``audio`` — ``eval`` score requests on takes rendered with short or long
  impulse responses, a fixed share of malformed or undecidable pairs, and
  spatial conditioning requests.  The only workload running ``dsp``,
  ``metrics`` and ``spatial``; the network never runs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import (
    Ops, Result, Tracer, call_cli, check, load_layers, median,
)
from stereobridge import config, dsp, metrics, spatial, toys

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "throughput_per_s": "1/s",
    "throughput2_per_s": "1/s",
    "small_ms_p50": "ms",
    "score_s": "s",
    "quality_ratio": "ratio",
    "quality2_ratio": "ratio",
}
SETUP_REPEATS = 3
SCORE_REPEATS = 2
REFERENCE_COUNT = 4096


def _seed(seed: int, *tags: int) -> int:
    """A nonnegative 31-bit seed derived from the workload seed and tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0] & 0x7FFFFFFF)


def _write_config(path: Path, **run) -> Path:
    """The default (reference) config with ``run`` section overrides."""
    raw = config.default_config().to_dict()
    raw["run"].update(run)
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return path


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_samples(path: Path, count: int) -> np.ndarray:
    body = path.read_text().split("\n", 1)[1]
    values = np.array(body.replace(",", " ").split(), dtype=np.float64)
    check(values.size % count == 0, f"{path.name}: {values.size} values for {count} rows")
    return values.reshape(count, -1)


def _tail(values) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    v = np.asarray(list(values), dtype=np.float64)
    n = v.size
    if n == 0:
        return "n=0"
    tail = [p for p in (99, 95, 90, 75) if n * (1 - p / 100) >= 10]
    text = f"p50={np.percentile(v, 50):.4g}"
    if tail:
        text += f" p{tail[0]}={np.percentile(v, tail[0]):.4g}"
    return text + f" n={n}"


def reference_sets():
    """Held-out draws and the analytic sampler's energy distance to them.

    Built exactly as acceptance criterion 05 builds its baseline, so every
    energy-distance ratio here is on the scale that criterion trusts.
    """
    cfg = config.default_config()
    problem, sched, grid = cfg.toy_problem(), cfg.schedule(), cfg.time_grid()
    r = np.random.default_rng(123)
    held = problem.mixture.sample(REFERENCE_COUNT, r)
    oracle = toys.oracle_ode_sample(problem, problem.draw_prior(REFERENCE_COUNT, r),
                                    sched, r, t_start=grid.t_max, t_end=grid.t_min)
    ed_oracle = toys.energy_distance(oracle, held)
    check(np.isfinite(ed_oracle) and ed_oracle > 0, f"oracle energy distance {ed_oracle}")
    return held, ed_oracle


def _sample_request(cfg_path, ckpt, nfe, count, seed, out):
    """One ``sample`` call with the NFE accounting and finiteness gates."""
    reply = call_cli(["sample", "--config", cfg_path, "--checkpoint", ckpt,
                      "--nfe", nfe, "--seed", seed, "--count", count, "--out", out])
    check(reply.code == 0, f"sample exit {reply.code}: {reply.stderr.strip()}")
    timing = _read_json(out / f"timing_nfe{nfe}.json")
    check(timing["network_evaluations"] == nfe,
          f"NFE accounting {timing['network_evaluations']} != budget {nfe}")
    check(timing["sample_count"] == count, f"sample count {timing['sample_count']}")
    samples = _read_samples(out / f"samples_nfe{nfe}.csv", count)
    check(bool(np.all(np.isfinite(samples))), "non-finite samples")
    return reply.wall_s, samples


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    cycle = 1               # requests per cycle; timed runs end on a cycle
    cycle_seconds = 1.0     # nominal cycle wall, sizes the traced run only

    def __init__(self, seed: int, ops: Ops):
        self.seed = seed
        self.ops = ops

    def setup(self, d: Path):
        raise NotImplementedError

    def setup_key(self, state) -> bytes:
        """Bytes that must be identical across repeated set-ups."""
        raise NotImplementedError

    def spec(self, i: int):
        raise NotImplementedError

    def request(self, state, spec):
        raise NotImplementedError

    def score(self, state, records) -> dict:
        raise NotImplementedError

    def summarize(self, records) -> tuple[dict, list]:
        raise NotImplementedError

    def check_trace(self, tracer: Tracer, specs) -> None:
        pass


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSpec:
    index: int
    seed: int


class Train(Workload):
    name = "train"
    cycle = 1
    cycle_seconds = 17.0
    STEPS = config.default_config().steps       # the full reference recipe
    WARMUP_STEPS = 60
    WINDOW = 500        # steps per throughput window, one checkpoint each

    def setup(self, d):
        d.mkdir(parents=True)
        warm = _write_config(d / "warmup.json", steps=self.WARMUP_STEPS, probe_step=50)
        reply = call_cli(["train-toy", "--config", warm, "--seed", _seed(self.seed, 0),
                          "--out", d / "warmup"])
        check(reply.code == 0, f"warm-up train-toy exit {reply.code}: {reply.stderr.strip()}")
        return {"dir": d, "config": _write_config(d / "train.json", steps=self.STEPS),
                "warmup_loss": (d / "warmup" / "loss.csv").read_text()}

    def setup_key(self, state):
        # Losses are written with 17 significant digits: equal text is
        # bitwise-equal losses across runs with one seed.
        return "\n".join(line.rsplit(",", 1)[0]
                         for line in state["warmup_loss"].splitlines()).encode()

    def spec(self, i):
        # The first request is the recipe verbatim, seed included, so the
        # scored model is the same in every run: one-step quality varies
        # several-fold between training seeds at this scale.
        return TrainSpec(i, config.default_config().seed if i == 0 else _seed(self.seed, 1, i))

    def request(self, state, spec):
        out = state["dir"] / f"run{spec.index}"
        reply = call_cli(["train-toy", "--config", state["config"], "--seed", spec.seed,
                          "--out", out])
        check(reply.code == 0, f"train-toy exit {reply.code}: {reply.stderr.strip()}")
        rows = np.loadtxt(out / "loss.csv", delimiter=",", skiprows=1, ndmin=2)
        check(rows.shape[0] == self.STEPS, f"{rows.shape[0]} loss rows, expected {self.STEPS}")
        losses, wall_ms = rows[:, 1], rows[:, 2]
        check(bool(np.all(np.isfinite(losses))), "non-finite training loss")
        ratio = float(np.mean(losses[-50:]) / np.mean(losses[:50]))
        check(ratio <= 0.5, f"loss fell only to {ratio:.3f} of its start (criterion 05 needs 0.5)")
        meta = _read_json(out / "train_meta.json")
        check(meta["status"] == "completed", f"train status {meta['status']}")
        check((out / "model.ckpt").is_file(), "checkpoint missing")
        window_ms = np.diff(wall_ms[self.WINDOW - 1::self.WINDOW], prepend=0.0)
        return {"wall_s": reply.wall_s, "window_ms": window_ms,
                "step_ms": np.diff(wall_ms, prepend=0.0), "ckpt": out / "model.ckpt",
                "config": state["config"]}

    def score(self, state, records):
        first = records[0][1]
        check(first is not None, "the recipe-seed request failed; nothing to score")
        held, ed_oracle = reference_sets()
        out = {}
        # Fixed sampler seeds: criterion 05 draws its one-step set from seed 5.
        # Near the oracle's noise floor one draw swings the ratio by a third.
        for key, nfe, seed in (("quality_ratio", 1, 5), ("quality2_ratio", 8, 1005)):
            _, samples = _sample_request(first["config"], first["ckpt"], nfe, REFERENCE_COUNT,
                                         seed, state["dir"] / "score")
            out[key] = toys.energy_distance(samples, held) / ed_oracle
        return out

    def summarize(self, records):
        recs = [r for _, r in records if r is not None]
        step_ms = np.concatenate([r["step_ms"] for r in recs])
        window_ms = np.concatenate([r["window_ms"] for r in recs])
        # The machine's speed drifts by a tenth over seconds; the median
        # window keeps a slow stretch from setting the whole figure.
        values = {
            "throughput_per_s": median(1e3 * self.WINDOW / window_ms),
            "throughput2_per_s": median(self.STEPS / r["wall_s"] for r in recs),
            "small_ms_p50": median(step_ms),
        }
        lines = [f"train requests={len(recs)} steps/request={self.STEPS}",
                 f"train step_ms {_tail(step_ms)}",
                 f"train window_ms {_tail(window_ms)}"]
        return values, lines


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSpec:
    index: int
    nfe: int
    count: int
    seed: int


class Sample(Workload):
    name = "sample"
    CYCLE = ((1, 4096), (1, 64), (2, 4096), (4, 4096), (1, 64), (8, 4096))
    cycle = len(CYCLE)
    cycle_seconds = 1.2
    CKPT_STEPS = 500
    SCORED = 3      # NFE-1 and NFE-8 outputs scored against the oracle

    def setup(self, d):
        d.mkdir(parents=True)
        cfg = _write_config(d / "sample.json", steps=self.CKPT_STEPS)
        # The recipe seed from the config: the checkpoint is the system under
        # test, so its quality does not vary with the workload seed.
        reply = call_cli(["train-toy", "--config", cfg, "--out", d / "ckpt"])
        check(reply.code == 0, f"train-toy exit {reply.code}: {reply.stderr.strip()}")
        return {"dir": d, "config": cfg, "ckpt": d / "ckpt" / "model.ckpt"}

    def setup_key(self, state):
        return hashlib.sha256(state["ckpt"].read_bytes()).digest()

    def spec(self, i):
        nfe, count = self.CYCLE[i % self.cycle]
        return SampleSpec(i, nfe, count, _seed(self.seed, 2, i))

    def request(self, state, spec):
        wall, samples = _sample_request(state["config"], state["ckpt"], spec.nfe,
                                        spec.count, spec.seed, state["dir"] / "out")
        keep = spec.count == REFERENCE_COUNT and spec.nfe in (1, 8)
        return {"wall_s": wall, "samples": samples if keep else None}

    def score(self, state, records):
        held, ed_oracle = reference_sets()
        out = {}
        for key, nfe in (("quality_ratio", 1), ("quality2_ratio", 8)):
            sets = [r["samples"] for s, r in records
                    if r is not None and s.nfe == nfe and r["samples"] is not None]
            check(len(sets) >= 1, f"no NFE-{nfe} outputs to score")
            out[key] = median(toys.energy_distance(x, held) / ed_oracle
                              for x in sets[:self.SCORED])
        return out

    def check_trace(self, tracer, specs):
        calls = tracer.stats["consistency.denoise"]["calls"]
        budget = sum(s.nfe for s in specs)
        check(calls == budget, f"denoise calls {calls} != requested NFE {budget}")

    def summarize(self, records):
        def walls(nfe, count):
            return [r["wall_s"] for s, r in records
                    if r is not None and s.nfe == nfe and s.count == count]

        small_ms = [1e3 * w for w in walls(1, 64)]
        values = {
            "throughput_per_s": median(REFERENCE_COUNT / w for w in walls(1, 4096)),
            "throughput2_per_s": median(REFERENCE_COUNT / w for w in walls(8, 4096)),
            "small_ms_p50": median(small_ms),
        }
        lines = [f"sample requests={sum(r is not None for _, r in records)}",
                 f"sample small_ms {_tail(small_ms)}"]
        for nfe in (1, 2, 4, 8):
            lines.append(f"sample nfe{nfe}_ms {_tail(1e3 * w for w in walls(nfe, 4096))}")
        return values, lines


# ---------------------------------------------------------------------------
# audio
# ---------------------------------------------------------------------------

RATE = dsp.TARGET_RATE
DRY_S = (2, 4, 6, 8, 10)
SHORT_IR_S = (0.05, 0.04, 0.03, 0.02, 0.01)     # direct-convolution sized
LONG_IR_S = (0.8, 0.675, 0.55, 0.425, 0.3)
REF_IR_S = 0.2
GRID_SHAPE = (32, 32)
TEXT_STATES = 32
BAD_KINDS = {
    "truncated": "data chunk: declared",
    "wrong_rate": "feature pipeline is fixed at",
    "mono": "channel counts differ",
    "undecidable": "decay curve only reaches",
}
RT60_TAUS = (0.1, 0.25, 0.5, 0.75, 1.0)          # acceptance criterion 07
RTE_PAIRS = ((0.1, 0.5), (0.25, 1.0), (0.1, 1.0))


@dataclass(frozen=True)
class AudioSpec:
    index: int
    kind: str        # "score", "bad" or "cond"
    dry_s: int = 0
    ir_s: float = 0.0
    bad: str = ""


def _dry(rng, seconds):
    """Amplitude-modulated noise: speech-like bursts at a few hertz."""
    t = np.arange(int(seconds * RATE)) / RATE
    env = np.sin(2 * np.pi * rng.uniform(2.0, 4.0) * t + rng.uniform(0, np.pi)) ** 2
    return 0.3 * env * rng.standard_normal(t.size)


def _ir_pair(rng, seconds):
    """Unit-energy exponential-decay impulse responses, tau = length / 6."""
    pair = []
    for gain in (1.0, 0.7):
        ir = metrics.exponential_ir(seconds / 6.0, RATE, seconds, rng)
        pair.append(gain * ir / np.sqrt(np.sum(ir * ir)))
    return pair


def _mismatch(estimate, truth):
    """Ratio of the larger to the smaller value: 1 means exact agreement."""
    return max(estimate / truth, truth / estimate)


class Audio(Workload):
    name = "audio"
    cycle = 3 * len(DRY_S) + 1
    cycle_seconds = 5.0

    def setup(self, d):
        d.mkdir(parents=True)
        refs, dry = {}, {}
        for k, seconds in enumerate(DRY_S):
            dry[seconds] = _dry(np.random.default_rng([self.seed, 0, k]), seconds)
            irl, irr = _ir_pair(np.random.default_rng([self.seed, 1, k]), REF_IR_S)
            take = metrics.synth_reverb_stereo(dry[seconds], irl, irr, RATE)
            path = d / f"ref_{seconds}s.wav"
            dsp.write_wav(path, take)
            refs[seconds] = (path, dsp.read_wav(path))

        base_path, base = refs[DRY_S[0]]
        bad = {kind: d / f"bad_{kind}.wav" for kind in BAD_KINDS}
        raw = base_path.read_bytes()
        bad["truncated"].write_bytes(raw[:len(raw) // 2])
        dsp.write_wav(bad["wrong_rate"], dsp.StereoWaveform(base.samples, 16000))
        dsp.write_wav(bad["mono"], dsp.StereoWaveform(base.samples[:, 0], RATE))
        rng = np.random.default_rng([self.seed, 2])
        flat = 0.01 * rng.standard_normal(base.samples.shape)
        flat[-1] = 0.9      # the tail holds too much energy to reach -15 dB
        dsp.write_wav(bad["undecidable"], dsp.StereoWaveform(flat, RATE))

        enc = spatial.init_spatial_encoder(np.random.default_rng([self.seed, 4]))
        grid_path = d / "scene.grid"
        spatial.write_grid(grid_path, spatial.SceneFeatureGrid(
            np.random.default_rng([self.seed, 5]).standard_normal(
                (*GRID_SHAPE, enc.d_model))))
        h_txt = np.random.default_rng([self.seed, 6]).standard_normal(
            (TEXT_STATES, enc.d_model))
        return {"dir": d, "dry": dry, "refs": refs, "bad": bad, "enc": enc,
                "grid": grid_path, "h_txt": h_txt}

    def setup_key(self, state):
        h = hashlib.sha256()
        for path, _ in state["refs"].values():
            h.update(path.read_bytes())
        return h.digest()

    def spec(self, i):
        cycle, j = divmod(i, self.cycle)
        if j == self.cycle - 1:
            kinds = list(BAD_KINDS)
            return AudioSpec(i, "bad", bad=kinds[cycle % len(kinds)])
        k, kind = divmod(j, 3)
        if kind == 2:
            return AudioSpec(i, "cond", dry_s=DRY_S[k])
        return AudioSpec(i, "score", dry_s=DRY_S[k],
                         ir_s=(SHORT_IR_S if kind == 0 else LONG_IR_S)[k])

    def request(self, state, spec):
        return getattr(self, f"_{spec.kind}")(state, spec)

    def _score(self, state, spec):
        rng = np.random.default_rng([self.seed, 3, spec.index])
        irl, irr = _ir_pair(rng, spec.ir_s)
        ref_path, ref = state["refs"][spec.dry_s]
        syn_path = state["dir"] / "syn.wav"
        out = state["dir"] / "eval"
        t0 = time.perf_counter()
        take = metrics.synth_reverb_stereo(state["dry"][spec.dry_s], irl, irr, RATE)
        aligned = np.zeros_like(ref.samples)
        n = min(take.n_samples, ref.n_samples)
        aligned[:n] = take.samples[:n]
        dsp.write_wav(syn_path, dsp.StereoWaveform(aligned, RATE))
        reply = call_cli(["eval", "--ref", ref_path, "--syn", syn_path, "--out", out])
        wall = time.perf_counter() - t0
        check(reply.code == 0, f"eval exit {reply.code}: {reply.stderr.strip()}")
        report = _read_json(out / "pair_000.json").get("report")
        check(report is not None, "pair result missing")
        check(all(np.isfinite(report[k]) for k in ("mcd_db", "lre_db", "rte_s")),
              "non-finite metric")
        check(len((out / "aggregate.csv").read_text().splitlines()) == 2,
              "aggregate.csv lost the pair")
        return {"wall_s": wall, "audio_s": ref.duration}

    def _bad(self, state, spec):
        base_path = state["refs"][DRY_S[0]][0]
        out = state["dir"] / "eval_bad"
        reply = call_cli(["eval", "--ref", base_path, base_path,
                          "--syn", base_path, state["bad"][spec.bad], "--out", out])
        check(reply.code == 1, f"{spec.bad} pair: exit {reply.code}, documented 1")
        good = _read_json(out / "pair_000.json").get("report")
        check(good is not None and good["mcd_db"] == 0.0 and good["lre_db"] == 0.0,
              f"{spec.bad} pair: the valid pair lost its result")
        error = _read_json(out / "pair_001.json").get("error", "")
        check(BAD_KINDS[spec.bad] in error, f"{spec.bad} pair: error {error!r}")
        summary = _read_json(out / "eval_summary.json")
        check(summary["evaluated"] == 1 and len(summary["failures"]) == 1,
              f"{spec.bad} pair: summary {summary['evaluated']} evaluated")
        check(len((out / "aggregate.csv").read_text().splitlines()) == 2,
              f"{spec.bad} pair: aggregate.csv lost the valid pair")
        return {}

    def _cond(self, state, spec):
        rng = np.random.default_rng([self.seed, 3, spec.index])
        pose = spatial.SpeakerPose(d=rng.uniform(0.5, 4.0), alpha=rng.uniform(-np.pi, np.pi))
        clip = state["refs"][spec.dry_s][1]
        enc = state["enc"]
        t0 = time.perf_counter()
        mags = [dsp.stft(clip.channel(ch)).magnitude for ch in (0, 1)]
        ve = spatial.energy_vector(*mags)
        frames = spatial.conv_stack(enc, ve, spatial.pose_encoding(pose))
        left, right = spatial.viewpoint_split(spatial.read_grid(state["grid"]))
        es = spatial.build_spatial_embedding(enc, spatial.with_position_encoding(left),
                                             spatial.with_position_encoding(right), frames)
        fused = spatial.fuse_text(state["h_txt"], es, enc)
        wall = time.perf_counter() - t0
        check(es.shape == frames.shape, f"embedding shape {es.shape}")
        # Criterion 08: a zero output projection makes fusion the identity.
        check(np.array_equal(fused, state["h_txt"]), "fuse_text is not the identity")
        return {"wall_s": wall, "audio_s": clip.duration}

    def score(self, state, records):
        d = state["dir"]
        paths = [p for p, _ in state["refs"].values()]
        reply = call_cli(["eval", "--ref", *paths, "--syn", *paths, "--out", d / "self"])
        check(reply.code == 0, f"self-pair eval exit {reply.code}")
        for i in range(len(paths)):
            rep = _read_json(d / "self" / f"pair_{i:03d}.json")["report"]
            check(rep["mcd_db"] == 0.0 and rep["lre_db"] == 0.0,
                  f"self pair {i}: MCD {rep['mcd_db']}, LRE {rep['lre_db']}")

        rng = np.random.default_rng([self.seed, 7])
        rt60 = []
        for tau in RT60_TAUS:
            est = metrics.rt60_schroeder(metrics.exponential_ir(tau, RATE, 6.0 * tau, rng), RATE)
            truth = metrics.analytic_rt60(tau)
            check(abs(est - truth) <= 0.05 * truth, f"tau={tau}: RT60 {est} vs {truth}")
            rt60.append(_mismatch(est, truth))

        refs, syns = [], []
        for k, pair in enumerate(RTE_PAIRS):
            seconds = 6.0 * max(pair)
            for tau, bucket, tag in zip(pair, (refs, syns), ("ref", "syn")):
                ir = metrics.exponential_ir(tau, RATE, seconds, rng)
                ir = 0.5 * ir / np.max(np.abs(ir))
                path = d / f"rte_{k}_{tag}.wav"
                dsp.write_wav(path, dsp.StereoWaveform(np.stack([ir, ir], axis=1), RATE))
                bucket.append(path)
        reply = call_cli(["eval", "--ref", *refs, "--syn", *syns, "--out", d / "rte"])
        check(reply.code == 0, f"RTE oracle eval exit {reply.code}: {reply.stderr.strip()}")
        rte = []
        for k, (t1, t2) in enumerate(RTE_PAIRS):
            rep = _read_json(d / "rte" / f"pair_{k:03d}.json")["report"]
            truth = abs(metrics.analytic_rt60(t1) - metrics.analytic_rt60(t2))
            rte.append(_mismatch(rep["rte_s"], truth))
        return {"quality_ratio": median(rt60), "quality2_ratio": median(rte)}

    def summarize(self, records):
        by_cycle = {}
        for spec, rec in records:
            if rec is None:
                continue
            bucket = by_cycle.setdefault(spec.index // self.cycle, {"score": [0.0, 0.0],
                                                                    "cond": [0.0, 0.0]})
            if spec.kind in bucket:
                bucket[spec.kind][0] += rec["audio_s"]
                bucket[spec.kind][1] += rec["wall_s"]
        short_ms = [1e3 * r["wall_s"] for s, r in records
                    if r is not None and s.kind == "score" and s.ir_s in SHORT_IR_S]
        long_ms = [1e3 * r["wall_s"] for s, r in records
                   if r is not None and s.kind == "score" and s.ir_s in LONG_IR_S]
        cond_ms = [1e3 * r["wall_s"] for s, r in records if r is not None and s.kind == "cond"]
        values = {
            "throughput_per_s": median(a / w for (a, w) in
                                       (c["score"] for c in by_cycle.values()) if w > 0),
            "throughput2_per_s": median(a / w for (a, w) in
                                        (c["cond"] for c in by_cycle.values()) if w > 0),
            "small_ms_p50": median(short_ms),
        }
        lines = [f"audio cycles={len(by_cycle)} requests={len(records)}",
                 f"audio short_ir_ms {_tail(short_ms)}",
                 f"audio long_ir_ms {_tail(long_ms)}",
                 f"audio condition_ms {_tail(cond_ms)}"]
        return values, lines


WORKLOADS = {w.name: w for w in (Train, Sample, Audio)}


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setups(wl: Workload, work: Path):
    states, walls = [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        states.append(wl.setup(work / f"setup{i}"))
        walls.append(time.perf_counter() - t0)
    keys = {wl.setup_key(s) for s in states}
    check(len(keys) == 1, f"{len(keys)} different results from {SETUP_REPEATS} "
                          "identical set-ups (run is not deterministic)")
    return states[-1], walls


def run(name: str, work: Path, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> Result:
    ops = Ops()
    wl = WORKLOADS[name](seed, ops)
    setup = ops.run("setup", _setups, wl, work)
    if setup is None:
        return Result(False, ops.attempted, ops.failed, {})
    state, setup_walls = setup
    if trace:
        return _traced_run(wl, state, seconds, ops, out_dir)

    records = []
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end or i % wl.cycle:
        spec = wl.spec(i)
        records.append((spec, ops.run(f"{name} request {spec}", wl.request, state, spec)))
        i += 1
    scores, score_walls = [], []
    for _ in range(SCORE_REPEATS):
        t0 = time.perf_counter()
        scores.append(ops.run(f"{name} score", wl.score, state, records))
        score_walls.append(time.perf_counter() - t0)
    # Scoring inputs are fixed, so every repeat must give the same figures.
    ops.run(f"{name} score determinism", lambda: check(
        all(q == scores[0] for q in scores), f"repeated scoring differs: {scores}"))
    summary = ops.run(f"{name} summary", wl.summarize, records)
    values, lines = summary if summary is not None else ({}, [])
    values.update(scores[0] or {})
    values.update({
        "setup_s": median(setup_walls),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_ratio": (ops.attempted - ops.failed) / ops.attempted,
        "score_s": median(score_walls),
    })
    lines.append(f"{name} setup_s each: " + " ".join(f"{w:.3f}" for w in setup_walls))
    lines.append(f"{name} score_s each: " + " ".join(f"{w:.3f}" for w in score_walls))
    lines.append(f"{name} ops attempted={ops.attempted} failed={ops.failed}")
    for issue_name, sites in load_layers()["issue_names"].items():
        for workload, metric in sites:
            if workload == name and metric in values:
                v = values[metric]
                if issue_name == "ops_failed_ratio":
                    v = 1.0 - v
                unit = "ratio" if issue_name == "ops_failed_ratio" else E2E_UNITS[metric]
                lines.append(f"{name} {issue_name} = {v:.6g} {unit}")
    complete = all(k in values for k in E2E_UNITS)
    metrics_out = {k: (values.get(k, 0.0), u) for k, u in E2E_UNITS.items()}
    return Result(ops.failed == 0 and complete, ops.attempted, ops.failed,
                  metrics_out, lines)


def _traced_run(wl, state, seconds, ops, out_dir):
    """Fixed request schedule, run once plain and once traced.

    The schedule depends only on ``--seconds``, so call counts repeat
    exactly for a seed; the plain pass gives the tracing overhead.
    """
    n = max(1, round(seconds / 2.0 / wl.cycle_seconds)) * wl.cycle
    specs = [wl.spec(i) for i in range(n)]
    t0 = time.perf_counter()
    for spec in specs:
        ops.run(f"{wl.name} request {spec}", wl.request, state, spec)
    plain_s = time.perf_counter() - t0

    names = [layer["function"] for layer in load_layers()["layers"]]
    tracer = Tracer(names)
    records = []
    tracer.install()
    try:
        t0 = time.perf_counter()
        for spec in specs:
            tracer.request = spec.index
            records.append((spec, ops.run(f"{wl.name} traced request {spec}",
                                          wl.request, state, spec)))
        traced_requests_s = time.perf_counter() - t0
        tracer.request = "score"
        ops.run(f"{wl.name} traced score", wl.score, state, records)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    ops.run(f"{wl.name} trace check", wl.check_trace, tracer, specs)
    tracer.dump(out_dir / f"spans-{wl.name}-s{wl.seed}.jsonl")

    values = {}
    for fn in names:
        values[f"{fn}.calls"] = (tracer.stats[fn]["calls"], "count")
        values[f"{fn}.self_ms"] = (1e3 * tracer.stats[fn]["self_s"], "ms")
    values["net.forward_with_cache.rows"] = (tracer.rows, "count")
    values["net.forward_with_cache.gflop"] = (tracer.flop / 1e9, "GFLOP")
    values["trace.wall_ms"] = (1e3 * wall_s, "ms")
    values["trace.untraced_ms"] = (1e3 * (wall_s - tracer.self_total_s()), "ms")
    values["trace.overhead_ratio"] = (traced_requests_s / plain_s, "ratio")
    lines = [f"{wl.name} traced requests={n} plain_s={plain_s:.3f} "
             f"traced_s={traced_requests_s:.3f} spans={len(tracer.spans)}"]
    top = sorted(names, key=lambda fn: -tracer.stats[fn]["self_s"])[:8]
    lines += [f"{wl.name} self {fn} {1e3 * tracer.stats[fn]['self_s']:.1f} ms "
              f"in {tracer.stats[fn]['calls']} calls" for fn in top]
    lines.append(f"{wl.name} untraced remainder "
                 f"{values['trace.untraced_ms'][0]:.1f} of {1e3 * wall_s:.1f} ms")
    return Result(ops.failed == 0, ops.attempted, ops.failed, values, lines)
