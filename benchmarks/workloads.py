"""The four closed-loop batch workloads: one client issues the next operation
only after the previous one returned.

Each workload builds its inputs from the benchmark seed in `setup`, runs its
timed loop in `run` for a given number of seconds, and checks the program's
outputs in `verify`. Calls into the program go through module attributes
(`cli.main`, `training.run_training`, ...) so that the tracer's rebinding
sees them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from facevox import cli, config, dataset, formats, training
from facevox.evaluation import read_report

# per-iteration calls of one standard 1-critic/2-generator alternation
ITERATION_CALLS = {"model.generator_forward": 3, "model.critic_forward": 7,
                   "autograd.backward": 5, "training.Adam.step": 3}


@dataclasses.dataclass
class Measure:
    items: int = 0              # completed items
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    item_ms: list = dataclasses.field(default_factory=list)

    def merge(self, other):
        self.items += other.items
        self.attempted += other.attempted
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.item_ms += other.item_ms


@dataclasses.dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def sample_base(seed):
    """First sample seed for a benchmark seed. Samples are seeded base +
    index, so bases 10,000 apart give each benchmark seed its own samples."""
    return seed * 10_000


def _cli(argv):
    """cli.main with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _closed_loop(seconds, items, op):
    """Repeat op() -> ok, which handles `items` items, until `seconds` have
    passed. A raised error fails the operation's items and the loop goes on."""
    m = Measure()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        try:
            ok = op()
        except Exception:
            traceback.print_exc()
            ok = False
        t1 = time.perf_counter()
        m.attempted += items
        if ok:
            m.items += items
            m.item_ms.extend([(t1 - t0) * 1e3 / items] * items)
        else:
            m.failed += items
        if t1 >= deadline:
            break
    m.wall_s = time.perf_counter() - start
    return m


def _roundtrip(path, read, write, scratch):
    """True when reading `path` and writing the result back gives its bytes."""
    write(scratch, read(path))
    return Path(scratch).read_bytes() == Path(path).read_bytes()


def _resolve(preset, **overrides):
    return config.resolve_config(preset=preset, flag_overrides=overrides)


class Workload:
    name = ""

    def __init__(self, workdir, seed):
        self.dir = Path(workdir)
        self.seed = seed

    def configs(self):
        """Resolved run configurations this workload uses, for the record."""
        raise NotImplementedError

    def setup(self, repeat):
        raise NotImplementedError

    def warm_up(self):
        """Untimed work after the setups that the timed loop should not pay."""

    def run(self, seconds):
        raise NotImplementedError

    def verify(self, tracer):
        raise NotImplementedError

    def extras(self):
        """Output digests and counts recorded beside the metrics."""
        return {}


class SynthDesk(Workload):
    """`facevox synth --preset desk` through cli.main; one item is one sample."""

    name = "synth_desk"
    SAMPLES_PER_CALL = 4
    # set-up synthesizes the same samples on every run, so that setup_s does
    # not vary with the poses a seed draws; no timed call reaches these seeds
    SETUP_SEED = 9_000

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.base = sample_base(seed)
        self.outputs = []
        self.digests = []

    def configs(self):
        return {"synth": dataclasses.asdict(
            _resolve("desk", seed=self.base, count=self.SAMPLES_PER_CALL))}

    def setup(self, repeat):
        out = self.dir / f"setup{repeat}"
        code = _cli(["synth", "--preset", "desk", "--seed", self.SETUP_SEED,
                     "--count", self.SAMPLES_PER_CALL, "--out", out])
        if code != 0:
            raise RuntimeError(f"setup synth exited {code}")

    def run(self, seconds):
        k = self.SAMPLES_PER_CALL

        def op():
            call = len(self.outputs)
            out = self.dir / f"synth{call:04d}"
            self.outputs.append(out)
            return _cli(["synth", "--preset", "desk", "--seed", self.base + call * k,
                         "--count", k, "--out", out]) == 0
        return _closed_loop(seconds, k, op)

    def verify(self, tracer):
        scratch = self.dir / "roundtrip.tmp"
        bad = []
        count_bad = []
        for out in self.outputs:
            depths = sorted(out.glob("depth_*.dpth"))
            grids = sorted(out.glob("grid_*.voxg"))
            if len(depths) != self.SAMPLES_PER_CALL or len(grids) != self.SAMPLES_PER_CALL:
                count_bad.append(out.name)
            for p in depths:
                if not _roundtrip(p, formats.read_depth, formats.write_depth, scratch):
                    bad.append(str(p))
            for p in grids:
                if not _roundtrip(p, formats.read_grid, formats.write_grid, scratch):
                    bad.append(str(p))
            manifest = out / "manifest.tsv"
            records, header = formats.read_manifest(manifest)
            formats.write_manifest(scratch, records, header)
            if scratch.read_bytes() != manifest.read_bytes():
                bad.append(str(manifest))
            self.digests.append(_tree_sha256(out))
        return [
            Check("synth.sample_files", not count_bad,
                  f"{len(self.outputs)} calls, first dataset sha256 {self.digests[0]}"
                  + (f", short: {count_bad}" if count_bad else "")),
            Check("synth.formats_roundtrip", not bad,
                  f"{len(self.outputs) * (2 * self.SAMPLES_PER_CALL + 1)} files"
                  + (f", differ: {bad[:3]}" if bad else "")),
        ]

    def extras(self):
        # the first call's dataset is the same for a given seed on every run,
        # so its digest exposes any byte change in synthesis
        return {"first_dataset_sha256": self.digests[0] if self.digests else None,
                "all_datasets_sha256": hashlib.sha256("".join(self.digests).encode()).hexdigest()}


def _tree_sha256(root):
    h = hashlib.sha256()
    for p in sorted(root.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


class _Train(Workload):
    """`run_training` as `facevox train` drives it; one item is one iteration,
    timed by the benchmark's clock from the progress callback.

    Model, sample order and fixture come from a fixed seed, not from the
    benchmark seed. Desk iterations get up to twice as slow as training goes
    on, and how fast depends on the seed: over 35 s runs, ten seeds split
    into about 8 and about 10 iterations/s. One fixed training run leaves
    only the host's noise between runs.
    """

    PRESET = ""
    FIXTURE_COUNT = 0
    SEED = 1
    # checkpoints inside the timed window; None writes none
    EVAL_INTERVAL = None

    def _cfg(self, out=""):
        overrides = dict(seed=self.SEED, count=self.FIXTURE_COUNT, out=str(out))
        if self.EVAL_INTERVAL:
            overrides["eval_interval"] = self.EVAL_INTERVAL
        return _resolve(self.PRESET, **overrides)

    def configs(self):
        return {"train": dataclasses.asdict(self._cfg())}

    def setup(self, repeat):
        # drop the previous repeat's trainer before building the next one
        self.trainer = self.samples = None
        root = self.dir / f"setup{repeat}"
        cfg = self._cfg(root)
        manifest = dataset.synthesize_dataset(root / "data", cli._synth_config(cfg))
        _, _, self.samples = dataset.load_pairs(manifest)
        self.trainer = cli._trainer_from_config(cfg)
        self.run_dir = root
        self.history = []

    def warm_up(self):
        # the first iterations of a process run slower (several times slower
        # on desk); they run on the measured trainer, so every check still
        # covers all N iterations
        schedule = self.trainer.schedule
        schedule.iterations = self.trainer.iteration + self.WARM_UP_ITERATIONS
        self.history += training.run_training(
            self.trainer, self.samples, log_path=self.run_dir / "train.log",
            checkpoint_dir=self._checkpoint_dir())

    def _checkpoint_dir(self):
        return self.run_dir if self.EVAL_INTERVAL else None

    def run(self, seconds):
        trainer = self.trainer
        schedule = trainer.schedule
        schedule.iterations = 2 ** 31 - 1
        m = Measure()
        start = time.perf_counter()
        deadline = start + seconds
        last = start

        def progress(rec):
            nonlocal last
            now = time.perf_counter()
            m.item_ms.append((now - last) * 1e3)
            last = now
            self.history.append(rec)
            if now >= deadline:
                # run_training stops here and writes its final checkpoint
                schedule.iterations = trainer.iteration

        try:
            training.run_training(trainer, self.samples, log_path=self.run_dir / "train.log",
                                  checkpoint_dir=self._checkpoint_dir(), progress=progress)
        except Exception as exc:  # a failed iteration ends the loop; it is reported
            print(f"{self.name}: iteration failed: {exc!r}", file=sys.stderr)
            m.failed = 1
        m.items = len(m.item_ms)
        m.attempted = m.items + m.failed
        m.wall_s = time.perf_counter() - start
        return m

    def verify(self, tracer):
        t = self.trainer
        n = t.iteration
        finite = all(math.isfinite(v) for rec in self.history
                     for v in (rec.l_d, rec.penalty, *rec.l_g, *rec.bce))
        log_lines = len((self.run_dir / "train.log").read_text().splitlines())
        checks = [
            Check("train.losses_finite", finite and len(self.history) == n,
                  f"{len(self.history)} iterations"),
            Check("train.adam_steps", t.opt_critic.t == n and t.opt_gen.t == 2 * n,
                  f"critic t={t.opt_critic.t}, generator t={t.opt_gen.t}, N={n}"),
            Check("train.log_lines", log_lines == n, f"{log_lines} lines"),
        ]
        if self.EVAL_INTERVAL:
            checks.append(self._checkpoint_check())
        if tracer is not None:
            checks.append(_call_count_check(tracer))
        return checks

    def _checkpoint_check(self):
        t = self.trainer
        back = training.Trainer.load(self.run_dir / "ckpt_final.agck")
        same = back.iteration == t.iteration
        for a, b in ((t.gen, back.gen), (t.critic, back.critic)):
            same = same and all(np.array_equal(p.data, b[name].data) for name, p in a.items())
        for a, b in ((t.opt_gen, back.opt_gen), (t.opt_critic, back.opt_critic)):
            same = same and a.t == b.t and all(
                np.array_equal(a.m[k], b.m[k]) and np.array_equal(a.v[k], b.v[k])
                for k in a.m)
        return Check("train.checkpoint_reload", same,
                     f"ckpt_final.agck at iteration {back.iteration}")


def _call_count_check(tracer):
    per_iter = tracer.descendant_counts("training.Trainer.train_iteration", "timed")
    wrong = [c for c in per_iter
             if any(c.get(k, 0) != v for k, v in ITERATION_CALLS.items())]
    detail = f"{len(per_iter)} iterations, expected {ITERATION_CALLS}"
    if wrong:
        detail += f", first mismatch {({k: wrong[0].get(k, 0) for k in ITERATION_CALLS})}"
    return Check("train.calls_per_iteration", bool(per_iter) and not wrong, detail)


class TrainDesk(_Train):
    name = "train_desk"
    PRESET = "desk"
    FIXTURE_COUNT = 4
    # the desk default of 500 never checkpoints inside a short window
    EVAL_INTERVAL = 25
    WARM_UP_ITERATIONS = 2


class TrainPaper(_Train):
    """The published 128 preset. No checkpoints: one holds 0.5 GB and its
    save alone adds 0.8 GB to the resident peak."""

    name = "train_paper"
    PRESET = "paper"
    FIXTURE_COUNT = 1
    WARM_UP_ITERATIONS = 1


class InferDesk(Workload):
    """`facevox predict --mesh` then `facevox eval --distance-meshes` through
    cli.main over views drawn from the benchmark seed; one item is one view.

    The model is trained from a fixed seed. Eval cost grows with the number
    of predicted voxels, and after a short training run that number varies
    threefold between training seeds (0.8k-3.4k), which would swamp every
    timing; one fixed model keeps it near 2k on any views.
    """

    name = "infer_desk"
    VIEWS = 4
    MODEL_SEED = 1
    MODEL_VIEWS = 4
    # the model predicts about 2k occupied voxels per grid after this many
    # iterations (ground truth: 1.2-1.4k; 150 iterations give 2-3k), so
    # surface extraction and distance fields do representative work at 40%
    # of the set-up cost of 150
    TRAIN_ITERATIONS = 60

    def configs(self):
        return {"synth": dataclasses.asdict(
                    _resolve("desk", seed=sample_base(self.seed), count=self.VIEWS)),
                "train": dataclasses.asdict(
                    _resolve("desk", seed=self.MODEL_SEED, count=self.MODEL_VIEWS,
                             iterations=self.TRAIN_ITERATIONS))}

    def setup(self, repeat):
        root = self.dir / f"setup{repeat}"
        self.data = root / "data"
        self.ckpt = root / "run" / "ckpt_final.agck"
        self.pred = root / "pred"
        steps = (
            ["synth", "--preset", "desk", "--seed", self.MODEL_SEED,
             "--count", self.MODEL_VIEWS, "--out", root / "train_data"],
            ["train", root / "train_data", "--preset", "desk", "--seed", self.MODEL_SEED,
             "--iterations", self.TRAIN_ITERATIONS, "--out", root / "run"],
            ["synth", "--preset", "desk", "--seed", sample_base(self.seed),
             "--count", self.VIEWS, "--out", self.data],
        )
        for argv in steps:
            code = _cli(argv)
            if code != 0:
                raise RuntimeError(f"setup `{argv[0]}` exited {code}")
        self.codes = []

    def run(self, seconds):
        def op():
            predict = _cli(["predict", self.ckpt, self.data, "--out", self.pred, "--mesh"])
            evaluate = _cli(["eval", self.pred, self.data / "manifest.tsv",
                             "--distance-meshes", "--out", self.pred / "report.tsv"])
            self.codes.append((predict, evaluate))
            return predict == 0 and evaluate == 0
        return _closed_loop(seconds, self.VIEWS, op)

    def verify(self, tracer):
        bad_codes = [c for c in self.codes if c != (0, 0)]
        stems = [p.stem for p in sorted(self.data.glob("depth_*.dpth"))]
        preds = [formats.read_grid(self.pred / f"{s}.voxg").values for s in stems]
        in_range = all(np.all(np.isfinite(v) & (v > 0) & (v < 1)) for v in preds)
        report, mean_line = read_report(self.pred / "report.tsv")
        expected = (float(np.mean(report.ious)), float(np.mean(report.ces)))
        self.occupied = [int(np.count_nonzero(v > 0.5)) for v in preds]
        self.mean_iou = expected[0]
        return [
            Check("infer.exit_codes", bool(self.codes) and not bad_codes,
                  f"{len(self.codes)} predict+eval passes"
                  + (f", non-zero: {bad_codes[:3]}" if bad_codes else "")),
            Check("infer.predictions_in_open_unit_interval", len(preds) == self.VIEWS and in_range,
                  f"{len(preds)} grids"),
            Check("infer.report_mean_row", mean_line == expected
                  and report.count == self.VIEWS,
                  f"MEAN {mean_line}, mean of rows {expected}"),
        ]

    def extras(self):
        return {"pred_occupied": getattr(self, "occupied", None),
                "mean_iou": getattr(self, "mean_iou", None)}


WORKLOADS = {w.name: w for w in (SynthDesk, TrainDesk, TrainPaper, InferDesk)}
