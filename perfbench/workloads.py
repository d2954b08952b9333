"""The benchmark's workloads: inputs from a seed, timed operations, checks.

Every workload builds its inputs from the seed alone and hands the package
only those inputs.  An operation is a `train()` call, a scoring request, a
theory oracle solve or one `maw theory` verification.  Each is recorded under
a class with its latency, the rows it processed and the problems its output
checks found.  Timed ops sit between runs of the reference loop
(`refloop.py`), whose times scale each op's latency to the reference host;
ops of one class do the same work, so the end-to-end figures
are taken per class (see run.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import refloop

FEATURES, RANK, NOISE = 20, 1, 0.1
N_INLIERS, N_OUTLIERS = 500, 100
N_TEST, C_TESTS = 200, (0.1, 0.3, 0.5)
ACCEPTANCE_HP = dict(dprime=16, samples=5, batch_size=32)

# The timed ops train one epoch on TIMED_ROWS rows of the cell for the whole
# window (split around the quality op), cycling over CONFIGS fixed (rows,
# train seed) configurations, each its own op class; the quality op trains
# the full cell for QUALITY_EPOCHS.  An epoch of the full cell at d=8 takes ~6 s, so there a
# timed op covers one batch of the cell.  At d=8 the Jacobi sweep count, and
# so the cost of an op, depends on the rows and the initial weights: repeating
# each configuration leaves machine noise alone within a class, and averaging
# over several configurations keeps one easy subset from setting the figure.
# At least MIN_TIMED_OPS timed ops run, half on each side of the quality op.
QUALITY_EPOCHS = {2: 30, 8: 1}
TIMED_ROWS = {2: N_INLIERS + N_OUTLIERS, 8: 32}
CONFIGS = 4
WARM_ROWS = 8
MIN_TIMED_OPS = 3 * CONFIGS

SCORE_MIX_EPOCHS = 12
# The served model is the same whatever the workload seed, which picks the
# requests: trained on seeded data, its AUC after 12 epochs ranged 0.687-0.850
# across seeds, so `quality` there would measure the seed.  Training quality
# is train-d2's to guard.
MODEL_SEED = 0
# Each block of 20 requests holds 12 one-row, 6 32-row and 2 labelled
# 1024-row requests in a seeded order, so every run has the same mix.
SCORE_MIX = ((12, 1, False), (6, 32, False), (2, 1024, True))  # per block, rows, labelled
BLOCK = sum(count for count, _, _ in SCORE_MIX)
REQUEST_C = 0.2
MIN_REQUESTS = 200  # enough for ten samples beyond the 95th percentile
QUALITY_REQUESTS = 8  # labelled requests whose mean AUC is the quality figure
UNIT_REQUESTS = 100
CHECKED_SCALE = 3.0
SCORE_TOL = 1e-9

# `maw theory` runs with the CLI's default seed: the Monte Carlo W1 section
# misses its tolerance for some other seeds (2 and 4, for example).
THEORY_SEED = 0
# A whole verification takes ~7 s, too long to sample within a run, so the
# timed ops solve one problem of its KL shared-covariance grid, the section
# that dominates it (grid search and Nelder-Mead over Jacobi eigensolves).
# The problem is the same whatever the seed.
TIMED_PROBLEM = dict(k=5, epsilon=1.0, eta=5.0 / 6.0, regularizer="kl")
BARYCENTER_TOL = 1e-3  # times epsilon, as the verification checks it


def derive(seed: int, *tags: int) -> int:
    """A 32-bit input seed derived from the workload seed and a tag path."""
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1)[0])


def window(seconds: float, minimum: int):
    """Op indices: at least `minimum`, then more while the next op, taking as
    long as the last one, still ends within `seconds` of the start."""
    start = last = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i >= minimum and now - start + (now - last) > seconds:
            return
        last = now
        yield i
        i += 1


def timed_around(seconds: float, out, timed, quality_op):
    """Timed ops `timed(i)` for half of `seconds`, the quality op once, then
    timed ops for the other half, with the reference loop before and after
    every timed op.  The quality op returns (anything, quality figure)."""
    i = 0
    for half in range(2):
        out.tick()
        for _ in window(seconds / 2, MIN_TIMED_OPS // 2):
            out.attempt(timed, i)
            out.tick()
            i += 1
        if half == 0:
            result = out.attempt(quality_op, out)
    if result is not None:
        out.quality = result[1]


def score_problems(scores, n: int) -> list[str]:
    scores = np.asarray(scores)
    if scores.shape != (n,):
        return [f"expected {n} scores, got shape {scores.shape}"]
    if not np.all(np.isfinite(scores)):
        return ["non-finite score"]
    if np.any(np.abs(scores) > 1.0):
        return ["score outside [-1, 1]"]
    return []


@dataclasses.dataclass(frozen=True)
class Op:
    latency_s: float
    rows: int
    ticks: int  # reference loop runs before the op


@dataclasses.dataclass
class Outcome:
    """What a run did: operations attempted and failed, per op class each
    completed op, and the time of every run of the reference loop."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    ops: dict = dataclasses.field(default_factory=lambda: defaultdict(list))
    reference_s: list = dataclasses.field(default_factory=list)
    quality: float | None = None
    checked: bool = True  # the run-level checks passed

    def tick(self):
        """Run the reference loop once and record its time."""
        t0 = time.perf_counter()
        refloop.run()
        self.reference_s.append(time.perf_counter() - t0)

    def record(self, kind: str, latency_s: float, rows: int, problems: list[str]):
        self.attempted += 1
        self.ops[kind].append(Op(latency_s, rows, len(self.reference_s)))
        self.fail(problems)

    def scaled(self, kind: str) -> list[float]:
        """Latencies in seconds of the class's ops on the reference host:
        each op's wall time over the mean time of the reference loop runs
        just before and just after it, times the loop's time there."""
        rel = []
        for op in self.ops[kind]:
            if not 0 < op.ticks < len(self.reference_s):
                raise ValueError(f"a {kind} op has no reference loop run on both sides")
            around = self.reference_s[op.ticks - 1] + self.reference_s[op.ticks]
            rel.append(refloop.SECONDS * op.latency_s / (around / 2.0))
        return rel

    def fail(self, problems: list[str]):
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def attempt(self, fn, *args):
        """Run one operation; an exception fails it instead of the run."""
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark reports failures, it does not stop on them
            self.attempted += 1
            self.fail([f"{type(exc).__name__}: {exc}"])
            return None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checked and self.attempted > 0


class Workload:
    latency_kinds = ()  # op classes whose mean latency is `latency_ms`
    rate_kinds = ()  # op classes whose throughput is `rows_per_s`

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def setup(self, pkg):
        """Build the inputs with a freshly imported package, then warm up."""
        raise NotImplementedError

    def run(self, seconds: float, out: Outcome):
        """Repeat operations for `seconds` and check their outputs."""
        raise NotImplementedError

    def unit_inputs(self):
        """Inputs of the fixed unit of work, made before tracing starts."""
        return None

    def unit(self, inputs, out: Outcome):
        """A fixed unit of work whose calls repeat exactly; returns a value
        that must be identical each time the unit runs."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """Time one-epoch trainings of the `maw` variant at the acceptance shape,
    then train the full cell and score three test splits the way
    `evaluate_split` does."""

    latency_kinds = rate_kinds = tuple(f"train-{j}" for j in range(CONFIGS))

    def __init__(self, seed: int, root: Path, d: int):
        super().__init__(seed, root)
        self.d = d
        rng = np.random.default_rng(np.random.SeedSequence((seed, 6)))
        n = N_INLIERS + N_OUTLIERS
        self.configs = [
            (np.sort(rng.choice(n, size=TIMED_ROWS[d], replace=False)), derive(seed, 7, j))
            for j in range(CONFIGS)
        ]

    def setup(self, pkg):
        self.M, self.E = pkg.model, pkg.evaluation
        family = self.E.SyntheticFamily(FEATURES, RANK, NOISE, seed=derive(self.seed, 1))
        self.train_set = family.sample(N_INLIERS, N_OUTLIERS, sample_seed=derive(self.seed, 2))
        self.tests = [
            family.sample(N_TEST, int(round(N_TEST * c)), sample_seed=derive(self.seed, 3, j))
            for j, c in enumerate(C_TESTS)
        ]
        self.hp = self.M.Hyperparams(d=self.d, epochs=QUALITY_EPOCHS[self.d], **ACCEPTANCE_HP)
        self.timed_hp = dataclasses.replace(self.hp, epochs=1)
        # warm-up: a first tape and a first scoring call
        model, _ = self.M.train(self.train_set.features[:WARM_ROWS], self.timed_hp, seed=0)
        self.M.score_batch(model, self.tests[0].features[:4], seed=0)

    def _train(self, x, hp, train_seed: int):
        """One timed train() call: (model, trace, seconds, problems)."""
        t0 = time.perf_counter()
        model, trace = self.M.train(x, hp, seed=train_seed)
        wall = time.perf_counter() - t0
        problems = []
        if len(trace) != hp.epochs:
            problems.append(f"trace has {len(trace)} entries for {hp.epochs} epochs")
        losses = [row[k] for row in trace for k in ("loss_vae", "loss_critic", "loss_gen")]
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite training loss")
        return model, trace, wall, problems

    def _quality_op(self, out: Outcome):
        """Train the full cell and score the test splits; returns the loss
        trace and the quality figure."""
        x = self.train_set.features
        model, trace, wall, problems = self._train(x, self.hp, derive(self.seed, 5))
        auc, found = self._evaluate(model)
        problems += found
        out.record("quality", wall, x.shape[0] * self.hp.epochs, problems)
        # One epoch at d=8 leaves the AUC at chance level, where it varies
        # from seed to seed by ~10%; the reconstruction it reached is steady.
        quality = auc if self.d == 2 else 1.0 - trace[-1]["loss_vae"] / 2.0
        return trace, quality

    def _evaluate(self, model):
        """Mean AUC over the test splits (None if no split scored cleanly),
        and the problems the scores show."""
        aucs, problems = [], []
        for j, test in enumerate(self.tests):
            scores = self.M.score_batch(model, test.features, seed=derive(self.seed, 4, j))
            found = score_problems(scores, test.features.shape[0])
            problems += found
            if not found:
                aucs.append(self.E.auc(-scores, test.labels))
                self.E.ap(-scores, test.labels)
        return (float(np.mean(aucs)) if aucs else None), problems

    def _timed_op(self, out: Outcome, j: int):
        rows, train_seed = self.configs[j]
        _, _, wall, problems = self._train(self.train_set.features[rows], self.timed_hp,
                                           train_seed)
        out.record(self.latency_kinds[j], wall, rows.size, problems)

    def run(self, seconds: float, out: Outcome):
        timed_around(seconds, out, lambda i: self._timed_op(out, i % CONFIGS), self._quality_op)

    def unit(self, inputs, out: Outcome):
        result = out.attempt(self._quality_op, out)
        if result is None:
            return None
        trace, quality = result
        return [tuple(row.values()) for row in trace], quality


@dataclasses.dataclass(frozen=True)
class Request:
    index: int
    features: np.ndarray
    labels: np.ndarray
    seed: int
    labelled: bool


class ScoreMixWorkload(Workload):
    """A closed loop with one client scoring fresh rows against a model that
    went through the checkpoint round trip `maw score` uses."""

    latency_kinds = ("rows-1",)
    rate_kinds = ("rows-1024",)

    def setup(self, pkg):
        self.M, self.E = pkg.model, pkg.evaluation
        self.family = self.E.SyntheticFamily(FEATURES, RANK, NOISE, seed=derive(MODEL_SEED, 1))
        train_set = self.family.sample(N_INLIERS, N_OUTLIERS, sample_seed=derive(MODEL_SEED, 2))
        hp = self.M.Hyperparams(d=2, epochs=SCORE_MIX_EPOCHS, **ACCEPTANCE_HP)
        self.trained, _ = self.M.train(train_set.features, hp, seed=derive(MODEL_SEED, 5))
        self.model = self._round_trip(self.trained)
        # warm-up: a first scoring call of each kind
        self.M.score(self.model, train_set.features[0], rng=np.random.default_rng(0))
        self.M.score_batch(self.model, train_set.features[:32], seed=0)

    def _round_trip(self, model):
        text = json.dumps(model.to_payload())
        return self.M.MawModel.from_payload(json.loads(text))

    def request(self, i: int) -> Request:
        block = np.random.default_rng(np.random.SeedSequence((self.seed, 8, i // BLOCK)))
        kinds = [(n, labelled) for count, n, labelled in SCORE_MIX for _ in range(count)]
        n, labelled = kinds[block.permutation(BLOCK)[i % BLOCK]]
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 9, i)))
        if n == 1:
            n_out = int(rng.random() < REQUEST_C)
        else:
            n_out = int(round(n * REQUEST_C))
        seed = int(rng.integers(2**32))
        data = self.family.sample(n - n_out, n_out, sample_seed=seed)
        return Request(i, data.features, data.labels, seed, labelled)

    def serve(self, model, req: Request):
        """One request: scores, plus AUC/AP on a labelled one."""
        if req.features.shape[0] == 1:
            rng = np.random.default_rng(req.seed)
            scores = np.array([self.M.score(model, req.features[0], rng=rng)])
        else:
            scores = self.M.score_batch(model, req.features, seed=req.seed)
        auc = None
        if req.labelled:
            auc = self.E.auc(-scores, req.labels)
            self.E.ap(-scores, req.labels)
        return scores, auc

    def _timed(self, model, req: Request, out: Outcome):
        n = req.features.shape[0]
        t0 = time.perf_counter()
        scores, auc = self.serve(model, req)
        wall = time.perf_counter() - t0
        out.record(f"rows-{n}", wall, n, score_problems(scores, n))
        return scores, auc

    def run(self, seconds: float, out: Outcome):
        """Blocks of requests, each made before the block is sent back to
        back between two runs of the reference loop."""
        start = time.perf_counter()
        aucs, first = [], {}
        block = 0
        while (block * BLOCK < MIN_REQUESTS or len(aucs) < QUALITY_REQUESTS
               or time.perf_counter() - start < seconds):
            reqs = [self.request(i) for i in range(block * BLOCK, (block + 1) * BLOCK)]
            out.tick()
            for req in reqs:
                result = out.attempt(self._timed, self.model, req, out)
                if result is not None:
                    first.setdefault(req.features.shape[0], (req, result[0]))
                    if req.labelled and len(aucs) < QUALITY_REQUESTS:
                        aucs.append(result[1])
            block += 1
        out.tick()
        out.quality = float(np.mean(aucs)) if aucs else None
        for req, scores in first.values():
            problems = self.invariance_problems(req, scores)
            out.fail(problems)
            out.checked = out.checked and not problems

    def invariance_problems(self, req: Request, scores) -> list[str]:
        """Re-score one request outside the timed region: the same seed gives
        the same scores, a row scaled by a constant keeps its score, and a
        prefix scored alone matches the prefix of the whole request."""
        problems = []
        again, _ = self.serve(self.model, req)
        if not np.array_equal(again, scores):
            problems.append(f"request {req.index}: same seed, different scores")
        scaled = req.features.copy()
        scaled[0] *= CHECKED_SCALE
        rescaled, _ = self.serve(self.model, dataclasses.replace(req, features=scaled))
        if abs(rescaled[0] - scores[0]) > SCORE_TOL:
            problems.append(f"request {req.index}: scaled row changed its score")
        n = req.features.shape[0]
        if n > 1:
            k = n // 2
            prefix = self.M.score_batch(self.model, req.features[:k], seed=req.seed)
            if not np.allclose(prefix, scores[:k], rtol=0.0, atol=SCORE_TOL):
                problems.append(f"request {req.index}: prefix scored alone differs")
        return problems

    def unit_inputs(self):
        return [self.request(i) for i in range(UNIT_REQUESTS)]

    def unit(self, inputs, out: Outcome):
        model = out.attempt(self._round_trip, self.trained)
        if model is None:
            return None
        results = [out.attempt(self._timed, model, req, out) for req in inputs]
        return [None if r is None else r[0].tolist() for r in results]


class TheoryWorkload(Workload):
    """Timed solves of one KL shared-covariance oracle problem through the
    theory API, then `maw theory` in-process through `maw.cli.main`."""

    latency_kinds = rate_kinds = ("solve",)

    def setup(self, pkg):
        self.cli, self.T = pkg.cli, pkg.theory
        self.problem = self.T.TheoryProblem(**TIMED_PROBLEM)
        # warm-up: one small closed form through the theory and linalg layers
        self.T.w2_gaussian(np.zeros(2), np.eye(2), np.ones(2), 2.0 * np.eye(2))

    def _verify(self, out: Outcome):
        """One `maw theory`, an op per report section; returns the report and
        the share of passing instances."""
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.root) as tmp:
            argv = ["--output-dir", tmp, "--seed", str(THEORY_SEED), "theory"]
            printed = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(printed):
                code = self.cli.main(argv)
            wall = time.perf_counter() - t0
            report = json.loads((Path(tmp) / "theory_report.json").read_text())
        sections = report["sections"]
        instances = [inst for s in sections.values() for inst in s["instances"]]
        out.ops["quality"].append(Op(wall, len(instances), len(out.reference_s)))
        out.attempted += len(sections)
        for key, section in sections.items():
            out.fail([] if section["pass"] else [f"section {key} failed"])
        if code != 0 or report.get("all_pass") is not True:
            out.problems.append(f"maw theory exited {code} with all_pass={report.get('all_pass')}")
            out.checked = False
        passed = sum(1 for inst in instances if inst.get("pass"))
        return report, passed / len(instances)

    def _solve(self, out: Outcome):
        p = self.problem
        t0 = time.perf_counter()
        sol = self.T.brute_force_minimizer(p)
        wall = time.perf_counter() - t0
        error = np.linalg.norm(p.mu0 - (p.eta * sol.mu1 + (1.0 - p.eta) * sol.mu2))
        problems = []
        if not (np.isfinite(sol.objective) and error <= BARYCENTER_TOL * p.epsilon):
            problems.append(f"KL oracle missed the barycenter by {error}")
        out.record("solve", wall, 1, problems)

    def run(self, seconds: float, out: Outcome):
        timed_around(seconds, out, lambda i: self._solve(out), self._verify)

    def unit(self, inputs, out: Outcome):
        result = out.attempt(self._verify, out)
        return None if result is None else result[0]["sections"]


WORKLOADS = ("train-d2", "train-d8", "score-mix", "theory")


def make(name: str, seed: int, root: Path) -> Workload:
    if name == "train-d2":
        return TrainWorkload(seed, root, d=2)
    if name == "train-d8":
        return TrainWorkload(seed, root, d=8)
    if name == "score-mix":
        return ScoreMixWorkload(seed, root)
    if name == "theory":
        return TheoryWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}")
