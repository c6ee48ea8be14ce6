"""The benchmark's workloads.

Each workload calls only the package's public entry points. ``setup`` builds
the inputs, ``work`` does the timed work, ``check`` verifies the outputs
apart from the program and ``digest_parts`` lists what the digest hashes.
Work grows with ``seconds``: at 25, ``work`` takes 14 to 24 s of CPU time on
a 2-core x86 box with one BLAS thread. The same (seed, seconds) always does
the same work. Times are CPU seconds at a reference speed (see ``Clock``).
"""

import contextlib
import functools
import hashlib
import importlib
import io
import math
import os
import signal
import time

import numpy as np
from scipy import special

import checks

PANEL_SIZE = 6        # default TrainConfig.panel_size and `toolselect route --panel-size`
# The tool zoo is the same in every run: the world's seed fixes which tools
# support which tasks, and with it how many panel slots each query scores, so
# a per-run world would move every timing by 10% from one seed to the next.
# The run's seed draws the panels, the parameter and MLPIndex seeds and the
# order and warm-up sample of the routed queries.
WORLD_SEED = 0
# The selector trained in `train` is the same in every run too: its weights,
# set by the training seed, moved the trained selector's median routing
# latency by about 10% from one seed to the next.
TRAIN_SEED = 0
WARM_STREAM = 4       # second key, after the run's seed, of the warm-up draw
ORDER_STREAM = 5      # of the timed routing order

CAL_ROUNDS = 8
CAL_REF_S = 0.00074   # CPU seconds of one calibration block at the reference speed
CAL_PERIOD_S = 0.01   # CPU seconds between two calibration blocks
CAL_WINDOW_S = 0.025  # blocks this close to an interval set its speed
_CAL_SMALL = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)
_CAL_ROWS = np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64)
_CAL_HIDDEN = np.linspace(-0.1, 0.1, 64 * 512).reshape(64, 512)


def calibration_block():
    """Fixed work with the package's mix: small matmuls and row softmaxes, a
    512-wide GELU layer, seeded generators and small Python containers. It
    calls nothing in the package."""
    acc = 0.0
    for i in range(CAL_ROUNDS):
        h = np.tanh(_CAL_SMALL @ _CAL_SMALL.T + 0.5)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        acc += float((e / e.sum(axis=1, keepdims=True))[0, 0])
        if i % 4 == 0:
            z = _CAL_ROWS @ _CAL_HIDDEN
            acc += float((0.5 * z * (1.0 + special.erf(z / math.sqrt(2.0)))).sum())
        acc += np.random.default_rng([7, 104729, i, 3]).random()
        d = {j: (j, float(j)) for j in range(16)}
        acc += sum(v[1] for v in d.values())
    return acc


class Clock:
    """CPU-time interval timer that scales intervals to a reference speed.

    On a small shared box two effects are far larger than the regressions the
    benchmark must see: time the OS gives to other tenants, and an effective
    CPU speed that changes within tens of milliseconds. The first is left
    out by timing the thread's CPU time. The second is measured by running
    ``calibration_block`` from a profiling timer every ``CAL_PERIOD_S`` of CPU
    time while the clock runs: an interval's time is multiplied by
    ``CAL_REF_S`` times the mean of 1 / block time over the blocks within
    ``CAL_WINDOW_S`` of it. Block time is subtracted from every interval.
    """

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.at = []       # thread CPU time at the end of each block
        self.cost = []     # CPU seconds of each block
        self.spent = 0.0   # CPU seconds of all blocks so far

    def _block(self, *_):
        start = time.thread_time()
        calibration_block()
        end = time.thread_time()
        self.at.append(end)
        self.cost.append(end - start)
        self.spent += end - start

    def __enter__(self):
        if self.calibrate:
            self._block()
            signal.signal(signal.SIGPROF, self._block)
            signal.setitimer(signal.ITIMER_PROF, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.calibrate:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
            self._block()
        return False

    def mark(self):
        return time.thread_time(), self.spent

    def since(self, mark):
        """(CPU seconds without calibration, start, end) of an interval."""
        end, spent = time.thread_time(), self.spent
        return end - mark[0] - (spent - mark[1]), mark[0], end

    def factors(self, starts, ends):
        """Reference-speed factor of each interval; 1 without calibration."""
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        if not self.calibrate:
            return np.ones_like(starts)
        at = np.asarray(self.at)
        # Blocks come at even steps of CPU time, so slow stretches hold more
        # of them. The mean speed, 1 / block time, weights each stretch by
        # the work done in it, as the interval's own CPU time does.
        speed = np.concatenate([[0.0], np.cumsum(1.0 / np.asarray(self.cost))])
        lo = np.searchsorted(at, starts - CAL_WINDOW_S)
        hi = np.maximum(np.searchsorted(at, ends + CAL_WINDOW_S, side="right"), lo + 1)
        lo = np.minimum(lo, len(at) - 1)
        hi = np.minimum(hi, len(at))
        return CAL_REF_S * (speed[hi] - speed[lo]) / (hi - lo)


def _percentile_ms(seconds, q):
    return 1e3 * float(np.percentile(seconds, q))


class Workload:
    items_phase = None   # phase whose throughput is items_per_s

    def __init__(self, ts, seed, seconds, out_dir, tracer=None, calibrate=True):
        self.ts = ts
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.tracer = tracer
        self.clock = Clock(calibrate)
        self.failed = 0
        self.phases = []       # (name, CPU seconds, start, end)
        self.latencies = []    # (CPU seconds, start, end) of each timed route
        self.metrics = {}      # end-to-end metric -> value
        self.info = {}         # phase figures printed beside the metrics

    def span(self, name, key=None):
        return self.tracer.span(name, key) if self.tracer is not None else contextlib.nullcontext()

    def module(self, name):
        return importlib.import_module(f"toolselect.{name}")

    def run(self):
        """Set up, then do the timed work, with the clock running throughout."""
        with self.clock:
            self.setup()
            # the process's CPU time from its start, without calibration blocks
            self.setup_phase = (time.process_time() - self.clock.spent, 0.0, time.thread_time())
            self.work()
        self.finish()

    def phase(self, name, fn):
        """Run ``fn`` as one timed phase and return its result."""
        mark = self.clock.mark()
        result = fn()
        self.phases.append((name,) + self.clock.since(mark))
        return result

    def shuffled(self, n, stream):
        """The indices below ``n`` in a random order drawn from the run's seed."""
        return np.random.default_rng([self.seed, stream]).permutation(n)

    def route_loop(self, router, records, panels, rng, indices, timed=True):
        """Route ``records[i]`` for each i of ``indices`` one at a time, timing
        each; returns {i: routed slot}."""
        errors = self.module("errors")
        slots = {}
        for i in indices:
            lq = records[i]
            with self.span("bench.route", lq.query.uid):
                mark = self.clock.mark()
                try:
                    slot = router.route(lq, panels[i], rng)
                except errors.ToolSelectError:
                    self.failed += 1
                    slot = -1
                else:
                    if timed:
                        self.latencies.append(self.clock.since(mark))
            slots[int(i)] = slot
        return slots

    def warm_up(self, router, records, panels, rng, n):
        """Route ``n`` of ``records`` untimed, drawn across the whole split: the
        splits list their tasks one after another, and every task's panel
        tools must be warm before timing."""
        self.route_loop(router, records, panels, rng, self.shuffled(len(records), WARM_STREAM)[:n],
                        timed=False)

    def interleave(self, router, records, panels, rng, phases=()):
        """Route every record once, timed, in a seeded random order: one chunk
        of queries, then each of ``phases`` followed by another chunk. Each
        task's queries, which the splits list together, and the samples of
        the latency tail are thus spread over the whole run, so a burst of
        contention lands on few of them. Returns the slots in the records'
        order."""
        order = self.shuffled(len(records), ORDER_STREAM)
        chunks = np.array_split(order, len(phases) + 1)
        slots = self.route_loop(router, records, panels, rng, chunks[0])
        for run_phase, chunk in zip(phases, chunks[1:]):
            run_phase()
            slots.update(self.route_loop(router, records, panels, rng, chunk))
        return [slots[i] for i in range(len(records))]

    def finish(self):
        """Scale every recorded interval and derive the metrics."""
        names, cpu, starts, ends = zip(*self.phases, ("setup",) + self.setup_phase)
        factors = self.clock.factors(starts, ends)
        scaled = dict(zip(names, (float(v) for v in np.asarray(cpu) * factors)))
        self.metrics["setup_s"] = scaled.pop("setup")
        self.info.update({f"{n}_cpu_s": c for n, c in zip(names, cpu)})
        cpu, starts, ends = (np.asarray(v) for v in zip(*self.latencies))
        factors = self.clock.factors(starts, ends)
        latencies = cpu * factors
        # The mean and p90 repeat from run to run; p50 and p99 do not (see the
        # README) and are only reported on the info line.
        self.metrics["route_mean_ms"] = 1e3 * float(latencies.mean())
        self.metrics["route_p90_ms"] = _percentile_ms(latencies, 90)
        self.metrics["work_s"] = float(sum(scaled.values()) + latencies.sum())
        self.metrics["items_per_s"] = float(self.items() / scaled[self.items_phase])
        self.info.update({
            "route_p50_ms": _percentile_ms(latencies, 50),
            "route_p99_ms": _percentile_ms(latencies, 99),
            "route_cpu_p50_ms": _percentile_ms(cpu, 50),
            "route_cpu_p99_ms": _percentile_ms(cpu, 99),
            "routed_queries": len(latencies),
            "speed_factor": float(np.mean(factors)),
            "calibration_blocks": len(self.clock.at),
        })
        self.scaled = scaled


class Train(Workload):
    """fit with the default TrainConfig for a fixed epoch budget, then route
    fresh test queries one at a time with the trained selector."""
    name = "train"
    items_phase = "fit"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.epochs = max(1, round(self.seconds / 12.5))
        self.n_test = max(1000, 240 * self.seconds)
        self.n_warm = 200

    def setup(self):
        ts = self.ts
        self.world = ts.generate_world(ts.WorldConfig(n_test=self.n_test), WORLD_SEED)
        # patience above the budget: early stopping cannot fire
        self.cfg = ts.TrainConfig(max_epochs=self.epochs, patience=self.epochs + 1,
                                  seed=TRAIN_SEED)
        eval_panels = self.module("evalharness").eval_panels
        self.val_panels = eval_panels(self.world, "val", PANEL_SIZE, self.seed)
        self.test_panels = eval_panels(self.world, "test", PANEL_SIZE, self.seed)

    def work(self):
        ts, world = self.ts, self.world
        self.result = self.phase("fit", lambda: ts.fit(self.cfg, world))
        model = ts.build_model(world, self.result.params, ts.default_selector_config(world))
        router = ts.ToolSelectRouter(model)
        rng = np.random.default_rng([self.seed, 1])
        # validation queries, already served inside fit, fill the router's caches
        self.warm_up(router, world.splits["val"], self.val_panels, rng, self.n_warm)
        self.slots = self.interleave(router, world.splits["test"], self.test_panels, rng)

    def items(self):
        steps = math.ceil(len(self.world.splits["train"]) / self.cfg.batch_size)
        return len(self.result.history) * steps * self.cfg.batch_size

    def attempted(self):
        return self.items() + len(self.world.splits["test"])

    def check(self):
        problems = []
        if len(self.result.history) != self.epochs:
            problems.append(f"{len(self.result.history)} epochs run, budget {self.epochs}")
        bounds = checks.population_bounds(self.world, "val")
        self.info["val_bounds"] = bounds
        problems += checks.check_val_history([r.val_cost for r in self.result.history], bounds)
        problems += checks.check_slots_valid(self.world.splits["test"], self.test_panels,
                                             self.slots)
        return problems

    def digest_parts(self):
        return [r.log_line() for r in self.result.history] + [repr(self.slots)]


class Route(Workload):
    """A selector from a checkpoint serves fresh queries one at a time. Between
    chunks of them, evaluate runs over a second fresh split, the test split is
    exported, and the CLI routes exported records in-process."""
    name = "route"
    items_phase = "evaluate"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_warm = 500
        self.n_route = max(1000, 240 * self.seconds)
        self.n_val = max(500, 160 * self.seconds)
        self.n_cli = 5
        self.n_prob_checks = 40

    def setup(self):
        ts = self.ts
        world_cfg = ts.WorldConfig(n_val=self.n_val, n_test=self.n_route)
        self.world = world = ts.generate_world(world_cfg, WORLD_SEED)
        self.config_path = os.path.join(self.out_dir, "route.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(f"n_val={self.n_val}\nn_test={self.n_route}\n")
        selector_cfg = ts.default_selector_config(world)
        self.ckpt_path = os.path.join(self.out_dir, "checkpoint.bin")
        ts.save_checkpoint(ts.init_params(selector_cfg, self.seed), self.ckpt_path)
        self.tensors = ts.load_checkpoint(self.ckpt_path)
        Tensor = self.module("diffcore").Tensor
        params = {k: Tensor(v, requires_grad=False) for k, v in self.tensors.items()}
        self.router = ts.ToolSelectRouter(ts.build_model(world, params, selector_cfg))
        eval_panels = self.module("evalharness").eval_panels
        self.panels = eval_panels(world, "test", PANEL_SIZE, self.seed)
        self.rng = np.random.default_rng([self.seed, 2])
        # training queries fill the per-tool reference-set encodings, so the
        # timed test and validation queries stay unseen
        self.warm_up(self.router, world.splits["train"],
                     eval_panels(world, "train", PANEL_SIZE, self.seed), self.rng, self.n_warm)

    def work(self):
        self.export_path = os.path.join(self.out_dir, "test.jsonl")
        self.export_lines = None
        self.cli_runs = []
        phases = [self.evaluate, self.export] + [
            functools.partial(self.run_cli, k) for k in range(self.n_cli)]
        self.slots = self.interleave(self.router, self.world.splits["test"], self.panels,
                                     self.rng, phases)

    def evaluate(self):
        self.report = self.phase("evaluate", lambda: self.ts.evaluate(
            self.router, self.world, "val", PANEL_SIZE, self.seed))

    def export(self):
        self.phase("export", lambda: self.module("datasets").export_dataset(
            self.world, "test", self.export_path))

    def run_cli(self, k):
        """Route the k-th sampled exported record with ``toolselect route``."""
        if self.export_lines is None:
            with open(self.export_path) as fh:
                self.export_lines = fh.read().splitlines()
        i = k * (self.n_route // self.n_cli)
        record_path = os.path.join(self.out_dir, f"record_{k}.jsonl")
        with open(record_path, "w") as fh:
            fh.write(self.export_lines[i] + "\n")
        argv = ["route", "--config", self.config_path, "--seed", str(WORLD_SEED),
                "--out", self.out_dir, "--input", record_path,
                "--panel-size", str(PANEL_SIZE)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.phase(f"cli_{k}", lambda: self.module("cli").run(argv))
        if code != 0:
            self.failed += 1
        self.cli_runs.append({"index": i, "code": code, "stdout": out.getvalue(),
                              "stderr": err.getvalue()})

    def finish(self):
        super().finish()
        self.info["eval_queries_per_s"] = self.metrics["items_per_s"]
        self.info["cli_route_s"] = float(np.median(
            [self.scaled[f"cli_{k}"] for k in range(self.n_cli)]))

    def items(self):
        return self.n_val

    def attempted(self):
        return self.n_route + self.n_val + self.n_cli

    def check(self):
        world = self.world
        records, panels = world.splits["test"], self.panels
        problems = checks.check_slots_valid(records, panels, self.slots)
        model = self.router.model
        stride = max(1, len(records) // self.n_prob_checks)
        for i in range(0, len(records), stride):
            lq, panel = records[i], panels[i]
            dist = model.select(lq.query, panel)
            ref, mask = checks.reference_probs(self.tensors, world, lq.query, panel)
            problems += checks.check_probs(np.asarray(dist.probs), dist.selected, ref, mask,
                                           lq.query.uid)
            if dist.selected != self.slots[i]:
                problems.append(f"query {lq.query.uid}: select and route disagree")
        # the CLI draws its panel from its --seed, which is the world's seed
        cli_panels = self.module("evalharness").eval_panels(world, "test", PANEL_SIZE, WORLD_SEED)
        for run in self.cli_runs:
            i = run["index"]
            panel = cli_panels[i]
            slot = model.select(records[i].query, panel).selected
            expect = f"tool={panel.tools[slot].tool_id} slot={slot} "
            if run["code"] != 0 or not run["stdout"].startswith(expect):
                problems.append(f"CLI route of query {records[i].query.uid}: "
                                f"{run['stdout'].strip() or run['stderr'].strip()!r}, "
                                f"expected {expect.strip()!r}")
        loaded = self.module("datasets").import_dataset(self.export_path)
        problems += checks.check_records_equal(world.splits["test"], loaded)
        if self.report.query_count != self.n_val:
            problems.append(f"evaluate routed {self.report.query_count} of {self.n_val} queries")
        return problems

    def digest_parts(self):
        cli = [r["stdout"] for r in self.cli_runs]
        return [repr(self.slots), repr(self.report.mean_cost)] + cli


class Compare(Workload):
    """Fit the three learned baselines and compare Random, Oracle and the
    baselines on a large fresh test split. Between these phases, Oracle, which
    runs every valid tool of the panel, routes fresh validation queries one at
    a time."""
    name = "compare"
    items_phase = "compare"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_test = max(1000, 320 * self.seconds)
        self.n_val = max(1000, 480 * self.seconds)

    def setup(self):
        ts = self.ts
        self.world = ts.generate_world(ts.WorldConfig(n_val=self.n_val, n_test=self.n_test),
                                       WORLD_SEED)
        eval_panels = self.module("evalharness").eval_panels
        self.val_panels = eval_panels(self.world, "val", PANEL_SIZE, self.seed)
        self.panels = eval_panels(self.world, "test", PANEL_SIZE, self.seed)

    def work(self):
        ts, world = self.ts, self.world
        # the first fit calls every tool, so the Oracle's first queries find them warm
        self.fitted = [self.phase("globalbest_fit", lambda: ts.GlobalBestRouter.fit(world))]
        phases = [
            lambda: self.fitted.append(self.phase("knn_fit", lambda: ts.KNNRouter.fit(world))),
            lambda: self.fitted.append(self.phase(
                "mlpindex_fit", lambda: ts.MLPIndexRouter.fit(world, seed=self.seed))),
            self.compare,
        ]
        rng = np.random.default_rng([self.seed, 3])
        self.slots = self.interleave(ts.OracleRouter(world), world.splits["val"],
                                     self.val_panels, rng, phases)

    def compare(self):
        self.routers = [self.ts.RandomRouter(), self.ts.OracleRouter(self.world)] + self.fitted
        self.reports = self.phase("compare", lambda: self.ts.compare(
            self.routers, self.world, "test", PANEL_SIZE, self.seed))

    def finish(self):
        super().finish()
        self.info["compare_queries_per_s"] = self.metrics["items_per_s"]
        self.info["baseline_fit_s"] = float(sum(
            self.scaled[f"{n}_fit"] for n in ("globalbest", "knn", "mlpindex")))

    def items(self):
        return len(self.routers) * self.n_test

    def attempted(self):
        return len(self.fitted) + self.n_val + self.items()

    def check(self):
        problems = checks.check_slots_valid(self.world.splits["val"], self.val_panels,
                                            self.slots)
        table = checks.panel_cost_table(self.world, self.world.splits["test"], self.panels)
        return problems + checks.check_compare(self.reports, table)

    def digest_parts(self):
        parts = [repr(self.slots)]
        for name in sorted(self.reports):
            rep = self.reports[name]
            parts.append(f"{name} {rep.mean_cost!r} "
                         + " ".join(repr(rep.per_task[t].mean_cost) for t in sorted(rep.per_task)))
        return parts


WORKLOADS = {cls.name: cls for cls in (Train, Route, Compare)}


def digest(workload):
    h = hashlib.sha256()
    for part in workload.digest_parts():
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()
