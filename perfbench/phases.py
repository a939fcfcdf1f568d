"""The four operations the benchmark measures, and the workloads that mix them.

Every workload runs all four phases so that each run reports every
metric: its *main* phases share the run's measured seconds, the other
phases run a fixed side quota on the same inputs (see README.md).
Every loop ends on an op quota, never on the clock, so a run's work and
its ``attempted``/``failed`` counts depend only on its arguments.

* ``summarize`` — parse → ``LatticeSummary.build`` → ``save`` → ``load``,
  serially, with ``workers=2`` and with ``shards=2, workers=2``.
* ``cold`` — per-query ``estimate()`` on long-lived recursive, voting
  and fix-sized estimators, every shape new to its estimator.
* ``warm`` — ``estimate_batch(backend="auto")`` over Zipf-drawn shapes
  that were all compiled before timing.
* ``stream`` — alternating ``StreamingSummary.insert``/``delete``.

The program is driven only through public calls; a traced run times
those calls as spans (``harness.Tracer``) and reads ``repro.obs``
counters, an untraced run does neither.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import (
    DocumentIndex,
    FixedDecompositionEstimator,
    LatticeSummary,
    RecursiveDecompositionEstimator,
    StreamingSummary,
    count_matches,
    generate_nasa,
    generate_xmark,
    obs,
    tree_from_xml,
    tree_to_xml,
)
from repro.core import lattice as core_lattice
from repro.core import streaming as core_streaming
from repro.mining import sharded as mining_sharded
from repro.parallel import ShardMiningPool
from repro.store import DictStore

from harness import (
    Calibrator,
    Deadline,
    Digest,
    Tracer,
    median,
    peak_rss_mb,
    percentile,
    settle,
    tail,
    timed,
)
from querygen import QueryPool, make_pool, qerror

LEVEL = 4
KINDS = ("recursive", "voting", "fixed")
#: The three summarize paths every byte-identity check compares.
PATHS = (
    ("serial", {}),
    ("par", {"workers": 2}),
    ("sharded", {"shards": 2, "workers": 2}),
)
ZIPF_S = 1.1
#: Rounds of the three summarize paths when summarize is a side quota.
SIDE_ROUNDS = 12
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Streaming compacts after every third update, so compactions are a
#: third of all updates and land in the p75 or p90 ``update_tail_ms``.
MAX_PENDING = 2
#: Reference-speed seconds of one main op on this commit (a summarize
#: round is the three paths).  A main phase given ``s`` seconds runs
#: ``round(s / cost)`` ops: about ``s`` seconds at reference speed.
MAIN_OP_REF_S = {"summarize": 2.3, "cold": 0.0011, "batch": 0.0031, "update": 0.1}
#: Each workload's main operations and their shares of the measured
#: seconds.  On stream-nasa the side quotas' timed ops take about the rest.
MAIN_SHARES = {
    "build-estimate-xmark": {"summarize": 0.7, "cold": 0.15, "batch": 0.15},
    "stream-nasa": {"update": 0.55},
}
#: Wall seconds after which a main phase stops short of its quota, so a
#: stalled host cannot push a run past its time limit (noted if it does).
MAIN_WALL_CAP_S = 60.0


@dataclass(frozen=True)
class Scale:
    """Input sizes and quotas; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    xmark_nodes: int  # node count the xmark scale is tuned to, per seed
    xmark_scale: int  # first scale tried
    nasa_records: int
    side_nasa_records: int
    cold_pool: tuple[int, int]  # (positive, negative) queries
    warm_pool: tuple[int, int]
    batch: int
    big_batch: int
    side_batches: int
    side_updates: int
    count_sample: int
    main_ops: int | None = None  # main quota regardless of seconds


FULL = Scale(
    xmark_nodes=10534,
    xmark_scale=120,
    nasa_records=150,
    side_nasa_records=40,
    cold_pool=(600, 200),
    warm_pool=(150, 50),
    batch=64,
    big_batch=1024,
    side_batches=600,
    side_updates=40,
    count_sample=40,
)

TINY = Scale(
    xmark_nodes=600,
    xmark_scale=6,
    nasa_records=12,
    side_nasa_records=10,
    cold_pool=(30, 10),
    warm_pool=(24, 8),
    batch=16,
    big_batch=64,
    side_batches=9,
    side_updates=6,
    count_sample=10,
    main_ops=12,
)


@dataclass
class Run:
    """One benchmark run: its settings, results and checks."""

    workload: str
    seed: int
    seconds: float
    scale: Scale
    workdir: Path
    tracer: Tracer | None = None
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)
    digest: Digest = field(default_factory=Digest)
    #: True while the workload's main phase runs.  Layer names shared by
    #: two phases (``trees.index_s`` for a whole document and for one
    #: streaming update) report the main phase's value.
    main_phase: bool = False
    calib: Calibrator = field(default_factory=Calibrator)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        if self.main_phase or name not in self.layers:
            self.layers[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.correct = False
            self.notes.append(f"check failed: {message}")

    def note(self, message: str) -> None:
        self.notes.append(message)

    def main_ops(self, op: str) -> int:
        """Quota of the main phase ``op``: its share of the run's seconds."""
        if self.scale.main_ops is not None:
            return self.scale.main_ops
        share = MAIN_SHARES[self.workload][op]
        return max(1, round(self.seconds * share / MAIN_OP_REF_S[op]))

    def deadline(self, main: bool, ops: int) -> Deadline:
        self.calib.sample()
        if main:
            return Deadline(ops, sample_every=0.25, wall_cap=MAIN_WALL_CAP_S)
        # Side quotas last about a second: sample speed more densely.
        return Deadline(ops, sample_every=0.1)

    def note_cap(self, deadline: Deadline, what: str) -> None:
        if deadline.capped:
            self.note(f"{what}: stopped at the {MAIN_WALL_CAP_S:g} s wall cap after "
                      f"{deadline.done_ops} of {deadline.ops} ops")


def rng_for(run: Run, purpose: str) -> random.Random:
    # String seeds hash through sha512, independent of PYTHONHASHSEED.
    return random.Random(f"{run.seed}:{purpose}")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def xmark_scale_for(seed: int, scale: Scale, nodes: int) -> int:
    """The xmark scale whose document is closest to ``nodes`` nodes.

    Document size varies ~9% across seeds at a fixed scale; tuning the
    scale per seed keeps every seed at the Table 1 size, so seed-to-seed
    spread measures the program rather than the input size.
    """
    size = generate_xmark(scale.xmark_scale, seed).size
    guess = max(1, round(scale.xmark_scale * nodes / size))
    best = min(
        range(max(1, guess - 2), guess + 3),
        key=lambda s: (abs(generate_xmark(s, seed).size - nodes), s),
    )
    return best


def make_estimators(summary: LatticeSummary) -> list[Any]:
    return [
        RecursiveDecompositionEstimator(summary),
        RecursiveDecompositionEstimator(summary, voting=True),
        FixedDecompositionEstimator(summary),
    ]


def fresh_estimate(summary: LatticeSummary, kind: int, query: Any) -> float:
    """Reference value: a brand-new estimator's ``estimate(query)``."""
    return make_estimators(summary)[kind].estimate(query)


def references(summary: LatticeSummary, pool: QueryPool) -> list[list[float]]:
    return [
        [fresh_estimate(summary, kind, query) for kind in range(len(KINDS))]
        for query in pool.queries
    ]


# ----------------------------------------------------------------------
# summarize: parse -> build -> save -> load
# ----------------------------------------------------------------------


@dataclass
class Summarized:
    summary: LatticeSummary
    data: bytes
    summarize_s: float
    load_s: float
    raw_s: float  # unscaled summarize + load, for the tracing overhead


def summarize(run: Run, xml: str, path: str, kwargs: dict[str, int]) -> Summarized:
    """One summarize path; traced runs split it into its layer calls."""
    out = run.workdir / f"{path}.sum"
    settle()
    if run.tracer is None:
        start = time.perf_counter()
        index = DocumentIndex(tree_from_xml(xml))
        summary = LatticeSummary.build(index, LEVEL, **kwargs)
        summary.save(out)
        raw_s = time.perf_counter() - start
        summarize_s = run.calib.bracket(raw_s)
        loaded, load_s = timed(LatticeSummary.load, out)
        return Summarized(
            loaded, out.read_bytes(), summarize_s, run.calib.bracket(load_s),
            raw_s + load_s,
        )
    tracer = run.tracer
    start = time.perf_counter()
    with tracer.span("op.summarize"), obs.observed() as (registry, _), _build_spans(tracer, path):
        doc = tracer.call("trees.parse", tree_from_xml, xml)
        index = tracer.call("trees.index", DocumentIndex, doc)
        summary = tracer.call("core.build", LatticeSummary.build, index, LEVEL, **kwargs)
        tracer.call("store.save", summary.save, out)
        summarize_s = time.perf_counter() - start
        loaded = tracer.call("store.load", LatticeSummary.load, out)
    load_s = tracer.durations("store.load")[-1]
    if path == "serial":
        tracer.count("mining.candidates", _counter(registry, "mining_candidate_evaluations_total"))
        tracer.count("mining.patterns", summary.num_patterns)
        tracer.count("store.mem_bytes", summary.byte_size())
    elif path == "par":
        tracer.count("resilience.retries", _counter(registry, "retry_attempts_total"))
    return Summarized(
        loaded, out.read_bytes(), summarize_s, load_s, summarize_s + load_s
    )


def _build_spans(tracer: Tracer, path: str) -> ExitStack:
    """Spans around the layer calls ``LatticeSummary.build`` makes,
    wrapped where the program looks them up."""
    stack = ExitStack()
    if path != "sharded":
        name = "mining.mine" if path == "serial" else "parallel.mine"
        stack.enter_context(tracer.wrapped(core_lattice, "mine_lattice", name))
        return stack
    stack.enter_context(tracer.wrapped(
        mining_sharded, "plan_shards", "mining.shard_plan",
        on_result=lambda plan: tracer.count("mining.shards", len(plan.roots)),
    ))
    stack.enter_context(tracer.wrapped(ShardMiningPool, "mine", "mining.shard_mine"))
    stack.enter_context(tracer.wrapped(mining_sharded, "mine_shard_store", "mining.shard_mine"))
    stack.enter_context(tracer.wrapped(mining_sharded, "anchored_counts", "mining.anchored"))
    stack.enter_context(tracer.wrapped(mining_sharded, "merge_shard_stores", "store.merge"))
    return stack


def _counter(registry: Any, name: str, **labels: str) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    if labels:
        return float(metric.value(**labels))
    return float(metric.total)


def report_summarize(
    run: Run, samples: dict[str, list[Summarized]], main: bool
) -> LatticeSummary:
    """End-to-end summarize metrics and the byte-identity checks."""
    run.main_phase = main
    every = [s for path in samples.values() for s in path]
    first = every[0]
    for path, results in samples.items():
        for result in results:
            run.check(result.data == first.data, f"{path} summary file differs from serial")
    run.metric("summarize_s", median([s.summarize_s for s in samples["serial"]]), "s")
    run.metric("summarize_par_s", median([s.summarize_s for s in samples["par"]]), "s")
    run.metric("summarize_sharded_s", median([s.summarize_s for s in samples["sharded"]]), "s")
    run.metric("load_s", median([s.load_s for s in every]), "s")
    run.metric("summary_bytes", len(first.data), "bytes")
    run.digest.data(first.data)
    tracer = run.tracer
    if tracer is not None:
        for name in (
            "trees.parse", "trees.index", "mining.mine", "store.save", "store.load",
            "parallel.mine", "mining.shard_plan", "mining.shard_mine",
            "mining.anchored", "store.merge",
        ):
            spans = tracer.durations(name, within="op.summarize")
            run.layer(f"{name}_s", median([s for s in spans if s > 0] or [0.0]), "s")
        # Mining streams each level into the build's store, so what the
        # serial build spends outside mine_lattice is wrapping that store
        # as a summary.
        builds = tracer.durations("core.build", within="op.summarize")
        mines = tracer.durations("mining.mine", within="op.summarize")
        fills = [b - m for b, m in zip(builds, mines) if m > 0]
        run.layer("store.fill_s", median(fills or [0.0]), "s")
        counts = tracer.counts
        run.layer("mining.shards", median(counts["mining.shards"]), "count")
        candidates = median(counts["mining.candidates"])
        patterns = median(counts["mining.patterns"])
        run.layer("mining.candidates", candidates, "count")
        run.layer("mining.patterns", patterns, "count")
        run.layer("mining.useful_ratio", patterns / max(candidates, 1.0), "ratio")
        run.layer("store.mem_bytes", median(counts["store.mem_bytes"]), "bytes")
        run.layer("resilience.retries", sum(counts["resilience.retries"]), "count")
        serial = median(tracer.durations("mining.mine"))
        run.layer("parallel.speedup", serial / median(tracer.durations("parallel.mine")), "x")
    return first.summary


def check_summary(run: Run, summary: LatticeSummary, index: DocumentIndex, purpose: str) -> None:
    """``load(save(s))`` keeps patterns and complete sizes; sampled counts are exact."""
    out = run.workdir / "roundtrip.sum"
    summary.save(out)
    back = LatticeSummary.load(out)
    run.check(
        list(back.patterns()) == list(summary.patterns())
        and back.complete_sizes == summary.complete_sizes,
        "load(save(s)) changed the summary",
    )
    patterns = list(summary.patterns())
    sample = rng_for(run, purpose).sample(patterns, min(run.scale.count_sample, len(patterns)))
    for key, count in sample:
        run.check(count_matches(key, index) == count, f"stored count of {key} is wrong")


def summarize_main(run: Run, xml: str) -> LatticeSummary:
    """The measured summarize loop: rounds of the three paths."""
    samples: dict[str, list[Summarized]] = {path: [] for path, _ in PATHS}
    tracer = run.tracer
    # A traced run needs one plain and one traced round at least.
    deadline = run.deadline(True, max(run.main_ops("summarize"), 1 if tracer is None else 2))
    traced_ops: list[float] = []
    untraced_ops: list[float] = []
    rounds = 0
    while not deadline.expired():
        deadline.tick()
        for path, kwargs in PATHS:
            # A traced run alternates plain and traced rounds; only the
            # traced rounds feed the layer metrics.
            plain = tracer is not None and rounds % 2 == 0
            if plain:
                run.tracer = None
            run.attempted += 1
            try:
                result = summarize(run, xml, path, kwargs)
            except Exception as exc:  # count, report, keep measuring
                run.failed += 1
                run.check(False, f"{path} summarize raised {exc!r}")
                continue
            finally:
                run.tracer = tracer
            (untraced_ops if plain else traced_ops).append(result.raw_s)
            samples[path].append(result)
        rounds += 1
    run.note(f"summarize: {rounds} rounds of {len(PATHS)} paths")
    run.note_cap(deadline, "summarize")
    if tracer is not None:
        trace_overhead(run, "op.summarize", untraced_ops, traced_ops)
    return report_summarize(run, samples, main=True)


def trace_overhead(run: Run, root: str, untraced: list[float], traced: list[float]) -> None:
    """Traced vs untraced op time, and how much of it the layer spans cover.

    With several main operations (build-estimate-xmark), the first one's."""
    assert run.tracer is not None
    if "trace.op_traced_ms" in run.layers:
        return
    total, covered = run.tracer.self_times(root)
    count = max(len(traced), 1)
    plain = sum(untraced) / max(len(untraced), 1)
    with_spans = sum(traced) / count
    run.layer("trace.op_untraced_ms", plain * 1e3, "ms")
    run.layer("trace.op_traced_ms", with_spans * 1e3, "ms")
    run.layer("trace.overhead_ms", (with_spans - plain) * 1e3, "ms")
    run.layer("trace.layer_sum_ms", covered / count * 1e3, "ms")
    run.layer("trace.unattributed_ms", (total - covered) / count * 1e3, "ms")
    run.note(
        f"trace: layers cover {covered / max(total, 1e-12):.1%} of traced op time; "
        f"traced {with_spans * 1e3:.3f} ms vs untraced {plain * 1e3:.3f} ms per op"
    )


# ----------------------------------------------------------------------
# cold: per-query estimate() that always compiles
# ----------------------------------------------------------------------


def cold_phase(run: Run, summary: LatticeSummary, index: DocumentIndex, main: bool) -> None:
    """Closed loop, one client: each query on each estimator in turn.

    The pool is replayed on fresh estimators when exhausted, so every
    call compiles its plan.  A side quota is one pass of the pool.
    """
    run.main_phase = main
    pool = make_pool(index, f"{run.seed}:cold:{main}", *run.scale.cold_pool)
    quota = run.main_ops("cold") if main else len(pool) * len(KINDS)
    deadline = run.deadline(main, quota)
    tracer = run.tracer
    ops: list[tuple[float, float]] = []
    answers: list[tuple[int, int, float | None]] = []
    replay: list[float] = []
    per_kind: list[list[float]] = [[] for _ in KINDS]
    traced_ops: list[float] = []
    untraced_ops: list[float] = []
    settle()
    while not deadline.expired():
        estimators = make_estimators(summary)
        for qi, query in enumerate(pool.queries):
            for kind, estimator in enumerate(estimators):
                run.calib.maybe(deadline.sample_every)
                run.attempted += 1
                deadline.tick()
                start = time.perf_counter()
                try:
                    # The main phase alternates plain and traced ops to
                    # measure the tracing overhead; side quotas trace all.
                    if tracer is None or (main and deadline.done_ops % 2):
                        value = estimator.estimate(query)
                    else:
                        with tracer.span("op.cold"), tracer.span(f"core.{KINDS[kind]}.cold"):
                            value = estimator.estimate(query)
                except Exception as exc:
                    run.failed += 1
                    run.check(False, f"estimate raised {exc!r}")
                    value = None
                elapsed = time.perf_counter() - start
                ops.append((start, elapsed))
                per_kind[kind].append(elapsed)
                answers.append((qi, kind, value))
                if tracer is not None:
                    plain = main and deadline.done_ops % 2
                    (untraced_ops if plain else traced_ops).append(elapsed)
                    if value is not None:
                        replay.append(timed(estimator.estimate, query)[1])
                if deadline.expired():
                    break
            else:
                continue
            break
    run.note_cap(deadline, "cold")
    latencies = run.calib.scale_all(ops)

    refs = references(summary, pool)
    for qi, kind, value in answers:
        if value is None:
            continue
        ok = math.isfinite(value) and value >= 0.0 and value == refs[qi][kind]
        if not ok:
            run.failed += 1
        run.check(ok, f"cold estimate {value!r} != fresh {refs[qi][kind]!r}")
    errors = [qerror(refs[qi][k], pool.truth[qi]) for qi in range(len(pool)) for k in range(len(KINDS))]
    for row in refs:
        run.digest.floats(row)

    p, tail_ms = tail(latencies)
    run.note(f"cold: {len(latencies)} estimates over {len(pool)} queries; tail is p{p:g}")
    if tracer is None:
        run.metric("estimate_qps", len(latencies) / sum(latencies), "1/s")
        run.metric("estimate_p50_ms", median(latencies) * 1e3, "ms")
        run.metric("estimate_tail_ms", tail_ms * 1e3, "ms")
        run.metric("qerror_p90", percentile(errors, 90.0), "ratio")
        return
    for kind, name in enumerate(KINDS):
        run.layer(f"core.{name}.cold_ms", median(per_kind[kind]) * 1e3, "ms")
    run.layer("core.replay_ms", median(replay) * 1e3, "ms")
    with obs.observed() as (registry, _):
        counted = make_estimators(summary)
        for query in pool.queries:
            for estimator in counted:
                estimator.estimate(query)
    hits = _counter(registry, "lattice_lookups_total", outcome="hit")
    run.layer("core.lookups.hit", hits, "count")
    run.layer("core.lookups.zero", _counter(registry, "lattice_lookups_total", outcome="complete_zero"), "count")
    run.layer("core.decompose_steps", _counter(registry, "decompose_steps_total"), "count")
    memo_hit = _counter(registry, "memo_lookups_total", outcome="hit")
    memo_all = memo_hit + _counter(registry, "memo_lookups_total", outcome="miss")
    run.layer("core.memo_hit_ratio", memo_hit / max(memo_all, 1.0), "ratio")
    if main:
        trace_overhead(run, "op.cold", untraced_ops, traced_ops)


# ----------------------------------------------------------------------
# warm: estimate_batch over compiled shapes
# ----------------------------------------------------------------------


@dataclass
class WarmInputs:
    pool: QueryPool
    estimators: list[Any]
    compile_s: float


def warm_pool(run: Run, index: DocumentIndex) -> QueryPool:
    return make_pool(index, f"{run.seed}:warm", *run.scale.warm_pool)


def warm_compile(summary: LatticeSummary, pool: QueryPool) -> tuple[list[Any], float]:
    """Compile every pool shape on each estimator: the batch API's warm-up."""
    estimators = make_estimators(summary)
    start = time.perf_counter()
    for estimator in estimators:
        estimator.estimate_batch(pool.queries, backend="auto")
    return estimators, time.perf_counter() - start


def zipf_batches(run: Run, pool: QueryPool, size: int, purpose: str) -> Any:
    """Endless seeded stream of ``size``-query batches.

    Each batch is one client's request: Zipf(1.1) draws over that
    client's own ranking of the pool, so shapes repeat within a batch as
    under one hot set.  Rank 1 takes a fifth of the draws, so a batch's
    cost is mostly its rank-1 shape's; the rank-1 shape therefore cycles
    through the pool in a seeded order (every shape is some client's
    favourite once per ``len(pool)`` batches) and the other ranks are
    shuffled per batch.  With one ranking for the whole stream,
    seed-to-seed spread was ~30% in throughput and ~80% in tail latency.
    Every shape is compiled, so nothing in the program depends on
    popularity across batches.
    """
    rng = rng_for(run, purpose)
    cumulative = []
    total = 0.0
    for r in range(1, len(pool) + 1):
        total += r ** -ZIPF_S
        cumulative.append(total)
    draw = range(len(pool))
    favourites = list(draw)
    rng.shuffle(favourites)
    ranks = list(draw)
    batch = 0
    while True:
        rng.shuffle(ranks)
        top = ranks.index(favourites[batch % len(pool)])
        ranks[0], ranks[top] = ranks[top], ranks[0]
        batch += 1
        yield [ranks[i] for i in rng.choices(draw, cum_weights=cumulative, k=size)]


def warm_phase(run: Run, summary: LatticeSummary, index: DocumentIndex, main: bool,
               inputs: WarmInputs | None = None) -> None:
    """Closed loop, one batch outstanding: ``batch`` queries per call,
    rotating the three estimators."""
    run.main_phase = main
    if inputs is None:
        pool = warm_pool(run, index)
        estimators, compile_s = warm_compile(summary, pool)
        inputs = WarmInputs(pool, estimators, compile_s)
    pool, estimators = inputs.pool, inputs.estimators
    refs = references(summary, pool)
    deadline = run.deadline(main, run.main_ops("batch") if main else run.scale.side_batches)
    batches = zipf_batches(run, pool, run.scale.batch, "warm")
    tracer = run.tracer
    ops: list[tuple[float, float]] = []
    traced_ops: list[float] = []
    untraced_ops: list[float] = []
    done: list[tuple[int, list[int], list[float]]] = []
    answered = 0
    settle()
    while not deadline.expired():
        run.calib.maybe(deadline.sample_every)
        kind = deadline.done_ops % len(KINDS)
        picks = next(batches)
        queries = [pool.queries[i] for i in picks]
        deadline.tick()
        use_spans = tracer is not None and (not main or deadline.done_ops % 2 == 0)
        start = time.perf_counter()
        try:
            if use_spans:
                assert tracer is not None
                with tracer.span("op.batch"), tracer.span("core.estimate_batch"):
                    values = estimators[kind].estimate_batch(queries, backend="auto")
            else:
                values = estimators[kind].estimate_batch(queries, backend="auto")
        except Exception as exc:
            run.attempted += len(picks)
            run.failed += len(picks)
            run.check(False, f"estimate_batch raised {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        ops.append((start, elapsed))
        if tracer is not None:
            (traced_ops if use_spans else untraced_ops).append(elapsed)
        answered += len(picks)
        done.append((kind, picks, values))
    run.note_cap(deadline, "warm")
    latencies = run.calib.scale_all(ops)

    mismatches = 0
    for kind, picks, values in done:
        queries = [pool.queries[i] for i in picks]
        plan = estimators[kind].estimate_batch(queries, backend="plan")
        run.check(plan == values, "estimate_batch auto != plan")
        run.digest.floats(values)
        for qi, value in zip(picks, values):
            run.attempted += 1
            run.check(math.isfinite(value) and value >= 0.0, f"batch estimate {value!r}")
            # Known defect: the batch memo bakes layout-dependent sub-twig
            # values into compiled plans, so some answers differ from a
            # fresh estimate(q).  Counted as failed where batches are the
            # main operation, and always printed; never hidden.
            if value != refs[qi][kind]:
                mismatches += 1
                if main:
                    run.failed += 1
    p, tail_s = tail(latencies)
    run.note(
        f"warm: {len(latencies)} batches, {answered} answers, tail is p{p:g}; "
        f"estimate_mismatches={mismatches} ({mismatches / max(answered, 1):.2%}) "
        f"against fresh estimate(q) [known batch-memo defect]"
    )
    if tracer is None:
        run.metric("batch_qps", answered / sum(latencies), "1/s")
        run.metric("batch_tail_ms", tail_s * 1e3, "ms")
        return
    run.layer("core.estimate_mismatches", mismatches, "count")
    run.layer("core.compile_s", inputs.compile_s, "s")
    backends = ("plan", "array", "numpy")
    sample = [next(batches) for _ in range(3 * 8)]
    for backend in backends:
        times = []
        for i, picks in enumerate(sample):
            queries = [pool.queries[q] for q in picks]
            times.append(timed(estimators[i % 3].estimate_batch, queries, backend=backend)[1])
        run.layer(f"kernels.{backend}_batch_ms", median(times) * 1e3, "ms")
    big = zipf_batches(run, pool, run.scale.big_batch, "warm-big")
    big_sample = [next(big) for _ in range(3 * 3)]
    for backend in ("plan", "numpy"):
        times = []
        for i, picks in enumerate(big_sample):
            queries = [pool.queries[q] for q in picks]
            times.append(timed(estimators[i % 3].estimate_batch, queries, backend=backend)[1])
        run.layer(f"kernels.{backend}_batch1024_ms", median(times) * 1e3, "ms")
    with obs.observed() as (registry, _):
        for i, estimator in enumerate(estimators):
            estimator.estimate_batch([pool.queries[q] for q in sample[i]], backend="auto")
    requests = _counter(registry, "plan_cache_requests_total")
    hits = sum(
        _counter(registry, "plan_cache_requests_total", estimator=e.name, outcome="hit")
        for e in estimators
    )
    run.layer("core.plan_hit_ratio", hits / max(requests, 1.0), "ratio")
    run.layer("kernels.programs", _counter(registry, "kernel_batch_programs_total"), "count")
    if main:
        trace_overhead(run, "op.batch", untraced_ops, traced_ops)


# ----------------------------------------------------------------------
# stream: StreamingSummary insert/delete
# ----------------------------------------------------------------------


def stream_phase(run: Run, stream: StreamingSummary, donor: Any, main: bool) -> None:
    """Alternating insert of a donor record and delete of a random root child."""
    run.main_phase = main
    records = [donor.subtree_at(child) for child in donor.child_ids(donor.root)]
    rng = rng_for(run, f"stream:{main}")
    deadline = run.deadline(main, run.main_ops("update") if main else run.scale.side_updates)
    tracer = run.tracer
    latencies: list[float] = []
    traced_ops: list[float] = []
    untraced_ops: list[float] = []
    compactions = 0
    settle()
    while not deadline.expired():
        op = deadline.done_ops
        deadline.tick()
        run.attempted += 1
        use_spans = tracer is not None and (not main or op % 2 == 1)
        pending = stream.pending_ops
        start = time.perf_counter()
        try:
            if use_spans:
                assert tracer is not None
                with _stream_spans(tracer), tracer.span("op.update"):
                    _update(stream, records, rng, op)
            else:
                _update(stream, records, rng, op)
        except Exception as exc:
            run.failed += 1
            run.check(False, f"stream update raised {exc!r}")
            continue
        raw = time.perf_counter() - start
        if stream.pending_ops <= pending:
            compactions += 1
        latencies.append(run.calib.bracket(raw))
        if tracer is not None:
            (traced_ops if use_spans else untraced_ops).append(raw)
    run.note_cap(deadline, "stream")

    out = run.workdir / "stream.sum"
    stream.save(out)
    data = out.read_bytes()
    reference = run.workdir / "oneshot.sum"
    LatticeSummary.build(stream.document, stream.level).save(reference)
    run.check(data == reference.read_bytes(), "streamed summary differs from a one-shot build")
    run.digest.data(data)
    p, tail_s = tail(latencies)
    run.note(f"stream: {len(latencies)} updates, tail is p{p:g}")
    if tracer is None:
        run.metric("update_p50_ms", median(latencies) * 1e3, "ms")
        run.metric("update_tail_ms", tail_s * 1e3, "ms")
        return
    for name in ("trees.index", "mining.anchored", "mining.record_mine", "store.merge"):
        run.layer(f"{name}_s", median(tracer.durations(name, within="op.update")), "s")
    compact = [d for d in tracer.durations("core.compact", within="op.update") if d > 0]
    run.layer("core.compact_s", median(compact or [0.0]), "s")
    run.layer("core.compactions", compactions, "count")
    if main:
        trace_overhead(run, "op.update", untraced_ops, traced_ops)


def _update(stream: StreamingSummary, records: list[Any], rng: random.Random, op: int) -> None:
    if op % 2 == 0:
        stream.insert(records[(op // 2) % len(records)])
    else:
        children = stream.document.child_ids(stream.document.root)
        stream.delete(rng.randrange(len(children)))


def _stream_spans(tracer: Tracer) -> ExitStack:
    stack = ExitStack()
    stack.enter_context(tracer.wrapped(core_streaming, "DocumentIndex", "trees.index"))
    stack.enter_context(tracer.wrapped(core_streaming, "anchored_counts", "mining.anchored"))
    stack.enter_context(tracer.wrapped(core_streaming, "mine_lattice", "mining.record_mine"))
    stack.enter_context(tracer.wrapped(DictStore, "merge", "store.merge"))
    stack.enter_context(tracer.wrapped(StreamingSummary, "compact", "core.compact"))
    return stack


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def side_stream(run: Run) -> None:
    """The stream quota of the xmark workloads, on a small NASA document."""
    records = run.scale.side_nasa_records
    stream = StreamingSummary(
        generate_nasa(records, run.seed), LEVEL, max_pending=MAX_PENDING
    )
    stream_phase(run, stream, generate_nasa(records, run.seed + 1), main=False)


def xmark_xml(run: Run) -> str:
    nodes = run.scale.xmark_nodes
    return tree_to_xml(generate_xmark(xmark_scale_for(run.seed, run.scale, nodes), run.seed))


def side_summarize(run: Run, xml: str) -> None:
    """The summarize quota of the workloads whose main operation is not
    summarize: ``SIDE_ROUNDS`` rounds of the three paths on a small document."""
    samples: dict[str, list[Summarized]] = {path: [] for path, _ in PATHS}
    run.calib.sample()
    for _ in range(SIDE_ROUNDS):
        for path, kwargs in PATHS:
            run.attempted += 1
            samples[path].append(summarize(run, xml, path, kwargs))
    report_summarize(run, samples, main=False)


def timed_setups(run: Run, setup: Any) -> tuple[list[float], Any]:
    """``SETUP_REPS`` runs of ``setup()``, each at reference speed."""
    times = []
    made = None
    for _ in range(SETUP_REPS):
        settle()
        run.calib.sample()
        start = time.perf_counter()
        made = setup()
        times.append(run.calib.bracket(time.perf_counter() - start))
    return times, made


def saved_summary(run: Run, doc: Any) -> Path:
    """The summary file the estimation and stream set-ups start from."""
    out = run.workdir / "prepared.sum"
    LatticeSummary.build(doc, LEVEL).save(out)
    return out


def run_xmark(run: Run) -> None:
    """Summarize the document, then estimate over its summary file.

    Set-up, between the two, is what an estimating client does first:
    load the summary file, make the three estimators and compile the
    warm pool through the batch API."""
    xml = xmark_xml(run)
    built = summarize_main(run, xml)
    index = DocumentIndex(tree_from_xml(xml))
    check_summary(run, built, index, "build")
    prepared = run.workdir / "prepared.sum"
    built.save(prepared)
    pool = warm_pool(run, index)
    compile_times: list[float] = []

    def setup() -> tuple[LatticeSummary, WarmInputs]:
        summary = LatticeSummary.load(prepared)
        estimators, compile_s = warm_compile(summary, pool)
        compile_times.append(compile_s)
        return summary, WarmInputs(pool, estimators, compile_s)

    setups, (summary, warm) = timed_setups(run, setup)
    warm.compile_s = median(compile_times)
    cold_phase(run, summary, index, main=True)
    warm_phase(run, summary, index, main=True, inputs=warm)
    side_stream(run)
    run.metric("setup_s", median(setups), "s")


def run_stream(run: Run) -> None:
    """Set-up: parse the document and resume streaming from its summary file."""
    records = run.scale.nasa_records
    xml = tree_to_xml(generate_nasa(records, run.seed))
    prepared = saved_summary(run, tree_from_xml(xml))

    def setup() -> StreamingSummary:
        return StreamingSummary.restore(
            prepared, tree_from_xml(xml), max_pending=MAX_PENDING
        )

    setups, stream = timed_setups(run, setup)
    summary = stream.summary()
    index = DocumentIndex(stream.document)
    check_summary(run, summary, index, "stream")
    cold_phase(run, summary, index, main=False)
    warm_phase(run, summary, index, main=False)
    side_summarize(run, tree_to_xml(generate_nasa(run.scale.side_nasa_records, run.seed)))
    stream_phase(run, stream, generate_nasa(records, run.seed + 1), main=True)
    run.metric("setup_s", median(setups), "s")


WORKLOADS = {
    "build-estimate-xmark": run_xmark,
    "stream-nasa": run_stream,
}


def run_workload(run: Run) -> None:
    WORKLOADS[run.workload](run)
    run.metric("peak_rss_mb", peak_rss_mb(), "MiB")
