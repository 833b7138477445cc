//! Pieces every workload shares: building the engine through its
//! setters, re-evaluating windows with the reference, counting checked
//! windows, reading the engine's own counters, and the metric lists.

use crate::gen::{Batch, Query, S_G, S_J, S_V, S_X, TOPK, T_J, T_W, X_THRESHOLD};
use crate::reference::{self, Row};
use datacell::core::{Engine, QueryId, RegisterOptions, SlideMetrics};
use datacell::kernel::par::stats::{self, StatsSnapshot};
use datacell::kernel::DataType;
use datacell::telemetry::{SampleValue, Snapshot};
use std::time::{Duration, Instant};

/// An engine with its streams and queries registered.
pub struct Built {
    /// The engine.
    pub engine: Engine,
    /// Query ids, in the order the queries were given.
    pub ids: Vec<QueryId>,
    /// Time spent in `datacell::sql::parse`.
    pub parse: Duration,
    /// Time spent in `Engine::register_cq` (optimize, compile, verify,
    /// incremental rewrite).
    pub register: Duration,
}

/// Build an engine with `p` workers, partitions and basket shards, stream
/// `s` (and `t` when `with_t`), and `queries` registered in order as
/// incremental plans.
pub fn build_engine(p: usize, queries: &[Query], with_t: bool) -> Result<Built, String> {
    let mut engine = Engine::with_workers(p);
    engine.set_workers(p);
    engine.set_partitions(p);
    engine.set_basket_shards(p);
    engine.set_verify(false);
    let int = DataType::Int;
    engine
        .create_stream("s", &[("x", int), ("g", int), ("v", int), ("j", int)])
        .map_err(|e| format!("create stream s: {e}"))?;
    if with_t {
        engine
            .create_stream("t", &[("j", int), ("w", int)])
            .map_err(|e| format!("create stream t: {e}"))?;
    }
    let (mut parse, mut register) = (Duration::ZERO, Duration::ZERO);
    let mut ids = Vec::with_capacity(queries.len());
    for q in queries {
        let t0 = Instant::now();
        let parsed = datacell::sql::parse(&q.sql()).map_err(|e| format!("{}: {e}", q.name()))?;
        let t1 = Instant::now();
        let window = parsed.window.ok_or_else(|| format!("{}: no window clause", q.name()))?;
        let id = engine
            .register_cq(parsed.plan, window, RegisterOptions::default())
            .map_err(|e| format!("register {}: {e}", q.name()))?;
        register += t1.elapsed();
        parse += t1 - t0;
        ids.push(id);
    }
    Ok(Built { engine, ids, parse, register })
}

/// Reference rows of `q`'s window that closes with batch `end` (global
/// step index); batch `k` of the stream is `batches[k % batches.len()]`.
pub fn expected(q: Query, batches: &[Batch], end: usize) -> Vec<Row> {
    let nb = q.basic_windows();
    let window: Vec<&Batch> = (end + 1 - nb..=end).map(|k| &batches[k % batches.len()]).collect();
    let s = |c: usize| -> Vec<i64> {
        let mut out = Vec::with_capacity(q.window());
        window.iter().for_each(|b| out.extend_from_slice(b.s_col(c)));
        out
    };
    let t = |c: usize| -> Vec<i64> {
        let mut out = Vec::with_capacity(q.window());
        window.iter().for_each(|b| out.extend_from_slice(b.t_col(c)));
        out
    };
    match q {
        Query::Q1GroupBy => reference::q1(&s(S_X), &s(S_V), X_THRESHOLD),
        Query::Q2Join => reference::q2(&s(S_J), &s(S_V), &t(T_J), &t(T_W)),
        Query::Agg10k => reference::agg(&s(S_G), &s(S_V)),
        Query::TopK => reference::topk(&s(S_V), TOPK),
    }
}

/// Window results checked so far. A failed window is one whose rows
/// differ from the reference or that arrived a wrong number of times.
#[derive(Default)]
pub struct Checker {
    /// Window results checked.
    pub attempted: u64,
    /// Window results that were wrong or missing.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Checker {
    /// Count one window result; `ok` says whether it was right.
    pub fn window(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Fig. 7 cost split of one query, summed over slides.
#[derive(Default, Clone, Copy)]
pub struct Split {
    /// Slides summed.
    pub slides: u64,
    /// Σ total slide time.
    pub total: Duration,
    /// Σ main-plan time.
    pub main_plan: Duration,
    /// Σ merge time.
    pub merge: Duration,
}

impl Split {
    /// Fold slides in.
    pub fn add(&mut self, ms: &[SlideMetrics]) {
        for m in ms {
            self.slides += 1;
            self.total += m.total;
            self.main_plan += m.main_plan;
            self.merge += m.merge;
        }
    }
}

/// The engine's own counters that the ledger reads, at one instant.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    /// Basket seal seconds (all paths).
    pub seal_s: f64,
    /// Basket seals.
    pub seals: f64,
    /// Scheduler worker busy seconds (all workers).
    pub busy_s: f64,
    /// Scheduler worker idle seconds.
    pub idle_s: f64,
    /// Σ wake-to-fire seconds.
    pub wake_s: f64,
    /// Kernel path counters.
    pub par: StatsSnapshot,
}

fn family_sum(snap: &Snapshot, name: &str) -> (f64, f64) {
    let Some(f) = snap.family(name) else { return (0.0, 0.0) };
    f.samples.iter().fold((0.0, 0.0), |(s, n), sample| match &sample.value {
        SampleValue::Value(v) => (s + v, n + 1.0),
        SampleValue::Histogram(h) => (s + h.sum, n + h.count as f64),
    })
}

impl Counters {
    /// Read the counters through `Engine::telemetry_snapshot` and
    /// `kernel::par::stats::snapshot`.
    pub fn read(engine: &Engine) -> Counters {
        let snap = engine.telemetry_snapshot();
        let (seal_s, seals) = family_sum(&snap, "datacell_basket_seal_seconds");
        Counters {
            seal_s,
            seals,
            busy_s: family_sum(&snap, "datacell_scheduler_worker_busy_seconds_total").0,
            idle_s: family_sum(&snap, "datacell_scheduler_worker_idle_seconds_total").0,
            wake_s: family_sum(&snap, "datacell_scheduler_wake_to_fire_seconds").0,
            par: stats::snapshot(),
        }
    }

    /// Add the movement from `before` to `after`.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        self.seal_s += after.seal_s - before.seal_s;
        self.seals += after.seals - before.seals;
        self.busy_s += after.busy_s - before.busy_s;
        self.idle_s += after.idle_s - before.idle_s;
        self.wake_s += after.wake_s - before.wake_s;
        let d = after.par.delta(&before.par);
        let p = &mut self.par;
        p.grouped_agg_par_calls += d.grouped_agg_par_calls;
        p.sort_par_calls += d.sort_par_calls;
        p.fetch_par_calls += d.fetch_par_calls;
        p.merge_concat_fast_path += d.merge_concat_fast_path;
        p.merge_regroup_fallback += d.merge_regroup_fallback;
        p.scatter_elided += d.scatter_elided;
    }
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The host-speed probe: a fixed piece of the reference's own work
/// (grouping, a join and a top-k over seeded rows that never change),
/// timed as the fastest of three runs. It shares no code with the engine.
pub struct Probe {
    g: Vec<i64>,
    v: Vec<i64>,
    j: Vec<i64>,
}

impl Probe {
    /// The probe's fixed input.
    pub fn new() -> Probe {
        let mut r = crate::gen::Rng::new(0x5eed, 9);
        let n = 4096;
        Probe {
            g: (0..n).map(|_| r.below(crate::gen::G_DOMAIN)).collect(),
            v: (0..n).map(|_| r.below(crate::gen::V_DOMAIN)).collect(),
            j: (0..n).map(|_| r.below(4096)).collect(),
        }
    }

    /// Nanoseconds the probe takes now.
    pub fn time_ns(&self) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(reference::agg(&self.g, &self.v));
                std::hint::black_box(reference::topk(&self.v, TOPK));
                let h = self.j.len() / 2;
                std::hint::black_box(reference::q2(
                    &self.j[..h],
                    &self.v[..h],
                    &self.j[h..],
                    &self.v[h..],
                ));
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Run `f` with the probe taken on both sides of it. Returns `f`'s
    /// result and the factor that scales a time measured inside `f` to
    /// the reference host speed.
    pub fn around<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.time_ns();
        let out = f();
        (out, PROBE_REF_NS * 2.0 / (before + self.time_ns()))
    }
}

/// Set-ups per run; `setup_s` is the median of their scaled times. A
/// set-up takes milliseconds, so a single one moves with every hiccup of
/// the host.
pub const SETUPS: usize = 31;

/// The probe's time on the reference host speed: the median of a quiet
/// spell on the two-core machine the bounds were set on. It only fixes
/// the unit of the scaled figures.
pub const PROBE_REF_NS: f64 = 280_000.0;

/// One block of the timed phase.
pub struct Block {
    /// Input rows whose results the block delivered.
    pub rows: u64,
    /// Wall time of the block.
    pub wall: Duration,
    /// Process CPU time of the block.
    pub cpu_ns: u64,
    /// Latency samples of the windows the block delivered (seconds).
    pub lat: Vec<f64>,
    /// Mean [`Probe`] time at the block's two ends; `None` where the
    /// workload does not probe (its figures stay unscaled).
    pub probe_ns: Option<f64>,
}

impl Block {
    /// Factor that scales the block's times to the reference host speed
    /// (the speed at which the probe takes [`PROBE_REF_NS`]).
    fn scale(&self) -> f64 {
        self.probe_ns.map_or(1.0, |p| PROBE_REF_NS / p)
    }
}

/// The end-to-end metrics of one run.
pub struct EndToEnd {
    /// Input rows per second of the timed phase.
    pub rows_per_s: f64,
    /// Arrival-to-result latency, median (ms).
    pub latency_p50_ms: f64,
    /// Arrival-to-result latency, 90th percentile (ms).
    pub latency_p90_ms: f64,
    /// Arrival-to-result latency, 99th percentile (ms). Reported with the
    /// per-layer ledger: on a shared two-core host its run-to-run spread
    /// is wider than any bound the benchmark may set.
    pub latency_p99_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Process CPU ns per input row in the timed phase.
    pub cpu_ns_per_row: f64,
    /// Median set-up time (s), scaled to the reference host speed.
    pub setup_s: f64,
    /// Median set-up time (s), unscaled.
    pub raw_setup_s: f64,
    /// Peak resident set (MiB) after set-up and a fixed number of rounds.
    pub peak_rss_mb: f64,
    /// Unscaled block-median throughput (rows/s).
    pub raw_rows_per_s: f64,
    /// Unscaled block-median latency p50 (ms).
    pub raw_latency_p50_ms: f64,
    /// Median probe time (µs); 0 where the workload does not probe.
    pub probe_us: f64,
}

impl EndToEnd {
    /// The ungated figures the ledger carries (see [`PerLayer::e2e_extra`]).
    pub fn extra(&self) -> [f64; 4] {
        [self.latency_p99_ms, self.raw_rows_per_s, self.raw_latency_p50_ms, self.probe_us]
    }

    /// Medians over the run's blocks of each block's throughput, latency
    /// p50 and p90, and CPU per row, each scaled to the reference host
    /// speed by the block's probe. The host's speed drifts by a third
    /// within a run and between runs (the probe shows it), while the
    /// ratio of engine time to probe time holds to about a tenth; a
    /// disturbance shorter than half the run moves a median by a few
    /// ranks only. The ungated figures (`raw`, p99) are unscaled.
    pub fn from_blocks(blocks: &[Block], setup_s: f64, peak_rss_mb: f64) -> EndToEnd {
        use crate::measure::{median, quantile};
        let full: Vec<&Block> = blocks.iter().filter(|b| b.rows > 0 && !b.lat.is_empty()).collect();
        let lat_q = |q: f64, scaled: bool| {
            median(
                full.iter()
                    .map(|b| {
                        let mut l = b.lat.clone();
                        l.sort_by(f64::total_cmp);
                        quantile(&l, q) * if scaled { b.scale() } else { 1.0 }
                    })
                    .collect(),
            )
        };
        let rate = |b: &&Block, scaled: bool| {
            b.rows as f64 / b.wall.as_secs_f64() / if scaled { b.scale() } else { 1.0 }
        };
        let mut all: Vec<f64> = blocks.iter().flat_map(|b| b.lat.iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        EndToEnd {
            rows_per_s: median(full.iter().map(|b| rate(b, true)).collect()),
            latency_p50_ms: lat_q(0.50, true) * 1e3,
            latency_p90_ms: lat_q(0.90, true) * 1e3,
            latency_p99_ms: quantile(&all, 0.99) * 1e3,
            samples: all.len(),
            cpu_ns_per_row: median(
                full.iter().map(|b| b.cpu_ns as f64 / b.rows as f64 * b.scale()).collect(),
            ),
            setup_s,
            raw_setup_s: setup_s,
            peak_rss_mb,
            raw_rows_per_s: median(full.iter().map(|b| rate(b, false)).collect()),
            raw_latency_p50_ms: lat_q(0.50, false) * 1e3,
            probe_us: median(full.iter().filter_map(|b| b.probe_ns).collect()) / 1e3,
        }
    }

    /// The `end_to_end` metric list, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            m("rows_per_s", self.rows_per_s, "rows/s"),
            m("latency_p50_ms", self.latency_p50_ms, "ms"),
            m("latency_p90_ms", self.latency_p90_ms, "ms"),
            m("cpu_ns_per_row", self.cpu_ns_per_row, "ns"),
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// The per-layer ledger of one traced run. Layers a workload does not
/// pass through read 0.
#[derive(Default)]
pub struct PerLayer {
    /// `sql.parse_us`: parse time of all queries, median over set-ups.
    pub sql_parse_us: f64,
    /// `core.register_us`: registration time of all queries, median.
    pub core_register_us: f64,
    /// `basket.append_ns_per_row`.
    pub basket_append_ns_per_row: f64,
    /// Basket seal time and count from the telemetry snapshot.
    pub counters: Counters,
    /// Timed rounds the counters cover.
    pub steps: u64,
    /// `core.run_until_idle_us`: mean per round.
    pub core_run_until_idle_us: f64,
    /// `core.drain_us`: mean per round (all queries).
    pub core_drain_us: f64,
    /// Fig. 7 split per query, in [`Query::MIX`] order.
    pub splits: [Split; 4],
    /// `core.sched_overhead_us`: mean per round.
    pub core_sched_overhead_us: f64,
    /// Kernel replay means per call (µs): select, group_agg, join, sort, fetch.
    pub kernel_us: [f64; 5],
    /// `net.subscribe_ack_ms`, median over set-ups.
    pub net_subscribe_ack_ms: f64,
    /// `net.write_block_us`: mean per ingest write call.
    pub net_write_block_us: f64,
    /// `NetServer::stats` movement over the timed phase: ingest_rows,
    /// rx_bytes, tx_bytes, fanout_rows, backpressure_ticks,
    /// subscriber_overflows.
    pub net_counts: [f64; 6],
    /// Open-loop sender lateness (ms): max and p99.
    pub gen_late_ms: [f64; 2],
    /// Share of timed wall time outside the recorded spans.
    pub ledger_unattributed_pct: f64,
    /// Tracer cost as a share of timed wall time.
    pub trace_overhead_pct: f64,
    /// Ungated end-to-end figures of the traced run: whole-run p99 (ms),
    /// unscaled throughput (rows/s) and p50 (ms), median probe time (µs).
    pub e2e_extra: [f64; 4],
}

impl PerLayer {
    /// The `per_layer` metric list, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counters;
        let per_step = |n: u64| crate::measure::per(n as f64, self.steps);
        let mut v = vec![
            m("sql.parse_us", self.sql_parse_us, "us"),
            m("core.register_us", self.core_register_us, "us"),
            m("basket.append_ns_per_row", self.basket_append_ns_per_row, "ns"),
            m("basket.seal_s", c.seal_s, "s"),
            m("basket.seals", c.seals, "count"),
            m("core.run_until_idle_us", self.core_run_until_idle_us, "us"),
            m("core.drain_us", self.core_drain_us, "us"),
        ];
        for (q, s) in Query::MIX.iter().zip(&self.splits) {
            let us = |d: Duration| crate::measure::per(d.as_secs_f64() * 1e6, s.slides);
            v.push(m(format!("core.{}.slide_us", q.name()), us(s.total), "us"));
            v.push(m(format!("core.{}.main_plan_us", q.name()), us(s.main_plan), "us"));
            v.push(m(format!("core.{}.merge_us", q.name()), us(s.merge), "us"));
        }
        v.extend([
            m("core.sched_overhead_us", self.core_sched_overhead_us, "us"),
            m("core.worker_busy_s", c.busy_s, "s"),
            m("core.worker_idle_s", c.idle_s, "s"),
            m("core.wake_to_fire_s", c.wake_s, "s"),
            m("kernel.select_us", self.kernel_us[0], "us"),
            m("kernel.group_agg_us", self.kernel_us[1], "us"),
            m("kernel.join_us", self.kernel_us[2], "us"),
            m("kernel.sort_us", self.kernel_us[3], "us"),
            m("kernel.fetch_us", self.kernel_us[4], "us"),
            m("kernel.grouped_agg_par_calls", per_step(c.par.grouped_agg_par_calls), "1/step"),
            m("kernel.sort_par_calls", per_step(c.par.sort_par_calls), "1/step"),
            m("kernel.fetch_par_calls", per_step(c.par.fetch_par_calls), "1/step"),
            m("kernel.merge_concat", per_step(c.par.merge_concat_fast_path), "1/step"),
            m("kernel.merge_regroup", per_step(c.par.merge_regroup_fallback), "1/step"),
            m("kernel.scatter_elided", per_step(c.par.scatter_elided), "1/step"),
            m("net.subscribe_ack_ms", self.net_subscribe_ack_ms, "ms"),
            m("net.write_block_us", self.net_write_block_us, "us"),
        ]);
        let names = [
            "net.ingest_rows",
            "net.rx_bytes",
            "net.tx_bytes",
            "net.fanout_rows",
            "net.backpressure_ticks",
            "net.subscriber_overflows",
        ];
        for (name, value) in names.iter().zip(self.net_counts) {
            v.push(m(*name, value, "count"));
        }
        v.extend([
            m("gen.late_ms_max", self.gen_late_ms[0], "ms"),
            m("gen.late_ms_p99", self.gen_late_ms[1], "ms"),
            m("ledger.unattributed_pct", self.ledger_unattributed_pct, "%"),
            m("trace.overhead_pct", self.trace_overhead_pct, "%"),
            m("e2e.latency_p99_ms", self.e2e_extra[0], "ms"),
            m("e2e.raw_rows_per_s", self.e2e_extra[1], "rows/s"),
            m("e2e.raw_latency_p50_ms", self.e2e_extra[2], "ms"),
            m("host.probe_us", self.e2e_extra[3], "us"),
        ]);
        v
    }
}

/// Everything one run reports.
pub struct Outcome {
    /// No window failed and every property held.
    pub correct: bool,
    /// Window results checked.
    pub attempted: u64,
    /// Window results that failed.
    pub failed: u64,
    /// End-to-end metrics (traced or not).
    pub e2e: EndToEnd,
    /// Per-layer ledger (filled in on traced runs).
    pub layers: PerLayer,
    /// Human-readable notes for the log.
    pub notes: Vec<String>,
}
