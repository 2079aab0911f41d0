//! Single-phase simulators: the paper's `simu_prefill` and `simu_decode`.
//!
//! Algorithm 1 evaluates candidate parallelism configurations for each
//! phase *in isolation*: the prefill simulator measures TTFT attainment of
//! a prefill-only instance under Poisson arrivals; the decoding simulator
//! measures TPOT attainment of a decoding-only instance that receives KV
//! caches for free (the other phase is assumed elsewhere and ideal). Both
//! read the engine's [`SimConfig`] and reuse its pipeline-occupancy model,
//! batching policies and KV-pool rule, so phase-level estimates are
//! consistent with the full-system simulator.

use std::collections::VecDeque;

use distserve_engine::batching::{PrefillItem, PrefillQueue};
use distserve_engine::kvcache::BLOCK_TOKENS;
use distserve_engine::pipeline::Pipeline;
use distserve_engine::{KvBlockManager, SimConfig};
use distserve_models::{CostModel, DecodeBatch, GpuSpec, ParallelismConfig, PrefillBatch};
use distserve_simcore::{EventQueue, SimTime, Summary};
use distserve_telemetry::{metrics, Event, LifecycleEvent, Slice, TelemetrySink, NOOP};
use distserve_workload::{RequestId, Trace};

/// Emits one request lifecycle event into `sink` at sim time `t`.
fn emit(sink: &dyn TelemetrySink, id: RequestId, t: SimTime, kind: LifecycleEvent) {
    sink.event(Event {
        request: id.0,
        tenant: 0,
        time_s: t.as_secs(),
        kind,
    });
}

/// Fraction of requests in `trace` meeting `ttft_slo` when served by one
/// prefill-only instance with parallelism `par` (the paper's
/// `simu_prefill`).
#[must_use]
pub fn prefill_attainment(
    cost: &dyn CostModel,
    cfg: &SimConfig,
    par: ParallelismConfig,
    trace: &Trace,
    ttft_slo: f64,
) -> f64 {
    let s = prefill_ttfts(cost, cfg, par, trace);
    if s.is_empty() {
        return 0.0;
    }
    s.fraction_at_most(ttft_slo)
}

/// Per-request TTFTs of a prefill-only instance (the figure harnesses
/// plot percentiles of this).
#[must_use]
pub fn prefill_ttfts(
    cost: &dyn CostModel,
    cfg: &SimConfig,
    par: ParallelismConfig,
    trace: &Trace,
) -> Summary {
    prefill_ttfts_with_sink(cost, cfg, par, trace, &NOOP)
}

/// [`prefill_ttfts`] with telemetry routed into `sink`: lifecycle events
/// per request and one `"prefill"` slice per batch on track 0.
#[must_use]
pub fn prefill_ttfts_with_sink(
    cost: &dyn CostModel,
    cfg: &SimConfig,
    par: ParallelismConfig,
    trace: &Trace,
    sink: &dyn TelemetrySink,
) -> Summary {
    let mut out = Summary::new();
    if sink.enabled() {
        sink.declare_track(0, &format!("phase-sim prefill {par}"));
    }
    if trace.is_empty() {
        return out;
    }
    #[derive(Debug)]
    enum Ev {
        Arrive(usize),
        Free,
        Done(Vec<(RequestId, SimTime)>),
    }
    let mut queue = PrefillQueue::new(cfg.l_m);
    let mut pipeline = Pipeline::new(par.pp);
    let mut events: EventQueue<Ev> = EventQueue::new();
    let requests = trace.requests();
    // Arrivals enter the queue one at a time, as `ServingSim`'s do.
    let first = events.reserve_seqs(requests.len());
    events.push_reserved(requests[0].arrival, first, Ev::Arrive(0));
    let mut done = 0usize;
    while done < trace.len() {
        let Some((now, ev)) = events.pop() else {
            unreachable!("prefill simulation cannot stall");
        };
        match ev {
            Ev::Arrive(i) => {
                if let Some(next) = requests.get(i + 1) {
                    events.push_reserved(next.arrival, first + i as u64 + 1, Ev::Arrive(i + 1));
                }
                let r = &requests[i];
                emit(sink, r.id, now, LifecycleEvent::Arrived);
                emit(sink, r.id, now, LifecycleEvent::PrefillQueued);
                queue.push(PrefillItem {
                    id: r.id,
                    input_len: r.input_len,
                });
                queue.emit_depth(sink, 0);
            }
            Ev::Free | Ev::Done(_) => {}
        }
        if let Ev::Done(members) = ev {
            for (id, arrival) in members {
                done += 1;
                emit(sink, id, now, LifecycleEvent::PrefillEnd);
                emit(sink, id, now, LifecycleEvent::Finished);
                out.record(now.since(arrival));
            }
        }
        // Launch as long as stage 0 is free and work is queued.
        while pipeline.stage0_free_at(now) {
            let Some(batch) = queue.form_batch(|_| true) else {
                break;
            };
            let lens: Vec<u32> = batch.iter().map(|b| b.input_len).collect();
            let batch_tokens: u64 = lens.iter().map(|&l| u64::from(l)).sum();
            let stage_time = cost
                .prefill_stage_time(&cfg.arch, par, &PrefillBatch::new(lens))
                .total();
            let commit = pipeline.commit(now, stage_time);
            let members: Vec<(RequestId, SimTime)> = batch
                .iter()
                .map(|b| (b.id, requests[b.id.0 as usize].arrival))
                .collect();
            for (id, _) in &members {
                emit(sink, *id, commit.start, LifecycleEvent::PrefillStart);
            }
            sink.slice(Slice {
                track: 0,
                name: "prefill",
                start_s: commit.start.as_secs(),
                end_s: commit.done.as_secs(),
                batch: u32::try_from(members.len()).unwrap_or(u32::MAX),
                tokens: u32::try_from(batch_tokens).unwrap_or(u32::MAX),
            });
            sink.counter_add(metrics::PREFILL_BATCHES, 0, 1);
            sink.counter_add(metrics::PREFILL_TOKENS, 0, batch_tokens);
            sink.observe(metrics::BATCH_SIZE, 0, members.len() as f64);
            // Re-publish depth after the batch drained the queue so the
            // exported gauge can fall back to zero, not just rise.
            queue.emit_depth(sink, 0);
            events.push(commit.done, Ev::Done(members));
            events.push(commit.stage0_free, Ev::Free);
        }
    }
    out
}

/// Fraction of requests in `trace` meeting `tpot_slo` when decoded by one
/// decoding-only instance with parallelism `par` on `gpu`s, KV caches
/// arriving for free at the request's arrival instant (the paper's
/// `simu_decode`).
///
/// Single-token requests never reach a decoding instance and are counted
/// as trivially meeting the SLO (TPOT zero).
#[must_use]
pub fn decode_attainment(
    cost: &dyn CostModel,
    cfg: &SimConfig,
    gpu: &GpuSpec,
    par: ParallelismConfig,
    trace: &Trace,
    tpot_slo: f64,
) -> f64 {
    let s = decode_tpots(cost, cfg, gpu, par, trace);
    if s.is_empty() {
        return 0.0;
    }
    s.fraction_at_most(tpot_slo)
}

/// Per-request TPOTs of a decoding-only instance on `gpu`s. A
/// configuration whose weight shard does not fit returns an empty
/// summary. Single-token requests record a TPOT of zero.
#[must_use]
pub fn decode_tpots(
    cost: &dyn CostModel,
    cfg: &SimConfig,
    gpu: &GpuSpec,
    par: ParallelismConfig,
    trace: &Trace,
) -> Summary {
    decode_tpots_with_sink(cost, cfg, gpu, par, trace, &NOOP)
}

/// [`decode_tpots`] with telemetry routed into `sink`: lifecycle events
/// per decoded request and one `"decode"` slice per iteration on track 0.
#[must_use]
pub fn decode_tpots_with_sink(
    cost: &dyn CostModel,
    cfg: &SimConfig,
    gpu: &GpuSpec,
    par: ParallelismConfig,
    trace: &Trace,
    sink: &dyn TelemetrySink,
) -> Summary {
    let mut out = Summary::new();
    if trace.is_empty() {
        return out;
    }
    if sink.enabled() {
        sink.declare_track(0, &format!("phase-sim decode {par}"));
    }
    #[derive(Debug)]
    enum Ev {
        Arrive(usize),
        Free,
        Done(usize, Vec<usize>),
    }
    struct Slot {
        arrival: SimTime,
        input_len: u32,
        output_len: u32,
        generated: u32,
    }
    // KV pool sized as the engine sizes an instance's.
    let pool = par.kv_pool_bytes(&cfg.arch, gpu, cfg.mem_margin);
    if pool == 0 {
        return out;
    }
    let mut kv = KvBlockManager::from_bytes(pool, cfg.arch.kv_bytes_per_token(), BLOCK_TOKENS);

    let mut slots: Vec<Slot> = trace
        .requests()
        .iter()
        .map(|r| Slot {
            arrival: r.arrival,
            input_len: r.input_len,
            output_len: r.output_len,
            generated: 1,
        })
        .collect();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); par.pp as usize];
    let mut busy = vec![false; par.pp as usize];
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut pipeline = Pipeline::new(par.pp);
    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut done = 0usize;
    let mut next_group = 0usize;

    for r in trace.requests() {
        if r.output_len <= 1 {
            // Never decoded: trivially meets TPOT.
            out.record(0.0);
            done += 1;
        }
    }
    // Decoded arrivals enter the queue one at a time, as `ServingSim`'s
    // do: the first at or after index `from` is pushed under its
    // reserved number.
    let requests = trace.requests();
    let first = events.reserve_seqs(requests.len());
    let push_arrival = |events: &mut EventQueue<Ev>, from: usize| {
        if let Some(i) = (from..requests.len()).find(|&i| requests[i].output_len > 1) {
            events.push_reserved(requests[i].arrival, first + i as u64, Ev::Arrive(i));
        }
    };
    push_arrival(&mut events, 0);

    let admit = |kv: &mut KvBlockManager,
                 groups: &mut Vec<Vec<usize>>,
                 slots: &[Slot],
                 i: usize,
                 max_batch: usize|
     -> bool {
        let total = slots[i].input_len + slots[i].output_len;
        let smallest = groups
            .iter_mut()
            .filter(|g| g.len() < max_batch)
            .min_by_key(|g| g.len());
        let Some(group) = smallest else { return false };
        if kv.alloc(RequestId(i as u64), total).is_err() {
            return false;
        }
        group.push(i);
        true
    };

    while done < trace.len() {
        let Some((now, ev)) = events.pop() else {
            unreachable!("decode simulation cannot stall");
        };
        match ev {
            Ev::Arrive(i) => {
                push_arrival(&mut events, i + 1);
                emit(sink, RequestId(i as u64), now, LifecycleEvent::Arrived);
                // FCFS admission: join only behind earlier waiters.
                if waiting.is_empty()
                    && admit(&mut kv, &mut groups, &slots, i, cfg.max_decode_batch)
                {
                    emit(sink, RequestId(i as u64), now, LifecycleEvent::DecodeQueued);
                } else {
                    waiting.push_back(i);
                }
            }
            Ev::Free => {}
            Ev::Done(g, members) => {
                busy[g] = false;
                for &i in &members {
                    slots[i].generated += 1;
                    emit(
                        sink,
                        RequestId(i as u64),
                        now,
                        LifecycleEvent::DecodeStep {
                            generated: slots[i].generated,
                        },
                    );
                    if slots[i].generated >= slots[i].output_len {
                        kv.free(RequestId(i as u64)).expect("allocated");
                        groups[g].retain(|m| *m != i);
                        done += 1;
                        emit(sink, RequestId(i as u64), now, LifecycleEvent::Finished);
                        sink.counter_add(metrics::REQUESTS_FINISHED, 0, 1);
                        let span = now.since(slots[i].arrival);
                        out.record(span / f64::from(slots[i].output_len - 1));
                    }
                }
                sink.counter_add(metrics::DECODE_TOKENS, 0, members.len() as u64);
                sink.gauge_set(metrics::KV_UTILIZATION, 0, kv.utilization());
                // Drain waiters into freed capacity, FCFS.
                while let Some(&head) = waiting.front() {
                    if admit(&mut kv, &mut groups, &slots, head, cfg.max_decode_batch) {
                        emit(
                            sink,
                            RequestId(head as u64),
                            now,
                            LifecycleEvent::DecodeQueued,
                        );
                        waiting.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
        // Launch ready groups while stage 0 is free.
        while pipeline.stage0_free_at(now) {
            let n = groups.len();
            let mut chosen = None;
            for off in 0..n {
                let g = (next_group + off) % n;
                if !busy[g] && !groups[g].is_empty() {
                    chosen = Some(g);
                    break;
                }
            }
            let Some(g) = chosen else { break };
            next_group = (g + 1) % n;
            busy[g] = true;
            let members = groups[g].clone();
            let contexts: Vec<u32> = members
                .iter()
                .map(|&i| slots[i].input_len + slots[i].generated)
                .collect();
            let stage_time = cost
                .decode_stage_time(&cfg.arch, par, &DecodeBatch::new(contexts))
                .total();
            let commit = pipeline.commit(now, stage_time);
            sink.slice(Slice {
                track: 0,
                name: "decode",
                start_s: commit.start.as_secs(),
                end_s: commit.done.as_secs(),
                batch: u32::try_from(members.len()).unwrap_or(u32::MAX),
                tokens: u32::try_from(members.len()).unwrap_or(u32::MAX),
            });
            sink.counter_add(metrics::DECODE_BATCHES, 0, 1);
            sink.observe(metrics::BATCH_SIZE, 0, members.len() as f64);
            events.push(commit.done, Ev::Done(g, members));
            events.push(commit.stage0_free, Ev::Free);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSource;
    use distserve_models::{OptModel, RooflineModel};
    use distserve_workload::datasets::FixedLengths;

    fn cfg13b() -> SimConfig {
        SimConfig::new(OptModel::Opt13B.arch())
    }

    fn a100() -> GpuSpec {
        GpuSpec::a100_80g()
    }

    fn fixed() -> FixedLengths {
        FixedLengths {
            input_len: 512,
            output_len: 64,
        }
    }

    #[test]
    fn prefill_attainment_decreases_with_rate() {
        let cost = RooflineModel::a100();
        let cfg = cfg13b();
        let par = ParallelismConfig::SINGLE;
        let low = fixed().make_trace(2.0, 200, 1);
        let high = fixed().make_trace(14.0, 200, 1);
        let a_low = prefill_attainment(&cost, &cfg, par, &low, 0.2);
        let a_high = prefill_attainment(&cost, &cfg, par, &high, 0.2);
        assert!(a_low > 0.9, "low-rate attainment {a_low}");
        assert!(a_high < 0.5, "overloaded attainment {a_high}");
    }

    #[test]
    fn prefill_tp_helps_tight_slo() {
        // §3.1: intra-op parallelism reduces execution time, meeting
        // tighter TTFT SLOs at the same rate.
        let cost = RooflineModel::a100();
        let cfg = cfg13b();
        let trace = fixed().make_trace(6.0, 200, 2);
        let tight = 0.1;
        let a1 = prefill_attainment(&cost, &cfg, ParallelismConfig::new(1, 1), &trace, tight);
        let a2 = prefill_attainment(&cost, &cfg, ParallelismConfig::new(2, 1), &trace, tight);
        assert!(a2 > a1, "tp2 {a2} should beat tp1 {a1}");
    }

    #[test]
    fn decode_attainment_high_at_moderate_rate() {
        let cost = RooflineModel::a100();
        let cfg = cfg13b();
        let trace = fixed().make_trace(8.0, 200, 3);
        let a = decode_attainment(&cost, &cfg, &a100(), ParallelismConfig::SINGLE, &trace, 0.1);
        assert!(a > 0.9, "decode attainment {a}");
    }

    #[test]
    fn decode_attainment_fails_impossible_slo() {
        let cost = RooflineModel::a100();
        let cfg = cfg13b();
        let trace = fixed().make_trace(1.0, 50, 4);
        // A 13B decoding step takes ≥ 15 ms; 1 ms TPOT is unattainable.
        let a = decode_attainment(
            &cost,
            &cfg,
            &a100(),
            ParallelismConfig::SINGLE,
            &trace,
            0.001,
        );
        assert!(a < 0.05, "impossible SLO attained {a}");
    }

    #[test]
    fn decode_oversized_model_scores_zero() {
        let cost = RooflineModel::a100();
        let cfg = SimConfig::new(OptModel::Opt175B.arch());
        let trace = fixed().make_trace(1.0, 20, 5);
        let a = decode_attainment(&cost, &cfg, &a100(), ParallelismConfig::SINGLE, &trace, 1.0);
        assert_eq!(a, 0.0);
    }

    #[test]
    fn single_token_requests_trivially_met() {
        let cost = RooflineModel::a100();
        let cfg = cfg13b();
        let single = FixedLengths {
            input_len: 128,
            output_len: 1,
        };
        let trace = single.make_trace(5.0, 50, 6);
        let a = decode_attainment(
            &cost,
            &cfg,
            &a100(),
            ParallelismConfig::SINGLE,
            &trace,
            1e-9,
        );
        assert_eq!(a, 1.0);
    }

    #[test]
    fn phase_sims_emit_valid_telemetry() {
        let cost = RooflineModel::a100();
        let cfg = cfg13b();
        let par = ParallelismConfig::SINGLE;
        let trace = fixed().make_trace(4.0, 40, 7);

        let rec = distserve_telemetry::Recorder::new();
        let plain = prefill_ttfts(&cost, &cfg, par, &trace);
        let recorded = prefill_ttfts_with_sink(&cost, &cfg, par, &trace, &rec);
        assert_eq!(plain.samples(), recorded.samples());
        let snap = rec.snapshot();
        assert_eq!(snap.lifecycles().len(), 40);
        for lc in snap.lifecycles().values() {
            lc.validate().unwrap();
        }
        assert!(snap.slices.iter().all(|s| s.name == "prefill"));
        assert_eq!(
            snap.metrics
                .counter(distserve_telemetry::metrics::PREFILL_TOKENS, 0),
            40 * 512
        );

        let rec = distserve_telemetry::Recorder::new();
        let plain = decode_tpots(&cost, &cfg, &a100(), par, &trace);
        let recorded = decode_tpots_with_sink(&cost, &cfg, &a100(), par, &trace, &rec);
        assert_eq!(plain.samples(), recorded.samples());
        let snap = rec.snapshot();
        for lc in snap.lifecycles().values() {
            lc.validate().unwrap();
        }
        assert!(snap.slices.iter().all(|s| s.name == "decode"));
        assert_eq!(
            snap.metrics
                .counter(distserve_telemetry::metrics::REQUESTS_FINISHED, 0),
            40
        );
    }

    #[test]
    fn empty_trace_scores_zero() {
        let cost = RooflineModel::a100();
        let cfg = cfg13b();
        let empty = Trace::default();
        assert_eq!(
            prefill_attainment(&cost, &cfg, ParallelismConfig::SINGLE, &empty, 1.0),
            0.0
        );
        assert_eq!(
            decode_attainment(&cost, &cfg, &a100(), ParallelismConfig::SINGLE, &empty, 1.0),
            0.0
        );
    }
}
