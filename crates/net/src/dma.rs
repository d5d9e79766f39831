//! DMA engine (Section 4.2.2).
//!
//! T3 pre-programs DMA commands at kernel launch (via the address-space
//! configuration, Figure 12) and the Tracker marks them *ready* as the
//! producer and incoming updates complete. The engine then reads the
//! source region through the memory controller's communication stream
//! and pushes it onto the link — no CUs involved.
//!
//! The engine is cycle-stepped and pipelined: while one command's
//! payload serialises on the link, the next command's source read can
//! already be in flight at the memory controller. The read stage is a
//! component of its own ([`DmaReader`]), so an engine that sends over a
//! multi-hop fabric instead of one link reuses it unchanged.

use std::collections::VecDeque;

use crate::link::{Delivery, Link};
use t3_mem::controller::{MemoryController, StreamId};
use t3_sim::config::LinkConfig;
use t3_sim::stats::TrafficClass;
use t3_sim::{min_event, Bytes, Cycle};
use t3_trace::{reborrow, Event, Instruments};

/// A pre-programmed DMA command, marked ready by the Tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCommand {
    /// Caller-chosen identifier carried through to the delivery.
    pub id: u64,
    /// Payload size in bytes.
    pub bytes: Bytes,
    /// Traffic class of the source read at the local memory controller
    /// (e.g. [`TrafficClass::RsRead`] for reduce-scatter chunks).
    pub read_class: TrafficClass,
}

#[derive(Debug, Clone, Copy)]
struct Reading {
    cmd: DmaCommand,
    /// Target value of the serviced-bytes counter for `read_class`
    /// at which the source read is complete.
    target: Bytes,
}

/// The DMA engine's read stage: a command queue and one source read in
/// flight at the memory controller. It hands each command whose payload
/// has been read back to its caller, which puts it on the wire — the
/// engine's own [`Link`], or a multi-hop fabric.
#[derive(Debug, Default)]
pub struct DmaReader {
    queue: VecDeque<DmaCommand>,
    reading: Option<Reading>,
    completed: u64,
}

impl DmaReader {
    /// An idle read stage.
    pub fn new() -> Self {
        DmaReader::default()
    }

    /// Queues a ready command (Tracker trigger). Zero-byte commands are
    /// completed immediately and never touch memory or the wire.
    pub fn trigger(&mut self, cmd: DmaCommand) {
        if cmd.bytes == 0 {
            self.completed += 1;
            return;
        }
        self.queue.push_back(cmd);
    }

    /// Advances the stage one cycle: returns the command whose source
    /// read has completed (its payload is ready to send), and starts the
    /// next queued command's read.
    pub fn step(&mut self, mc: &mut MemoryController) -> Option<DmaCommand> {
        let done = self
            .reading
            .filter(|r| mc.stats().bytes(r.cmd.read_class) >= r.target)
            .map(|r| r.cmd);
        if done.is_some() {
            self.completed += 1;
            self.reading = None;
        }
        if self.reading.is_none() {
            if let Some(cmd) = self.queue.pop_front() {
                // The stage serialises its own reads (one in flight), so
                // the completion target is simply "current serviced
                // count + this command's bytes". The fused engines keep
                // the read class exclusive to DMA source reads.
                let target = mc.stats().bytes(cmd.read_class) + cmd.bytes;
                mc.enqueue(StreamId::Comm, cmd.read_class, cmd.bytes, 1.0);
                self.reading = Some(Reading { cmd, target });
            }
        }
        done
    }

    /// True when no command is queued or reading.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.reading.is_none()
    }

    /// The next cycle strictly after `now` at which stepping this stage
    /// can change state: a completed source read or a queued command
    /// starting its read (both `now + 1`). `None` otherwise — an
    /// in-flight read the memory controller has not finished servicing
    /// reports `None` because the controller itself is busy (it holds
    /// the un-serviced transactions) and already pins `now + 1`.
    pub fn next_event(&self, now: Cycle, mc: &MemoryController) -> Option<Cycle> {
        match self.reading {
            Some(r) if mc.stats().bytes(r.cmd.read_class) >= r.target => Some(now + 1),
            Some(_) => None,
            None => (!self.queue.is_empty()).then_some(now + 1),
        }
    }

    /// Commands whose source read completed, plus zero-byte commands
    /// completed eagerly.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// The DMA engine: a [`DmaReader`] feeding the outbound link.
#[derive(Debug)]
pub struct DmaEngine {
    reader: DmaReader,
    link: Link,
}

impl DmaEngine {
    /// Creates an engine sending over a link with configuration `cfg`.
    pub fn new(cfg: &LinkConfig) -> Self {
        DmaEngine {
            reader: DmaReader::new(),
            link: Link::new(cfg),
        }
    }

    /// Queues a ready command (Tracker trigger). Zero-byte commands are
    /// completed immediately and never touch memory or the link.
    pub fn trigger(&mut self, cmd: DmaCommand) {
        self.reader.trigger(cmd);
    }

    /// Advances the engine one cycle: completes a finished source read
    /// by starting its link transmission, and starts the next queued
    /// command's source read. Returns messages fully delivered to the
    /// neighbour by `now`.
    pub fn step(&mut self, now: Cycle, mc: &mut MemoryController) -> Vec<Delivery> {
        self.step_traced(now, mc, None)
    }

    /// [`DmaEngine::step`] that also records each payload handed to the
    /// link as a [`Event::ChunkSend`] span (the serialiser's busy
    /// interval) plus a [`Event::LinkBusy`] span, and bumps
    /// `dma.chunks_sent` / `dma.bytes_sent`. Passing `None` is
    /// identical to `step`.
    pub fn step_traced(
        &mut self,
        now: Cycle,
        mc: &mut MemoryController,
        mut ins: Option<&mut Instruments>,
    ) -> Vec<Delivery> {
        if let Some(cmd) = self.reader.step(mc) {
            let start = self.link.busy_until().max(now);
            self.link
                .send_traced(now, cmd.id, cmd.bytes, reborrow(&mut ins));
            if let Some(ins) = ins {
                let end = self.link.busy_until();
                ins.record(
                    end,
                    Event::ChunkSend {
                        chunk: cmd.id,
                        bytes: cmd.bytes,
                        hops: 1,
                        start,
                        end,
                    },
                );
                ins.add("dma.chunks_sent", 1);
                ins.add("dma.bytes_sent", cmd.bytes);
            }
        }
        self.link.deliveries_until(now)
    }

    /// Sends `bytes` directly onto the engine's outbound link without a
    /// local memory read, tagged `tag`. Models the fine-grained
    /// peer-to-peer remote stores of T3's warm-up step (Section 4.1):
    /// the producer's stores leave for the neighbour as they are made
    /// and never touch local DRAM. Shares (and serialises with) the
    /// link used by DMA payloads.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn send_direct(&mut self, now: Cycle, tag: u64, bytes: Bytes) {
        self.link.send(now, tag, bytes);
    }

    /// [`DmaEngine::send_direct`] that also records the link busy span.
    /// Passing `None` is identical to `send_direct`.
    pub fn send_direct_traced(
        &mut self,
        now: Cycle,
        tag: u64,
        bytes: Bytes,
        ins: Option<&mut Instruments>,
    ) {
        self.link.send_traced(now, tag, bytes, ins);
    }

    /// True when no command is queued, reading, or on the wire.
    pub fn is_idle(&self, now: Cycle) -> bool {
        self.reader.is_idle() && self.link.is_idle(now)
    }

    /// The next cycle strictly after `now` at which stepping this
    /// engine can change state: the head in-flight link arrival or the
    /// read stage's next event ([`DmaReader::next_event`]).
    pub fn next_event(&self, now: Cycle, mc: &MemoryController) -> Option<Cycle> {
        min_event(self.link.next_event(now), self.reader.next_event(now, mc))
    }

    /// Commands whose payload has been handed to the link (plus
    /// zero-byte commands completed eagerly).
    pub fn sent_commands(&self) -> u64 {
        self.reader.completed()
    }

    /// Total bytes accepted by the link so far.
    pub fn bytes_sent(&self) -> Bytes {
        self.link.total_sent()
    }

    /// The underlying link (for latency/rate queries).
    pub fn link(&self) -> &Link {
        &self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_mem::arbiter::ComputeFirstPolicy;
    use t3_sim::config::SystemConfig;

    fn setup() -> (DmaEngine, MemoryController) {
        let sys = SystemConfig::paper_default();
        let engine = DmaEngine::new(&sys.link);
        let mc = MemoryController::new(&sys.mem, Box::new(ComputeFirstPolicy::new()));
        (engine, mc)
    }

    fn run(engine: &mut DmaEngine, mc: &mut MemoryController, limit: Cycle) -> Vec<Delivery> {
        let mut out = Vec::new();
        let mut now = 0;
        while now < limit && !(engine.is_idle(now) && mc.is_idle()) {
            mc.step(now, None);
            out.extend(engine.step(now, mc));
            now += 1;
        }
        out
    }

    #[test]
    fn command_reads_then_sends_then_delivers() {
        let (mut engine, mut mc) = setup();
        engine.trigger(DmaCommand {
            id: 42,
            bytes: 100_000,
            read_class: TrafficClass::RsRead,
        });
        let deliveries = run(&mut engine, &mut mc, 1_000_000);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].tag, 42);
        assert_eq!(deliveries[0].bytes, 100_000);
        // The source read went through the memory controller.
        assert_eq!(mc.stats().bytes(TrafficClass::RsRead), 100_000);
        assert_eq!(engine.bytes_sent(), 100_000);
    }

    #[test]
    fn delivery_not_before_read_plus_wire_time() {
        let (mut engine, mut mc) = setup();
        let bytes = 1_000_000;
        engine.trigger(DmaCommand {
            id: 1,
            bytes,
            read_class: TrafficClass::RsRead,
        });
        let mut now = 0;
        let arrival = loop {
            mc.step(now, None);
            let d = engine.step(now, &mut mc);
            if !d.is_empty() {
                break now;
            }
            now += 1;
            assert!(now < 100_000_000);
        };
        let wire = engine.link().serialization_cycles(bytes) + engine.link().latency();
        assert!(
            arrival >= wire,
            "arrival {arrival} cannot beat wire time {wire}"
        );
    }

    #[test]
    fn commands_pipeline_in_order() {
        let (mut engine, mut mc) = setup();
        for id in 0..3 {
            engine.trigger(DmaCommand {
                id,
                bytes: 50_000,
                read_class: TrafficClass::RsRead,
            });
        }
        let deliveries = run(&mut engine, &mut mc, 10_000_000);
        let tags: Vec<u64> = deliveries.iter().map(|d| d.tag).collect();
        assert_eq!(tags, vec![0, 1, 2]);
        assert_eq!(engine.sent_commands(), 3);
    }

    #[test]
    fn step_traced_records_chunk_send_and_metrics() {
        let (mut engine, mut mc) = setup();
        engine.trigger(DmaCommand {
            id: 3,
            bytes: 100_000,
            read_class: TrafficClass::RsRead,
        });
        let mut ins = Instruments::full();
        let mut now = 0;
        let mut seen = 0;
        while seen == 0 {
            mc.step(now, None);
            seen += engine.step_traced(now, &mut mc, Some(&mut ins)).len();
            now += 1;
            assert!(now < 100_000_000);
        }
        let tracer = ins.tracer.as_ref().unwrap();
        assert_eq!(
            tracer.count(|e| matches!(e, Event::ChunkSend { bytes: 100_000, .. })),
            1
        );
        assert_eq!(tracer.count(|e| matches!(e, Event::LinkBusy { .. })), 1);
        let metrics = ins.metrics.as_ref().unwrap();
        assert_eq!(metrics.counter("dma.bytes_sent"), 100_000);
        assert_eq!(metrics.counter("link.bytes_sent"), 100_000);
        assert_eq!(metrics.counter("dma.chunks_sent"), 1);
    }

    #[test]
    fn zero_byte_command_completes_eagerly() {
        let (mut engine, _mc) = setup();
        engine.trigger(DmaCommand {
            id: 9,
            bytes: 0,
            read_class: TrafficClass::RsRead,
        });
        assert!(engine.is_idle(0));
        assert_eq!(engine.sent_commands(), 1);
    }

    #[test]
    fn next_event_matches_the_stepped_state_changes() {
        let (mut engine, mut mc) = setup();
        assert_eq!(engine.next_event(0, &mc), None, "idle engine has no events");
        for id in 0..2 {
            engine.trigger(DmaCommand {
                id,
                bytes: 100_000,
                read_class: TrafficClass::RsRead,
            });
        }
        // Queued command: starts its read on the very next step.
        assert_eq!(engine.next_event(0, &mc), Some(1));
        // Step the run to completion, recording every cycle at which
        // the engine observably changed, plus the prediction made right
        // after each step.
        let snapshot = |e: &DmaEngine| {
            (
                e.reader.queue.len(),
                e.reader.reading.is_some(),
                e.sent_commands(),
            )
        };
        let mut changes = Vec::new();
        let mut predictions = Vec::new();
        let mut now = 0;
        while !(engine.is_idle(now) && mc.is_idle()) {
            mc.step(now, None);
            let before = snapshot(&engine);
            let delivered = !engine.step(now, &mut mc).is_empty();
            if snapshot(&engine) != before || delivered {
                changes.push(now);
            }
            predictions.push((now, engine.next_event(now, &mc), mc.is_idle()));
            now += 1;
            assert!(now < 100_000_000);
        }
        assert!(changes.len() >= 4, "reads, sends, and deliveries occurred");
        // Whenever the memory controller was idle (the only situation
        // in which the fast-forward loop leaps), the prediction must be
        // EXACTLY the next cycle the stepped engine changed state.
        let mut checked = 0;
        for (asked, predicted, mc_idle) in predictions {
            if !mc_idle {
                continue;
            }
            let actual = changes.iter().copied().find(|&c| c > asked);
            assert_eq!(
                predicted, actual,
                "prediction after cycle {asked} must match the stepped run"
            );
            checked += 1;
        }
        assert!(checked > 0, "the run must contain idle-controller cycles");
        assert_eq!(engine.next_event(now, &mc), None);
    }

    #[test]
    fn next_event_pinpoints_link_arrival() {
        // After the payload is on the wire and the controller has
        // drained, the only event left is the link arrival — the
        // predicted cycle must be exactly the delivery cycle.
        let (mut engine, mut mc) = setup();
        engine.trigger(DmaCommand {
            id: 7,
            bytes: 50_000,
            read_class: TrafficClass::RsRead,
        });
        let mut now = 0;
        while !(engine.reader.is_idle() && mc.is_idle()) {
            mc.step(now, None);
            engine.step(now, &mut mc);
            now += 1;
            assert!(now < 100_000_000);
        }
        // Payload handed to the link, nothing else pending.
        let predicted = engine
            .next_event(now, &mc)
            .expect("payload still in flight");
        let mut first = None;
        while now <= predicted {
            mc.step(now, None);
            if !engine.step(now, &mut mc).is_empty() {
                first = Some(now);
                break;
            }
            now += 1;
        }
        assert_eq!(first, Some(predicted));
    }

    #[test]
    fn back_to_back_commands_saturate_link() {
        // With large commands the link, not the read path, must be the
        // bottleneck: total time ~ sum of serialisation times.
        let (mut engine, mut mc) = setup();
        let n = 4;
        let bytes = 2_000_000;
        for id in 0..n {
            engine.trigger(DmaCommand {
                id,
                bytes,
                read_class: TrafficClass::RsRead,
            });
        }
        let mut now = 0;
        let mut seen = 0;
        while seen < n as usize {
            mc.step(now, None);
            seen += engine.step(now, &mut mc).len();
            now += 1;
            assert!(now < 100_000_000);
        }
        let ideal = engine.link().serialization_cycles(bytes) * n + engine.link().latency();
        assert!(
            (now as f64) < ideal as f64 * 1.15,
            "link under-utilised: {now} vs ideal {ideal}"
        );
    }
}
