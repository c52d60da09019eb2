//! Deterministic chaos injection for the serving tier.
//!
//! The serving seam ([`crate::serve`]) models queueing, shedding and
//! deadlines, but a well-behaved queue is still a fantasy transport: real
//! wires drop, duplicate, reorder, truncate and stall frames, and real
//! services crash holding requests. This module supplies the fault model —
//! the *machinery that survives it* (idempotent request ids, service-side
//! dedup, retransmission, hedging, crash recovery) lives in
//! [`crate::serve`].
//!
//! A [`ChaosPlan`] is the crate's one fault [`Schedule`] keyed by 1-based
//! **wire frame indices**. Every transmission the client attempts — request
//! frames and reply frames alike — consumes one index from the shared cursor
//! of the armed schedule (a [`ChaosState`]), so a plan names exact frames
//! ("the 12th frame on this wire is dropped") and a run with the same plan
//! injects exactly the same faults. Plans come from three places:
//!
//! * [`Schedule::seeded`] — pseudo-random schedules from a seed, the chaos
//!   harness's bread and butter;
//! * builder methods ([`drop_at`](ChaosPlan::drop_at) …) — hand-written
//!   regression schedules;
//! * [`ChaosPlan::from_spec`] — parsed from a compact `"12:drop,40:stall"`
//!   string, the format `dwc chaos --chaos-plan` prints so a failing
//!   schedule can be replayed from the command line.
//!
//! When a seeded schedule breaks an invariant,
//! [`shrink_plan`](crate::schedule::shrink_plan) ddmin-shrinks it to a
//! minimal failing subset — the smallest set of frame faults that still
//! reproduces the failure — which is what gets printed and archived.
//!
//! The invariants the harness checks against any plan (see `tests/chaos.rs`):
//!
//! 1. **Crawl parity** — the crawl report is bit-identical to the fault-free
//!    run with the same crawl seed: chaos is fully absorbed below the
//!    `respond()` seam.
//! 2. **Billing conservation** — `rounds_used` equals `executed + shed +
//!    cancelled + retransmitted`: every frame that reached the service is
//!    billed exactly once, dropped request frames bill nothing.
//! 3. **Replay parity** — service reports still fold deterministically from
//!    their recorded event streams.

use crate::schedule::{Armed, Schedule};
use std::fmt;
use std::time::Duration;

/// One kind of injected fault, attached to a single wire frame.
///
/// The same kind means different things on a *request* frame (client →
/// service) and a *reply* frame (service → client); both readings are
/// documented per variant. Frames are allocated in pairs per transmission
/// attempt: first the request frame, then the reply frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChaosKind {
    /// The frame vanishes. Request: never reaches the service, bills
    /// nothing, the client retransmits. Reply: the request was executed and
    /// billed, the client retransmits and is served from the dedup cache.
    Drop,
    /// The frame arrives twice. Request: a duplicate job with the same
    /// request id is enqueued (billed, dedup-served, never re-executed).
    /// Reply: the duplicate is discarded by the client; tallied only.
    Duplicate,
    /// The frame is delayed behind later traffic by the reorder window.
    Reorder,
    /// The frame is truncated in transit. Request: fails service-side
    /// framing and is discarded — observably a drop. Reply: the client's
    /// checksum rejects it and it retransmits; the intact frame is served
    /// from the dedup cache.
    Corrupt,
    /// The frame is held for the wire's stall delay
    /// ([`ChaosState::stall_for`]) before delivery. This is the fault
    /// hedging exists for.
    Stall,
    /// The link carrying the frame goes down. Same observable as [`Drop`]
    /// (the frame is lost); tallied separately.
    Disconnect,
    /// The worker holding this frame's request crashes. Before execution:
    /// the request is billed cancelled and the retransmit re-executes.
    /// After execution (reply frame): the outcome survives in the dedup
    /// cache and the retransmit is served from it — exactly-once holds
    /// across the crash.
    Crash,
    /// The whole service halts permanently: every later transmission fails
    /// unbilled. The crash-recovery harness resumes the crawl from its last
    /// checkpoint against a fresh service.
    Halt,
}

impl ChaosKind {
    /// Every kind, in spec order.
    pub const ALL: [ChaosKind; 8] = [
        ChaosKind::Drop,
        ChaosKind::Duplicate,
        ChaosKind::Reorder,
        ChaosKind::Corrupt,
        ChaosKind::Stall,
        ChaosKind::Disconnect,
        ChaosKind::Crash,
        ChaosKind::Halt,
    ];

    /// The spec-string token for this kind (`"drop"`, `"stall"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosKind::Drop => "drop",
            ChaosKind::Duplicate => "dup",
            ChaosKind::Reorder => "reorder",
            ChaosKind::Corrupt => "corrupt",
            ChaosKind::Stall => "stall",
            ChaosKind::Disconnect => "disconnect",
            ChaosKind::Crash => "crash",
            ChaosKind::Halt => "halt",
        }
    }

    /// Parses a spec-string token. Accepts exactly what
    /// [`as_str`](ChaosKind::as_str) produces.
    pub fn parse(token: &str) -> Option<ChaosKind> {
        ChaosKind::ALL.into_iter().find(|k| k.as_str() == token)
    }
}

impl fmt::Display for ChaosKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A deterministic fault schedule: 1-based wire-frame index → fault. Frame 1
/// is the first transmission on the wire.
pub type ChaosPlan = Schedule<ChaosKind>;

impl ChaosPlan {
    /// Schedules a [`ChaosKind::Drop`] on frame `frame`.
    pub fn drop_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Drop)
    }

    /// Schedules a [`ChaosKind::Duplicate`] on frame `frame`.
    pub fn duplicate_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Duplicate)
    }

    /// Schedules a [`ChaosKind::Corrupt`] on frame `frame`.
    pub fn corrupt_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Corrupt)
    }

    /// Schedules a [`ChaosKind::Stall`] on frame `frame`.
    pub fn stall_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Stall)
    }

    /// Schedules a [`ChaosKind::Crash`] on frame `frame`.
    pub fn crash_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Crash)
    }

    /// Schedules a [`ChaosKind::Halt`] on frame `frame`.
    pub fn halt_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Halt)
    }

    /// Renders the plan as the compact spec `dwc chaos --chaos-plan`
    /// accepts: `"12:drop,40:stall"`, frames in order. Empty plans render
    /// as an empty string.
    pub fn to_spec(&self) -> String {
        self.iter().map(|(frame, kind)| format!("{frame}:{kind}")).collect::<Vec<_>>().join(",")
    }

    /// Parses a spec produced by [`to_spec`](ChaosPlan::to_spec). Whitespace
    /// around entries is tolerated; an empty string is the empty plan.
    pub fn from_spec(spec: &str) -> Result<Self, ChaosSpecError> {
        let mut plan = ChaosPlan::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let parsed = entry.split_once(':').and_then(|(frame, kind)| {
                let frame = frame.trim().parse::<u64>().ok().filter(|&f| f > 0)?;
                Some((frame, ChaosKind::parse(kind.trim())?))
            });
            let (frame, kind) = parsed.ok_or_else(|| ChaosSpecError { entry: entry.to_owned() })?;
            plan = plan.at(frame, kind);
        }
        Ok(plan)
    }
}

/// A spec entry [`ChaosPlan::from_spec`] could not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpecError {
    /// The offending `frame:kind` entry, verbatim.
    pub entry: String,
}

impl fmt::Display for ChaosSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad chaos spec entry {:?} (want FRAME:KIND, e.g. 12:drop)", self.entry)
    }
}

impl std::error::Error for ChaosSpecError {}

/// How long the chaos wire holds a frame hit by a timed fault. Set through
/// [`ChaosState::stall_for`] and [`ChaosState::reorder_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireDelays {
    stall: Duration,
    reorder: Duration,
}

impl Default for WireDelays {
    fn default() -> Self {
        WireDelays { stall: Duration::from_millis(2), reorder: Duration::from_micros(200) }
    }
}

/// A [`ChaosPlan`] armed on a wire: the frame cursor, the fired-fault
/// counters and the wire's delays. One `Arc<ChaosState>` per service under
/// test — the cursor is global across the client pool, which is what makes
/// plan indices mean "the N-th transmission anywhere on this wire".
pub type ChaosState = Armed<ChaosKind, WireDelays>;

impl ChaosState {
    /// Sets how long [`ChaosKind::Stall`] holds a frame (default 2 ms).
    pub fn stall_for(mut self, stall: Duration) -> Self {
        self.extra.stall = stall;
        self
    }

    /// Sets how far [`ChaosKind::Reorder`] delays a frame (default 200 µs).
    pub fn reorder_for(mut self, reorder: Duration) -> Self {
        self.extra.reorder = reorder;
        self
    }

    /// How long stalled frames sit on the wire.
    pub(crate) fn stall(&self) -> Duration {
        self.extra.stall
    }

    /// How far reordered frames slip.
    pub(crate) fn reorder(&self) -> Duration {
        self.extra.reorder
    }

    /// Whether a [`ChaosKind::Halt`] fired: the service is gone for good.
    pub fn is_halted(&self) -> bool {
        self.count(ChaosKind::Halt) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_and_rejects_garbage() {
        let plan = ChaosPlan::new().drop_at(12).stall_at(40).at(7, ChaosKind::Disconnect);
        let spec = plan.to_spec();
        assert_eq!(spec, "7:disconnect,12:drop,40:stall");
        assert_eq!(ChaosPlan::from_spec(&spec).unwrap(), plan);
        assert_eq!(ChaosPlan::from_spec("").unwrap(), ChaosPlan::new());
        assert_eq!(ChaosPlan::from_spec(" 3:crash , 9:halt ").unwrap().len(), 2);
        assert!(ChaosPlan::from_spec("12").is_err());
        assert!(ChaosPlan::from_spec("x:drop").is_err());
        assert!(ChaosPlan::from_spec("12:sneeze").is_err());
        assert!(ChaosPlan::from_spec("0:drop").is_err(), "frames are 1-based");
        for kind in ChaosKind::ALL {
            assert_eq!(ChaosKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn state_allocates_frames_and_tallies_faults() {
        let state = ChaosState::new(ChaosPlan::new().drop_at(2).crash_at(3).halt_at(4));
        assert_eq!(state.next(), (1, None));
        assert_eq!(state.next(), (2, Some(ChaosKind::Drop)));
        assert_eq!(state.next(), (3, Some(ChaosKind::Crash)));
        assert_eq!(state.seen(), 3);
        assert!(!state.is_halted());
        assert_eq!(state.next(), (4, Some(ChaosKind::Halt)));
        let tally = state.tally();
        assert_eq!(tally.count(ChaosKind::Drop), 1);
        assert_eq!(tally.count(ChaosKind::Crash), 1);
        assert_eq!(tally.count(ChaosKind::Stall), 0);
        assert!(state.is_halted());
        assert_eq!(tally.total(), 3);
    }

    #[test]
    fn state_delays_default_and_override() {
        let state = ChaosState::new(ChaosPlan::new().stall_at(5));
        assert_eq!(
            (state.stall(), state.reorder()),
            (Duration::from_millis(2), Duration::from_micros(200))
        );
        let state =
            state.stall_for(Duration::from_millis(7)).reorder_for(Duration::from_micros(50));
        assert_eq!(
            (state.stall(), state.reorder()),
            (Duration::from_millis(7), Duration::from_micros(50))
        );
    }
}
