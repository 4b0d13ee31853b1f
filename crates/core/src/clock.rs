//! Virtual time for deterministic simulation.
//!
//! Every wall-clock read in the synthesis stack — session deadlines,
//! per-stage verification timings, the service layer's submit-anchored
//! deadlines, queue waits and time-to-first-candidate metric — goes through
//! the [`Clock`] trait instead of calling [`Instant::now`] directly.
//! Production code uses [`SystemClock`] (a zero-cost wrapper over the real
//! monotonic clock); the deterministic simulation harness (`crates/dst`)
//! substitutes a [`SimClock`] whose time only moves when the test driver
//! calls [`SimClock::advance`] — so deadline cliffs and queued-request
//! expiry can be driven reproducibly.
//!
//! The design deliberately keeps [`Instant`] as the time *type*: a simulated
//! "now" is the clock's base instant plus an advanced offset, so deadlines
//! stored as `Option<Instant>` (e.g. in
//! [`SessionControl`](crate::SessionControl)) work unchanged under either
//! clock. A clock is only read, never waited on: a timed wait elsewhere
//! only wakes its waiter, and whoever decides that a deadline has passed
//! reads the clock to decide it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of monotonic time. Implemented by [`SystemClock`] (real time)
/// and [`SimClock`] (virtual time under manual control).
pub trait Clock: Send + Sync {
    /// The current instant according to this clock.
    fn now(&self) -> Instant;
}

/// The real monotonic clock: [`Clock::now`] is [`Instant::now`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// The system clock as a static, for borrow-scoped contexts that need a
/// `&dyn Clock` default without an allocation.
pub static SYSTEM_CLOCK: SystemClock = SystemClock;

/// A shareable, owned clock handle. `Arc<SimClock>` and `Arc<SystemClock>`
/// both coerce to this.
pub type SharedClock = Arc<dyn Clock>;

/// A fresh [`SharedClock`] over the real monotonic clock.
pub fn system_clock() -> SharedClock {
    Arc::new(SystemClock)
}

/// A virtual clock under manual control: time is a microsecond offset from a
/// fixed base instant and only moves when [`SimClock::advance`] is called.
///
/// Cheap to share (`Arc<SimClock>` coerces to [`SharedClock`]); the test
/// driver keeps the concrete handle to advance time while the stack under
/// test sees only the trait.
///
/// ```
/// use duoquest_core::clock::{Clock, SimClock};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let clock = Arc::new(SimClock::new());
/// let t0 = clock.now();
/// clock.advance(Duration::from_secs(5));
/// assert_eq!(clock.now().duration_since(t0), Duration::from_secs(5));
/// ```
pub struct SimClock {
    base: Instant,
    offset_us: AtomicU64,
}

impl SimClock {
    /// A simulated clock at offset zero (its base is the real instant of
    /// construction, but real time never moves it afterwards).
    pub fn new() -> Self {
        SimClock { base: Instant::now(), offset_us: AtomicU64::new(0) }
    }

    /// Jump simulated time forward by `by` (truncated to microseconds).
    pub fn advance(&self, by: Duration) {
        self.offset_us.fetch_add(by.as_micros() as u64, Ordering::AcqRel);
    }

    /// Total simulated time elapsed since construction.
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(self.offset_us.load(Ordering::Acquire))
    }

    /// The clock's base instant — virtual time zero. Anchoring a request
    /// trace here puts every recorded span offset directly on the simulated
    /// timeline (`offset == virtual microseconds since the run began`),
    /// which is what the simulation harness's trace oracles compare against.
    pub fn base(&self) -> Instant {
        self.base
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::new()
    }
}

impl Clock for SimClock {
    fn now(&self) -> Instant {
        self.base + Duration::from_micros(self.offset_us.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_only_moves_on_advance() {
        let clock = SimClock::new();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now(), t0, "real time must not move a simulated clock");
        clock.advance(Duration::from_millis(7));
        assert_eq!(clock.now().duration_since(t0), Duration::from_millis(7));
        assert_eq!(clock.elapsed(), Duration::from_millis(7));
        assert_eq!(clock.now().duration_since(clock.base()), Duration::from_millis(7));
    }

    #[test]
    fn system_clock_tracks_real_time() {
        let clock = SystemClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
