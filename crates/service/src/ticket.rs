//! The consumer half of a submitted request: a [`Ticket`] streams candidates
//! while the request runs and resolves to a [`ServiceOutcome`].
//!
//! A ticket is also its queued request's timer. Every blocking receive
//! waits at most until the request's deadline, then looks at the service —
//! which expires the request, as of its deadline, if it still waits in the
//! queue — and goes on waiting. The look reads the service's clock, so under
//! a simulated clock a wake before the virtual deadline expires nothing.

use crate::request::PriorityClass;
use duoquest_core::{Candidate, SessionControl, SynthesisResult};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Weak;
use std::time::{Duration, Instant};

/// How a request left the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// The run finished on its own: search exhausted or an engine budget
    /// reached — including the configuration's own `time_budget`, which is a
    /// normal completion mode distinct from the request's service deadline.
    Completed,
    /// The request's cancellation token fired — explicitly via
    /// [`Ticket::cancel`], implicitly by dropping the ticket, or because the
    /// service shut down — before the run finished.
    Cancelled,
    /// The request ran past its deadline (or expired while still queued) and
    /// carries the best candidates found up to that point.
    DeadlineExceeded,
}

impl RequestStatus {
    /// Lowercase label used in stats JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            RequestStatus::Completed => "completed",
            RequestStatus::Cancelled => "cancelled",
            RequestStatus::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// The resolution of one request: the ranked result (possibly truncated by a
/// deadline or cancellation) plus serving metadata.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// The ranked candidates and the run's `EnumerationStats`. Empty when the
    /// request was cancelled or expired before it started.
    pub result: SynthesisResult,
    /// How the request left the service.
    pub status: RequestStatus,
    /// Time spent in the admission queue before the run started (the full
    /// wait when the request never started).
    pub queue_wait: Duration,
    /// Time from submission to the first emitted candidate, if any was
    /// emitted — the service's headline latency metric.
    pub time_to_first_candidate: Option<Duration>,
}

/// A live handle on a submitted request.
///
/// Iterate (or call [`Ticket::next_timeout`]) to receive candidates in
/// emission order while the request is running; call [`Ticket::wait`] for the
/// final [`ServiceOutcome`]. **Dropping the ticket cancels the request**: the
/// session's cancellation token fires and the run winds down at its next
/// cooperative check, so an abandoned consumer never leaks enumeration work.
/// Cancellation never perturbs other requests — their emission order is
/// byte-identical either way.
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) priority: PriorityClass,
    pub(crate) control: SessionControl,
    pub(crate) candidates: Receiver<Candidate>,
    pub(crate) outcome: Receiver<ServiceOutcome>,
    /// Back-reference to the service, to cancel the request there and to
    /// look at its queue once the deadline passes (weak: tickets may outlive
    /// the service).
    pub(crate) shared: Weak<crate::Shared>,
    pub(crate) received: Option<ServiceOutcome>,
}

impl Ticket {
    /// The request's service-assigned id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's priority class.
    pub fn priority(&self) -> PriorityClass {
        self.priority
    }

    /// Cancel the request: fires the cancellation token (the engine stops at
    /// its next cooperative check, mid-round if necessary). A request still
    /// waiting in the admission queue is discarded without ever starting.
    /// Idempotent.
    pub fn cancel(&self) {
        if let Some(shared) = self.shared.upgrade() {
            shared.cancel(self.id);
        }
        self.control.cancel();
    }

    /// Whether the request's cancellation token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.control.is_cancelled()
    }

    /// Receive the next candidate, waiting up to `timeout`. `None` on timeout
    /// or once the candidate stream has ended.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<Candidate> {
        self.recv(&self.candidates, Some(timeout))
    }

    /// Non-blocking poll for the outcome: `Some` once the request has
    /// resolved. The outcome is retained, so a later [`Ticket::wait`] still
    /// returns it.
    pub fn try_wait(&mut self) -> Option<&ServiceOutcome> {
        if self.received.is_none() {
            if self.until_deadline() == Some(Duration::ZERO) {
                self.look();
            }
            self.received = self.outcome.try_recv().ok();
        }
        self.received.as_ref()
    }

    /// Whether the request has resolved (non-blocking).
    pub fn is_finished(&mut self) -> bool {
        self.try_wait().is_some()
    }

    /// Block until the request resolves and return its outcome. Candidates
    /// not consumed through the ticket are still reflected in
    /// [`ServiceOutcome::result`].
    ///
    /// # Panics
    ///
    /// Panics if the request's session itself panicked mid-round
    /// (a bug in a guidance model or verifier). The service survives such a
    /// request — its live slot is freed and queued work is promoted; the
    /// pool workers are unharmed — but there is no outcome to deliver for
    /// it.
    pub fn wait(mut self) -> ServiceOutcome {
        if self.received.is_none() {
            self.received = self.recv(&self.outcome, None);
        }
        self.received.take().expect("service driver vanished without delivering an outcome")
    }

    /// Time left until the request's deadline on the service's clock; `None`
    /// without a deadline or once the service is gone.
    fn until_deadline(&self) -> Option<Duration> {
        let deadline = self.control.deadline()?;
        Some(deadline.saturating_duration_since(self.shared.upgrade()?.clock.now()))
    }

    /// Look at the service's queue: taking its lock expires every queued
    /// request whose deadline has passed, this one included.
    fn look(&self) {
        if let Some(shared) = self.shared.upgrade() {
            drop(shared.lock_state());
        }
    }

    /// Receive from one of the ticket's channels within `limit` (`None`: no
    /// limit), acting as the request's timer: the wait is cut at the
    /// deadline for one [`Ticket::look`], then goes on.
    fn recv<T>(&self, rx: &Receiver<T>, limit: Option<Duration>) -> Option<T> {
        let started = Instant::now();
        if let Some(due) = self.until_deadline().filter(|&due| limit.is_none_or(|l| due < l)) {
            match rx.recv_timeout(due) {
                Err(RecvTimeoutError::Timeout) => self.look(),
                received => return received.ok(),
            }
        }
        match limit {
            None => rx.recv().ok(),
            Some(limit) => rx.recv_timeout(limit.saturating_sub(started.elapsed())).ok(),
        }
    }
}

impl Iterator for Ticket {
    type Item = Candidate;

    /// Blocks until the next candidate is emitted; `None` once the request
    /// has resolved (or was cancelled).
    fn next(&mut self) -> Option<Candidate> {
        self.recv(&self.candidates, None)
    }
}

impl Drop for Ticket {
    /// Dropping the ticket cancels the request (see the struct docs). For a
    /// request that already resolved this is a no-op beyond one look at the
    /// queue.
    fn drop(&mut self) {
        self.cancel();
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .field("cancelled", &self.control.is_cancelled())
            .finish()
    }
}
