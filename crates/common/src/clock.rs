//! Unified clock: one trait for every way the engine observes time.
//!
//! Every time-dependent behaviour in the engine — retry backoff, lease
//! TTL/lapse, epoch and task watchdogs, PID admission timing, trigger
//! loops, standby polling, bounded-topic blocking — reads time and
//! sleeps through a [`Clock`] so that tests can substitute a
//! [`SimClock`] and run hours of failure schedules in milliseconds of
//! wall time, deterministically.
//!
//! * [`SystemClock`] — the production clock: `Instant` for monotonic
//!   readings, `SystemTime` for wall readings, `thread::sleep` for
//!   sleeping.
//! * [`SimClock`] — a seeded virtual clock in the FoundationDB
//!   simulation style. Sleeps park the caller on a waiter queue; when
//!   every *registered* thread is blocked on the clock, virtual time
//!   jumps to the earliest pending deadline and exactly one waiter is
//!   released. Same-instant waiters are serialized in an order drawn
//!   from the seed, so a single seed fully determines the interleaving
//!   of timers, backoffs, lease lapses and watchdog firings.
//!
//! Threads participating in a simulation register with
//! [`SimClock::enter`]; the guard keeps the clock from advancing while
//! the thread is runnable. Unregistered threads may still sleep on the
//! clock (their sleeps complete when the registered set is idle), but
//! determinism is only guaranteed for schedules where every concurrent
//! participant is registered — or, the common case, where one test
//! thread drives the whole system.

use crate::rng::XorShift64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How the engine observes time. Implementations must be cheap to call
/// and safe to share across threads.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Monotonic microseconds since an arbitrary, fixed origin. Never
    /// decreases; unrelated to the wall clock.
    fn monotonic_us(&self) -> u64;

    /// Wall-clock microseconds since the Unix epoch. Used for event
    /// timestamps and watermark arithmetic, never for measuring
    /// durations.
    fn wall_us(&self) -> i64;

    /// Block the calling thread for `d` — virtual time under a
    /// [`SimClock`], real time otherwise. A zero duration returns
    /// immediately.
    fn sleep(&self, d: Duration);

    /// True when this clock runs on virtual time. Call sites with a
    /// blocking primitive that a virtual clock cannot see (condvars,
    /// channel timeouts) branch on this to fall back to clock-polled
    /// waits.
    fn is_virtual(&self) -> bool {
        false
    }

    /// A monotonic deadline `d` from now.
    fn deadline_us(&self, d: Duration) -> u64 {
        self.monotonic_us()
            .saturating_add(duration_us(d))
    }

    /// Register the calling thread as a simulation participant for the
    /// guard's lifetime: while it lives, virtual time must not advance
    /// unless the thread is parked on the clock. A no-op guard on real
    /// clocks. Worker threads executing tasks between clock calls hold
    /// one so the simulation cannot fast-forward "under" their compute.
    fn enter_scope(&self) -> Participation {
        Participation(None)
    }

    /// Pin virtual time without binding to a thread: while the pin
    /// lives the clock must not auto-advance. Unlike [`enter_scope`],
    /// the pin may be created on one thread and dropped on another —
    /// it covers a task from enqueue until the worker that picks it up
    /// registers itself. A no-op guard on real clocks.
    ///
    /// [`enter_scope`]: Clock::enter_scope
    fn pin(&self) -> Participation {
        Participation(None)
    }

    /// Sleep up to `total`, checking `interrupted` at least once per
    /// `poll`; returns true the moment `interrupted` does. The unit of
    /// promptness for stop-aware waits: a stop request is honoured
    /// within one poll interval.
    fn sleep_interruptible(
        &self,
        total: Duration,
        poll: Duration,
        interrupted: &dyn Fn() -> bool,
    ) -> bool {
        let deadline = self.deadline_us(total);
        let poll = if poll.is_zero() {
            Duration::from_millis(1)
        } else {
            poll
        };
        loop {
            if interrupted() {
                return true;
            }
            let now = self.monotonic_us();
            if now >= deadline {
                return false;
            }
            let remaining = Duration::from_micros(deadline - now);
            self.sleep(remaining.min(poll));
        }
    }
}

/// Shared handle to a clock; what engine configs carry.
pub type ClockRef = Arc<dyn Clock>;

/// RAII token from [`Clock::enter_scope`] / [`Clock::pin`]: empty for
/// real clocks, a registration or hold on the waiter bookkeeping for
/// virtual ones.
pub struct Participation(Option<Box<dyn std::any::Any + Send>>);

impl std::fmt::Debug for Participation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Participation")
            .field(&self.0.is_some())
            .finish()
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The production clock: real monotonic and wall time, real sleeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

fn monotonic_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

impl Clock for SystemClock {
    fn monotonic_us(&self) -> u64 {
        monotonic_origin().elapsed().as_micros() as u64
    }

    fn wall_us(&self) -> i64 {
        crate::time::now_us()
    }

    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// The process-wide [`SystemClock`] handle — the default for every
/// engine config that takes a [`ClockRef`].
pub fn system_clock() -> ClockRef {
    static CLOCK: OnceLock<ClockRef> = OnceLock::new();
    CLOCK.get_or_init(|| Arc::new(SystemClock)).clone()
}

/// A deterministic stepping test clock: every **wall** reading advances
/// the counter by a fixed step (a step of zero freezes it), so code
/// that measures intervals wall-read-to-wall-read sees each measured
/// span take exactly `step` per read — the classic way to make every
/// epoch "look slow" to an admission controller without sleeping.
///
/// Monotonic readings report the same counter without advancing it, and
/// sleeps advance it by the slept duration and return immediately, so
/// backoffs and deadline polls complete instantly but still move time.
#[derive(Debug, Clone)]
pub struct StepClock {
    inner: Arc<StepInner>,
}

#[derive(Debug)]
struct StepInner {
    now_us: std::sync::atomic::AtomicI64,
    step_us: i64,
}

impl StepClock {
    /// A stepping clock starting at `start_us` whose wall readings
    /// advance `step_us` per read.
    pub fn new(start_us: i64, step_us: i64) -> StepClock {
        StepClock {
            inner: Arc::new(StepInner {
                now_us: std::sync::atomic::AtomicI64::new(start_us),
                step_us,
            }),
        }
    }

    /// A clock frozen at `at_us`: every reading returns it, sleeps
    /// still advance it.
    pub fn frozen(at_us: i64) -> StepClock {
        StepClock::new(at_us, 0)
    }

    /// This clock as a shared [`ClockRef`].
    pub fn handle(&self) -> ClockRef {
        Arc::new(self.clone())
    }

    /// Current counter value without stepping it.
    pub fn now_us(&self) -> i64 {
        self.inner.now_us.load(Ordering::SeqCst)
    }

    /// Set the counter to an absolute value (drives scripted scenarios
    /// where each phase happens at a known processing time).
    pub fn set_us(&self, at_us: i64) {
        self.inner.now_us.store(at_us, Ordering::SeqCst);
    }
}

impl Clock for StepClock {
    fn monotonic_us(&self) -> u64 {
        self.inner.now_us.load(Ordering::SeqCst).max(0) as u64
    }

    fn wall_us(&self) -> i64 {
        self.inner
            .now_us
            .fetch_add(self.inner.step_us, Ordering::SeqCst)
    }

    fn sleep(&self, d: Duration) {
        let us = i64::try_from(duration_us(d)).unwrap_or(i64::MAX);
        self.inner.now_us.fetch_add(us, Ordering::SeqCst);
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

/// Virtual wall origin for [`SimClock`]: 2023-11-14T22:13:20Z. A fixed,
/// recognizably-fake date so simulated timestamps never collide with
/// real ones in mixed logs.
pub const SIM_WALL_ORIGIN_US: i64 = 1_700_000_000_000_000;

#[derive(Debug)]
struct Waiter {
    id: u64,
    wake_at_us: u64,
    /// Seed-derived tiebreak: same-instant waiters release in the order
    /// of their draws, so the seed — not OS scheduling — decides.
    tiebreak: u64,
    registered: bool,
    woken: bool,
}

#[derive(Debug)]
struct SimState {
    now_us: u64,
    rng: XorShift64,
    /// Registered threads currently runnable (entered, not parked on
    /// the clock). While > 0 the clock must not advance: a runnable
    /// thread may still act at the current instant.
    running: usize,
    /// Waiters released but not yet resumed; advancing past them would
    /// let a later timer overtake an earlier one.
    pending: usize,
    waiters: Vec<Waiter>,
    next_waiter_id: u64,
    /// Total auto-advances performed (observability for harnesses).
    advances: u64,
}

#[derive(Debug)]
struct SimInner {
    uid: u64,
    state: Mutex<SimState>,
    cvar: Condvar,
}

/// A seeded, auto-advancing virtual clock.
///
/// Time never passes on its own: it jumps forward only when every
/// registered thread is parked on the clock (or, with no registrations,
/// whenever anyone sleeps), always to the earliest pending deadline,
/// releasing exactly one waiter per jump. Sleeps therefore complete
/// "instantly" in wall terms while the virtual clock records the full
/// schedule — and the schedule is a pure function of the seed and the
/// sequence of clock calls.
#[derive(Debug, Clone)]
pub struct SimClock {
    inner: Arc<SimInner>,
}

thread_local! {
    /// Clock uids the current thread has entered (a stack, to allow
    /// nested guards).
    static ENTERED: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

static NEXT_CLOCK_UID: AtomicU64 = AtomicU64::new(1);

/// Registration token from [`SimClock::enter`]: while alive, the
/// current thread counts as a simulation participant and virtual time
/// cannot advance unless it is parked on the clock.
pub struct SimGuard {
    inner: Arc<SimInner>,
}

impl Drop for SimGuard {
    fn drop(&mut self) {
        ENTERED.with(|e| {
            let mut e = e.borrow_mut();
            if let Some(pos) = e.iter().rposition(|&uid| uid == self.inner.uid) {
                e.remove(pos);
            }
        });
        let mut state = self.inner.state.lock().unwrap();
        state.running -= 1;
        SimClock::try_advance(&mut state);
        self.inner.cvar.notify_all();
    }
}

/// Thread-agnostic hold from [`SimClock::hold`]: counts as a runnable
/// participant (blocking auto-advance) until dropped, on any thread.
pub struct SimHold {
    inner: Arc<SimInner>,
}

impl Drop for SimHold {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap();
        state.running -= 1;
        SimClock::try_advance(&mut state);
        self.inner.cvar.notify_all();
    }
}

impl SimClock {
    /// A virtual clock at monotonic 0 / wall [`SIM_WALL_ORIGIN_US`],
    /// with the waiter-ordering stream seeded by `seed`.
    pub fn new(seed: u64) -> SimClock {
        SimClock {
            inner: Arc::new(SimInner {
                uid: NEXT_CLOCK_UID.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(SimState {
                    now_us: 0,
                    rng: XorShift64::new(seed),
                    running: 0,
                    pending: 0,
                    waiters: Vec::new(),
                    next_waiter_id: 0,
                    advances: 0,
                }),
                cvar: Condvar::new(),
            }),
        }
    }

    /// Share this clock as a [`ClockRef`].
    pub fn handle(&self) -> ClockRef {
        Arc::new(self.clone())
    }

    /// Register the current thread as a simulation participant until
    /// the guard drops. Spawned threads that compute between clock
    /// calls must register, or the clock may advance "under" them.
    pub fn enter(&self) -> SimGuard {
        ENTERED.with(|e| e.borrow_mut().push(self.inner.uid));
        let mut state = self.inner.state.lock().unwrap();
        state.running += 1;
        drop(state);
        SimGuard {
            inner: self.inner.clone(),
        }
    }

    /// Pin virtual time from any thread: the clock will not
    /// auto-advance while the hold lives. Covers windows where work is
    /// in flight but not yet running on a registered thread (a task
    /// sitting in a worker queue).
    pub fn hold(&self) -> SimHold {
        self.inner.state.lock().unwrap().running += 1;
        SimHold {
            inner: self.inner.clone(),
        }
    }

    /// Manually advance virtual time by `d`, releasing every waiter
    /// whose deadline falls within the jump. For single-threaded tests
    /// that step time explicitly (lease TTL matrices and the like).
    pub fn advance(&self, d: Duration) {
        let mut state = self.inner.state.lock().unwrap();
        state.now_us = state.now_us.saturating_add(duration_us(d));
        let now = state.now_us;
        // Release in deterministic (deadline, tiebreak) order even
        // though they all wake at the same new instant.
        loop {
            let due = state
                .waiters
                .iter_mut()
                .filter(|w| !w.woken && w.wake_at_us <= now)
                .min_by_key(|w| (w.wake_at_us, w.tiebreak, w.id));
            match due {
                Some(w) => {
                    w.woken = true;
                    let registered = w.registered;
                    state.pending += 1;
                    if registered {
                        state.running += 1;
                    }
                }
                None => break,
            }
        }
        self.inner.cvar.notify_all();
    }

    /// Current virtual monotonic reading (same as `monotonic_us`, for
    /// call sites holding the concrete type).
    pub fn now_us(&self) -> u64 {
        self.inner.state.lock().unwrap().now_us
    }

    /// How many times the clock auto-advanced.
    pub fn advances(&self) -> u64 {
        self.inner.state.lock().unwrap().advances
    }

    /// How many sleepers are currently parked on the clock. Harnesses
    /// use this to sequence thread startup deterministically (spawn the
    /// next participant only once the previous one is parked).
    pub fn waiting(&self) -> usize {
        self.inner.state.lock().unwrap().waiters.len()
    }

    fn thread_entered(&self) -> bool {
        ENTERED.with(|e| e.borrow().contains(&self.inner.uid))
    }

    /// If nothing registered is runnable and no released waiter is
    /// still resuming, jump to the earliest deadline and release that
    /// one waiter.
    fn try_advance(state: &mut SimState) {
        if state.running > 0 || state.pending > 0 {
            return;
        }
        let Some(next) = state
            .waiters
            .iter_mut()
            .filter(|w| !w.woken)
            .min_by_key(|w| (w.wake_at_us, w.tiebreak, w.id))
        else {
            return;
        };
        let wake_at = next.wake_at_us;
        next.woken = true;
        let registered = next.registered;
        if wake_at > state.now_us {
            state.now_us = wake_at;
        }
        state.pending += 1;
        if registered {
            state.running += 1;
        }
        state.advances += 1;
    }
}

impl Clock for SimClock {
    fn monotonic_us(&self) -> u64 {
        self.inner.state.lock().unwrap().now_us
    }

    fn wall_us(&self) -> i64 {
        SIM_WALL_ORIGIN_US.saturating_add(self.monotonic_us() as i64)
    }

    fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let registered = self.thread_entered();
        let mut state = self.inner.state.lock().unwrap();
        let id = state.next_waiter_id;
        state.next_waiter_id += 1;
        let tiebreak = state.rng.next_u64();
        let wake_at_us = state.now_us.saturating_add(duration_us(d));
        if registered {
            state.running -= 1;
        }
        state.waiters.push(Waiter {
            id,
            wake_at_us,
            tiebreak,
            registered,
            woken: false,
        });
        loop {
            Self::try_advance(&mut state);
            if let Some(pos) = state.waiters.iter().position(|w| w.id == id && w.woken) {
                state.waiters.remove(pos);
                state.pending -= 1;
                // A resumed unregistered sleeper no longer blocks the
                // next release; a registered one re-entered `running`
                // when it was woken, so this is a no-op for it.
                Self::try_advance(&mut state);
                self.inner.cvar.notify_all();
                return;
            }
            self.inner.cvar.notify_all();
            state = self.inner.cvar.wait(state).unwrap();
        }
    }

    fn is_virtual(&self) -> bool {
        true
    }

    fn enter_scope(&self) -> Participation {
        Participation(Some(Box::new(self.enter())))
    }

    fn pin(&self) -> Participation {
        Participation(Some(Box::new(self.hold())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn system_clock_is_monotonic_and_sleeps() {
        let c = SystemClock;
        let a = c.monotonic_us();
        c.sleep(Duration::from_millis(2));
        let b = c.monotonic_us();
        assert!(b >= a + 1_000, "sleep(2ms) advanced {}us", b - a);
        assert!(c.wall_us() > 1_600_000_000_000_000, "wall is post-2020");
        assert!(!c.is_virtual());
    }

    #[test]
    fn step_clock_steps_wall_reads_and_absorbs_sleeps() {
        let step = StepClock::new(0, 100_000);
        assert_eq!(step.wall_us(), 0);
        assert_eq!(step.wall_us(), 100_000);
        // Monotonic reads observe without stepping.
        assert_eq!(step.monotonic_us(), 200_000);
        assert_eq!(step.monotonic_us(), 200_000);
        // Sleeps advance instantly by the slept duration.
        let wall = Instant::now();
        step.sleep(Duration::from_secs(60));
        assert_eq!(step.now_us(), 60_200_000);
        assert!(wall.elapsed() < Duration::from_secs(5));
        assert!(step.is_virtual());
        // Clones share the counter; frozen clocks never step on reads.
        let frozen = StepClock::frozen(42);
        assert_eq!(frozen.wall_us(), 42);
        assert_eq!(frozen.clone().wall_us(), 42);
    }

    #[test]
    fn sim_sleep_advances_instantly() {
        let sim = SimClock::new(7);
        let wall = Instant::now();
        sim.sleep(Duration::from_secs(3600));
        assert_eq!(sim.monotonic_us(), 3_600_000_000);
        assert_eq!(sim.wall_us(), SIM_WALL_ORIGIN_US + 3_600_000_000);
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "an hour of virtual sleep must not take wall time"
        );
        assert!(sim.is_virtual());
    }

    #[test]
    fn sim_advance_releases_due_waiters() {
        let sim = SimClock::new(1);
        let _guard = sim.enter(); // driver registered: no auto-advance
        let remote = sim.clone();
        let released = Arc::new(AtomicUsize::new(0));
        let seen = released.clone();
        let t = std::thread::spawn(move || {
            remote.sleep(Duration::from_millis(50));
            seen.fetch_add(1, Ordering::SeqCst);
        });
        // The driver is registered and runnable, so the sleeper stays
        // parked until time is stepped explicitly.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(released.load(Ordering::SeqCst), 0);
        sim.advance(Duration::from_millis(49));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(released.load(Ordering::SeqCst), 0, "49ms < 50ms deadline");
        sim.advance(Duration::from_millis(1));
        t.join().unwrap();
        assert_eq!(released.load(Ordering::SeqCst), 1);
        assert_eq!(sim.now_us(), 50_000);
    }

    #[test]
    fn sim_auto_advance_serializes_same_instant_waiters_by_seed() {
        // Two registered sleepers park at the *same* virtual deadline;
        // the release order is decided by the seed-derived tiebreak, so
        // it is stable per seed and varies across seeds.
        let order_for = |seed: u64| -> Vec<&'static str> {
            let sim = SimClock::new(seed);
            let driver = sim.enter();
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for name in ["a", "b"] {
                let (remote, log) = (sim.clone(), order.clone());
                handles.push(std::thread::spawn(move || {
                    let _g = remote.enter();
                    remote.sleep(Duration::from_millis(10));
                    log.lock().unwrap().push(name);
                }));
                // Sequence the tiebreak draws: spawn the next sleeper
                // only once this one is parked.
                while sim.waiting() < handles.len() {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            // All participants parked: releasing the driver lets the
            // clock jump and drain the queue in tiebreak order.
            drop(driver);
            for h in handles {
                h.join().unwrap();
            }
            let order = order.lock().unwrap().clone();
            order
        };
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16 {
            let first = order_for(seed);
            assert_eq!(first, order_for(seed), "seed {seed} must replay identically");
            seen.insert(first);
        }
        assert_eq!(seen.len(), 2, "both orders should appear across seeds");
    }

    #[test]
    fn sim_interruptible_sleep_honours_interrupt_and_deadline() {
        let sim = SimClock::new(3);
        // Never interrupted: runs the full duration.
        assert!(!sim.sleep_interruptible(
            Duration::from_millis(100),
            Duration::from_millis(10),
            &|| false
        ));
        assert_eq!(sim.now_us(), 100_000);
        // Interrupted immediately: no time passes.
        assert!(sim.sleep_interruptible(
            Duration::from_secs(60),
            Duration::from_millis(10),
            &|| true
        ));
        assert_eq!(sim.now_us(), 100_000);
        // Interrupted after the first poll: at most one interval burns.
        let polls = AtomicUsize::new(0);
        assert!(sim.sleep_interruptible(
            Duration::from_secs(60),
            Duration::from_millis(10),
            &|| polls.fetch_add(1, Ordering::SeqCst) >= 1
        ));
        assert_eq!(sim.now_us(), 110_000);
    }

    #[test]
    fn deadline_us_matches_monotonic_plus_duration() {
        let sim = SimClock::new(0);
        sim.advance(Duration::from_micros(500));
        assert_eq!(sim.deadline_us(Duration::from_micros(200)), 700);
    }
}
