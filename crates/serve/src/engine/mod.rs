//! The simulation engine: the event queue, the slab arena and the
//! batched arrival streams the event loop runs on.
//!
//! `sim.rs` owns the *semantics* of a serving simulation — what an
//! arrival, an ingest or a migration means. This module owns the
//! *mechanics* that make replaying millions of them cheap:
//!
//! - [`queue::EventQueue`] — a calendar-queue priority queue replacing
//!   the original `BinaryHeap`, popping events in exact global
//!   `(time, push-order)` order (the same-timestamp contract every
//!   golden trace digest depends on) with amortized `O(1)` bucket
//!   operations instead of `O(log n)` sifts.
//! - [`slab::Slab`] — a `u32`-handle arena for in-flight request state,
//!   so queue nodes carry 4-byte handles instead of ~120-byte payloads
//!   and the steady-state loop recycles slots instead of allocating.
//! - [`arrivals::ArrivalSource`] — per-tenant batched arrival
//!   generation; the inner loop consumes a buffered `f64` instead of
//!   running the thinning sampler inline.
//!
//! The simulator is **analytic**: a stage's duration is priced in
//! closed form when it starts and its completion is scheduled into the
//! [`queue::EventQueue`], so nothing steps cycle by cycle between
//! events. See `docs/ARCHITECTURE.md` for the full narrative.

pub mod arrivals;
pub mod queue;
pub mod slab;

pub use arrivals::ArrivalSource;
pub use queue::EventQueue;
pub use slab::{Handle, Slab};
