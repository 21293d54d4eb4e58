//! Thread-based actor runtime with supervision and failure injection.
//!
//! MegaScale-Data is built as a set of long-lived actors (Source Loaders,
//! Data Constructors, the Planner) exchanging messages — the paper deploys
//! them on Ray. This crate is the Rust substrate playing Ray's role:
//!
//! - [`actor`]: the [`actor::Actor`] trait and typed [`actor::ActorRef`]
//!   handles with `tell`/`ask` semantics (ask carries an RPC timeout, which
//!   is also the failure-detection mechanism the paper describes). The
//!   handle also injects failures for the fault-tolerance tests:
//!   [`actor::ActorRef::inject_crash`] crashes an actor remotely and
//!   [`actor::ActorRef::inject_delay`] stalls its mailbox.
//! - [`system`]: [`system::ActorSystem`] spawning plain or *supervised*
//!   actors; supervised actors are restarted from a factory after a panic,
//!   like Ray's restartable actors backed by the GCS.
//! - [`gcs`]: a Global Control Store analogue: named registry plus a state
//!   blackboard actors checkpoint into and recover from.

// The zero-copy data plane makes many historical clones dead; keep new
// ones from creeping in (ci.sh runs clippy with -D warnings).
#![warn(clippy::redundant_clone)]

pub mod actor;
pub mod gcs;
pub mod system;

pub use actor::{Actor, ActorRef, AskError, Ctx, PendingReply};
pub use gcs::{FaultRecord, Gcs};
pub use system::{ActorSystem, RestartPolicy};
