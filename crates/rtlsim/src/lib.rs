//! RT-level simulation substrate: an event-driven kernel with signals,
//! processes and delta cycles, plus a stage-level model of the source
//! core.
//!
//! Table 2 of the paper compares the translation approach against "an RT
//! level simulation of the TriCore processor core on a workstation" —
//! the slow baseline that motivates the whole system. We reproduce that
//! baseline with the same simulation *mechanism* an HDL simulator uses:
//!
//! * [`kernel`] — signals with current/next values, processes with
//!   sensitivity lists, delta-cycle convergence, and an explicit clock.
//! * [`core`] — the source processor modelled as communicating
//!   processes over signals (fetch and execute stages, pipeline
//!   registers, architectural register file as 32 signals), executing
//!   real ELF images instruction-for-instruction compatibly with the
//!   golden model.
//!
//! The model's *wall-clock* cost per instruction — dozens of signal
//! updates and process wake-ups — is what regenerates the orders-of-
//! magnitude gap in Table 2.

pub mod core;
pub mod kernel;

pub use crate::core::{RtlCore, RtlError};
pub use kernel::{Kernel, KernelState, ProcId, SignalId};
