//! `cqa-testkit`: the generators and helpers the workspace's integration
//! tests share, and the transcript differential.
//!
//! Every generator draws its values in a fixed order from the proptest
//! shim's per-case stream, so a test keeps its inputs case for case as
//! long as the builder it calls does.
//!
//! Only integration tests (`crates/*/tests/`, `tests/`) can use this crate:
//! an in-crate `#[cfg(test)]` module of a crate it depends on would link a
//! second copy of that crate.
//!
//! # The transcript differential
//!
//! `cqa-transcript --seed N --count K` prints [`transcript()`]: every
//! request, body included, and every reply exactly as
//! `Response::write_to` puts it on the wire. To show that a change leaves
//! every reply as it was, build the parent and the change in two
//! checkouts, run both binaries with the same seeds and `diff` the
//! outputs. A change that legitimately moves step counts compares both
//! outputs through `sed 's/ steps=[0-9]*//'` first.

pub mod corpus;
pub mod formula;
pub mod kernel;
mod transcript;
pub mod wire;

pub use transcript::transcript;
