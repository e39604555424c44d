//! # oscache-oracle
//!
//! Reference implementations the tests check the production trace passes
//! against, kept out of the production crates:
//!
//! * [`compat`] — the pass-by-pass rewrites (privatization, relocation,
//!   hot-spot insertion, escapes, coloring) that the fused
//!   `TransformPipeline` and the hot-spot plan replaced;
//! * [`deferral`] — an independent deferred-copy reference.
//!
//! `oscache-core` takes this crate as a dev-dependency only, and no
//! production crate depends on it. Because the dependency runs both ways,
//! only `oscache-core`'s integration tests can use it: its unit tests
//! would see a second copy of every `oscache-core` type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compat;
pub mod deferral;

use oscache_trace::{ChunkedStream, ChunkedTrace, Event, HotspotPlan, MergedStream, CHUNK_EVENTS};

/// `trace` with each stream decoded, rewritten by `f(cpu, events)` and
/// re-encoded at the default chunk capacity. The references index into
/// plain event vectors; only this decode/encode pair touches chunks.
fn rewrite_streams(
    trace: &ChunkedTrace,
    mut f: impl FnMut(usize, Vec<Event>) -> Vec<Event>,
) -> ChunkedTrace {
    let streams = trace.streams.iter().enumerate();
    ChunkedTrace {
        streams: streams
            .map(|(cpu, s)| ChunkedStream::from_events(f(cpu, s.iter().collect()), CHUNK_EVENTS))
            .collect(),
        meta: trace.meta.clone(),
    }
}

/// The event streams a replay of `trace` sees with the entries of `hot`
/// from `plan` merged in: every merged chunk, filled by
/// [`MergedStream::try_fill`] exactly as a replay fills its decode
/// windows.
///
/// # Panics
///
/// Panics if the plan does not fit the trace or a chunk cannot be read.
pub fn merged_trace(trace: &ChunkedTrace, plan: &HotspotPlan, hot: &[u16]) -> ChunkedTrace {
    let streams = trace.streams.iter().enumerate().map(|(cpu, stream)| {
        let merged = MergedStream::new(stream, plan, cpu, hot).expect("plan fits the trace");
        let (mut events, mut window) = (Vec::with_capacity(merged.len()), Vec::new());
        for c in 0..merged.n_chunks() {
            merged.try_fill(c, &mut window).expect("chunk decodes");
            events.extend_from_slice(&window);
        }
        ChunkedStream::from_events(events, CHUNK_EVENTS)
    });
    ChunkedTrace {
        streams: streams.collect(),
        meta: trace.meta.clone(),
    }
}
