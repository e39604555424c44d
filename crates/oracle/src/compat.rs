//! The original pass-by-pass rewrites, kept as the equivalence oracle for
//! `oscache_core::transform::TransformPipeline`: each function decodes
//! every stream into a `Vec<Event>` and re-encodes it once per pass, which
//! is exactly the cost the fused pipeline removes. The
//! `pipeline_matches_*` tests pin output equality event-for-event.
//! `colorable` is the coloring pass's own definition of the placeable
//! classes, restated here.

use crate::rewrite_streams;
use oscache_core::transform::{
    private_copy_addr, RelocationMap, COLOR_BASE_PAGE, HOIST_LIMIT, LOOP_AHEAD,
};
use oscache_trace::{Addr, ChunkedTrace, DataClass, Event, WORD_SIZE};
use std::collections::{HashMap, HashSet};

/// Classes whose pages the allocator may place freely (dynamically
/// allocated data: page frames, buffer-cache buffers, user pages).
fn colorable(class: DataClass) -> bool {
    matches!(
        class,
        DataClass::PageFrame | DataClass::BufferCache | DataClass::UserData | DataClass::UserStack
    )
}

/// Oracle for the privatization stage (`TransformPipeline::privatize`).
pub fn privatize_counters(trace: &ChunkedTrace, targets: &[Addr]) -> ChunkedTrace {
    let index: HashMap<u32, usize> = targets
        .iter()
        .enumerate()
        .map(|(i, a)| (a.0 & !(WORD_SIZE - 1), i))
        .collect();
    let n_cpus = trace.n_cpus();
    rewrite_streams(trace, |cpu, events| {
        let mut new = Vec::with_capacity(events.len());
        let mut i = 0;
        while i < events.len() {
            match events[i] {
                Event::Read { addr, class } => {
                    let w = addr.0 & !(WORD_SIZE - 1);
                    if let Some(&idx) = index.get(&w) {
                        if let Some(Event::Write { addr: wa, .. }) = events.get(i + 1) {
                            if wa.0 & !(WORD_SIZE - 1) == w {
                                let p = private_copy_addr(idx, cpu);
                                new.push(Event::Read { addr: p, class });
                                new.push(Event::Write { addr: p, class });
                                i += 2;
                                continue;
                            }
                        }
                        for c in 0..n_cpus {
                            new.push(Event::Read {
                                addr: private_copy_addr(idx, c),
                                class,
                            });
                        }
                        i += 1;
                        continue;
                    }
                    new.push(events[i]);
                }
                Event::Write { addr, class } => {
                    let w = addr.0 & !(WORD_SIZE - 1);
                    if let Some(&idx) = index.get(&w) {
                        new.push(Event::Write {
                            addr: private_copy_addr(idx, cpu),
                            class,
                        });
                        i += 1;
                        continue;
                    }
                    new.push(events[i]);
                }
                e => new.push(e),
            }
            i += 1;
        }
        new
    })
}

/// Oracle for the relocation stage (`TransformPipeline::relocate`).
pub fn relocate(trace: &ChunkedTrace, map: &RelocationMap) -> ChunkedTrace {
    let remap = |a: Addr| map.lookup(a).unwrap_or(a);
    rewrite_streams(trace, |_, events| {
        events
            .into_iter()
            .map(|e| match e {
                Event::Read { addr, class } => Event::Read {
                    addr: remap(addr),
                    class,
                },
                Event::Write { addr, class } => Event::Write {
                    addr: remap(addr),
                    class,
                },
                Event::Prefetch { addr, class } => Event::Prefetch {
                    addr: remap(addr),
                    class,
                },
                Event::LockAcquire { lock, addr } => Event::LockAcquire {
                    lock,
                    addr: remap(addr),
                },
                Event::LockRelease { lock, addr } => Event::LockRelease {
                    lock,
                    addr: remap(addr),
                },
                Event::Barrier {
                    barrier,
                    addr,
                    participants,
                } => Event::Barrier {
                    barrier,
                    addr: remap(addr),
                    participants,
                },
                other => other,
            })
            .collect()
    })
}

/// Oracle for the hot-spot stage (`transform::build_hotspot_plan`, whose
/// plan a replay merges into its decode windows).
pub fn insert_hotspot_prefetches(trace: &ChunkedTrace, hot_sites: &[u16]) -> ChunkedTrace {
    let hot: HashSet<u16> = hot_sites.iter().copied().collect();
    rewrite_streams(trace, |_, events| {
        // insertions[i] = prefetches to emit immediately before event i.
        let mut insertions: HashMap<usize, Vec<Event>> = HashMap::new();
        let mut cur_site: Option<u16> = None;
        let mut site_is_loop = false;
        let mut in_blockop = false;
        let mut recent_lines: Vec<u32> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match *e {
                Event::Exec { block } => {
                    let bb = trace.meta.code.block(block);
                    if cur_site != Some(bb.site.0) {
                        cur_site = Some(bb.site.0);
                        site_is_loop = trace.meta.code.site(bb.site).is_loop;
                        recent_lines.clear();
                    }
                }
                Event::BlockOpBegin { .. } => in_blockop = true,
                Event::BlockOpEnd => in_blockop = false,
                Event::Read { addr, class }
                    if !in_blockop && cur_site.map(|s| hot.contains(&s)).unwrap_or(false) =>
                {
                    let line = addr.0 & !15;
                    if recent_lines.contains(&line) {
                        continue;
                    }
                    recent_lines.push(line);
                    if recent_lines.len() > 16 {
                        recent_lines.remove(0);
                    }
                    if site_is_loop {
                        insertions.entry(i).or_default().push(Event::Prefetch {
                            addr: addr.offset(LOOP_AHEAD),
                            class,
                        });
                        insertions
                            .entry(i)
                            .or_default()
                            .push(Event::Prefetch { addr, class });
                    } else {
                        let mut j = i;
                        let mut hoisted = 0;
                        while j > 0 && hoisted < HOIST_LIMIT {
                            match events[j - 1] {
                                Event::LockAcquire { .. }
                                | Event::LockRelease { .. }
                                | Event::Barrier { .. }
                                | Event::BlockOpBegin { .. }
                                | Event::BlockOpEnd
                                | Event::SetMode { .. }
                                | Event::Idle { .. } => break,
                                _ => {
                                    j -= 1;
                                    hoisted += 1;
                                }
                            }
                        }
                        insertions
                            .entry(j)
                            .or_default()
                            .push(Event::Prefetch { addr, class });
                    }
                }
                _ => {}
            }
        }
        let mut new = Vec::with_capacity(events.len() + insertions.len());
        for (i, e) in events.into_iter().enumerate() {
            if let Some(pre) = insertions.remove(&i) {
                new.extend(pre);
            }
            new.push(e);
        }
        new
    })
}

/// Oracle for escape instrumentation (`TransformPipeline::escapes`).
pub fn instrument_escapes(trace: &ChunkedTrace) -> ChunkedTrace {
    rewrite_streams(trace, |_, events| {
        let mut new = Vec::with_capacity(events.len() * 2);
        for e in events {
            new.push(e);
            if let Event::Exec { block } = e {
                let bb = trace.meta.code.block(block);
                new.push(Event::Read {
                    addr: Addr(bb.start.0 | 1),
                    class: DataClass::KernelOther,
                });
            }
        }
        new
    })
}

/// Oracle for the coloring stage (`TransformPipeline::coloring`).
pub fn color_pages(trace: &ChunkedTrace, l2_size: u32) -> ChunkedTrace {
    let colors = (l2_size / oscache_trace::PAGE_SIZE).max(1);
    let mut map: HashMap<u32, u32> = HashMap::new();
    let mut next_color = 0u32;
    let mut rounds = vec![0u32; colors as usize];
    let mut assign = |map: &mut HashMap<u32, u32>, page: u32| {
        map.entry(page).or_insert_with(|| {
            let color = next_color % colors;
            let round = rounds[color as usize];
            rounds[color as usize] += 1;
            next_color += 1;
            COLOR_BASE_PAGE + round * colors + color
        });
    };
    for stream in &trace.streams {
        for e in stream {
            match e {
                Event::Read { addr, class }
                | Event::Write { addr, class }
                | Event::Prefetch { addr, class }
                    if colorable(class) =>
                {
                    assign(&mut map, addr.page());
                }
                Event::BlockOpBegin { op } => {
                    if colorable(op.src_class) {
                        assign(&mut map, op.src.page());
                    }
                    if colorable(op.dst_class) {
                        assign(&mut map, op.dst.page());
                    }
                }
                _ => {}
            }
        }
    }
    let remap = |a: Addr| -> Addr {
        match map.get(&a.page()) {
            Some(&new_page) => Addr(new_page * oscache_trace::PAGE_SIZE + a.page_offset()),
            None => a,
        }
    };
    rewrite_streams(trace, |_, events| {
        events
            .into_iter()
            .map(|e| match e {
                Event::Read { addr, class } if colorable(class) => Event::Read {
                    addr: remap(addr),
                    class,
                },
                Event::Write { addr, class } if colorable(class) => Event::Write {
                    addr: remap(addr),
                    class,
                },
                Event::Prefetch { addr, class } if colorable(class) => Event::Prefetch {
                    addr: remap(addr),
                    class,
                },
                Event::BlockOpBegin { mut op } => {
                    if colorable(op.src_class) {
                        op.src = remap(op.src);
                    }
                    if colorable(op.dst_class) {
                        op.dst = remap(op.dst);
                    }
                    Event::BlockOpBegin { op }
                }
                other => other,
            })
            .collect()
    })
}
