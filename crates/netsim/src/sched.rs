//! Stage-time composition.
//!
//! Two schedulers live here:
//!
//! * [`makespan`] — the LPT bin-packing used for a *single* stage: given
//!   independent per-split durations and a node's parallel lanes, how long
//!   does that stage take in isolation;
//! * [`pipeline_grouped`] — the overlap model for the *whole* split
//!   phase: given per-frame per-stage durations, compose the stage
//!   timelines the way a streaming boundary actually behaves — an FCFS
//!   multi-server queue per stage, each frame flowing disk → decompress →
//!   storage CPU → frontend → network → compute — so the phase costs
//!   roughly `bottleneck stage + fill/drain` instead of the sum of all
//!   stages.

/// Makespan of scheduling `durations` onto `lanes` identical lanes (LPT).
///
/// `lanes == 0` is treated as 1. The result is at least `max(durations)`
/// and at most `sum(durations)`.
pub fn makespan(durations: &[f64], lanes: usize) -> f64 {
    let lanes = lanes.max(1);
    if durations.is_empty() {
        return 0.0;
    }
    if lanes == 1 || durations.len() == 1 {
        return durations.iter().sum();
    }
    let mut sorted: Vec<f64> = durations.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut loads = vec![0.0f64; lanes.min(sorted.len())];
    for d in sorted {
        // Find the least-loaded lane (linear scan; lane counts are small).
        let mut idx = 0;
        for (i, l) in loads.iter().enumerate() {
            if *l < loads[idx] {
                idx = i;
            }
        }
        loads[idx] += d;
    }
    loads.iter().cloned().fold(0.0, f64::max)
}

/// Outcome of composing a frame pipeline with [`pipeline_grouped`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Completion time of the last frame at the last stage — the
    /// overlapped wall-clock of the whole split phase.
    pub makespan: f64,
    /// Total busy seconds per stage (for apportioning the overlapped
    /// makespan back into ledger phases).
    pub stage_busy: Vec<f64>,
    /// Per-item completion time at the last stage, in input order (item 0
    /// of a query is its first frame, so `item_done.first()` approximates
    /// time-to-first-batch).
    pub item_done: Vec<f64>,
    /// Busy intervals `(start, end)` per stage, in schedule order —
    /// every non-zero service window some lane of the stage spent
    /// occupied. Summing a stage's interval lengths reproduces
    /// `stage_busy[s]` exactly; overlapping them against the stage's lane
    /// count yields its utilization timeline (see `obs::profile`).
    pub stage_intervals: Vec<Vec<(f64, f64)>>,
}

impl PipelineReport {
    /// Earliest completion among the given item indices (e.g. the batch
    /// frames only) — the pipeline's time-to-first-result.
    pub fn first_done_among(&self, indices: impl IntoIterator<Item = usize>) -> f64 {
        let mut best = f64::INFINITY;
        for i in indices {
            if let Some(&d) = self.item_done.get(i) {
                if d < best {
                    best = d;
                }
            }
        }
        if best.is_finite() {
            best
        } else {
            0.0
        }
    }
}

/// Overlapped makespan of `items` flowing through a multi-stage pipeline.
///
/// `items[i][s]` is the duration of item `i` at stage `s`; `lanes[s]` is
/// the number of identical parallel servers at stage `s` (0 is treated
/// as 1). Missing per-item entries count as zero duration.
///
/// The model is a deterministic FCFS multi-server queue per stage: an item
/// becomes ready for stage `s` when it completes stage `s-1`; ready items
/// are served in (ready-time, input-order) order, each starting on the
/// earliest-free lane no earlier than its ready time. Items therefore
/// *overlap* across stages — while frame `i` crosses the network, frame
/// `i+1` occupies the storage CPU — which is exactly what the old additive
/// per-stage barriers could not express.
///
/// Group affinity: `groups[i]` names item `i`'s group (a split, a request
/// stream, …) and stages with `serial[s] == true` process each group's
/// items one at a time, in input order — different groups still run
/// concurrently on the stage's lanes. This models resources that are
/// parallel *across* streams but serial *within* one: a Presto driver
/// drains its split's pages on one thread, and a frontend relays one
/// request's frames sequentially, no matter how many cores the node has.
/// Missing `groups` entries default to group 0; missing `serial` entries
/// default to `false`, so empty slices give the plain FCFS pipeline.
///
/// Invariants (pinned by the tests below): the result is at least the
/// busiest stage's LPT makespan, at least the longest single-item chain,
/// and at most the sum of all stages' serial sums.
pub fn pipeline_grouped(
    items: &[Vec<f64>],
    lanes: &[usize],
    groups: &[usize],
    serial: &[bool],
) -> PipelineReport {
    let nstages = lanes.len();
    let mut stage_busy = vec![0.0f64; nstages];
    let mut stage_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nstages];
    if items.is_empty() || nstages == 0 {
        return PipelineReport {
            makespan: 0.0,
            stage_busy,
            item_done: vec![0.0; items.len()],
            stage_intervals,
        };
    }
    let group_of = |i: usize| groups.get(i).copied().unwrap_or(0);
    let ngroups = (0..items.len()).map(group_of).max().unwrap_or(0) + 1;
    // ready[i]: when item i finished the previous stage.
    let mut ready = vec![0.0f64; items.len()];
    let mut order: Vec<usize> = (0..items.len()).collect();
    for (s, &lane_count) in lanes.iter().enumerate() {
        let lane_count = lane_count.max(1);
        let mut lane_free = vec![0.0f64; lane_count];
        let serial_here = serial.get(s).copied().unwrap_or(false);
        // group_free[g]: when group g's previous item left this stage
        // (only consulted on serial stages).
        let mut group_free = vec![0.0f64; if serial_here { ngroups } else { 0 }];
        // FCFS by arrival at this stage; input order breaks ties so the
        // schedule is deterministic.
        order.sort_by(|&a, &b| {
            ready[a]
                .partial_cmp(&ready[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        if serial_here {
            // Work-conserving FCFS with chains: an item only claims a lane
            // once it is actually *runnable* (arrived AND its group's
            // previous item finished). Claiming at arrival would let early
            // groups reserve every lane far into the future and starve
            // later-arriving groups of idle capacity no real scheduler
            // would waste. Per group, items run in *input* order — a
            // serial resource drains its stream's items in the order they
            // were produced, even when an item with a zero-cost prefix
            // would reach the stage early; across groups, the
            // earliest-runnable head goes first.
            let mut queues: Vec<Vec<usize>> = vec![Vec::new(); ngroups];
            for i in (0..items.len()).rev() {
                queues[group_of(i)].push(i); // reversed: pop() is input order
            }
            let mut remaining: usize = order.len();
            while remaining > 0 {
                // Pick the group whose head item can start soonest.
                let mut best: Option<(f64, usize)> = None;
                for (g, q) in queues.iter().enumerate() {
                    if let Some(&i) = q.last() {
                        let runnable = ready[i].max(group_free[g]);
                        let better = match best {
                            None => true,
                            Some((t, bg)) => {
                                runnable < t || (runnable == t && queues[bg].last() > Some(&i))
                            }
                        };
                        if better {
                            best = Some((runnable, g));
                        }
                    }
                }
                let Some((runnable, g)) = best else { break };
                let i = match queues[g].pop() {
                    Some(i) => i,
                    None => break,
                };
                remaining -= 1;
                let d = items[i].get(s).copied().unwrap_or(0.0).max(0.0);
                stage_busy[s] += d;
                let mut li = 0;
                for (k, f) in lane_free.iter().enumerate() {
                    if *f < lane_free[li] {
                        li = k;
                    }
                }
                let start = runnable.max(lane_free[li]);
                let done = start + d;
                if d > 0.0 {
                    stage_intervals[s].push((start, done));
                }
                lane_free[li] = done;
                ready[i] = done;
                group_free[g] = done;
            }
        } else {
            for &i in &order {
                let d = items[i].get(s).copied().unwrap_or(0.0).max(0.0);
                stage_busy[s] += d;
                // Earliest-free lane (linear scan; lane vectors are small
                // because `lane_count.min(items.len())` bounds useful
                // lanes).
                let mut li = 0;
                for (k, f) in lane_free.iter().enumerate() {
                    if *f < lane_free[li] {
                        li = k;
                    }
                }
                let start = ready[i].max(lane_free[li]);
                let done = start + d;
                if d > 0.0 {
                    stage_intervals[s].push((start, done));
                }
                lane_free[li] = done;
                ready[i] = done;
            }
        }
    }
    let makespan = ready.iter().cloned().fold(0.0, f64::max);
    PipelineReport {
        makespan,
        stage_busy,
        item_done: ready,
        stage_intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        assert_eq!(makespan(&[], 4), 0.0);
        assert_eq!(makespan(&[5.0], 4), 5.0);
    }

    #[test]
    fn one_lane_is_sum() {
        assert_eq!(makespan(&[1.0, 2.0, 3.0], 1), 6.0);
        assert_eq!(makespan(&[1.0, 2.0, 3.0], 0), 6.0);
    }

    #[test]
    fn many_lanes_is_max() {
        assert_eq!(makespan(&[1.0, 2.0, 3.0], 10), 3.0);
    }

    #[test]
    fn balanced_assignment() {
        // 4 tasks of 1.0 on 2 lanes -> 2.0.
        assert_eq!(makespan(&[1.0; 4], 2), 2.0);
        // LPT on {3,3,2,2,2} with 2 lanes packs 3+2+2 vs 3+2 -> 7
        // (optimal is 6; LPT is a 4/3-approximation and deterministic).
        assert_eq!(makespan(&[3.0, 3.0, 2.0, 2.0, 2.0], 2), 7.0);
    }

    #[test]
    fn bounds_hold() {
        let d: Vec<f64> = (1..=37).map(|i| (i as f64) * 0.31).collect();
        for lanes in 1..=64 {
            let m = makespan(&d, lanes);
            let sum: f64 = d.iter().sum();
            let max = d.iter().cloned().fold(0.0, f64::max);
            assert!(m >= max - 1e-12, "lanes {lanes}");
            assert!(m <= sum + 1e-12, "lanes {lanes}");
            // Parallel efficiency: never worse than sum/lanes by more than
            // the largest task.
            assert!(m <= sum / lanes as f64 + max + 1e-12, "lanes {lanes}");
        }
    }

    #[test]
    fn monotone_in_lanes() {
        let d: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let mut prev = f64::INFINITY;
        for lanes in 1..=8 {
            let m = makespan(&d, lanes);
            assert!(m <= prev + 1e-12, "makespan should not grow with lanes");
            prev = m;
        }
    }

    // ---- pipeline: hand-computed timelines ----------------------------

    #[test]
    fn pipeline_empty() {
        let r = pipeline_grouped(&[], &[1, 1], &[], &[]);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.stage_busy, vec![0.0, 0.0]);
        let r = pipeline_grouped(&[vec![1.0]], &[], &[], &[]);
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn pipeline_single_stage_is_lpt_like() {
        // One stage, one lane: serial sum; first item done at 1.
        let items = vec![vec![1.0], vec![2.0], vec![3.0]];
        let r = pipeline_grouped(&items, &[1], &[], &[]);
        assert_eq!(r.makespan, 6.0);
        assert_eq!(r.item_done, vec![1.0, 3.0, 6.0]);
        // Enough lanes: max.
        let r = pipeline_grouped(&items, &[8], &[], &[]);
        assert_eq!(r.makespan, 3.0);
    }

    #[test]
    fn pipeline_two_stage_textbook_overlap() {
        // 3 items × [1, 1], one lane per stage — the textbook pipeline:
        //   s0: [0,1] [1,2] [2,3]
        //   s1:   [1,2] [2,3] [3,4]
        // makespan = n + stages - 1 = 4; additive barriers would say 6.
        let items = vec![vec![1.0, 1.0]; 3];
        let r = pipeline_grouped(&items, &[1, 1], &[], &[]);
        assert_eq!(r.makespan, 4.0);
        assert_eq!(r.item_done, vec![2.0, 3.0, 4.0]);
        assert_eq!(r.stage_busy, vec![3.0, 3.0]);
        assert_eq!(r.first_done_among([0usize]), 2.0);
    }

    #[test]
    fn pipeline_bottleneck_plus_fill_drain() {
        // Stage 0 is the bottleneck (2 s/item), stage 1 drains in 1 s:
        //   s0: [0,2] [2,4]    s1: [2,3] [4,5]
        // makespan = bottleneck (4) + drain (1) = 5.
        let items = vec![vec![2.0, 1.0]; 2];
        let r = pipeline_grouped(&items, &[1, 1], &[], &[]);
        assert_eq!(r.makespan, 5.0);
        assert_eq!(r.item_done, vec![3.0, 5.0]);
    }

    #[test]
    fn pipeline_multi_lane_stage_feeds_serial_stage() {
        // 4 items × [1, 1]; stage 0 has 2 lanes, stage 1 has 1:
        //   s0: items 0,1 → [0,1]; items 2,3 → [1,2]
        //   s1 arrivals (1,1,2,2) served FCFS: [1,2] [2,3] [3,4] [4,5]
        let items = vec![vec![1.0, 1.0]; 4];
        let r = pipeline_grouped(&items, &[2, 1], &[], &[]);
        assert_eq!(r.makespan, 5.0);
        assert_eq!(r.stage_busy, vec![4.0, 4.0]);
    }

    #[test]
    fn pipeline_out_of_order_arrivals_are_fcfs() {
        // Item 1 is cheap at stage 0 and arrives at stage 1 first; FCFS
        // must let it jump ahead of item 0:
        //   s0 (2 lanes): item0 [0,3], item1 [0,1]
        //   s1 (1 lane):  item1 [1,2], item0 [3,4]
        let items = vec![vec![3.0, 1.0], vec![1.0, 1.0]];
        let r = pipeline_grouped(&items, &[2, 1], &[], &[]);
        assert_eq!(r.item_done, vec![4.0, 2.0]);
        assert_eq!(r.makespan, 4.0);
    }

    #[test]
    fn pipeline_bounds_vs_additive_and_chains() {
        // Randomish but deterministic durations; the overlapped makespan
        // must sit between the obvious lower/upper bounds.
        let items: Vec<Vec<f64>> = (0..23)
            .map(|i| {
                (0..4)
                    .map(|s| (((i * 7 + s * 13) % 11) as f64) * 0.17 + 0.01)
                    .collect()
            })
            .collect();
        let lanes = [1usize, 3, 2, 1];
        let r = pipeline_grouped(&items, &lanes, &[], &[]);
        // Upper bound: additive barriers (sum of per-stage LPT makespans).
        let additive: f64 = (0..lanes.len())
            .map(|s| {
                let d: Vec<f64> = items.iter().map(|it| it[s]).collect();
                makespan(&d, lanes[s])
            })
            .sum();
        assert!(
            r.makespan <= additive + 1e-9,
            "{} vs {additive}",
            r.makespan
        );
        // Lower bounds: busiest stage over its lanes; longest item chain.
        for (s, &l) in lanes.iter().enumerate() {
            assert!(r.makespan >= r.stage_busy[s] / l as f64 - 1e-9);
        }
        let chain = items
            .iter()
            .map(|it| it.iter().sum::<f64>())
            .fold(0.0, f64::max);
        assert!(r.makespan >= chain - 1e-9);
    }

    #[test]
    fn grouped_empty_affinity_matches_plain() {
        let items: Vec<Vec<f64>> = (0..17)
            .map(|i| (0..3).map(|s| ((i * 5 + s * 3) % 7) as f64 * 0.2).collect())
            .collect();
        let lanes = [1usize, 4, 2];
        // Groups without a serial stage change nothing.
        assert_eq!(
            pipeline_grouped(&items, &lanes, &[], &[]),
            pipeline_grouped(&items, &lanes, &[0, 1, 0], &[false, false, false])
        );
    }

    #[test]
    fn grouped_serial_stage_chains_within_group() {
        // 4 items in 2 groups, single serial stage with plenty of lanes:
        // each group's items must chain, groups run concurrently.
        let items = vec![vec![1.0]; 4];
        let groups = [0, 0, 1, 1];
        let r = pipeline_grouped(&items, &[8], &groups, &[true]);
        assert_eq!(r.item_done, vec![1.0, 2.0, 1.0, 2.0]);
        assert_eq!(r.makespan, 2.0);
        // Without affinity the same items finish together at 1.0.
        assert_eq!(pipeline_grouped(&items, &[8], &[], &[]).makespan, 1.0);
    }

    #[test]
    fn grouped_serial_never_beats_plain() {
        let items: Vec<Vec<f64>> = (0..23)
            .map(|i| {
                (0..4)
                    .map(|s| (((i * 7 + s * 13) % 11) as f64) * 0.17 + 0.01)
                    .collect()
            })
            .collect();
        let lanes = [1usize, 3, 8, 1];
        let groups: Vec<usize> = (0..23).map(|i| i % 5).collect();
        let plain = pipeline_grouped(&items, &lanes, &[], &[]);
        let grouped = pipeline_grouped(&items, &lanes, &groups, &[false, false, true, false]);
        assert!(grouped.makespan >= plain.makespan - 1e-12);
        // Busy time is schedule-independent.
        assert_eq!(grouped.stage_busy, plain.stage_busy);
        // Lower bound: every group's serial chain at the serial stage.
        for g in 0..5 {
            let chain: f64 = items
                .iter()
                .enumerate()
                .filter(|(i, _)| groups[*i] == g)
                .map(|(_, it)| it[2])
                .sum();
            assert!(grouped.makespan >= chain - 1e-9);
        }
    }

    #[test]
    fn stage_intervals_sum_to_busy_and_respect_lanes() {
        let items: Vec<Vec<f64>> = (0..23)
            .map(|i| {
                (0..4)
                    .map(|s| (((i * 7 + s * 13) % 11) as f64) * 0.17)
                    .collect()
            })
            .collect();
        let lanes = [1usize, 3, 2, 1];
        let groups: Vec<usize> = (0..23).map(|i| i % 5).collect();
        let r = pipeline_grouped(&items, &lanes, &groups, &[false, false, true, false]);
        for (s, ivs) in r.stage_intervals.iter().enumerate() {
            // Interval lengths reproduce stage busy time exactly.
            let len: f64 = ivs.iter().map(|(a, b)| b - a).sum();
            assert!((len - r.stage_busy[s]).abs() < 1e-9, "stage {s}");
            // Zero-duration service never recorded; all windows inside
            // the makespan.
            for &(a, b) in ivs {
                assert!(b > a, "stage {s}: empty interval");
                assert!(b <= r.makespan + 1e-9, "stage {s}: past makespan");
            }
            // Concurrency never exceeds the stage's lane count: sweep the
            // interval endpoints and count overlaps.
            let mut events: Vec<(f64, i64)> = Vec::new();
            for &(a, b) in ivs {
                events.push((a, 1));
                events.push((b, -1));
            }
            events.sort_by(|x, y| {
                x.0.partial_cmp(&y.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.1.cmp(&y.1))
            });
            let mut depth = 0i64;
            for (_, d) in events {
                depth += d;
                assert!(depth <= lanes[s] as i64, "stage {s}: over lane count");
            }
        }
    }

    #[test]
    fn textbook_pipeline_intervals_are_exact() {
        // 3 items × [1, 1], one lane per stage (see
        // pipeline_two_stage_textbook_overlap for the timeline).
        let items = vec![vec![1.0, 1.0]; 3];
        let r = pipeline_grouped(&items, &[1, 1], &[], &[]);
        assert_eq!(
            r.stage_intervals[0],
            vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        );
        assert_eq!(
            r.stage_intervals[1],
            vec![(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]
        );
    }

    #[test]
    fn pipeline_missing_stage_entries_are_zero() {
        let items = vec![vec![1.0], vec![1.0, 2.0]];
        let r = pipeline_grouped(&items, &[1, 1], &[], &[]);
        // item0: s0 [0,1], s1 [1,1]; item1: s0 [1,2], s1 [2,4].
        assert_eq!(r.item_done, vec![1.0, 4.0]);
        assert_eq!(r.makespan, 4.0);
    }
}
