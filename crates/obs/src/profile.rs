//! Per-resource utilization timelines and bottleneck attribution.
//!
//! The pipeline scheduler (`netsim::pipeline_grouped`) records every
//! service window it schedules as a busy interval per stage. This module
//! turns those intervals into *resource* timelines — "the storage cores
//! were k-way busy from t₀ to t₁" — and answers the question the paper's
//! evaluation keeps asking: over this span's window, **which resource was
//! the bottleneck, and how saturated was it?**
//!
//! Utilization of a resource over a window `[a, b]` is the overlap of its
//! busy intervals with the window, divided by the window length times the
//! resource's lane count (cores, or 1 for a serial link/disk). The
//! bottleneck of a window is simply the resource with the highest
//! utilization — the one whose saturation bounds the window's makespan.
//! Chrome counter tracks ([`crate::chrome::export_with_profile`]) render
//! the same timelines as step functions of busy lanes.

use std::fmt;

/// Busy timeline of one resource.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceTimeline {
    /// Resource name (`storage-cores`, `link`, `storage-disk`,
    /// `frontend-cores`, `compute-cores`, …).
    pub resource: String,
    /// Parallel lanes the resource offers (cores; 1 for serial links).
    pub lanes: usize,
    /// Busy intervals `(start, end)` on the simulated clock. Intervals
    /// may overlap up to `lanes` deep.
    pub intervals: Vec<(f64, f64)>,
}

impl ResourceTimeline {
    /// Total busy lane-seconds overlapping the window `[a, b]`.
    pub fn busy_in(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        self.intervals
            .iter()
            .map(|&(s, e)| (e.min(b) - s.max(a)).max(0.0))
            .sum()
    }

    /// Utilization of the resource over `[a, b]`: busy lane-seconds over
    /// available lane-seconds, in `0.0..=1.0`.
    pub fn utilization_in(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let avail = (b - a) * self.lanes.max(1) as f64;
        (self.busy_in(a, b) / avail).clamp(0.0, 1.0)
    }

    /// The timeline as a step function of concurrently busy lanes:
    /// `(t, busy)` at every point the busy-lane count changes, in time
    /// order, ending at 0. Feeds the Chrome counter tracks.
    pub fn steps(&self) -> Vec<(f64, u64)> {
        let mut edges: Vec<(f64, i64)> = Vec::with_capacity(self.intervals.len() * 2);
        for &(s, e) in &self.intervals {
            if e > s {
                edges.push((s, 1));
                edges.push((e, -1));
            }
        }
        edges.sort_by(|x, y| {
            x.0.partial_cmp(&y.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.1.cmp(&y.1))
        });
        let mut out: Vec<(f64, u64)> = Vec::new();
        let mut depth = 0i64;
        for (t, d) in edges {
            depth += d;
            let busy = depth.max(0) as u64;
            match out.last_mut() {
                Some(last) if last.0 == t => last.1 = busy,
                _ => out.push((t, busy)),
            }
        }
        out
    }
}

/// A query's resource-utilization profile: one timeline per resource,
/// over the split phase's window on the simulated clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-resource timelines, in insertion order.
    pub timelines: Vec<ResourceTimeline>,
    /// Window start on the simulated clock.
    pub start_s: f64,
    /// Window end on the simulated clock.
    pub end_s: f64,
}

/// One bottleneck attribution: the busiest resource over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// Name of the saturating resource.
    pub resource: String,
    /// Its utilization over the window, `0.0..=1.0`.
    pub utilization: f64,
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {:.0}%", self.resource, self.utilization * 100.0)
    }
}

impl Profile {
    /// An empty profile over `[start_s, end_s]`.
    pub fn new(start_s: f64, end_s: f64) -> Profile {
        Profile {
            timelines: Vec::new(),
            start_s,
            end_s: end_s.max(start_s),
        }
    }

    /// Add (or extend) the timeline of `resource`. Intervals merge into
    /// an existing timeline of the same name so multiple pipeline runs
    /// can contribute to one profile.
    pub fn add_resource(&mut self, resource: &str, lanes: usize, intervals: Vec<(f64, f64)>) {
        match self.timelines.iter_mut().find(|t| t.resource == resource) {
            Some(t) => {
                t.lanes = t.lanes.max(lanes);
                t.intervals.extend(intervals);
            }
            None => self.timelines.push(ResourceTimeline {
                resource: resource.to_string(),
                lanes: lanes.max(1),
                intervals,
            }),
        }
    }

    /// True when no resource recorded any busy time.
    pub fn is_empty(&self) -> bool {
        self.timelines.iter().all(|t| t.intervals.is_empty())
    }

    /// The bottleneck over `[a, b]`: the resource with the highest
    /// utilization (ties break toward the earlier-registered resource).
    /// `None` when the profile is empty or the window is degenerate.
    pub fn bottleneck_in(&self, a: f64, b: f64) -> Option<Bottleneck> {
        if b <= a {
            return None;
        }
        let mut best: Option<Bottleneck> = None;
        for t in &self.timelines {
            let u = t.utilization_in(a, b);
            if u <= 0.0 {
                continue;
            }
            if best.as_ref().is_none_or(|b| u > b.utilization) {
                best = Some(Bottleneck {
                    resource: t.resource.clone(),
                    utilization: u,
                });
            }
        }
        best
    }

    /// The bottleneck over the profile's whole window.
    pub fn bottleneck(&self) -> Option<Bottleneck> {
        self.bottleneck_in(self.start_s, self.end_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(lanes: usize, intervals: &[(f64, f64)]) -> ResourceTimeline {
        ResourceTimeline {
            resource: "r".into(),
            lanes,
            intervals: intervals.to_vec(),
        }
    }

    #[test]
    fn busy_overlap_clips_to_window() {
        let t = timeline(1, &[(0.0, 2.0), (3.0, 5.0)]);
        assert_eq!(t.busy_in(0.0, 5.0), 4.0);
        assert_eq!(t.busy_in(1.0, 4.0), 2.0, "half of each interval");
        assert_eq!(t.busy_in(2.0, 3.0), 0.0, "gap");
        assert_eq!(t.busy_in(5.0, 5.0), 0.0, "degenerate window");
    }

    #[test]
    fn utilization_accounts_for_lanes() {
        // Two lanes, both busy for the first half of a 2 s window.
        let t = timeline(2, &[(0.0, 1.0), (0.0, 1.0)]);
        assert!((t.utilization_in(0.0, 2.0) - 0.5).abs() < 1e-12);
        assert!((t.utilization_in(0.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steps_count_concurrency() {
        let t = timeline(2, &[(0.0, 2.0), (1.0, 3.0)]);
        assert_eq!(t.steps(), vec![(0.0, 1), (1.0, 2), (2.0, 1), (3.0, 0)]);
        // Edges at the same instant collapse to one step entry.
        let t = timeline(2, &[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(t.steps(), vec![(0.0, 1), (1.0, 1), (2.0, 0)]);
    }

    #[test]
    fn bottleneck_picks_highest_utilization() {
        let mut p = Profile::new(0.0, 10.0);
        p.add_resource("storage-cores", 16, vec![(0.0, 10.0); 4]); // 4/16
        p.add_resource("link", 1, vec![(0.0, 8.0)]); // 8/10
        p.add_resource("compute-cores", 64, vec![(0.0, 5.0); 8]); // 40/640
        let b = p.bottleneck().expect("non-empty");
        assert_eq!(b.resource, "link");
        assert!((b.utilization - 0.8).abs() < 1e-12);
        assert!(b.to_string().contains("link at 80%"));
        // A sub-window where the link is idle flips the answer.
        let b = p.bottleneck_in(8.0, 10.0).expect("still busy");
        assert_eq!(b.resource, "storage-cores");
    }

    #[test]
    fn merging_resources_extends_timeline() {
        let mut p = Profile::new(0.0, 4.0);
        p.add_resource("link", 1, vec![(0.0, 1.0)]);
        p.add_resource("link", 1, vec![(2.0, 3.0)]);
        assert_eq!(p.timelines.len(), 1);
        assert_eq!(p.timelines[0].utilization_in(0.0, 4.0), 0.5);
    }

    #[test]
    fn empty_profile_has_no_bottleneck() {
        let p = Profile::new(0.0, 1.0);
        assert!(p.is_empty());
        assert_eq!(p.bottleneck(), None);
        assert_eq!(Profile::new(1.0, 1.0).bottleneck_in(1.0, 1.0), None);
    }
}
