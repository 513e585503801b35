//! The seeded op sequence. `--seed` drives the query literals and the
//! ingest order and nothing else: the program under test receives only
//! the SQL text and the batches. Op `k` is a pure function of
//! `(seed, k)`, so a run bounded by time and a run bounded by an op count
//! replay the same prefix.

use workloads::queries;

use crate::stack::{Layout, Stack, Workload};

/// Queries between two ingests of `hot-ingest`.
pub const HOT_QUERIES_PER_CYCLE: usize = 15;
/// Literal variants per template in the hot set (4 x 3 = 12 hot queries).
pub const HOT_VARIANTS: u64 = 4;
/// Distinct `INTERVAL 'n' DAY` values Q1 draws without replacement. The
/// issue's 60..119 has 60, fewer than the Q1 queries of one run, so the
/// result cache would answer the repeats.
const Q1_INTERVALS: u64 = 512;

/// One query template of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Laghos box filter, GROUP BY vertex, top-100.
    Laghos,
    /// Deep Water velocity filter, projected key, GROUP BY timestep.
    DeepWater,
    /// TPC-H Q1.
    Q1,
}

impl Template {
    /// Rotation order: L, D, Q.
    pub const ALL: [Template; 3] = [Template::Laghos, Template::DeepWater, Template::Q1];

    /// Index into `stack::TABLES`.
    pub fn table(self) -> usize {
        self as usize
    }

    /// Whether the query fixes its row order (`ORDER BY`).
    pub fn ordered(self) -> bool {
        self != Template::DeepWater
    }

    /// The template with literal variant `u` (timed: [0, 1)) and, for Q1,
    /// interval rank `rank` (timed: below `Q1_INTERVALS`).
    fn sql(self, u: f64, rank: u64) -> String {
        match self {
            Template::Laghos => {
                let d = 0.2 * u;
                queries::LAGHOS
                    .replace("0.8", &format!("{:.6}", 0.8 + d))
                    .replace("3.2", &format!("{:.6}", 3.2 - d))
            }
            Template::DeepWater => {
                queries::DEEPWATER.replace("v02 > 0.1", &format!("v02 > {:.6}", 0.1 + 0.05 * u))
            }
            Template::Q1 => queries::TPCH_Q1.replace(
                "INTERVAL '90' DAY",
                &format!("INTERVAL '{}' DAY", 60 + rank),
            ),
        }
    }
}

/// One op of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run `sql` through `Engine::execute`.
    Query {
        /// Which template `sql` instantiates.
        template: Template,
        /// The statement.
        sql: String,
    },
    /// Overwrite object `file` of table `table` with its other generation.
    Ingest {
        /// Index into `stack::TABLES`.
        table: usize,
        /// File index.
        file: usize,
    },
}

/// splitmix64: one well-mixed word per (seed, stream, index).
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// The op sequence of one workload and seed.
pub struct OpSequence {
    seed: u64,
    hot: bool,
    files: [usize; 3],
}

impl OpSequence {
    /// The sequence `stack`'s workload runs under `seed`.
    pub fn new(stack: &Stack, seed: u64) -> OpSequence {
        OpSequence::for_workload(
            stack.workload,
            seed,
            [stack.files(0), stack.files(1), stack.files(2)],
        )
    }

    fn for_workload(workload: &Workload, seed: u64, files: [usize; 3]) -> OpSequence {
        OpSequence {
            seed,
            hot: workload.layout == Layout::Hot,
            files,
        }
    }

    /// Ops per group; a run ends on a group boundary so every run measures
    /// the same mix (cold: one rotation L, D, Q; hot: one cycle).
    pub fn group(&self) -> usize {
        if self.hot {
            HOT_QUERIES_PER_CYCLE + 1
        } else {
            Template::ALL.len()
        }
    }

    /// Literal variant `n` of `template`: a golden-ratio walk from a seeded
    /// start, so variants are distinct and evenly spread for any count.
    /// Warm-up literals (`warm`) lie just outside the timed range, so a
    /// warm-up never answers a timed query from the result cache.
    fn variant(&self, template: Template, warm: bool, n: u64) -> String {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let start = mix(self.seed, 1, template as u64);
        if warm {
            return template.sql(1.0 + 0.05 * unit(start), Q1_INTERVALS + start % 8);
        }
        let u = (unit(start) + n as f64 * GOLDEN).fract();
        // An odd stride through the interval ranks is a permutation.
        let rank = start.wrapping_add(n.wrapping_mul(197)) % Q1_INTERVALS;
        template.sql(u, rank)
    }

    /// Hot query `i` (0..12): template `i % 3`, variant `i / 3`.
    pub fn hot_query(&self, i: usize) -> Op {
        let template = Template::ALL[i % 3];
        Op::Query {
            template,
            sql: self.variant(template, false, (i / 3) as u64),
        }
    }

    /// Number of hot queries (0 for the cold workloads).
    pub fn hot_set(&self) -> usize {
        if self.hot {
            Template::ALL.len() * HOT_VARIANTS as usize
        } else {
            0
        }
    }

    /// Op `k` of the timed section.
    pub fn op(&self, k: usize) -> Op {
        if !self.hot {
            let template = Template::ALL[k % 3];
            return Op::Query {
                template,
                sql: self.variant(template, false, (k / 3) as u64),
            };
        }
        // A cycle asks each template five times, walking its four
        // variants, then rewrites one object of the next table in turn:
        // the five queries on that table in the next cycle meet four
        // stale results (4 of 15 queries miss on one split). The seed
        // picks where both walks start and which file is rewritten; the
        // mix of tables and variants is the same for every seed.
        let (cycle, slot) = ((k / self.group()) as u64, k % self.group());
        let phase = mix(self.seed, 3, 0);
        if slot < HOT_QUERIES_PER_CYCLE {
            let variant = (phase + cycle + (slot / 3) as u64) % HOT_VARIANTS;
            self.hot_query(slot % 3 + 3 * variant as usize)
        } else {
            let table = (((phase >> 8) + cycle) % 3) as usize;
            Op::Ingest {
                table,
                file: (mix(self.seed, 4, cycle) % self.files[table] as u64) as usize,
            }
        }
    }

    /// The untimed queries that end set-up: one rotation of literals the
    /// timed section never uses (cold), or the hot set itself (hot), which
    /// is what the result cache is for.
    pub fn warm_up(&self) -> Vec<Op> {
        if self.hot {
            (0..self.hot_set()).map(|i| self.hot_query(i)).collect()
        } else {
            Template::ALL
                .iter()
                .map(|&template| Op::Query {
                    template,
                    sql: self.variant(template, true, 0),
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::WORKLOADS;
    use std::collections::HashSet;

    fn cold(seed: u64) -> OpSequence {
        OpSequence::for_workload(&WORKLOADS[1], seed, [4, 2, 4])
    }

    fn hot(seed: u64) -> OpSequence {
        OpSequence::for_workload(&WORKLOADS[4], seed, [8, 4, 8])
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_literals() {
        let (a, b, c) = (cold(1), cold(1), cold(2));
        for k in 0..30 {
            assert_eq!(a.op(k), b.op(k));
            assert_ne!(a.op(k), c.op(k));
        }
    }

    #[test]
    fn cold_literals_are_distinct_parse_and_rotate() {
        let seq = cold(42);
        let mut seen = HashSet::new();
        for k in 0..1200 {
            let Op::Query { template, sql, .. } = seq.op(k) else {
                panic!("cold workloads have no ingest");
            };
            assert_eq!(template, Template::ALL[k % 3]);
            assert!(seen.insert(sql.clone()), "op {k} repeats a literal: {sql}");
            if k < 30 {
                sqlparse::parse(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            }
        }
        for op in seq.warm_up() {
            let Op::Query { sql, .. } = op else {
                unreachable!()
            };
            assert!(!seen.contains(&sql), "warm-up primes a timed query");
        }
    }

    #[test]
    fn hot_cycles_are_15_hot_queries_then_one_ingest() {
        let seq = hot(9);
        let set: Vec<Op> = (0..seq.hot_set()).map(|i| seq.hot_query(i)).collect();
        assert_eq!(set.len(), 12);
        for k in 0..10 * seq.group() {
            match seq.op(k) {
                query @ Op::Query { .. } => {
                    assert!(k % 16 < 15);
                    assert!(set.contains(&query), "op {k} is outside the hot set");
                }
                Op::Ingest { table, file } => {
                    assert_eq!(k % 16, 15);
                    assert!(table < 3 && file < [8, 4, 8][table]);
                }
            }
        }
    }
}
