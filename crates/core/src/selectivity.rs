//! The Selectivity Analyzer (paper §4, "Local Optimizer").
//!
//! Estimates each operator's data-reduction potential from metastore
//! statistics, following the paper's recipe exactly:
//!
//! * **range filters** — "the optimizer assumes a normal distribution of
//!   values between the column's min/max boundaries and estimates the
//!   proportion of rows falling within the query's range predicate";
//! * **aggregations** — "output cardinality as `row_count / NDV` of the
//!   GROUP BY column(s)" (i.e. output rows = product of key NDVs, capped);
//! * **top-N** — "the LIMIT clause explicitly specifies the output row
//!   count, which can be directly compared against the total row count".
//!
//! The paper also notes the normal-distribution assumption "may not hold
//! for skewed data distributions" — reproduced faithfully, and exercised
//! by the ablation bench.

use columnar::kernels::cmp::CmpOp;
use columnar::Scalar;
use dsq::catalog::TableMeta;
use dsq::expr::ScalarExpr;
use parq::ColumnStats;

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ~1.5e-7, far below estimation noise).
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + erf)
}

/// The analyzer: borrowed table statistics + scan projection context.
pub struct SelectivityAnalyzer<'a> {
    table: &'a TableMeta,
    /// Scan projection: scan-output ordinal → file column ordinal.
    projection: &'a [usize],
}

impl<'a> SelectivityAnalyzer<'a> {
    /// New analyzer for a scan of `table` emitting `projection` columns.
    pub fn new(table: &'a TableMeta, projection: &'a [usize]) -> Self {
        SelectivityAnalyzer { table, projection }
    }

    fn stats_for(&self, scan_col: usize) -> Option<&ColumnStats> {
        let file_col = *self.projection.get(scan_col)?;
        self.table.stats.columns.get(file_col)
    }

    /// Fraction of a normal distribution fit to `[min, max]` that lies in
    /// `[lo, hi]` (clamped). The paper's mean/σ choice is unspecified; we
    /// center the normal and set σ so that min/max sit at ±2σ (95% mass
    /// inside the observed range).
    fn normal_mass(min: f64, max: f64, lo: f64, hi: f64) -> f64 {
        if max <= min {
            // Degenerate column: all rows share one value.
            return if lo <= min && min <= hi { 1.0 } else { 0.0 };
        }
        let mean = (min + max) / 2.0;
        let sigma = (max - min) / 4.0;
        let a = normal_cdf((lo.max(min) - mean) / sigma);
        let b = normal_cdf((hi.min(max) - mean) / sigma);
        (b - a).clamp(0.0, 1.0)
    }

    /// Estimated selectivity (kept fraction) of a predicate over the scan.
    pub fn filter_selectivity(&self, predicate: &ScalarExpr) -> f64 {
        match predicate {
            ScalarExpr::And(a, b) => {
                // Independence assumption, as in the paper's simple model.
                self.filter_selectivity(a) * self.filter_selectivity(b)
            }
            ScalarExpr::Or(a, b) => {
                let (x, y) = (self.filter_selectivity(a), self.filter_selectivity(b));
                (x + y - x * y).clamp(0.0, 1.0)
            }
            ScalarExpr::Not(e) => 1.0 - self.filter_selectivity(e),
            ScalarExpr::Between { expr, lo, hi } => {
                if let (
                    ScalarExpr::Column { index, .. },
                    ScalarExpr::Literal(l),
                    ScalarExpr::Literal(h),
                ) = (expr.as_ref(), lo.as_ref(), hi.as_ref())
                {
                    self.range_selectivity(*index, l.as_f64(), h.as_f64())
                } else {
                    0.33
                }
            }
            ScalarExpr::Cmp { op, left, right } => match (left.as_ref(), right.as_ref()) {
                (ScalarExpr::Column { index, .. }, ScalarExpr::Literal(v)) => {
                    self.cmp_selectivity(*index, *op, v)
                }
                (ScalarExpr::Literal(v), ScalarExpr::Column { index, .. }) => {
                    self.cmp_selectivity(*index, op.flip(), v)
                }
                _ => 0.33,
            },
            ScalarExpr::IsNull(e) => {
                if let ScalarExpr::Column { index, .. } = e.as_ref() {
                    if let Some(s) = self.stats_for(*index) {
                        if s.row_count > 0 {
                            return s.null_count as f64 / s.row_count as f64;
                        }
                    }
                }
                0.1
            }
            ScalarExpr::IsNotNull(e) => {
                1.0 - self.filter_selectivity(&ScalarExpr::IsNull(e.clone()))
            }
            ScalarExpr::Literal(Scalar::Boolean(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            _ => 0.33, // unknown shape: the paper's fallback regime
        }
    }

    fn range_selectivity(&self, scan_col: usize, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let (Some(lo), Some(hi)) = (lo, hi) else {
            return 0.33;
        };
        let Some(stats) = self.stats_for(scan_col) else {
            return 0.33;
        };
        let (Some(min), Some(max)) = (stats.min.as_f64(), stats.max.as_f64()) else {
            return 0.33;
        };
        if hi < min || lo > max {
            return 0.0;
        }
        Self::normal_mass(min, max, lo, hi)
    }

    fn cmp_selectivity(&self, scan_col: usize, op: CmpOp, v: &Scalar) -> f64 {
        let Some(stats) = self.stats_for(scan_col) else {
            return 0.33;
        };
        match op {
            CmpOp::Eq => {
                // Uniform over distinct values.
                if stats.distinct > 0 {
                    (1.0 / stats.distinct as f64).min(1.0)
                } else {
                    0.0
                }
            }
            CmpOp::NotEq => {
                if stats.distinct > 0 {
                    1.0 - (1.0 / stats.distinct as f64).min(1.0)
                } else {
                    1.0
                }
            }
            CmpOp::Lt | CmpOp::LtEq => {
                self.range_selectivity(scan_col, stats.min.as_f64(), v.as_f64())
            }
            CmpOp::Gt | CmpOp::GtEq => {
                self.range_selectivity(scan_col, v.as_f64(), stats.max.as_f64())
            }
        }
    }

    /// Estimated output rows of a `GROUP BY` on the given key expressions.
    pub fn aggregate_output_rows(&self, group_by: &[(ScalarExpr, String)]) -> u64 {
        if group_by.is_empty() {
            return 1;
        }
        let rows = self.table.stats.row_count.max(1);
        let mut ndv: u128 = 1;
        for (e, _) in group_by {
            let key_ndv = match e {
                ScalarExpr::Column { index, .. } => self
                    .stats_for(*index)
                    .map(|s| s.distinct.max(1))
                    .unwrap_or(rows),
                // Expression key: unknown; assume it can hit every row.
                _ => rows,
            };
            ndv = ndv.saturating_mul(key_ndv as u128);
            if ndv > rows as u128 {
                return rows;
            }
        }
        (ndv as u64).min(rows)
    }

    /// Estimated selectivity of an aggregation (output rows / input rows).
    pub fn aggregate_selectivity(&self, group_by: &[(ScalarExpr, String)]) -> f64 {
        let rows = self.table.stats.row_count.max(1);
        self.aggregate_output_rows(group_by) as f64 / rows as f64
    }

    /// Total table rows (estimation input for chained operators).
    pub fn row_count(&self) -> u64 {
        self.table.stats.row_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{DataType, Field, Schema};
    use dsq::catalog::{TableMeta, TableStats};
    use std::sync::Arc;

    fn table() -> TableMeta {
        // Column 0: x in [0, 10], 1000 distinct; column 1: g with NDV 4.
        let mk = |min: f64, max: f64, ndv: u64| ColumnStats {
            min: Scalar::Float64(min),
            max: Scalar::Float64(max),
            null_count: 0,
            row_count: 100_000,
            distinct: ndv,
        };
        TableMeta {
            name: "t".into(),
            connector: "ocs".into(),
            schema: Arc::new(Schema::new(vec![
                Field::new("x", DataType::Float64, false),
                Field::new("g", DataType::Float64, false),
            ])),
            objects: vec![],
            stats: TableStats {
                row_count: 100_000,
                columns: vec![mk(0.0, 10.0, 1000), mk(0.0, 3.0, 4)],
            },
        }
    }

    fn col(i: usize) -> ScalarExpr {
        ScalarExpr::col(i, format!("c{i}"), DataType::Float64)
    }

    fn lit(v: f64) -> ScalarExpr {
        ScalarExpr::lit(Scalar::Float64(v))
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!(normal_cdf(3.0) > 0.99);
        assert!(normal_cdf(-3.0) < 0.01);
        // Symmetry.
        assert!((normal_cdf(1.2) + normal_cdf(-1.2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn range_filter_normal_assumption() {
        let t = table();
        let proj = [0usize, 1];
        let a = SelectivityAnalyzer::new(&t, &proj);
        // Whole range keeps ~everything (95% of the fitted normal).
        let full = a.filter_selectivity(&ScalarExpr::Between {
            expr: std::sync::Arc::new(col(0)),
            lo: std::sync::Arc::new(lit(0.0)),
            hi: std::sync::Arc::new(lit(10.0)),
        });
        assert!(full > 0.9, "{full}");
        // Central half keeps more than a uniform model would say.
        let center = a.filter_selectivity(&ScalarExpr::Between {
            expr: std::sync::Arc::new(col(0)),
            lo: std::sync::Arc::new(lit(2.5)),
            hi: std::sync::Arc::new(lit(7.5)),
        });
        assert!(center > 0.5 && center < full, "{center}");
        // Disjoint range keeps nothing.
        let out = a.filter_selectivity(&ScalarExpr::Between {
            expr: std::sync::Arc::new(col(0)),
            lo: std::sync::Arc::new(lit(20.0)),
            hi: std::sync::Arc::new(lit(30.0)),
        });
        assert_eq!(out, 0.0);
        // Tail range keeps little.
        let tail = a.filter_selectivity(&ScalarExpr::Between {
            expr: std::sync::Arc::new(col(0)),
            lo: std::sync::Arc::new(lit(9.0)),
            hi: std::sync::Arc::new(lit(10.0)),
        });
        assert!(tail < 0.1, "{tail}");
    }

    #[test]
    fn conjunction_multiplies() {
        let t = table();
        let proj = [0usize, 1];
        let a = SelectivityAnalyzer::new(&t, &proj);
        let half = ScalarExpr::Cmp {
            op: CmpOp::Gt,
            left: std::sync::Arc::new(col(0)),
            right: std::sync::Arc::new(lit(5.0)),
        };
        let s1 = a.filter_selectivity(&half);
        let s2 = a.filter_selectivity(&ScalarExpr::And(
            std::sync::Arc::new(half.clone()),
            std::sync::Arc::new(half),
        ));
        assert!((s2 - s1 * s1).abs() < 1e-9);
    }

    #[test]
    fn equality_uses_ndv() {
        let t = table();
        let proj = [0usize, 1];
        let a = SelectivityAnalyzer::new(&t, &proj);
        let eq = ScalarExpr::Cmp {
            op: CmpOp::Eq,
            left: std::sync::Arc::new(col(1)),
            right: std::sync::Arc::new(lit(1.0)),
        };
        assert!((a.filter_selectivity(&eq) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn aggregate_cardinality_from_ndv() {
        let t = table();
        let proj = [0usize, 1];
        let a = SelectivityAnalyzer::new(&t, &proj);
        assert_eq!(a.aggregate_output_rows(&[]), 1);
        assert_eq!(a.aggregate_output_rows(&[(col(1), "g".into())]), 4);
        assert_eq!(
            a.aggregate_output_rows(&[(col(0), "x".into()), (col(1), "g".into())]),
            4000
        );
        assert!((a.aggregate_selectivity(&[(col(1), "g".into())]) - 4e-5).abs() < 1e-9);
        // Expression keys fall back to row count (no reduction assumed).
        let expr_key = ScalarExpr::Negate(std::sync::Arc::new(col(0)));
        assert_eq!(a.aggregate_output_rows(&[(expr_key, "e".into())]), 100_000);
    }

    #[test]
    fn projection_remaps_columns() {
        // Scan emits only file column 1 (g). Scan col 0 == file col 1.
        let t = table();
        let proj = [1usize];
        let a = SelectivityAnalyzer::new(&t, &proj);
        let eq = ScalarExpr::Cmp {
            op: CmpOp::Eq,
            left: std::sync::Arc::new(col(0)),
            right: std::sync::Arc::new(lit(1.0)),
        };
        assert!(
            (a.filter_selectivity(&eq) - 0.25).abs() < 1e-9,
            "NDV of g, not x"
        );
    }
}
