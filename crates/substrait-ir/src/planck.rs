//! `planck` — the one typer and verifier of Substrait plans.
//!
//! The plan shipped from the connector to OCS is the *entire* contract
//! between engine and storage: whatever arrives is executed inside the
//! storage device, where a malformed or illegally-rewritten plan is
//! hardest to debug. This module is the only code that types a [`Rel`] /
//! [`Expr`] tree, in passes over the operator chain:
//!
//! * **structure + resource bounds** — single `Read` leaf, supported IR
//!   version, and caps on tree depth, node count and schema width
//!   ([`Limits::untrusted`]) so a hostile frame cannot DoS the storage
//!   executor;
//! * **scope + typing** — field-reference bounds, then every expression
//!   typed by the rules `columnar` states once: comparisons and `BETWEEN`
//!   bounds by [`columnar::expr::comparable`], arithmetic by
//!   [`ArithOp::result_type`](columnar::kernels::arith::ArithOp::result_type),
//!   negation by [`negate_type`], casts by [`castable`], literals by
//!   [`literal_type`] (an untyped `NULL` is Boolean);
//! * **operator shape** — boolean filter predicates, non-empty
//!   project/aggregate/sort, measures typed by
//!   [`AggFunc::result_type`](columnar::agg::AggFunc::result_type),
//!   field-reference sort keys, and the top-N rule (an inner `Sort` is
//!   only meaningful directly under a `Fetch`);
//! * **pushdown legality** (engine-side, before shipping) — `Fetch` only
//!   at the root with offset 0 (a per-object offset is semantically wrong
//!   once results are merged) and at most one `Aggregate`.
//!
//! Every violation is a structured [`Diagnostic`] carrying a stable
//! [`DiagCode`] and the plan path of the offending node, so the engine
//! can log exactly which node of a shipped plan was rejected.
//!
//! A plan is checked once per boundary (see DESIGN.md §8): once per query
//! on the engine side ([`verify_pushdown`], through the connector
//! optimizer), and once per split at the OCS frontend
//! ([`verify_untrusted`] on the decoded bytes). The frontend's
//! [`VerifiedPlan`] carries every operator's output schema to the
//! executor, which neither re-checks the plan nor re-derives a type.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use columnar::expr::{comparable, literal_type};
use columnar::kernels::arith::negate_type;
use columnar::kernels::cast::castable;
use columnar::{DataType, Field, Schema, SchemaRef};

use crate::expr::Expr;
use crate::rel::{Plan, Rel, IR_VERSION};
use crate::IrError;

/// Stable diagnostic codes. The numeric bands group related checks:
/// `P1xx` structure/resources, `P2xx` expression typing, `P3xx`
/// operator shape, `P4xx` pushdown legality, `P9xx` plan bytes that did
/// not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    /// `P100` — plan version differs from [`IR_VERSION`].
    UnsupportedVersion,
    /// `P102` — operator chain or expression tree exceeds the depth cap.
    DepthExceeded,
    /// `P103` — total node count exceeds the cap.
    NodeCountExceeded,
    /// `P104` — a schema is wider than the cap.
    SchemaWidthExceeded,
    /// `P105` — a `Read` projection index is outside the base schema.
    ProjectionOutOfRange,
    /// `P200` — field reference outside the input arity.
    FieldOutOfRange,
    /// `P201` — comparison operand types disagree.
    CmpTypeMismatch,
    /// `P202` — arithmetic over a non-numeric type combination.
    ArithTypeIllegal,
    /// `P203` — AND/OR/NOT operand is not boolean.
    BoolOperandNotBoolean,
    /// `P204` — `BETWEEN` bound type incompatible with the tested expr.
    BetweenTypeMismatch,
    /// `P206` — cast with no kernel support (e.g. boolean → float64).
    CastIllegal,
    /// `P208` — unary minus over a non-numeric type.
    NegateNonNumeric,
    /// `P300` — filter predicate is not boolean.
    FilterNotBoolean,
    /// `P301` — projection with no expressions.
    ProjectEmpty,
    /// `P302` — aggregate with neither keys nor measures.
    AggregateEmpty,
    /// `P303` — measure input type the accumulator cannot fold.
    MeasureTypeIllegal,
    /// `P305` — sort with no keys.
    SortEmpty,
    /// `P306` — sort key is not a plain field reference.
    SortKeyNotFieldRef,
    /// `P307` — inner `Sort` not directly consumed by a `Fetch` (top-N
    /// shape rule; a root `Sort` is a plain ORDER BY and is fine).
    SortNotUnderFetch,
    /// `P400` — pushed plan has an operator above its `Fetch`.
    PushdownFetchNotRoot,
    /// `P401` — pushed `Fetch` has a non-zero offset (wrong per object).
    PushdownOffsetNonZero,
    /// `P402` — pushed plan has more than one `Aggregate`.
    PushdownMultipleAggregates,
    /// `P900` — plan bytes failed to decode.
    Corrupt,
}

impl DiagCode {
    /// The stable wire/log form of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::UnsupportedVersion => "P100",
            DiagCode::DepthExceeded => "P102",
            DiagCode::NodeCountExceeded => "P103",
            DiagCode::SchemaWidthExceeded => "P104",
            DiagCode::ProjectionOutOfRange => "P105",
            DiagCode::FieldOutOfRange => "P200",
            DiagCode::CmpTypeMismatch => "P201",
            DiagCode::ArithTypeIllegal => "P202",
            DiagCode::BoolOperandNotBoolean => "P203",
            DiagCode::BetweenTypeMismatch => "P204",
            DiagCode::CastIllegal => "P206",
            DiagCode::NegateNonNumeric => "P208",
            DiagCode::FilterNotBoolean => "P300",
            DiagCode::ProjectEmpty => "P301",
            DiagCode::AggregateEmpty => "P302",
            DiagCode::MeasureTypeIllegal => "P303",
            DiagCode::SortEmpty => "P305",
            DiagCode::SortKeyNotFieldRef => "P306",
            DiagCode::SortNotUnderFetch => "P307",
            DiagCode::PushdownFetchNotRoot => "P400",
            DiagCode::PushdownOffsetNonZero => "P401",
            DiagCode::PushdownMultipleAggregates => "P402",
            DiagCode::Corrupt => "P900",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verifier finding: a stable code, the plan path of the offending
/// node (`root.input.predicate.left` style), and a human message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable error code.
    pub code: DiagCode,
    /// Path from the plan root to the offending node.
    pub path: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(code: DiagCode, path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            path: path.into(),
            message: message.into(),
        }
    }

    /// Map a decode [`IrError`] into the diagnostic space so one
    /// structured type crosses the RPC error frame.
    pub fn from_ir(err: &IrError, path: impl Into<String>) -> Diagnostic {
        let IrError::Corrupt(message) = err;
        Diagnostic::new(DiagCode::Corrupt, path, message.clone())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.code, self.path, self.message)
    }
}

impl std::error::Error for Diagnostic {}

/// Resource caps applied while walking a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum operator-chain length and expression depth.
    pub max_depth: usize,
    /// Maximum total node count (operators + expression nodes).
    pub max_nodes: usize,
    /// Maximum width of any schema in the plan.
    pub max_schema_width: usize,
}

impl Limits {
    /// The one set of caps, for every plan: tighter than the wire-format
    /// caps so the verifier, not the allocator, is the backstop against a
    /// hostile peer, and the engine rejects anything storage would.
    pub fn untrusted() -> Limits {
        Limits {
            max_depth: 128,
            max_nodes: 65_536,
            max_schema_width: 4_096,
        }
    }
}

/// What planck inferred for one operator of a [`VerifiedPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpTypes {
    /// The operator's output schema.
    pub schema: SchemaRef,
    /// An `Aggregate`'s measure argument types, in measure order (`None`
    /// for `COUNT(*)`); empty for every other operator.
    pub measure_args: Vec<Option<DataType>>,
}

/// A plan planck accepted, with the types it inferred for each operator.
/// Only [`verify_untrusted`] and [`verify_pushdown`] construct one, so
/// whoever holds one neither re-checks the plan nor re-derives a type.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedPlan<'p> {
    /// Leaf (the `Read`) first; never empty.
    ops: Vec<(&'p Rel, OpTypes)>,
}

impl<'p> VerifiedPlan<'p> {
    /// Every operator, leaf (the `Read`) first, with its inferred types.
    pub fn ops(&self) -> &[(&'p Rel, OpTypes)] {
        &self.ops
    }

    /// The plan's output schema: the root operator's.
    pub fn schema(&self) -> &SchemaRef {
        &self.ops[self.ops.len() - 1].1.schema
    }
}

/// The verifier. Construct with [`Verifier::untrusted`] (decoded bytes)
/// or [`Verifier::pushdown`] (engine-side pre-ship check), then call
/// [`Verifier::verify`].
#[derive(Debug, Clone)]
pub struct Verifier {
    pushdown: bool,
}

impl Verifier {
    /// Structure, typing and shape passes — for plans decoded from bytes
    /// an untrusted peer sent.
    pub fn untrusted() -> Verifier {
        Verifier { pushdown: false }
    }

    /// All passes including pushdown legality — the engine-side check
    /// run on a plan about to be shipped to storage.
    pub fn pushdown() -> Verifier {
        Verifier { pushdown: true }
    }

    /// Run every pass. Returns the plan with each operator's inferred
    /// types on success, or every diagnostic found (never empty on `Err`).
    pub fn verify<'p>(&self, plan: &'p Plan) -> Result<VerifiedPlan<'p>, Vec<Diagnostic>> {
        let mut cx = Cx {
            limits: Limits::untrusted(),
            nodes: 0,
            diags: Vec::new(),
        };

        if plan.version != IR_VERSION {
            cx.push(
                DiagCode::UnsupportedVersion,
                "root",
                format!("IR version {} (supported: {IR_VERSION})", plan.version),
            );
        }

        // Pass 1: structure + resource bounds. The chain is collected
        // iteratively so a hostile depth cannot overflow the stack.
        let mut ops: Vec<&Rel> = Vec::new();
        let mut cur = &plan.root;
        loop {
            ops.push(cur);
            if ops.len() > cx.limits.max_depth {
                cx.push(
                    DiagCode::DepthExceeded,
                    rel_path(ops.len() - 1),
                    format!("operator chain deeper than {}", cx.limits.max_depth),
                );
                return Err(cx.diags);
            }
            match cur.input() {
                Some(next) => cur = next,
                None => break,
            }
        }

        // Pass 2 + 3: scope/typing and operator shape, leaf → root,
        // threading the inferred schema upward.
        let mut typed: Vec<(&Rel, OpTypes)> = Vec::with_capacity(ops.len());
        for (depth, op) in ops.iter().enumerate().rev() {
            let path = rel_path(depth);
            let consumer = depth.checked_sub(1).map(|d| ops[d]);
            let input = typed.last().map(|(_, t)| &t.schema);
            match self.check_op(&mut cx, op, input, &path, consumer) {
                Some(types) => typed.push((op, types)),
                None => break,
            }
        }

        // Pass 4: pushdown legality (engine-side, root → leaf).
        if self.pushdown {
            let mut aggregates = 0usize;
            for (depth, op) in ops.iter().enumerate() {
                match op {
                    Rel::Fetch { offset, .. } => {
                        if depth != 0 {
                            cx.push(
                                DiagCode::PushdownFetchNotRoot,
                                rel_path(depth),
                                "pushed plans may only carry Fetch at the root",
                            );
                        }
                        if *offset != 0 {
                            cx.push(
                                DiagCode::PushdownOffsetNonZero,
                                rel_path(depth),
                                format!("offset {offset} is not mergeable across objects"),
                            );
                        }
                    }
                    Rel::Aggregate { .. } => {
                        aggregates += 1;
                        if aggregates > 1 {
                            cx.push(
                                DiagCode::PushdownMultipleAggregates,
                                rel_path(depth),
                                "pushed plans may carry at most one Aggregate",
                            );
                        }
                    }
                    _ => {}
                }
            }
        }

        if cx.nodes > cx.limits.max_nodes {
            cx.push(
                DiagCode::NodeCountExceeded,
                "root",
                format!("{} nodes exceed cap {}", cx.nodes, cx.limits.max_nodes),
            );
        }

        if cx.diags.is_empty() && typed.len() == ops.len() {
            Ok(VerifiedPlan { ops: typed })
        } else {
            Err(cx.diags)
        }
    }

    /// Check one operator given its (already-checked) input schema;
    /// returns this operator's types if they could be inferred.
    fn check_op(
        &self,
        cx: &mut Cx,
        op: &Rel,
        input_schema: Option<&SchemaRef>,
        path: &str,
        consumer: Option<&Rel>,
    ) -> Option<OpTypes> {
        cx.nodes += 1;
        let schema_only = |schema: SchemaRef| {
            Some(OpTypes {
                schema,
                measure_args: Vec::new(),
            })
        };
        match op {
            Rel::Read {
                base_schema,
                projection,
                ..
            } => {
                if base_schema.len() > cx.limits.max_schema_width {
                    cx.push(
                        DiagCode::SchemaWidthExceeded,
                        path,
                        format!(
                            "base schema has {} fields (cap {})",
                            base_schema.len(),
                            cx.limits.max_schema_width
                        ),
                    );
                    return None;
                }
                match projection {
                    None => schema_only(Arc::new(base_schema.clone())),
                    Some(idx) => {
                        let mut ok = true;
                        for (i, col) in idx.iter().enumerate() {
                            if *col >= base_schema.len() {
                                cx.push(
                                    DiagCode::ProjectionOutOfRange,
                                    format!("{path}.projection[{i}]"),
                                    format!(
                                        "column #{col} outside the {}-column base schema",
                                        base_schema.len()
                                    ),
                                );
                                ok = false;
                            }
                        }
                        if !ok {
                            return None;
                        }
                        schema_only(Arc::new(Schema::new(
                            idx.iter().map(|&c| base_schema.field(c).clone()).collect(),
                        )))
                    }
                }
            }
            Rel::Filter { predicate, .. } => {
                let schema = input_schema?;
                let mut p = scratch(path, ".predicate");
                if let Some(t) = cx.check_expr(predicate, schema, &mut p, 0) {
                    if t != DataType::Boolean {
                        cx.push(
                            DiagCode::FilterNotBoolean,
                            p,
                            format!("filter predicate is {t}, must be boolean"),
                        );
                    }
                }
                schema_only(schema.clone())
            }
            Rel::Project { exprs, .. } => {
                let schema = input_schema?;
                if exprs.is_empty() {
                    cx.push(
                        DiagCode::ProjectEmpty,
                        path,
                        "projection has no expressions",
                    );
                    return None;
                }
                let mut p = scratch(path, "");
                let base = p.len();
                let mut fields = Vec::with_capacity(exprs.len());
                for (i, (e, name)) in exprs.iter().enumerate() {
                    let _ = write!(p, ".exprs[{i}]");
                    let t = cx.check_expr(e, schema, &mut p, 0)?;
                    p.truncate(base);
                    fields.push(Field::new(name.clone(), t, true));
                }
                schema_only(Arc::new(Schema::new(fields)))
            }
            Rel::Aggregate {
                group_by, measures, ..
            } => {
                let schema = input_schema?;
                if group_by.is_empty() && measures.is_empty() {
                    cx.push(
                        DiagCode::AggregateEmpty,
                        path,
                        "aggregate with no keys and no measures",
                    );
                    return None;
                }
                let mut p = scratch(path, "");
                let base = p.len();
                let mut fields = Vec::with_capacity(group_by.len() + measures.len());
                for (i, (e, name)) in group_by.iter().enumerate() {
                    let _ = write!(p, ".group_by[{i}]");
                    let t = cx.check_expr(e, schema, &mut p, 0)?;
                    p.truncate(base);
                    fields.push(Field::new(name.clone(), t, true));
                }
                let mut measure_args = Vec::with_capacity(measures.len());
                for (i, m) in measures.iter().enumerate() {
                    let _ = write!(p, ".measures[{i}]");
                    let measure = p.len();
                    let arg_type = match &m.arg {
                        Some(e) => {
                            p.push_str(".arg");
                            let t = cx.check_expr(e, schema, &mut p, 0)?;
                            p.truncate(measure);
                            Some(t)
                        }
                        None => None,
                    };
                    match m.func.result_type(arg_type) {
                        Ok(t) => fields.push(Field::new(m.name.clone(), t, true)),
                        Err(e) => {
                            cx.push(DiagCode::MeasureTypeIllegal, p, e.to_string());
                            return None;
                        }
                    }
                    measure_args.push(arg_type);
                    p.truncate(base);
                }
                Some(OpTypes {
                    schema: Arc::new(Schema::new(fields)),
                    measure_args,
                })
            }
            Rel::Sort { keys, .. } => {
                let schema = input_schema?;
                if keys.is_empty() {
                    cx.push(DiagCode::SortEmpty, path, "sort with no keys");
                    return None;
                }
                // Top-N shape rule: an inner Sort is only meaningful when a
                // Fetch consumes it directly; a root Sort is a plain ORDER BY.
                if let Some(parent) = consumer {
                    if !matches!(parent, Rel::Fetch { .. }) {
                        cx.push(
                            DiagCode::SortNotUnderFetch,
                            path,
                            format!(
                                "Sort feeding {} is unobservable; only Fetch may consume a Sort",
                                parent.name()
                            ),
                        );
                    }
                }
                let mut p = scratch(path, "");
                let base = p.len();
                for (i, k) in keys.iter().enumerate() {
                    let _ = write!(p, ".keys[{i}]");
                    if !matches!(k.expr, Expr::FieldRef(_)) {
                        cx.push(
                            DiagCode::SortKeyNotFieldRef,
                            p.as_str(),
                            format!("sort key must be a field reference, got {}", k.expr),
                        );
                    }
                    cx.check_expr(&k.expr, schema, &mut p, 0);
                    p.truncate(base);
                }
                schema_only(schema.clone())
            }
            Rel::Fetch { .. } => schema_only(input_schema?.clone()),
        }
    }
}

/// Shared verifier state for one run.
struct Cx {
    limits: Limits,
    nodes: usize,
    diags: Vec<Diagnostic>,
}

impl Cx {
    fn push(&mut self, code: DiagCode, path: impl Into<String>, message: impl Into<String>) {
        self.diags.push(Diagnostic::new(code, path, message));
    }

    /// Type-check one expression, pushing diagnostics as it goes.
    /// Returns `None` when the type could not be established (the cause
    /// is already recorded); recursion is bounded by `limits.max_depth`.
    ///
    /// `path` is a scratch buffer holding this node's plan path; children
    /// push their segment and truncate it back, so the happy path does no
    /// allocation at all — the string only escapes into a [`Diagnostic`].
    fn check_expr(
        &mut self,
        e: &Expr,
        schema: &Schema,
        path: &mut String,
        depth: usize,
    ) -> Option<DataType> {
        self.nodes += 1;
        if depth > self.limits.max_depth {
            self.push(
                DiagCode::DepthExceeded,
                path.as_str(),
                format!("expression deeper than {}", self.limits.max_depth),
            );
            return None;
        }
        let d = depth + 1;
        let here = path.len();
        let sub = |cx: &mut Self, seg: &str, child: &Expr, path: &mut String| {
            path.push_str(seg);
            let t = cx.check_expr(child, schema, path, d);
            path.truncate(here);
            t
        };
        match e {
            Expr::FieldRef(i) => {
                if *i >= schema.len() {
                    self.push(
                        DiagCode::FieldOutOfRange,
                        path.as_str(),
                        format!(
                            "field reference #{i} out of range for arity {}",
                            schema.len()
                        ),
                    );
                    return None;
                }
                Some(schema.field(*i).data_type)
            }
            Expr::Literal(s) => Some(literal_type(s)),
            Expr::Cmp { left, right, .. } => {
                let l = sub(self, ".left", left, path);
                let r = sub(self, ".right", right, path);
                let (l, r) = (l?, r?);
                if !comparable((left.as_ref(), l), (right.as_ref(), r)) {
                    self.push(
                        DiagCode::CmpTypeMismatch,
                        path.as_str(),
                        format!("cannot compare {l} with {r}"),
                    );
                    return None;
                }
                Some(DataType::Boolean)
            }
            Expr::Arith { op, left, right } => {
                let l = sub(self, ".left", left, path)?;
                let r = sub(self, ".right", right, path)?;
                match op.result_type(l, r) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        self.push(DiagCode::ArithTypeIllegal, path.as_str(), e.to_string());
                        None
                    }
                }
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                let mut ok = true;
                for (side, child) in [(".left", a), (".right", b)] {
                    match sub(self, side, child, path) {
                        Some(DataType::Boolean) => {}
                        Some(t) => {
                            path.push_str(side);
                            self.push(
                                DiagCode::BoolOperandNotBoolean,
                                path.as_str(),
                                format!("{} operand of boolean op is {t}", &side[1..]),
                            );
                            path.truncate(here);
                            ok = false;
                        }
                        None => ok = false,
                    }
                }
                ok.then_some(DataType::Boolean)
            }
            Expr::Not(child) => match sub(self, ".expr", child, path) {
                Some(DataType::Boolean) => Some(DataType::Boolean),
                Some(t) => {
                    path.push_str(".expr");
                    self.push(
                        DiagCode::BoolOperandNotBoolean,
                        path.as_str(),
                        format!("NOT of {t}"),
                    );
                    path.truncate(here);
                    None
                }
                None => None,
            },
            Expr::Between { expr, lo, hi } => {
                let t = sub(self, ".expr", expr, path);
                let lo_t = sub(self, ".lo", lo, path);
                let hi_t = sub(self, ".hi", hi, path);
                let (t, lo_t, hi_t) = (t?, lo_t?, hi_t?);
                let mut ok = true;
                for (side, bound, bt) in [(".lo", lo, lo_t), (".hi", hi, hi_t)] {
                    if !comparable((bound.as_ref(), bt), (expr.as_ref(), t)) {
                        path.push_str(side);
                        self.push(
                            DiagCode::BetweenTypeMismatch,
                            path.as_str(),
                            format!("BETWEEN bound {bt} vs {t}"),
                        );
                        path.truncate(here);
                        ok = false;
                    }
                }
                ok.then_some(DataType::Boolean)
            }
            Expr::Cast { expr, to } => {
                let from = sub(self, ".expr", expr, path)?;
                if !castable(from, *to) {
                    self.push(
                        DiagCode::CastIllegal,
                        path.as_str(),
                        format!("no cast kernel from {from} to {to}"),
                    );
                    return None;
                }
                Some(*to)
            }
            Expr::Negate(child) => {
                let t = sub(self, ".expr", child, path)?;
                match negate_type(t) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        self.push(DiagCode::NegateNonNumeric, path.as_str(), e.to_string());
                        None
                    }
                }
            }
            Expr::IsNull(child) | Expr::IsNotNull(child) => {
                sub(self, ".expr", child, path)?;
                Some(DataType::Boolean)
            }
        }
    }
}

/// A path scratch buffer seeded with `base` + `seg`, with headroom so the
/// per-node pushes below rarely reallocate.
fn scratch(base: &str, seg: &str) -> String {
    let mut p = String::with_capacity(base.len() + seg.len() + 24);
    p.push_str(base);
    p.push_str(seg);
    p
}

/// Path of the operator `depth` steps below the root.
fn rel_path(depth: usize) -> String {
    let mut p = String::from("root");
    for _ in 0..depth {
        p.push_str(".input");
    }
    p
}

/// The most useful single diagnostic from a batch: the first one found,
/// with a note when others follow. For error types that carry exactly
/// one diagnostic across a boundary.
pub fn primary(diags: Vec<Diagnostic>) -> Diagnostic {
    let extra = diags.len().saturating_sub(1);
    let mut diags = diags.into_iter();
    let Some(mut first) = diags.next() else {
        // verify() never returns an empty Err; defend anyway.
        return Diagnostic::new(DiagCode::Corrupt, "root", "verification failed");
    };
    if extra > 0 {
        first.message = format!("{} (+{extra} more)", first.message);
    }
    first
}

/// Verify a plan decoded from untrusted bytes (resource caps applied) —
/// the check the OCS frontend makes once per split.
pub fn verify_untrusted(plan: &Plan) -> Result<VerifiedPlan<'_>, Vec<Diagnostic>> {
    Verifier::untrusted().verify(plan)
}

/// Verify a plan about to be pushed to storage (all passes) — the check
/// the connector optimizer makes once per query.
pub fn verify_pushdown(plan: &Plan) -> Result<VerifiedPlan<'_>, Vec<Diagnostic>> {
    Verifier::pushdown().verify(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Measure, SortField};
    use columnar::agg::AggFunc;
    use columnar::kernels::arith::ArithOp;
    use columnar::kernels::cmp::CmpOp;
    use columnar::Scalar;

    fn base() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
            Field::new("tag", DataType::Utf8, false),
        ])
    }

    fn codes(plan: &Plan) -> Vec<DiagCode> {
        match verify_untrusted(plan) {
            Ok(_) => Vec::new(),
            Err(ds) => ds.iter().map(|d| d.code).collect(),
        }
    }

    #[test]
    fn valid_plan_passes_and_infers_schema() {
        let plan = Plan::new(Rel::Fetch {
            input: Box::new(Rel::Sort {
                input: Box::new(Rel::Aggregate {
                    input: Box::new(Rel::Filter {
                        input: Box::new(Rel::read("t", base(), None)),
                        predicate: Expr::Between {
                            expr: Box::new(Expr::field(1)),
                            lo: Box::new(Expr::lit(Scalar::Float64(0.8))),
                            hi: Box::new(Expr::lit(Scalar::Float64(3.2))),
                        },
                    }),
                    group_by: vec![(Expr::field(0), "id".into())],
                    measures: vec![Measure {
                        func: AggFunc::Avg,
                        arg: Some(Expr::field(1)),
                        name: "e".into(),
                    }],
                }),
                keys: vec![SortField {
                    expr: Expr::field(1),
                    ascending: true,
                    nulls_first: true,
                }],
            }),
            offset: 0,
            limit: 100,
        });
        let v = verify_untrusted(&plan).unwrap();
        assert_eq!(v.schema().names(), vec!["id", "e"]);
        // One entry per operator, leaf first; only the Aggregate has
        // measure arguments.
        let names: Vec<&str> = v.ops().iter().map(|(r, _)| r.name()).collect();
        assert_eq!(names, ["Read", "Filter", "Aggregate", "Sort", "Fetch"]);
        assert_eq!(v.ops()[2].1.measure_args, vec![Some(DataType::Float64)]);
        assert!(v.ops()[1].1.measure_args.is_empty());
        // The same plan is also pushdown-legal.
        assert!(verify_pushdown(&plan).is_ok());
    }

    #[test]
    fn version_and_leaf_structure() {
        let mut plan = Plan::new(Rel::read("t", base(), None));
        plan.version = 7;
        assert_eq!(codes(&plan), vec![DiagCode::UnsupportedVersion]);
    }

    #[test]
    fn field_out_of_range_with_path() {
        let plan = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base(), None)),
            predicate: Expr::cmp(CmpOp::Gt, Expr::field(9), Expr::lit(Scalar::Int64(1))),
        });
        let ds = verify_untrusted(&plan).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::FieldOutOfRange);
        assert_eq!(ds[0].path, "root.predicate.left");
    }

    #[test]
    fn cmp_and_arith_type_rules() {
        let cmp = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base(), None)),
            predicate: Expr::cmp(CmpOp::Eq, Expr::field(2), Expr::field(0)),
        });
        assert_eq!(codes(&cmp), vec![DiagCode::CmpTypeMismatch]);

        let arith = Plan::new(Rel::Project {
            input: Box::new(Rel::read("t", base(), None)),
            exprs: vec![(
                Expr::arith(ArithOp::Add, Expr::field(2), Expr::field(0)),
                "y".into(),
            )],
        });
        assert_eq!(codes(&arith), vec![DiagCode::ArithTypeIllegal]);
    }

    #[test]
    fn between_ordering_and_typing() {
        // Inverted constant bounds are valid SQL that matches no row.
        let inverted = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base(), None)),
            predicate: Expr::Between {
                expr: Box::new(Expr::field(1)),
                lo: Box::new(Expr::lit(Scalar::Float64(5.0))),
                hi: Box::new(Expr::lit(Scalar::Float64(2.0))),
            },
        });
        assert_eq!(codes(&inverted), vec![]);

        let mistyped = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base(), None)),
            predicate: Expr::Between {
                expr: Box::new(Expr::field(2)),
                lo: Box::new(Expr::lit(Scalar::Int64(0))),
                hi: Box::new(Expr::lit(Scalar::Int64(9))),
            },
        });
        assert!(codes(&mistyped).contains(&DiagCode::BetweenTypeMismatch));
    }

    #[test]
    fn cast_legality() {
        let bad = Plan::new(Rel::Project {
            input: Box::new(Rel::read("t", base(), None)),
            exprs: vec![(
                Expr::Cast {
                    expr: Box::new(Expr::cmp(
                        CmpOp::Gt,
                        Expr::field(1),
                        Expr::lit(Scalar::Float64(0.0)),
                    )),
                    to: DataType::Float64,
                },
                "y".into(),
            )],
        });
        assert_eq!(codes(&bad), vec![DiagCode::CastIllegal]);
    }

    #[test]
    fn untyped_null_literal() {
        let project = |e: Expr| {
            Plan::new(Rel::Project {
                input: Box::new(Rel::read("t", base(), None)),
                exprs: vec![(e, "n".into())],
            })
        };
        let plan = project(Expr::lit(Scalar::Null));
        let v = verify_untrusted(&plan).unwrap();
        assert_eq!(v.schema().field(0).data_type, DataType::Boolean);
        // It compares with any type...
        let cmp = project(Expr::cmp(
            CmpOp::Gt,
            Expr::field(2),
            Expr::lit(Scalar::Null),
        ));
        assert_eq!(codes(&cmp), vec![]);
        // ...and casts only where a Boolean casts.
        let cast = |to| {
            project(Expr::Cast {
                expr: Box::new(Expr::lit(Scalar::Null)),
                to,
            })
        };
        assert_eq!(codes(&cast(DataType::Utf8)), vec![]);
        assert_eq!(codes(&cast(DataType::Int64)), vec![DiagCode::CastIllegal]);
        // Nor is it an arithmetic operand.
        let add = project(Expr::arith(
            ArithOp::Add,
            Expr::field(0),
            Expr::lit(Scalar::Null),
        ));
        assert_eq!(codes(&add), vec![DiagCode::ArithTypeIllegal]);
    }

    #[test]
    fn measure_legality() {
        let sum_utf8 = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::read("t", base(), None)),
            group_by: vec![],
            measures: vec![Measure {
                func: AggFunc::Sum,
                arg: Some(Expr::field(2)),
                name: "s".into(),
            }],
        });
        assert_eq!(codes(&sum_utf8), vec![DiagCode::MeasureTypeIllegal]);

        let min_no_arg = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::read("t", base(), None)),
            group_by: vec![],
            measures: vec![Measure {
                func: AggFunc::Min,
                arg: None,
                name: "m".into(),
            }],
        });
        assert_eq!(codes(&min_no_arg), vec![DiagCode::MeasureTypeIllegal]);

        // AVG takes what SUM takes, and never `*`.
        for arg in [Some(Expr::field(2)), None] {
            let avg = Plan::new(Rel::Aggregate {
                input: Box::new(Rel::read("t", base(), None)),
                group_by: vec![],
                measures: vec![Measure {
                    func: AggFunc::Avg,
                    arg,
                    name: "a".into(),
                }],
            });
            assert_eq!(codes(&avg), vec![DiagCode::MeasureTypeIllegal]);
        }
    }

    #[test]
    fn sort_shape_rules() {
        // Sort feeding a Filter is unobservable.
        let buried = Plan::new(Rel::Filter {
            input: Box::new(Rel::Sort {
                input: Box::new(Rel::read("t", base(), None)),
                keys: vec![SortField {
                    expr: Expr::field(0),
                    ascending: true,
                    nulls_first: false,
                }],
            }),
            predicate: Expr::cmp(CmpOp::Gt, Expr::field(0), Expr::lit(Scalar::Int64(0))),
        });
        assert_eq!(codes(&buried), vec![DiagCode::SortNotUnderFetch]);

        // A root Sort is a plain ORDER BY and passes.
        let root_sort = Plan::new(Rel::Sort {
            input: Box::new(Rel::read("t", base(), None)),
            keys: vec![SortField {
                expr: Expr::field(0),
                ascending: false,
                nulls_first: false,
            }],
        });
        assert!(verify_untrusted(&root_sort).is_ok());

        // Computed sort keys are rejected.
        let computed = Plan::new(Rel::Sort {
            input: Box::new(Rel::read("t", base(), None)),
            keys: vec![SortField {
                expr: Expr::arith(ArithOp::Add, Expr::field(0), Expr::lit(Scalar::Int64(1))),
                ascending: true,
                nulls_first: false,
            }],
        });
        assert_eq!(codes(&computed), vec![DiagCode::SortKeyNotFieldRef]);
    }

    #[test]
    fn pushdown_rules() {
        // Fetch below the root.
        let buried_fetch = Plan::new(Rel::Filter {
            input: Box::new(Rel::Fetch {
                input: Box::new(Rel::read("t", base(), None)),
                offset: 0,
                limit: 10,
            }),
            predicate: Expr::cmp(CmpOp::Gt, Expr::field(0), Expr::lit(Scalar::Int64(0))),
        });
        assert!(verify_untrusted(&buried_fetch).is_ok());
        let ds = verify_pushdown(&buried_fetch).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::PushdownFetchNotRoot);

        // Non-zero offset is not mergeable per object.
        let offset = Plan::new(Rel::Fetch {
            input: Box::new(Rel::read("t", base(), None)),
            offset: 5,
            limit: 10,
        });
        assert!(verify_untrusted(&offset).is_ok());
        let ds = verify_pushdown(&offset).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::PushdownOffsetNonZero);

        // Two aggregates cannot be pushed.
        let double_agg = Plan::new(Rel::Aggregate {
            input: Box::new(Rel::Aggregate {
                input: Box::new(Rel::read("t", base(), None)),
                group_by: vec![(Expr::field(0), "id".into())],
                measures: vec![Measure {
                    func: AggFunc::Sum,
                    arg: Some(Expr::field(1)),
                    name: "s".into(),
                }],
            }),
            group_by: vec![],
            measures: vec![Measure {
                func: AggFunc::Sum,
                arg: Some(Expr::field(1)),
                name: "ss".into(),
            }],
        });
        let ds = verify_pushdown(&double_agg).unwrap_err();
        assert!(ds
            .iter()
            .any(|d| d.code == DiagCode::PushdownMultipleAggregates));
    }

    #[test]
    fn resource_limits() {
        // A chain deeper than the untrusted cap is cut off early.
        let mut rel = Rel::read("t", base(), None);
        for _ in 0..200 {
            rel = Rel::Fetch {
                input: Box::new(rel),
                offset: 0,
                limit: 1,
            };
        }
        let plan = Plan::new(rel);
        let ds = verify_untrusted(&plan).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::DepthExceeded);
        // The engine-side check applies the same caps.
        let ds = verify_pushdown(&plan).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::DepthExceeded);

        // A hostile schema width is rejected.
        let wide = Schema::new(
            (0..5_000)
                .map(|i| Field::new(format!("c{i}"), DataType::Int64, false))
                .collect(),
        );
        let plan = Plan::new(Rel::read("t", wide, None));
        let ds = verify_untrusted(&plan).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::SchemaWidthExceeded);
    }

    #[test]
    fn diagnostics_render_code_and_path() {
        let d = Diagnostic::new(DiagCode::CmpTypeMismatch, "root.predicate", "boom");
        assert_eq!(d.to_string(), "[P201] at root.predicate: boom");
        assert_eq!(
            primary(vec![d.clone(), d.clone()]).message,
            "boom (+1 more)"
        );
        let ir = IrError::Corrupt("unexpected end".into());
        let mapped = Diagnostic::from_ir(&ir, "root");
        assert_eq!(mapped.code, DiagCode::Corrupt);
        assert_eq!(mapped.to_string(), "[P900] at root: unexpected end");
    }

    #[test]
    fn projection_bounds() {
        let plan = Plan::new(Rel::read("t", base(), Some(vec![2, 0])));
        let v = verify_untrusted(&plan).unwrap();
        assert_eq!(v.schema().names(), vec!["tag", "id"]);
        let plan = Plan::new(Rel::read("t", base(), Some(vec![0, 7])));
        let ds = verify_untrusted(&plan).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::ProjectionOutOfRange);
        assert_eq!(ds[0].path, "root.projection[1]");
    }
}
