//! `planck` — the static plan verifier for the Substrait boundary.
//!
//! The plan shipped from the connector to OCS is the *entire* contract
//! between engine and storage: whatever arrives is executed inside the
//! storage device, where a malformed or illegally-rewritten plan is
//! hardest to debug. This module is a multi-pass static analysis over
//! [`Rel`]/[`Expr`] trees that goes well beyond the schema inference in
//! [`Plan::validate`]:
//!
//! * **structure + resource bounds** — single `Read` leaf, supported IR
//!   version, and (for plans decoded from untrusted bytes) caps on tree
//!   depth, node count and schema width so a hostile frame cannot DoS
//!   the storage executor;
//! * **scope + typing** — field-reference bounds, comparison operand
//!   agreement, numeric-only arithmetic, `BETWEEN` bound typing *and*
//!   constant-bound ordering, cast legality against the kernel matrix,
//!   untyped `NULL` literals;
//! * **operator shape** — boolean filter predicates, non-empty
//!   project/aggregate/sort, measure input types the accumulators
//!   actually support, hashable group keys, field-reference sort keys,
//!   and the top-N rule (an inner `Sort` is only meaningful directly
//!   under a `Fetch`);
//! * **pushdown legality** (engine-side, before shipping) — `Fetch`
//!   only at the root with offset 0 (a per-object offset is semantically
//!   wrong once results are merged), at most one `Aggregate`, and no
//!   non-deterministic expressions below the storage boundary.
//!
//! Every violation is a structured [`Diagnostic`] carrying a stable
//! [`DiagCode`] and the plan path of the offending node, so the engine
//! can log exactly which node of a shipped plan was rejected.
//!
//! Three enforcement layers use these passes (see DESIGN.md):
//! engine-side before shipping ([`verify_pushdown`]), OCS-side on every
//! decoded plan ([`verify_untrusted`] at the RPC frontend plus
//! [`verify`] in the executor), and the optimizer invariant checker in
//! the engine crate (differential schema check after every rewrite).

use std::fmt;
use std::fmt::Write as _;

use columnar::agg::AggFunc;
use columnar::{DataType, Field, Scalar, Schema};

use crate::expr::Expr;
use crate::rel::{Plan, Rel, IR_VERSION};
use crate::IrError;

/// Stable diagnostic codes. The numeric bands group related checks:
/// `P1xx` structure/resources, `P2xx` expression typing, `P3xx`
/// operator shape, `P4xx` pushdown legality, `P9xx` transport errors
/// mapped from [`IrError`] at the decode boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    /// `P100` — plan version differs from [`IR_VERSION`].
    UnsupportedVersion,
    /// `P101` — the leaf operator is not a `Read`.
    LeafNotRead,
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
    /// `P205` — constant `BETWEEN` bounds are inverted (lo > hi).
    BetweenBoundsInverted,
    /// `P206` — cast with no kernel support (e.g. boolean → float64).
    CastIllegal,
    /// `P207` — untyped `NULL` literal outside a typing cast.
    NullLiteralUntyped,
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
    /// `P304` — group-by key type is not hashable.
    GroupKeyNotHashable,
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
    /// `P403` — non-deterministic expression below the storage boundary.
    PushdownNonDeterministic,
    /// `P900` — plan bytes failed to decode.
    Corrupt,
    /// `P901` — type error surfaced by schema inference outside planck.
    TransportType,
    /// `P902` — structural error surfaced outside planck.
    TransportStructure,
}

impl DiagCode {
    /// The stable wire/log form of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::UnsupportedVersion => "P100",
            DiagCode::LeafNotRead => "P101",
            DiagCode::DepthExceeded => "P102",
            DiagCode::NodeCountExceeded => "P103",
            DiagCode::SchemaWidthExceeded => "P104",
            DiagCode::ProjectionOutOfRange => "P105",
            DiagCode::FieldOutOfRange => "P200",
            DiagCode::CmpTypeMismatch => "P201",
            DiagCode::ArithTypeIllegal => "P202",
            DiagCode::BoolOperandNotBoolean => "P203",
            DiagCode::BetweenTypeMismatch => "P204",
            DiagCode::BetweenBoundsInverted => "P205",
            DiagCode::CastIllegal => "P206",
            DiagCode::NullLiteralUntyped => "P207",
            DiagCode::NegateNonNumeric => "P208",
            DiagCode::FilterNotBoolean => "P300",
            DiagCode::ProjectEmpty => "P301",
            DiagCode::AggregateEmpty => "P302",
            DiagCode::MeasureTypeIllegal => "P303",
            DiagCode::GroupKeyNotHashable => "P304",
            DiagCode::SortEmpty => "P305",
            DiagCode::SortKeyNotFieldRef => "P306",
            DiagCode::SortNotUnderFetch => "P307",
            DiagCode::PushdownFetchNotRoot => "P400",
            DiagCode::PushdownOffsetNonZero => "P401",
            DiagCode::PushdownMultipleAggregates => "P402",
            DiagCode::PushdownNonDeterministic => "P403",
            DiagCode::Corrupt => "P900",
            DiagCode::TransportType => "P901",
            DiagCode::TransportStructure => "P902",
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

    /// Map a decode/inference [`IrError`] into the diagnostic space so
    /// one structured type crosses the RPC error frame.
    pub fn from_ir(err: &IrError, path: impl Into<String>) -> Diagnostic {
        let (code, message) = match err {
            IrError::FieldOutOfRange { index, arity } => (
                DiagCode::FieldOutOfRange,
                format!("field reference #{index} out of range for arity {arity}"),
            ),
            IrError::Type(m) => (DiagCode::TransportType, m.clone()),
            IrError::Structure(m) => (DiagCode::TransportStructure, m.clone()),
            IrError::Corrupt(m) => (DiagCode::Corrupt, m.clone()),
        };
        Diagnostic::new(code, path, message)
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
    /// Caps for plans decoded from an untrusted peer. Tighter than the
    /// wire-format caps so the verifier, not the allocator, is the
    /// backstop.
    pub fn untrusted() -> Limits {
        Limits {
            max_depth: 128,
            max_nodes: 65_536,
            max_schema_width: 4_096,
        }
    }

    /// Generous caps for engine-constructed plans; still finite so a
    /// runaway rewrite cannot build an unbounded tree unnoticed.
    pub fn generous() -> Limits {
        Limits {
            max_depth: 4_096,
            max_nodes: 1 << 20,
            max_schema_width: 65_536,
        }
    }
}

/// The verifier. Construct with [`Verifier::new`] (trusted input),
/// [`Verifier::untrusted`] (decoded bytes) or [`Verifier::pushdown`]
/// (engine-side pre-ship check), then call [`Verifier::verify`].
#[derive(Debug, Clone)]
pub struct Verifier {
    limits: Limits,
    pushdown: bool,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

impl Verifier {
    /// Structure, typing and shape passes with generous resource caps.
    pub fn new() -> Verifier {
        Verifier {
            limits: Limits::generous(),
            pushdown: false,
        }
    }

    /// Same passes with [`Limits::untrusted`] — for plans decoded from
    /// bytes an untrusted peer sent.
    pub fn untrusted() -> Verifier {
        Verifier {
            limits: Limits::untrusted(),
            pushdown: false,
        }
    }

    /// All passes including pushdown legality — the engine-side check
    /// run on a plan about to be shipped to storage. Uses untrusted
    /// limits so the engine rejects anything storage would.
    pub fn pushdown() -> Verifier {
        Verifier {
            limits: Limits::untrusted(),
            pushdown: true,
        }
    }

    /// Run every pass. Returns the inferred output schema on success or
    /// every diagnostic found (never empty on `Err`).
    pub fn verify(&self, plan: &Plan) -> Result<Schema, Vec<Diagnostic>> {
        let mut cx = Cx {
            limits: self.limits,
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
        if !matches!(ops[ops.len() - 1], Rel::Read { .. }) {
            cx.push(
                DiagCode::LeafNotRead,
                rel_path(ops.len() - 1),
                format!(
                    "leaf operator is {}, must be Read",
                    ops[ops.len() - 1].name()
                ),
            );
            return Err(cx.diags);
        }

        // Pass 2 + 3: scope/typing and operator shape, leaf → root,
        // threading the inferred schema upward.
        let mut schema: Option<Schema> = None;
        for (depth, op) in ops.iter().enumerate().rev() {
            let path = rel_path(depth);
            let consumer = depth.checked_sub(1).map(|d| ops[d]);
            schema = self.check_op(&mut cx, op, schema, &path, consumer);
            if schema.is_none() {
                break;
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
                let diags = &mut cx.diags;
                for_each_op_expr(op, |expr, path_of| {
                    if !deterministic(expr) {
                        diags.push(Diagnostic::new(
                            DiagCode::PushdownNonDeterministic,
                            format!("{}{}", rel_path(depth), path_of()),
                            "non-deterministic expressions may not be pushed",
                        ));
                    }
                });
            }
        }

        if cx.nodes > cx.limits.max_nodes {
            cx.push(
                DiagCode::NodeCountExceeded,
                "root",
                format!("{} nodes exceed cap {}", cx.nodes, cx.limits.max_nodes),
            );
        }

        match (cx.diags.is_empty(), schema) {
            (true, Some(s)) => Ok(s),
            _ => Err(cx.diags),
        }
    }

    /// Check one operator given its (already-checked) input schema;
    /// returns this operator's output schema if it could be inferred.
    fn check_op(
        &self,
        cx: &mut Cx,
        op: &Rel,
        input_schema: Option<Schema>,
        path: &str,
        consumer: Option<&Rel>,
    ) -> Option<Schema> {
        cx.nodes += 1;
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
                    None => Some(base_schema.clone()),
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
                        Some(Schema::new(
                            idx.iter().map(|&c| base_schema.field(c).clone()).collect(),
                        ))
                    }
                }
            }
            Rel::Filter { predicate, .. } => {
                let schema = input_schema?;
                let mut p = scratch(path, ".predicate");
                if let Some(t) = cx.check_expr(predicate, &schema, &mut p, 0) {
                    if t != DataType::Boolean {
                        cx.push(
                            DiagCode::FilterNotBoolean,
                            p,
                            format!("filter predicate is {t}, must be boolean"),
                        );
                    }
                }
                Some(schema)
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
                    let t = cx.check_expr(e, &schema, &mut p, 0)?;
                    p.truncate(base);
                    fields.push(Field::new(name.clone(), t, true));
                }
                Some(Schema::new(fields))
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
                    let t = cx.check_expr(e, &schema, &mut p, 0)?;
                    if !hashable(t) {
                        cx.push(
                            DiagCode::GroupKeyNotHashable,
                            p.as_str(),
                            format!("group key type {t} is not hashable"),
                        );
                    }
                    p.truncate(base);
                    fields.push(Field::new(name.clone(), t, true));
                }
                for (i, m) in measures.iter().enumerate() {
                    let _ = write!(p, ".measures[{i}]");
                    let measure = p.len();
                    let arg_type = match &m.arg {
                        Some(e) => {
                            p.push_str(".arg");
                            let t = cx.check_expr(e, &schema, &mut p, 0)?;
                            p.truncate(measure);
                            Some(t)
                        }
                        None => None,
                    };
                    match measure_type(m.func, arg_type) {
                        Ok(t) => fields.push(Field::new(m.name.clone(), t, true)),
                        Err(msg) => {
                            cx.push(DiagCode::MeasureTypeIllegal, p, msg);
                            return None;
                        }
                    }
                    p.truncate(base);
                }
                Some(Schema::new(fields))
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
                    cx.check_expr(&k.expr, &schema, &mut p, 0);
                    p.truncate(base);
                }
                Some(schema)
            }
            Rel::Fetch { .. } => input_schema,
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
            Expr::Literal(s) => match s.data_type() {
                Some(t) => Some(t),
                None => {
                    self.push(
                        DiagCode::NullLiteralUntyped,
                        path.as_str(),
                        "untyped NULL literal; wrap in CAST(NULL AS type)",
                    );
                    None
                }
            },
            Expr::Cmp { left, right, .. } => {
                let l = sub(self, ".left", left, path);
                let r = sub(self, ".right", right, path);
                if let (Some(l), Some(r)) = (l, r) {
                    if !l.comparable_with(r) {
                        self.push(
                            DiagCode::CmpTypeMismatch,
                            path.as_str(),
                            format!("cannot compare {l} with {r}"),
                        );
                        return None;
                    }
                    Some(DataType::Boolean)
                } else {
                    None
                }
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
                for (side, bt) in [(".lo", lo_t), (".hi", hi_t)] {
                    if !bt.comparable_with(t) {
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
                // Constant-bound ordering: a literal range with lo > hi can
                // only be a rewrite bug, never a useful predicate.
                if ok {
                    if let (Expr::Literal(a), Expr::Literal(b)) = (lo.as_ref(), hi.as_ref()) {
                        if !a.is_null()
                            && !b.is_null()
                            && a.data_type() == b.data_type()
                            && a.total_cmp(b) == std::cmp::Ordering::Greater
                        {
                            self.push(
                                DiagCode::BetweenBoundsInverted,
                                path.as_str(),
                                format!("constant BETWEEN bounds inverted: {a} > {b}"),
                            );
                            ok = false;
                        }
                    }
                }
                ok.then_some(DataType::Boolean)
            }
            Expr::Cast { expr, to } => {
                // CAST(NULL AS t) is how untyped NULLs acquire a type.
                if matches!(expr.as_ref(), Expr::Literal(Scalar::Null)) {
                    return Some(*to);
                }
                let from = sub(self, ".expr", expr, path)?;
                if !cast_ok(from, *to) {
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
                if !matches!(t, DataType::Int64 | DataType::Float64) {
                    self.push(
                        DiagCode::NegateNonNumeric,
                        path.as_str(),
                        format!("negate of {t}"),
                    );
                    return None;
                }
                Some(t)
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

/// Whether a value of this type can be a group-by key. Every current
/// type hashes (floats through a canonical bit pattern); the explicit
/// match forces a decision when a type is added.
fn hashable(t: DataType) -> bool {
    match t {
        DataType::Int64
        | DataType::Float64
        | DataType::Boolean
        | DataType::Utf8
        | DataType::Date32 => true,
    }
}

/// Whether an expression always evaluates to the same value for the
/// same input row. Every current node is deterministic; the exhaustive
/// match forces a decision when (e.g.) `random()` is added.
fn deterministic(e: &Expr) -> bool {
    match e {
        Expr::FieldRef(_) | Expr::Literal(_) => true,
        Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
            deterministic(left) && deterministic(right)
        }
        Expr::And(a, b) | Expr::Or(a, b) => deterministic(a) && deterministic(b),
        Expr::Not(x) | Expr::Cast { expr: x, .. } | Expr::Negate(x) => deterministic(x),
        Expr::IsNull(x) | Expr::IsNotNull(x) => deterministic(x),
        Expr::Between { expr, lo, hi } => {
            deterministic(expr) && deterministic(lo) && deterministic(hi)
        }
    }
}

/// The cast-kernel legality matrix (mirrors `columnar::kernels::cast`):
/// identity, numeric↔numeric, date↔int64, date→float64, anything→utf8.
fn cast_ok(from: DataType, to: DataType) -> bool {
    use DataType::*;
    from == to
        || to == Utf8
        || matches!(
            (from, to),
            (Int64, Float64)
                | (Float64, Int64)
                | (Date32, Int64)
                | (Int64, Date32)
                | (Date32, Float64)
        )
}

/// Measure legality against what the accumulators actually fold:
/// `COUNT` takes anything (or nothing), `SUM`/`AVG` need a numeric
/// argument, `MIN`/`MAX` need an argument of any ordered type.
fn measure_type(func: AggFunc, arg: Option<DataType>) -> Result<DataType, String> {
    match func {
        AggFunc::Count => Ok(DataType::Int64),
        AggFunc::Sum | AggFunc::Avg => match arg {
            Some(DataType::Int64) | Some(DataType::Float64) => {
                func.result_type(arg).map_err(|e| e.to_string())
            }
            Some(t) => Err(format!("{} over non-numeric {t}", func.sql())),
            None => Err(format!("{} requires an argument", func.sql())),
        },
        AggFunc::Min | AggFunc::Max => match arg {
            Some(t) => Ok(t),
            None => Err(format!("{} requires an argument", func.sql())),
        },
    }
}

/// Visit every expression an operator carries with a *lazy* path: `f`
/// receives the expression and a formatter that materializes the path
/// only when a diagnostic actually needs it, so the clean case allocates
/// nothing.
fn for_each_op_expr<'a>(op: &'a Rel, mut f: impl FnMut(&'a Expr, &dyn Fn() -> String)) {
    match op {
        Rel::Read { .. } | Rel::Fetch { .. } => {}
        Rel::Filter { predicate, .. } => f(predicate, &|| ".predicate".to_string()),
        Rel::Project { exprs, .. } => {
            for (i, (e, _)) in exprs.iter().enumerate() {
                f(e, &|| format!(".exprs[{i}]"));
            }
        }
        Rel::Aggregate {
            group_by, measures, ..
        } => {
            for (i, (e, _)) in group_by.iter().enumerate() {
                f(e, &|| format!(".group_by[{i}]"));
            }
            for (i, m) in measures.iter().enumerate() {
                if let Some(e) = &m.arg {
                    f(e, &|| format!(".measures[{i}].arg"));
                }
            }
        }
        Rel::Sort { keys, .. } => {
            for (i, k) in keys.iter().enumerate() {
                f(&k.expr, &|| format!(".keys[{i}]"));
            }
        }
    }
}

/// The most useful single diagnostic from a batch: the first one found,
/// with a note when others follow. For error types that carry exactly
/// one diagnostic across a boundary.
pub fn primary(mut diags: Vec<Diagnostic>) -> Diagnostic {
    if diags.is_empty() {
        // verify() never returns an empty Err; defend anyway.
        return Diagnostic::new(DiagCode::TransportStructure, "root", "verification failed");
    }
    let extra = diags.len() - 1;
    let mut first = diags.swap_remove(0);
    if extra > 0 {
        first.message = format!("{} (+{extra} more)", first.message);
    }
    first
}

/// Verify a trusted (engine-constructed) plan.
pub fn verify(plan: &Plan) -> Result<Schema, Vec<Diagnostic>> {
    Verifier::new().verify(plan)
}

/// Verify a plan decoded from untrusted bytes (resource caps applied).
pub fn verify_untrusted(plan: &Plan) -> Result<Schema, Vec<Diagnostic>> {
    Verifier::untrusted().verify(plan)
}

/// Verify a plan about to be pushed to storage (all passes).
pub fn verify_pushdown(plan: &Plan) -> Result<Schema, Vec<Diagnostic>> {
    Verifier::pushdown().verify(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Measure, SortField};
    use columnar::kernels::arith::ArithOp;
    use columnar::kernels::cmp::CmpOp;

    fn base() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
            Field::new("tag", DataType::Utf8, false),
        ])
    }

    fn codes(plan: &Plan) -> Vec<DiagCode> {
        match verify(plan) {
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
        let s = verify(&plan).unwrap();
        assert_eq!(s.names(), vec!["id", "e"]);
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
        let ds = verify(&plan).unwrap_err();
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
        let inverted = Plan::new(Rel::Filter {
            input: Box::new(Rel::read("t", base(), None)),
            predicate: Expr::Between {
                expr: Box::new(Expr::field(1)),
                lo: Box::new(Expr::lit(Scalar::Float64(5.0))),
                hi: Box::new(Expr::lit(Scalar::Float64(2.0))),
            },
        });
        assert_eq!(codes(&inverted), vec![DiagCode::BetweenBoundsInverted]);

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
        // Anything casts to utf8; null literals acquire a type via cast.
        assert!(cast_ok(DataType::Boolean, DataType::Utf8));
        assert!(!cast_ok(DataType::Utf8, DataType::Int64));
    }

    #[test]
    fn untyped_null_literal() {
        let plan = Plan::new(Rel::Project {
            input: Box::new(Rel::read("t", base(), None)),
            exprs: vec![(Expr::lit(Scalar::Null), "n".into())],
        });
        assert_eq!(codes(&plan), vec![DiagCode::NullLiteralUntyped]);
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
        assert!(verify(&root_sort).is_ok());

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
        assert!(verify(&buried_fetch).is_ok());
        let ds = verify_pushdown(&buried_fetch).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::PushdownFetchNotRoot);

        // Non-zero offset is not mergeable per object.
        let offset = Plan::new(Rel::Fetch {
            input: Box::new(Rel::read("t", base(), None)),
            offset: 5,
            limit: 10,
        });
        assert!(verify(&offset).is_ok());
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
        // The generous trusted limits accept it.
        assert!(verify(&plan).is_ok());

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
        let ir = IrError::FieldOutOfRange { index: 4, arity: 2 };
        let mapped = Diagnostic::from_ir(&ir, "root");
        assert_eq!(mapped.code, DiagCode::FieldOutOfRange);
    }

    #[test]
    fn projection_bounds() {
        let plan = Plan::new(Rel::read("t", base(), Some(vec![0, 7])));
        let ds = verify(&plan).unwrap_err();
        assert_eq!(ds[0].code, DiagCode::ProjectionOutOfRange);
        assert_eq!(ds[0].path, "root.projection[1]");
    }
}
