//! SQL semantics: queries over a small, hand-checkable dataset must
//! return exactly the hand-computed answers — through the full stack
//! (parq objects in the store, OCS connector with full pushdown).

use std::sync::Arc;

use columnar::prelude::*;
use dsq::catalog::{ObjectLocation, TableMeta, TableStats};
use dsq::{Engine, EngineBuilder};
use objstore::ObjectStore;
use ocs_connector::{register_ocs_stack, PushdownPolicy};
use parq::ColumnStats;

/// city, temp, day — 9 rows over 3 cities, split across 2 objects, read
/// through the OCS connector.
fn setup() -> Engine {
    setup_on("ocs")
}

/// The same table read through `connector` (`ocs` or `raw`).
fn setup_on(connector: &str) -> Engine {
    setup_with(connector, PushdownPolicy::all())
}

/// [`setup_on`] with the OCS connector pushing down what `policy` allows.
fn setup_with(connector: &str, policy: PushdownPolicy) -> Engine {
    let engine = EngineBuilder::new().build();
    let store = Arc::new(ObjectStore::new());
    store.create_bucket("lake").unwrap();
    let schema = Arc::new(Schema::new(vec![
        Field::new("city", DataType::Utf8, false),
        Field::new("temp", DataType::Float64, false),
        Field::new("day", DataType::Int64, false),
    ]));
    let part = |cities: &[&str], temps: &[f64], days: &[i64]| {
        RecordBatch::try_new(
            schema.clone(),
            vec![
                Arc::new(Array::from_strs(cities.iter().copied())),
                Arc::new(Array::from_f64(temps.to_vec())),
                Arc::new(Array::from_i64(days.to_vec())),
            ],
        )
        .unwrap()
    };
    // Groups deliberately SPAN objects: partial/final merging must be exact.
    let parts = [
        part(
            &["oslo", "cairo", "lima", "oslo", "cairo"],
            &[2.0, 35.0, 18.0, -3.0, 31.0],
            &[1, 1, 1, 2, 2],
        ),
        part(
            &["lima", "oslo", "cairo", "lima"],
            &[20.0, 1.0, 33.0, 19.0],
            &[2, 3, 3, 3],
        ),
    ];
    let mut objects = Vec::new();
    let mut stats_cols = vec![ColumnStats::empty(); 3];
    let mut rows = 0;
    for (i, b) in parts.iter().enumerate() {
        let bytes =
            parq::writer::write_file(schema.clone(), std::slice::from_ref(b), Default::default())
                .unwrap();
        let key = format!("weather/{i}");
        rows += b.num_rows() as u64;
        for (c, stat) in stats_cols.iter_mut().enumerate() {
            *stat = stat.merge(&ColumnStats::compute(b.column(c)));
        }
        objects.push(ObjectLocation {
            bucket: "lake".into(),
            key: key.clone(),
            rows: b.num_rows() as u64,
            bytes: bytes.len() as u64,
            ..Default::default()
        });
        store.put_object("lake", &key, bytes.into()).unwrap();
    }
    engine.metastore().register(TableMeta {
        name: "weather".into(),
        connector: connector.into(),
        schema,
        objects,
        stats: TableStats {
            row_count: rows,
            columns: stats_cols,
        },
    });
    register_ocs_stack(&engine, store, policy);
    engine
}

fn rows_of(engine: &Engine, sql: &str) -> Vec<Vec<String>> {
    let r = engine.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (0..r.batch.num_rows())
        .map(|i| {
            r.batch
                .row(i)
                .iter()
                .map(|s| match s {
                    Scalar::Float64(v) => format!("{v:.4}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn group_by_with_cross_object_groups() {
    let engine = setup();
    // cairo: 35+31+33=99/3=33; lima: 18+20+19=57/3=19; oslo: 2-3+1=0/3=0.
    let got = rows_of(
        &engine,
        "SELECT city, avg(temp) AS a, count(*) AS n FROM weather GROUP BY city ORDER BY city",
    );
    assert_eq!(
        got,
        vec![
            vec!["'cairo'", "33.0000", "3"],
            vec!["'lima'", "19.0000", "3"],
            vec!["'oslo'", "0.0000", "3"],
        ]
    );
}

#[test]
fn filter_then_aggregate() {
    let engine = setup();
    // temp > 15: cairo 35,31,33; lima 18,20,19 → sums 99 and 57.
    let got = rows_of(
        &engine,
        "SELECT city, sum(temp) AS s FROM weather WHERE temp > 15 GROUP BY city ORDER BY s DESC",
    );
    assert_eq!(
        got,
        vec![vec!["'cairo'", "99.0000"], vec!["'lima'", "57.0000"]]
    );
}

#[test]
fn global_aggregates() {
    let engine = setup();
    let got = rows_of(
        &engine,
        "SELECT count(*) AS n, min(temp) AS lo, max(temp) AS hi, sum(day) AS d FROM weather",
    );
    assert_eq!(got, vec![vec!["9", "-3.0000", "35.0000", "18"]]);
}

#[test]
fn global_aggregate_over_empty_filter() {
    let engine = setup();
    // Nothing is hotter than 100: COUNT = 0, MIN/MAX/AVG = NULL.
    let got = rows_of(
        &engine,
        "SELECT count(*) AS n, max(temp) AS hi, avg(temp) AS a FROM weather WHERE temp > 100",
    );
    assert_eq!(got, vec![vec!["0", "NULL", "NULL"]]);
}

#[test]
fn top_n_ordering() {
    let engine = setup();
    let got = rows_of(
        &engine,
        "SELECT temp, city FROM weather ORDER BY temp DESC LIMIT 3",
    );
    assert_eq!(
        got,
        vec![
            vec!["35.0000", "'cairo'"],
            vec!["33.0000", "'cairo'"],
            vec!["31.0000", "'cairo'"],
        ]
    );
}

#[test]
fn projection_expressions() {
    let engine = setup();
    // Fahrenheit conversion on one city and day.
    let got = rows_of(
        &engine,
        "SELECT temp * 1.8 + 32 AS f FROM weather WHERE city = 'oslo' AND day = 2",
    );
    assert_eq!(got, vec![vec!["26.6000"]]);
}

#[test]
fn between_and_boolean_logic() {
    let engine = setup();
    let got = rows_of(
        &engine,
        "SELECT count(*) AS n FROM weather WHERE temp BETWEEN 18 AND 20 OR city = 'oslo'",
    );
    // between: 18,20,19 (lima x3) + oslo x3 = 6.
    assert_eq!(got, vec![vec!["6"]]);
}

#[test]
fn group_by_expression_key() {
    let engine = setup();
    // Group by day % 2: day1+day3 (odd) = 6 rows, day2 (even) = 3 rows.
    let got = rows_of(
        &engine,
        "SELECT day % 2 AS parity, count(*) AS n FROM weather GROUP BY day % 2 ORDER BY parity",
    );
    assert_eq!(got, vec![vec!["0", "3"], vec!["1", "6"]]);
}

#[test]
fn limit_without_order() {
    let engine = setup();
    let r = engine.execute("SELECT city FROM weather LIMIT 4").unwrap();
    assert_eq!(r.batch.num_rows(), 4);
}

#[test]
fn avg_of_integers_is_float() {
    let engine = setup();
    let got = rows_of(&engine, "SELECT avg(day) AS d FROM weather");
    // days: 1,1,1,2,2,2,3,3,3 → 2.0
    assert_eq!(got, vec![vec!["2.0000"]]);
}

#[test]
fn errors_are_surfaced_cleanly() {
    let engine = setup();
    assert!(engine.execute("SELECT nope FROM weather").is_err());
    assert!(engine.execute("SELECT city FROM ghost").is_err());
    assert!(engine.execute("SELECT FROM weather").is_err());
    // Type error: string arithmetic.
    assert!(engine.execute("SELECT city + 1 FROM weather").is_err());
}

#[test]
fn comparing_mismatched_types_is_an_analysis_error_on_every_connector() {
    for connector in ["raw", "ocs"] {
        let engine = setup_on(connector);
        for sql in [
            "SELECT COUNT(*) FROM weather WHERE city = 5",
            "SELECT COUNT(*) FROM weather WHERE city <> 5",
            "SELECT COUNT(*) FROM weather WHERE city BETWEEN 1 AND 2",
        ] {
            let err = engine.execute(sql).unwrap_err();
            assert!(
                matches!(err, dsq::EngineError::Analysis(_)),
                "{connector}: {sql}: {err}"
            );
        }
        // Comparable operands still run: 3 oslo rows, 6 others.
        let got = rows_of(
            &engine,
            "SELECT COUNT(*) AS n FROM weather WHERE city = 'oslo'",
        );
        assert_eq!(got, vec![vec!["3"]], "{connector}");
        let got = rows_of(
            &engine,
            "SELECT COUNT(*) AS n FROM weather WHERE city <> 'oslo'",
        );
        assert_eq!(got, vec![vec!["6"]], "{connector}");
    }
}

#[test]
fn every_connector_types_sql_by_the_same_rules() {
    let engines = [
        ("raw", setup_with("raw", PushdownPolicy::all())),
        ("ocs/all", setup_with("ocs", PushdownPolicy::all())),
        (
            "ocs/filter",
            setup_with("ocs", PushdownPolicy::filter_only()),
        ),
    ];
    // Ill-typed: the same analysis error before any connector runs.
    for sql in [
        "SELECT AVG(city) AS a FROM weather",
        "SELECT AVG(*) AS a FROM weather",
        "SELECT SUM(city) AS s FROM weather",
        "SELECT city FROM weather WHERE NOT temp",
        "SELECT city FROM weather WHERE temp AND day > 1",
        "SELECT -city AS c FROM weather",
        "SELECT day + NULL AS d FROM weather",
    ] {
        for (name, engine) in &engines {
            let err = engine.execute(sql).unwrap_err();
            assert!(
                matches!(err, dsq::EngineError::Analysis(_)),
                "{name}: {sql}: {err}"
            );
        }
    }
    // Well-typed: the same rows everywhere (in any order).
    let nine = |v: &str| vec![vec![v.to_string()]; 9];
    let cases = [
        (
            "SELECT COUNT(*) AS n FROM weather WHERE temp BETWEEN 40 AND 1",
            vec![vec!["0".to_string()]],
        ),
        (
            "SELECT COUNT(*) AS n FROM weather WHERE temp > NULL OR temp > 30",
            vec![vec!["3".to_string()]],
        ),
        (
            "SELECT COUNT(*) AS n FROM weather WHERE NULL IS NULL AND temp > 0",
            vec![vec!["8".to_string()]],
        ),
        (
            "SELECT COUNT(*) AS n FROM weather",
            vec![vec!["9".to_string()]],
        ),
        (
            "SELECT COUNT(*) AS n FROM weather WHERE 1 = 1",
            vec![vec!["9".to_string()]],
        ),
        ("SELECT 1 AS one FROM weather", nine("1")),
        ("SELECT NULL AS n FROM weather", nine("NULL")),
    ];
    for (sql, want) in cases {
        for (name, engine) in &engines {
            let mut got = rows_of(engine, sql);
            got.sort();
            assert_eq!(got, want, "{name}: {sql}");
        }
    }
    let sql = "SELECT temp, NULL AS n FROM weather";
    let mut want = rows_of(&engines[0].1, sql);
    want.sort();
    assert_eq!(want.len(), 9);
    for (name, engine) in &engines {
        let mut got = rows_of(engine, sql);
        got.sort();
        assert_eq!(got, want, "{name}: {sql}");
    }
}
