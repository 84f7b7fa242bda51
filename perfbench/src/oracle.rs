//! The in-process oracle: a fresh `EngineBuilder` build of the generated table at
//! one generation, and `PreparedQuery` execution on it, rendered exactly like a
//! server response block.

use std::sync::Arc;

use pdqi_constraints::FdSet;
use pdqi_core::{
    AnswerSet, CqaOutcome, EngineBuilder, EngineSnapshot, FamilyKind, Parallelism, PreparedQuery,
    Semantics,
};
use pdqi_relation::{RelationInstance, RelationSchema, TupleId, Value, ValueType};

use crate::gen::{Family, Mode, Read, Table, PRODUCT_BOUND};

fn schema() -> Arc<RelationSchema> {
    Arc::new(
        RelationSchema::from_pairs(
            "R",
            &[
                ("A", ValueType::Int),
                ("B", ValueType::Int),
                ("C", ValueType::Int),
                ("D", ValueType::Int),
            ],
        )
        .expect("valid schema"),
    )
}

/// The builder for `table` with its installed priority (not yet built).
pub fn builder(table: &Table) -> EngineBuilder {
    let schema = schema();
    let rows: Vec<Vec<Value>> =
        table.rows.iter().map(|row| row.values.iter().map(|&v| Value::int(v)).collect()).collect();
    let instance = RelationInstance::from_rows(Arc::clone(&schema), rows).expect("typed rows");
    let fds = FdSet::parse(schema, &["A -> B", "C -> D"]).expect("valid FDs");
    let pairs: Vec<(TupleId, TupleId)> =
        table.priority_ids().into_iter().map(|(w, l)| (TupleId(w), TupleId(l))).collect();
    EngineBuilder::new().relation(instance, fds).priority_pairs(&pairs)
}

/// A fresh snapshot of `table`.
pub fn build(table: &Table) -> EngineSnapshot {
    builder(table).build().expect("generated inputs build")
}

/// Fails unless every family in `families` keeps its repair product within the bound.
pub fn check_product(snapshot: &EngineSnapshot, families: &[Family]) -> Result<(), String> {
    for family in families {
        let count = snapshot.preferred_repair_count(family.kind());
        if count > PRODUCT_BOUND {
            return Err(format!(
                "{} product {count} exceeds the bound {PRODUCT_BOUND}",
                family.token()
            ));
        }
    }
    Ok(())
}

/// Executes `read` on `snapshot` and renders the response block the server sends
/// (without the `OK` prefix and generation tag).
pub fn answer(snapshot: &EngineSnapshot, read: &Read) -> String {
    match PreparedQuery::parse(&read.text) {
        Ok(query) => render(&execute(snapshot, &query, read.family.kind(), read.mode)),
        Err(e) => format!("error query error: {e}"),
    }
}

/// One executed read: an open query's rows or a closed query's outcome.
pub enum Answer {
    Rows(AnswerSet),
    Outcome(CqaOutcome),
}

pub fn execute(
    snapshot: &EngineSnapshot,
    query: &PreparedQuery,
    kind: FamilyKind,
    mode: Mode,
) -> Result<Answer, String> {
    let parallelism = Parallelism::sequential();
    let semantics = match mode {
        Mode::Certain => Semantics::Certain,
        Mode::Possible => Semantics::Possible,
        Mode::Closed => {
            return query
                .consistent_answer_with(snapshot, kind, parallelism)
                .map(Answer::Outcome)
                .map_err(|e| e.to_string());
        }
    };
    query
        .execute_with(snapshot, kind, semantics, parallelism)
        .map(Answer::Rows)
        .map_err(|e| e.to_string())
}

/// Renders an answer the way the server renders a response block.
pub fn render(answer: &Result<Answer, String>) -> String {
    match answer {
        Ok(Answer::Rows(answers)) => {
            let mut block =
                format!("rows {}\n{}", answers.rows().len(), answers.columns().join("\t"));
            for row in answers.rows() {
                let rendered: Vec<String> =
                    row.iter().map(|v| pdqi_server::escape_field(&v.to_string())).collect();
                block.push('\n');
                block.push_str(&rendered.join("\t"));
            }
            block
        }
        Ok(Answer::Outcome(outcome)) => {
            let verdict = if outcome.certainly_true {
                "true"
            } else if outcome.certainly_false {
                "false"
            } else {
                "undetermined"
            };
            format!("outcome {verdict} examined={}", outcome.examined)
        }
        Err(e) => format!("error query error: {e}"),
    }
}
