//! The long-lived SQL service: a session layer over `ss-sql` + the
//! multi-query engine, mounted on the introspection HTTP server as an
//! [`HttpExtension`].
//!
//! | Endpoint | Effect |
//! |---|---|
//! | `POST /sql` | parse/plan/start a named streaming query (body: `{"name", "sql", "tenant"?, "mode"?}`) |
//! | `GET /sql/sessions` | JSON list of live sessions with their sharing group |
//! | `DELETE /query/<name>` | stop one query (copy-on-detach if it shared a group) |
//! | `GET /metrics` | all sessions' metrics, one exposition, `query` + `tenant` labels |
//!
//! This is the paper's "deploy a query with one call" surface: a
//! client POSTs SQL, the service resolves tables against the engine's
//! [`StreamingContext`], splits at the sharing boundary, and the query
//! starts sharing scans/state with structurally-equal peers
//! immediately. The service answers `/metrics` itself (extensions are
//! consulted before built-ins) so the merged exposition carries the
//! per-tenant labels.

use std::collections::HashMap;
use std::sync::Arc;

use serde::Serialize;
use ss_bus::MemorySink;
use ss_common::{to_json, Result, SchemaRef};
use ss_core::introspect::error_body;
use ss_core::{HttpExtension, HttpRequest};
use ss_plan::OutputMode;

use crate::engine::{MultiQueryEngine, QuerySpec};

/// The SQL session service. Mount with
/// `IntrospectServer::start_with(manager, bind, vec![service])`.
pub struct SqlService {
    engine: Arc<MultiQueryEngine>,
}

impl SqlService {
    pub fn new(engine: Arc<MultiQueryEngine>) -> Arc<SqlService> {
        Arc::new(SqlService { engine })
    }

    /// Parse + submit one SQL query; returns the sink it writes to.
    /// (`POST /sql` calls this; tests can call it directly.)
    pub fn start_sql(
        &self,
        name: &str,
        sql: &str,
        tenant: &str,
        mode: OutputMode,
    ) -> Result<Arc<MemorySink>> {
        let resolver: HashMap<String, (SchemaRef, bool)> = self
            .engine
            .context()
            .catalog_entries()
            .into_iter()
            .map(|(n, s, streaming)| (n, (s, streaming)))
            .collect();
        let plan = ss_sql::parse_query(sql, &resolver)?;
        let sink = MemorySink::new(format!("sql:{name}"));
        self.engine.submit(QuerySpec {
            name: name.to_string(),
            tenant: tenant.to_string(),
            plan,
            output_mode: mode,
            sink: sink.clone(),
        })?;
        Ok(sink)
    }

    fn handle_post_sql(&self, body: &str) -> (u16, &'static str, String) {
        let parsed: std::result::Result<serde_json::Value, _> = serde_json::from_str(body);
        let Ok(v) = parsed else {
            return error_response(400, "request body is not valid JSON");
        };
        let Some(name) = v.get("name").and_then(|n| n.as_str()) else {
            return error_response(400, "missing required field `name`");
        };
        let Some(sql) = v.get("sql").and_then(|s| s.as_str()) else {
            return error_response(400, "missing required field `sql`");
        };
        let tenant = v
            .get("tenant")
            .and_then(|t| t.as_str())
            .unwrap_or("default");
        let mode = match v.get("mode").and_then(|m| m.as_str()).unwrap_or("append") {
            "append" => OutputMode::Append,
            "update" => OutputMode::Update,
            "complete" => OutputMode::Complete,
            other => {
                return error_response(
                    400,
                    &format!("unknown output mode `{other}` (append|update|complete)"),
                )
            }
        };
        match self.start_sql(name, sql, tenant, mode) {
            Ok(_) => {
                let (started, tenant) = (name.to_string(), tenant.to_string());
                let mode = format!("{mode:?}");
                (200, "application/json", to_json(&Started { started, tenant, mode }))
            }
            Err(e) => error_response(400, &e.to_string()),
        }
    }
}

/// `POST /sql`'s answer.
#[derive(Serialize)]
struct Started {
    started: String,
    tenant: String,
    mode: String,
}

/// `DELETE /query/<name>`'s answer.
#[derive(Serialize)]
struct Stopped {
    stopped: String,
    group: String,
    remaining: usize,
    state_copied: bool,
}

fn error_response(status: u16, message: &str) -> (u16, &'static str, String) {
    (status, "application/json", error_body(message))
}

impl HttpExtension for SqlService {
    fn handle(&self, req: &HttpRequest) -> Option<(u16, &'static str, String)> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/sql") => Some(self.handle_post_sql(&req.body)),
            ("GET", "/sql/sessions") => {
                Some((200, "application/json", to_json(&self.engine.sessions())))
            }
            ("GET", "/metrics") => Some((
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.engine.metrics_exposition(),
            )),
            ("DELETE", path) => {
                let name = path.strip_prefix("/query/")?;
                Some(match self.engine.stop_query(name) {
                    Ok(report) => {
                        let stopped = Stopped {
                            stopped: name.to_string(),
                            group: report.group,
                            remaining: report.remaining,
                            state_copied: report.checkpoint_copy.is_some(),
                        };
                        (200, "application/json", to_json(&stopped))
                    }
                    Err(e) => error_response(404, &e.to_string()),
                })
            }
            _ => None,
        }
    }
}
