//! The live HTTP introspection server (§7.4 Monitoring, operational
//! surface).
//!
//! A tiny, dependency-free HTTP/1.1 server over `std::net::TcpListener`
//! that exposes every query registered in a [`StreamingQueryManager`]:
//!
//! | Endpoint | Content |
//! |---|---|
//! | `/healthz` | liveness probe (`ok`) |
//! | `/metrics` | all queries' registries merged into one Prometheus text exposition, each series tagged with a `query` label |
//! | `/queries` | JSON array of live queries with their last progress record |
//! | `/query/<name>/profile` | the named query's retained epoch profiles (phase tree, task skew, shuffle, e2e latency) as JSON |
//! | `/query/<name>/dlq` | the named query's dead-letter queue (quarantined poison records with fingerprints) as JSON Lines |
//! | `/query/<name>/ha` | the named query's high-availability status (role, fencing epoch, rejection/failover counters, replication lag) as JSON |
//! | `/trace` | every query's trace spans (named after the profile's phases) and event instants merged into one chrome://tracing JSON document, one pid per query |
//! | `/events` | all queries' structured lifecycle events as JSON Lines |
//!
//! Every JSON body is `serde_json` output via [`ss_common::to_json`].
//! The server runs one accept thread and handles requests inline —
//! introspection traffic is a human or a scraper, not a data path.
//! [`IntrospectServer::stop`] (also fired on drop) flips a flag and
//! connects to itself to unblock `accept`.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ss_common::metrics::render_merged;
use ss_common::trace::{chrome_trace_json, ChromeEvent};
use ss_common::{to_json, Result, SsError};

use crate::query::{QuerySnapshot, StreamingQuery, StreamingQueryManager};

/// One parsed HTTP request, handed to [`HttpExtension`]s.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Upper-case method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// A pluggable route handler layered onto the introspection server by
/// [`IntrospectServer::start_with`]. Extensions are consulted in order
/// *before* the built-in routes; the first to return `Some` wins.
/// Return `None` to decline the request (it falls through to the next
/// extension, then the built-ins). This is how higher layers — e.g. a
/// multi-query SQL service — mount endpoints like `POST /sql` without
/// the core crate depending on them.
pub trait HttpExtension: Send + Sync {
    /// Handle (or decline) one request. `Some((status, content_type,
    /// body))` answers it.
    fn handle(&self, req: &HttpRequest) -> Option<(u16, &'static str, String)>;
}

/// A running introspection server. Stops (and joins its accept thread)
/// on [`IntrospectServer::stop`] or drop.
pub struct IntrospectServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectServer {
    /// Bind `bind` (e.g. `"127.0.0.1:8080"`; port 0 picks an ephemeral
    /// port) and serve the manager's queries until stopped.
    pub fn start(
        manager: Arc<StreamingQueryManager>,
        bind: impl ToSocketAddrs,
    ) -> Result<IntrospectServer> {
        Self::start_with(manager, bind, Vec::new())
    }

    /// [`IntrospectServer::start`] plus extension routes, consulted in
    /// order before the built-in handlers.
    pub fn start_with(
        manager: Arc<StreamingQueryManager>,
        bind: impl ToSocketAddrs,
        extensions: Vec<Arc<dyn HttpExtension>>,
    ) -> Result<IntrospectServer> {
        let listener = TcpListener::bind(bind).map_err(SsError::Io)?;
        let addr = listener.local_addr().map_err(SsError::Io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    // A stalled client must not wedge the server.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    if let Some(req) = read_request(&mut stream) {
                        let ext = extensions.iter().find_map(|e| e.handle(&req));
                        let (status, content_type, body) = match ext {
                            Some(resp) => resp,
                            None if req.method == "GET" => route(&manager, &req.path),
                            None => (
                                405,
                                "text/plain; charset=utf-8",
                                "method not allowed\n".to_string(),
                            ),
                        };
                        let _ = write_response(&mut stream, status, content_type, &body);
                    }
                }
            })
        };
        Ok(IntrospectServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread. Idempotent.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for IntrospectServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Parse one HTTP/1.x request: request line, headers (only
/// `Content-Length` is honored), and — when a length was declared — up
/// to 1 MiB of body. `None` on anything malformed.
fn read_request(stream: &mut TcpStream) -> Option<HttpRequest> {
    const MAX_HEAD: usize = 8 * 1024;
    const MAX_BODY: usize = 1024 * 1024;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the blank line that ends the headers.
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < MAX_HEAD {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let line = lines.next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_ascii_uppercase();
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return None;
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).ok()?;
    Some(HttpRequest { method, path, body })
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A `/query/<name><suffix>` endpoint: suffix, content type, body.
type QueryRoute = (&'static str, &'static str, fn(&StreamingQuery) -> String);
const QUERY_ROUTES: [QueryRoute; 3] = [
    ("/profile", "application/json", StreamingQuery::profile_json),
    ("/dlq", "application/x-ndjson", StreamingQuery::dlq_jsonl),
    ("/ha", "application/json", StreamingQuery::ha_status_json),
];

/// Dispatch one GET to its handler. Returns (status, content type,
/// body).
fn route(manager: &StreamingQueryManager, path: &str) -> (u16, &'static str, String) {
    match path {
        "/healthz" => (200, "text/plain; charset=utf-8", "ok\n".to_string()),
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            metrics_body(manager),
        ),
        "/queries" => (200, "application/json", queries_body(manager)),
        "/trace" => (200, "application/json", trace_body(manager)),
        "/events" => (200, "application/x-ndjson", events_body(manager)),
        _ => {
            let per_query = path.strip_prefix("/query/").and_then(|rest| {
                QUERY_ROUTES.iter().find_map(|&(suffix, content_type, body)| {
                    Some((rest.strip_suffix(suffix)?, content_type, body))
                })
            });
            let Some((name, content_type, body)) = per_query else {
                return (404, "text/plain; charset=utf-8", "not found\n".to_string());
            };
            match manager.with_query(name, |q| body(q)) {
                Ok(body) => (200, content_type, body),
                Err(_) => (
                    404,
                    "application/json",
                    error_body(&format!("no active query `{name}`")),
                ),
            }
        }
    }
}

/// A JSON error body: `{"error":"<message>"}`.
pub fn error_body(message: &str) -> String {
    to_json(&BTreeMap::from([("error", message)]))
}

/// All queries' registries merged into one exposition, each series
/// tagged `query="<name>"`.
fn metrics_body(manager: &StreamingQueryManager) -> String {
    let views = manager.for_each_query(|q| (q.name().to_string(), q.metrics()));
    let refs: Vec<(&str, &ss_common::MetricsRegistry)> =
        views.iter().map(|(n, r)| (n.as_str(), r)).collect();
    render_merged(&refs)
}

/// JSON array of live queries with status and last progress.
fn queries_body(manager: &StreamingQueryManager) -> String {
    to_json(&manager.for_each_query(QuerySnapshot::of))
}

/// Every query's trace merged into one chrome://tracing document, one
/// pid per query (named via `process_name` metadata events).
fn trace_body(manager: &StreamingQueryManager) -> String {
    let traces = manager.for_each_query(|q| (q.name().to_string(), q.trace()));
    let mut events = Vec::new();
    for (i, (name, trace)) in traces.iter().enumerate() {
        let pid = i as u64 + 1;
        events.push(ChromeEvent::process_name(pid, name));
        events.extend(trace.chrome_events(pid));
    }
    chrome_trace_json(&events)
}

/// All queries' lifecycle events concatenated as JSON Lines.
fn events_body(manager: &StreamingQueryManager) -> String {
    manager.for_each_query(|q| q.events_jsonl()).concat()
}
