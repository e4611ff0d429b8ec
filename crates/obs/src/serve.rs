//! Live introspection: Prometheus text rendering and a tiny blocking HTTP
//! listener serving `/metrics` (a [`Registry`]), the node's one live page.
//!
//! The renderer maps the registry's `name{k=v,...}` keys onto the
//! Prometheus text format (version 0.0.4): dots in metric names become
//! underscores, labels are re-quoted, counters and gauges emit one sample,
//! and the log2 histograms emit cumulative `_bucket{le="..."}` samples at
//! their exact power-of-two boundaries plus `_sum`/`_count`. The listener
//! is deliberately minimal — one accept loop on a dedicated thread, one
//! response per connection, `Connection: close` — because its job is to
//! let E17/E18 be scraped *while hot* without pulling an HTTP stack into
//! the tree.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{bucket_high, MetricValue, Registry};

/// Split a registry key back into `(base_name, labels)`.
fn split_key(key: &str) -> (&str, Vec<(&str, &str)>) {
    let Some(open) = key.find('{') else {
        return (key, Vec::new());
    };
    let base = &key[..open];
    let Some(body) = key[open + 1..].strip_suffix('}') else {
        return (key, Vec::new());
    };
    let labels = body
        .split(',')
        .filter_map(|tok| tok.split_once('='))
        .collect();
    (base, labels)
}

/// Sanitize a dotted metric name into a Prometheus identifier.
fn prom_name(base: &str) -> String {
    let mut out: String = base
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn render_labels(labels: &[(&str, &str)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), v.replace('"', "'")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render the whole registry as a Prometheus text-format page.
#[must_use]
pub fn prometheus_text(registry: &Registry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (key, value) in registry.snapshot() {
        let (base, labels) = split_key(&key);
        let name = prom_name(base);
        let prom_type = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        if typed.insert(name.clone()) {
            let _ = writeln!(out, "# TYPE {name} {prom_type}");
        }
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name}{} {v}", render_labels(&labels, None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{} {v}", render_labels(&labels, None));
            }
            MetricValue::Histogram(h) => {
                // Cumulative buckets at the exact log2 upper bounds; only
                // populated buckets (plus +Inf) keep pages small.
                let mut cum = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    cum += n;
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cum}",
                        render_labels(&labels, Some(("le", bucket_high(i).to_string())))
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {}",
                    render_labels(&labels, Some(("le", "+Inf".to_string()))),
                    h.count
                );
                let _ = writeln!(out, "{name}_sum{} {}", render_labels(&labels, None), h.sum);
                let _ =
                    writeln!(out, "{name}_count{} {}", render_labels(&labels, None), h.count);
            }
        }
    }
    out
}

/// A live introspection endpoint: blocking HTTP/1.1 listener on its own
/// thread, routing `/metrics` to [`prometheus_text`] of a shared
/// [`Registry`] (any other path gets a proper `404`, never a dropped
/// connection). Dropping the server stops the listener (self-dial wake,
/// same pattern as the TCP transport's reader shutdown).
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, or port 0 for ephemeral) and
    /// start serving `registry`.
    ///
    /// # Errors
    /// Propagates bind failure.
    pub fn serve(addr: impl ToSocketAddrs, registry: Registry) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let scrapes = Arc::new(AtomicU64::new(0));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let scrapes = Arc::clone(&scrapes);
            std::thread::Builder::new()
                .name("rbvc-metrics".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(mut stream) = stream else { continue };
                        // Serve inline: scrape traffic is one client at a
                        // low rate; a slow reader only delays the next
                        // scrape, never the run being observed.
                        if answer(&mut stream, &registry).is_ok() {
                            // Counted while the stream is still open: a client
                            // that read to EOF finds its scrape in `scrapes()`.
                            scrapes.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
                .expect("spawn metrics thread")
        };
        Ok(MetricsServer {
            addr,
            shutdown,
            scrapes,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far.
    #[must_use]
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::SeqCst)
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Self-dial to pop the accept loop out of its block.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Extract the request path from the raw bytes of an HTTP request head
/// (`GET /path HTTP/1.1...`); query strings are stripped.
fn request_path(head: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(head).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let _method = parts.next()?;
    let target = parts.next()?;
    Some(target.split('?').next().unwrap_or(target).to_string())
}

/// Read one request (best effort), route it, and answer. Unknown paths
/// get a real `404` response — a scraper probing the wrong path sees an
/// HTTP error, not a dropped connection.
fn answer(stream: &mut TcpStream, registry: &Registry) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // Drain the request line + headers; tolerate clients that just read.
    let mut buf = [0u8; 1024];
    let mut seen = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let path = request_path(&seen).unwrap_or_else(|| "/metrics".to_string());
    let (status_line, content_type, body) = match path.as_str() {
        "/metrics" | "/" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(registry),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no such path: {path}\nknown path: /metrics\n"),
        ),
    };
    let head = format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Scrape `addr` once over plain HTTP and return the response body.
/// Used by the bench harness to validate the endpoint mid-run (and by
/// tests); not a general HTTP client.
///
/// # Errors
/// Connection or read failure, or a non-200 status line.
pub fn scrape_once(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    scrape_path(addr, "/metrics")
}

/// Request `path` from `addr` once over plain HTTP and return the
/// response body.
///
/// # Errors
/// Connection or read failure, or a non-200 status line.
pub fn scrape_path(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    if !response.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!(
            "bad status: {}",
            response.lines().next().unwrap_or("<empty>")
        )));
    }
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_gauges_and_cumulative_histograms() {
        let reg = Registry::new();
        reg.counter("tcp.dial.retries").add(3);
        reg.gauge_with("link.drift_us", &[("src", "1"), ("dst", "0")]).set(-42);
        let h = reg.histogram("service.decide.latency_us");
        h.record(1); // bucket 1 (le 1)
        h.record(3); // bucket 2 (le 3)
        h.record(3);

        let page = prometheus_text(&reg);
        assert!(page.contains("# TYPE tcp_dial_retries counter"));
        assert!(page.contains("tcp_dial_retries 3"));
        assert!(page.contains("link_drift_us{src=\"1\",dst=\"0\"} -42"));
        assert!(page.contains("# TYPE service_decide_latency_us histogram"));
        assert!(page.contains("service_decide_latency_us_bucket{le=\"1\"} 1"));
        assert!(page.contains("service_decide_latency_us_bucket{le=\"3\"} 3"), "cumulative");
        assert!(page.contains("service_decide_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(page.contains("service_decide_latency_us_sum 7"));
        assert!(page.contains("service_decide_latency_us_count 3"));
    }

    #[test]
    fn labeled_series_share_one_type_line() {
        let reg = Registry::new();
        reg.counter_with("x.y", &[("node", "0")]).inc();
        reg.counter_with("x.y", &[("node", "1")]).inc();
        let page = prometheus_text(&reg);
        assert_eq!(page.matches("# TYPE x_y counter").count(), 1);
        assert!(page.contains("x_y{node=\"0\"} 1"));
        assert!(page.contains("x_y{node=\"1\"} 1"));
    }

    #[test]
    fn endpoint_serves_live_registry_and_counts_scrapes() {
        let reg = Registry::new();
        reg.counter("live.checks").add(7);
        let server = MetricsServer::serve("127.0.0.1:0", reg.clone()).expect("bind");
        let body = scrape_once(server.addr()).expect("scrape");
        assert!(body.contains("live_checks 7"));
        // Live: a later scrape sees the updated value.
        reg.counter("live.checks").add(1);
        let body = scrape_once(server.addr()).expect("scrape 2");
        assert!(body.contains("live_checks 8"));
        assert_eq!(server.scrapes(), 2);
        drop(server); // shuts down cleanly
    }

    #[test]
    fn unknown_paths_get_a_404_not_a_dropped_connection() {
        let server = MetricsServer::serve("127.0.0.1:0", Registry::new()).expect("bind");
        for path in ["/nope", "/status"] {
            let err = scrape_path(server.addr(), path).expect_err("404 path");
            assert!(err.to_string().contains("404"), "{path}: {err}");
            // The listener survives the bad path and keeps serving good ones.
            assert!(scrape_once(server.addr()).is_ok());
        }
    }

    #[test]
    fn concurrent_scrapers_are_all_answered_and_counted() {
        let reg = Registry::new();
        reg.counter("mid.run").add(1);
        let server = MetricsServer::serve("127.0.0.1:0", reg.clone()).expect("bind");
        let addr = server.addr();
        // Two scrapers at once while the "run" (this thread) keeps
        // mutating the registry.
        let scrapers: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let body = scrape_once(addr).expect("scrape");
                        assert!(body.contains("mid_run"), "metrics body: {body}");
                    }
                })
            })
            .collect();
        for _ in 0..20 {
            reg.counter("mid.run").inc();
        }
        for t in scrapers {
            t.join().expect("scraper thread");
        }
        assert_eq!(server.scrapes(), 40);
    }
}
