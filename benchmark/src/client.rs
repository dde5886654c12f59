//! The load generator's side of the socket: one keep-alive
//! `mdm_server::client::Connection` replaying a script, timing each analyst
//! query and checking every response against the reference pass.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

use mdm_server::client::Connection;

use crate::scenario::{Op, Request, Scenario};
use crate::stats::digest;

/// What one connection saw. A failed operation (non-200, transport error,
/// wrong bytes) is attempted but yields no sample.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// `(script index, ms)` of each correct analyst answer: request bytes
    /// sent → full body read.
    pub latencies_ms: Vec<(usize, f64)>,
    /// Release `POST` sent → receipt of the first correct answer after it.
    pub visible_ms: Vec<f64>,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.visible_ms.extend(other.visible_ms);
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.latencies_ms.iter().map(|(_, ms)| *ms).collect()
    }
}

/// The served answers of the first pass over a script: what every later
/// pass must reproduce byte for byte, and what the oracle verifies once.
pub struct Reference {
    /// Body digest per script index (0 for release steps).
    pub digests: Vec<u64>,
    /// Each distinct query body, by digest.
    pub bodies: HashMap<u64, Vec<u8>>,
}

pub struct Driver<'s> {
    scenario: &'s Scenario,
    addr: SocketAddr,
    connection: Option<Connection>,
}

impl<'s> Driver<'s> {
    pub fn new(scenario: &'s Scenario, addr: SocketAddr) -> Self {
        Driver {
            scenario,
            addr,
            connection: None,
        }
    }

    /// Sends one `POST`; a transport error drops the connection so the
    /// next request reconnects.
    fn post(&mut self, request: &Request) -> Result<(u16, Vec<u8>), String> {
        if self.connection.is_none() {
            self.connection = Some(Connection::open(self.addr).map_err(|e| e.to_string())?);
        }
        let connection = self.connection.as_mut().expect("just opened");
        match connection.send_raw("POST", request.path, Some(&request.body)) {
            Ok(response) => Ok((response.status, response.body)),
            Err(error) => {
                self.connection = None;
                Err(error.to_string())
            }
        }
    }

    /// One pass over `script`. With a `reference`, every query body must
    /// digest to the reference's at the same index; without one the pass
    /// *is* the reference and is returned.
    pub fn pass(
        &mut self,
        script: &[Op],
        reference: Option<&Reference>,
        tally: &mut Tally,
    ) -> Option<Reference> {
        let scenario = self.scenario;
        let mut recorded = reference.is_none().then(|| Reference {
            digests: vec![0; script.len()],
            bodies: HashMap::new(),
        });
        let mut release_sent: Option<Instant> = None;
        for (index, op) in script.iter().enumerate() {
            match *op {
                Op::Release(release) => {
                    release_sent = Some(Instant::now());
                    for request in &scenario.releases[release].requests {
                        tally.attempted += 1;
                        match self.post(request) {
                            Ok((200, _)) => {}
                            Ok((status, body)) => tally.fail(format!(
                                "{} answered {status}: {}",
                                request.path,
                                String::from_utf8_lossy(&body)
                            )),
                            Err(error) => tally.fail(format!("{}: {error}", request.path)),
                        }
                    }
                }
                Op::Query(walk) => {
                    tally.attempted += 1;
                    let sent = Instant::now();
                    let outcome = self.post(&scenario.queries[walk]);
                    let elapsed = sent.elapsed();
                    let visible = release_sent.take().map(|at| at.elapsed());
                    let body = match outcome {
                        Ok((200, body)) => body,
                        Ok((status, body)) => {
                            tally.fail(format!(
                                "query answered {status}: {}",
                                String::from_utf8_lossy(&body)
                            ));
                            continue;
                        }
                        Err(error) => {
                            tally.fail(format!("query: {error}"));
                            continue;
                        }
                    };
                    let digest = digest(&body);
                    match (reference, &mut recorded) {
                        (Some(reference), _) if reference.digests[index] != digest => {
                            tally.fail(format!("answer {index} differs from the reference pass"));
                            continue;
                        }
                        (_, Some(recorded)) => {
                            recorded.digests[index] = digest;
                            recorded.bodies.entry(digest).or_insert(body);
                        }
                        _ => {}
                    }
                    tally
                        .latencies_ms
                        .push((index, elapsed.as_secs_f64() * 1e3));
                    if let Some(visible) = visible {
                        tally.visible_ms.push(visible.as_secs_f64() * 1e3);
                    }
                }
            }
        }
        recorded
    }

    /// `GET /metrics`, for the server's own shed and error counters.
    pub fn metrics(&self) -> Result<String, String> {
        let mut connection = Connection::open(self.addr).map_err(|e| e.to_string())?;
        connection
            .send("GET", "/metrics", None)
            .map_err(|e| e.to_string())?
            .into_ok()
    }
}
