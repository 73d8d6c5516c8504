//! `serve-grid` and `serve-stream`: an in-process `slapd` driven closed
//! loop by two `Client` connections. Each client alternates 256² random50
//! and blobs frames; every 32nd job is a 2048² random50 frame.

use crate::corpus::{self, Digest, Frame, LARGE, SMALL, SMALL_PER_FAMILY};
use crate::trace::{Span, Tracer};
use crate::{Job, Measured};
use slap_serve::{Client, ServeConfig, Server, StatsSnapshot};
use std::time::{Duration, Instant};

/// Closed-loop callers, one connection each (the host has two threads).
pub const CLIENTS: usize = 2;
/// Every `LARGE_EVERY`-th job of a client is the large frame.
pub const LARGE_EVERY: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Grid,
    Stream,
}

/// The serve frame mix: `SMALL_PER_FAMILY` random50 frames, as many blobs
/// frames, then the large frame last.
pub fn frames(seed: u64) -> Vec<Frame> {
    let mut frames = Vec::new();
    for (f, family) in ["random50", "blobs"].into_iter().enumerate() {
        for k in 0..SMALL_PER_FAMILY {
            let salt = 0x5e00 + (f * SMALL_PER_FAMILY + k) as u64;
            frames.push(Frame::generate(family, SMALL, corpus::mix(seed, salt)));
        }
    }
    frames.push(Frame::generate(
        "random50",
        LARGE,
        corpus::mix(seed, 0x1a26e),
    ));
    frames
}

/// Index into [`frames`] of client `client`'s `j`-th job.
pub fn schedule(client: usize, j: usize) -> usize {
    if j % LARGE_EVERY == LARGE_EVERY - 1 {
        return 2 * SMALL_PER_FAMILY;
    }
    let k = j - j / LARGE_EVERY; // small jobs before this one
    let family = k % 2;
    let index = (k / 2 + client * 3) % SMALL_PER_FAMILY;
    family * SMALL_PER_FAMILY + index
}

/// The generator family (0 random50, 1 blobs) of a small frame index.
pub fn family_of(frame: usize) -> usize {
    frame / SMALL_PER_FAMILY
}

/// The server configuration of each mode: `ServeConfig` defaults, with the
/// stream routing threshold lowered below 2048² so every large stream
/// frame goes out-of-core.
pub fn config(mode: Mode) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    if mode == Mode::Stream {
        cfg.max_pixels = 1 << 21;
    }
    cfg
}

/// Client-side ledger of everything sent to the current server.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    /// Jobs the server answered (right or wrong).
    pub answered: u64,
    pub large_attempted: u64,
    /// Jobs that ended in a client error.
    pub client_errors: u64,
}

pub struct Serve {
    pub mode: Mode,
    pub frames: Vec<Frame>,
    server: Server,
    clients: Vec<Client>,
    pub ledger: Ledger,
}

/// Submits frame `f` on `client`, returning the digest of the reply.
fn submit(client: &mut Client, mode: Mode, f: &Frame) -> Option<Digest> {
    match mode {
        Mode::Grid => client
            .label(&f.img)
            .ok()
            .map(|ok| corpus::grid_digest(ok.components, &ok.labels)),
        Mode::Stream => client
            .label_stream(&f.img)
            .ok()
            .filter(|ok| ok.components == ok.records.len())
            .map(|ok| corpus::stream_digest(ok.rows, &ok.records)),
    }
}

impl Serve {
    /// Generates the frame mix, binds the server, and warms both
    /// connections (two small jobs each) and one large job.
    pub fn setup(seed: u64, mode: Mode) -> Serve {
        let frames = frames(seed);
        let server = Server::bind("127.0.0.1:0", config(mode)).expect("bind loopback");
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(server.local_addr()))
            .collect();
        let mut serve = Serve {
            mode,
            frames,
            server,
            clients,
            ledger: Ledger::default(),
        };
        let warm = [(0, 0), (0, 1), (0, LARGE_EVERY - 1), (1, 0), (1, 1)];
        for (c, j) in warm {
            let f = &serve.frames[schedule(c, j)];
            let large = f.is_large();
            let answered = submit(&mut serve.clients[c], mode, f).is_some();
            serve.count(large, answered);
        }
        serve
    }

    fn count(&mut self, large: bool, answered: bool) {
        self.ledger.attempted += 1;
        self.ledger.large_attempted += u64::from(large);
        self.ledger.answered += u64::from(answered);
        self.ledger.client_errors += u64::from(!answered);
    }

    pub fn working_set(&self) -> [(&'static str, u64); 2] {
        let bytes = |side: u64| side * side * 4 + side * side / 8;
        [
            ("primary_256", bytes(SMALL as u64)),
            ("large_2048", bytes(LARGE as u64)),
        ]
    }

    /// Runs both clients closed loop for `seconds`; returns their jobs and,
    /// when `traced`, one `client.roundtrip` span per job.
    pub fn measure(&mut self, seconds: f64, traced: bool, epoch: Instant) -> (Measured, Vec<Span>) {
        let budget = Duration::from_secs_f64(seconds);
        let (mode, frames) = (self.mode, &self.frames);
        let start = Instant::now();
        let per_client: Vec<(Vec<Job>, Vec<Span>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut tracer = Tracer::new(epoch, traced);
                        let mut jobs = Vec::new();
                        while start.elapsed() < budget {
                            let j = jobs.len();
                            let frame = schedule(c, j);
                            let f = &frames[frame];
                            let name = if f.is_large() {
                                "client.roundtrip.large"
                            } else {
                                "client.roundtrip"
                            };
                            let id = ((c as u64) << 32) | j as u64;
                            let t0 = Instant::now();
                            tracer.set_kind(if f.is_large() { 0 } else { family_of(frame) });
                            let root = tracer.open(name, None, id);
                            let digest = submit(client, mode, f);
                            tracer.close(root);
                            jobs.push(Job {
                                frame,
                                large: f.is_large(),
                                start_s: (t0 - start).as_secs_f64(),
                                lat_ms: t0.elapsed().as_secs_f64() * 1e3,
                                digest,
                            });
                        }
                        (jobs, tracer.into_spans())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut jobs = Vec::new();
        let mut spans = Vec::new();
        for (j, s) in per_client {
            jobs.extend(j);
            spans.push(s);
        }
        for job in &jobs {
            self.count(job.large, job.digest.is_some());
        }
        let m = Measured {
            jobs,
            seconds,
            rate_over_busy: false,
        };
        (m, crate::trace::merge(spans))
    }

    /// Retries the clients made, including warm-up.
    pub fn retries(&self) -> u64 {
        self.clients.iter().map(Client::retries).sum()
    }

    /// Drains the server and returns its final counters.
    pub fn finish(self) -> StatsSnapshot {
        drop(self.clients);
        self.server.shutdown()
    }

    /// Grid and stream references per frame of the mix (BFS oracle, at the
    /// server's connectivity).
    pub fn references(&self) -> Vec<Digest> {
        let conn = config(self.mode).conn;
        self.frames
            .iter()
            .map(|f| {
                let (grid, stream) = corpus::reference(&f.img, conn);
                match self.mode {
                    Mode::Grid => grid,
                    Mode::Stream => stream,
                }
            })
            .collect()
    }
}

/// Reconciles the client ledger with the server's final counters. Returns
/// one line per disagreement.
pub fn reconcile(mode: Mode, ledger: &Ledger, retries: u64, s: &StatsSnapshot) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |what: &str, server: u64, client: u64| {
        if server != client {
            problems.push(format!(
                "ledger: server {what} = {server}, client side = {client}"
            ));
        }
    };
    let stream = mode == Mode::Stream;
    expect("jobs_ok", s.jobs_ok, ledger.answered);
    expect(
        "jobs_streamed",
        s.jobs_streamed,
        if stream { ledger.answered } else { 0 },
    );
    expect(
        "jobs_ooc",
        s.jobs_ooc,
        if stream { ledger.large_attempted } else { 0 },
    );
    // Every retried or failed attempt reached the server as a typed
    // rejection or a dropped connection.
    expect(
        "rejected + io_errors",
        s.rejected() + s.io_errors,
        retries + ledger.client_errors,
    );
    if ledger.client_errors > 0 {
        problems.push(format!(
            "{} jobs, warm-up included, ended in a client error",
            ledger.client_errors
        ));
    }
    let bound = (LARGE / 2 + 1) as u64;
    if s.peak_carried_runs > bound {
        problems.push(format!(
            "peak_carried_runs {} exceeds cols/2 + 1 = {bound}",
            s.peak_carried_runs
        ));
    }
    problems
}
