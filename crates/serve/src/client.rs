//! A retrying `slapd` client.
//!
//! Labeling is pure — the same bitmap always yields the same grid — so
//! resubmitting a job is always safe. The client leans on that: any
//! transient failure (connection refused or reset, `queue-full`,
//! `deadline`, `shutdown`, a one-off `panic`) triggers a reconnect and
//! resubmit with jittered exponential backoff. Verdicts about the job
//! itself (`bad-frame`, `too-large`, `overflow`) surface immediately.
//!
//! The pooled connection is mode-aware: [`Client::label`] keeps a plain
//! v1 grid connection (no hello is ever sent, so v1 servers work
//! unchanged), while [`Client::label_stream`] negotiates protocol-v2
//! `stream` mode on connect and receives per-component feature records.
//! Switching between the two drops the pooled connection and dials a
//! fresh one in the right mode — a connection's response mode is fixed
//! at its hello.
//!
//! Each pooled connection is one buffered reader over its socket, made at
//! dial time: the hello echo and every reply are read through it, and
//! frames are written through [`BufReader::get_mut`].

use crate::chaos::DetRng;
use crate::protocol::{self, JobOk, JobStream, Reply, ReplyKind, ResponseMode, WireError};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Retry and backoff tuning for a [`Client`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total submission attempts (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter (±50% around the exponential
    /// delay) that keeps a fleet of retrying clients from thundering back
    /// in lockstep.
    pub jitter_seed: u64,
    /// Socket read/write timeout per attempt.
    pub io_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x5eed,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// Why a [`Client::label`] call gave up.
#[derive(Debug)]
pub enum ClientError {
    /// A transport failure on the final attempt.
    Io(io::Error),
    /// The server rejected the job with a non-retryable verdict.
    Rejected {
        /// The typed rejection code.
        code: WireError,
        /// The server's one-line detail.
        detail: String,
    },
    /// Every attempt failed with a retryable condition.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last failure, rendered.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Rejected { code, detail } => {
                write!(f, "server rejected job ({code}): {detail}")
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last failure: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

enum AttemptError {
    Io(io::Error),
    Rejected { code: WireError, detail: String },
}

impl AttemptError {
    fn retryable(&self) -> bool {
        match self {
            AttemptError::Io(_) => true,
            AttemptError::Rejected { code, .. } => code.retryable(),
        }
    }

    fn render(&self) -> String {
        match self {
            AttemptError::Io(e) => format!("transport error: {e}"),
            AttemptError::Rejected { code, detail } => format!("{code}: {detail}"),
        }
    }
}

/// A connection-pooling, retrying client for one `slapd` address.
pub struct Client {
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: DetRng,
    conn: Option<BufReader<TcpStream>>,
    mode: ResponseMode,
    frame: Vec<u8>,
    retries: u64,
}

impl Client {
    /// Creates a client for `addr` with the default policy. No I/O happens
    /// until the first [`Client::label`].
    pub fn connect(addr: SocketAddr) -> Client {
        Client::with_policy(addr, RetryPolicy::default())
    }

    /// Creates a client with an explicit retry policy.
    pub fn with_policy(addr: SocketAddr, policy: RetryPolicy) -> Client {
        let rng = DetRng::new(policy.jitter_seed);
        Client {
            addr,
            policy,
            rng,
            conn: None,
            mode: ResponseMode::Grid,
            frame: Vec::new(),
            retries: 0,
        }
    }

    /// Retries performed so far (reconnect + resubmit events, not counting
    /// each job's first attempt).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Labels `img` on the server, retrying transient failures per the
    /// policy. Returns the labeled grid or the reason the job is
    /// unservable. Uses a plain v1 grid connection; if the pooled
    /// connection was negotiated for streaming it is dropped first.
    pub fn label(&mut self, img: &slap_image::Bitmap) -> Result<JobOk, ClientError> {
        self.submit(img)
    }

    /// Labels `img` in protocol-v2 `stream` mode, retrying transient
    /// failures per the policy. Returns the per-component feature records
    /// instead of a label grid — the server never materializes the grid,
    /// so this is the path for frames above the server's grid budget.
    pub fn label_stream(&mut self, img: &slap_image::Bitmap) -> Result<JobStream, ClientError> {
        self.submit(img)
    }

    /// The shared retry loop: both response modes differ only in the reply
    /// kind `T` one attempt asks for and reads.
    fn submit<T: ReplyKind>(&mut self, img: &slap_image::Bitmap) -> Result<T, ClientError> {
        self.frame.clear();
        slap_image::pbm::write_framed(img, &mut self.frame)?;
        let mut last: Option<AttemptError> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt));
                self.retries += 1;
            }
            let frame = std::mem::take(&mut self.frame);
            let outcome = self.attempt::<T>(&frame);
            self.frame = frame;
            match outcome {
                Ok(reply) => return Ok(reply),
                Err(e) if e.retryable() => {
                    // The stream may be desynced or dead; reconnect fresh.
                    self.conn = None;
                    last = Some(e);
                }
                Err(AttemptError::Rejected { code, detail }) => {
                    return Err(ClientError::Rejected { code, detail })
                }
                Err(AttemptError::Io(e)) => return Err(ClientError::Io(e)),
            }
        }
        Err(ClientError::Exhausted {
            attempts: self.policy.max_attempts,
            last: last.map(|e| e.render()).unwrap_or_default(),
        })
    }

    /// Ensures the pooled connection exists and was dialed for `mode`,
    /// reconnecting (and renegotiating) when the mode differs. Grid mode
    /// sends no hello at all, so v1 servers keep working.
    fn ensure_conn(&mut self, mode: ResponseMode) -> io::Result<&mut BufReader<TcpStream>> {
        if self.mode != mode {
            self.conn = None;
        }
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.policy.io_timeout))?;
            stream.set_write_timeout(Some(self.policy.io_timeout))?;
            let _ = stream.set_nodelay(true);
            let mut conn = BufReader::new(stream);
            if mode == ResponseMode::Stream {
                protocol::write_hello(conn.get_mut(), mode)?;
                let echoed = protocol::read_hello(&mut conn)?;
                if echoed != ResponseMode::Stream {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("server echoed mode {echoed}, wanted stream"),
                    ));
                }
            }
            self.conn = Some(conn);
            self.mode = mode;
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// One submission: write the frame on a connection in `T`'s mode and
    /// read one reply of kind `T`.
    fn attempt<T: ReplyKind>(&mut self, frame: &[u8]) -> Result<T, AttemptError> {
        let conn = self.ensure_conn(T::MODE).map_err(AttemptError::Io)?;
        conn.get_mut()
            .write_all(frame)
            .and_then(|()| conn.get_mut().flush())
            .map_err(AttemptError::Io)?;
        match protocol::read_reply::<_, T>(conn).map_err(AttemptError::Io)? {
            None => Err(AttemptError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before answering",
            ))),
            Some(Reply::Ok(ok)) => Ok(ok),
            Some(Reply::Rejected { code, detail }) => Err(AttemptError::Rejected { code, detail }),
        }
    }

    /// Exponential backoff with ±50% deterministic jitter: attempt 1 waits
    /// around `base`, attempt 2 around `2·base`, ... capped at `max_delay`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let nominal = self
            .policy
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.policy.max_delay);
        let nanos = nominal.as_nanos() as u64;
        let jittered = nanos / 2 + self.rng.below(nanos.max(1));
        Duration::from_nanos(jittered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};
    use slap_image::Bitmap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn blob(rows: usize, cols: usize) -> Bitmap {
        let mut img = Bitmap::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if r.abs_diff(rows / 2) + c.abs_diff(cols / 2) <= rows.min(cols) / 2 {
                    img.set(r, c, true);
                }
            }
        }
        img
    }

    #[test]
    fn backoff_grows_exponentially_with_jitter_in_band() {
        let mut client = Client::connect("127.0.0.1:1".parse().unwrap());
        for attempt in 1..=6u32 {
            let d = client.backoff(attempt);
            let nominal = Duration::from_millis(20)
                .saturating_mul(1 << (attempt - 1))
                .min(Duration::from_secs(2));
            assert!(d >= nominal / 2, "attempt {attempt}: {d:?} < half-band");
            assert!(d <= nominal * 3 / 2, "attempt {attempt}: {d:?} > band");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let seq = |seed: u64| -> Vec<Duration> {
            let mut c = Client::with_policy(
                "127.0.0.1:1".parse().unwrap(),
                RetryPolicy {
                    jitter_seed: seed,
                    ..RetryPolicy::default()
                },
            );
            (1..=4).map(|a| c.backoff(a)).collect()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }

    #[test]
    fn client_roundtrips_and_reuses_its_connection() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr());
        let img = blob(12, 20);
        for _ in 0..3 {
            let ok = client.label(&img).unwrap();
            assert_eq!((ok.rows, ok.cols), (12, 20));
            assert_eq!(ok.components, 1);
        }
        assert_eq!(client.retries(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.jobs_ok, 3);
        assert_eq!(stats.connections, 1, "one pooled connection");
    }

    #[test]
    fn label_stream_negotiates_and_returns_records() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr());
        let img = blob(12, 20);
        let foreground: u64 = (0..12)
            .map(|r| (0..20).filter(|&c| img.get(r, c)).count() as u64)
            .sum();
        for _ in 0..2 {
            let ok = client.label_stream(&img).unwrap();
            assert_eq!((ok.rows, ok.cols), (12, 20));
            assert_eq!(ok.components, 1);
            assert_eq!(ok.records.len(), 1);
            assert_eq!(ok.records[0].area, foreground);
        }
        assert_eq!(client.retries(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.jobs_streamed, 2);
        assert_eq!(stats.connections, 1, "stream conn is pooled too");
    }

    #[test]
    fn switching_modes_redials_in_the_right_mode() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr());
        let img = blob(10, 10);
        assert_eq!(client.label(&img).unwrap().components, 1);
        assert_eq!(client.label_stream(&img).unwrap().components, 1);
        assert_eq!(client.label(&img).unwrap().components, 1);
        assert_eq!(client.retries(), 0, "mode switches are not retries");
        let stats = server.shutdown();
        assert_eq!(stats.jobs_ok, 3);
        assert_eq!(stats.jobs_streamed, 1);
        assert_eq!(stats.connections, 3, "each switch dials fresh");
    }

    #[test]
    fn retryable_rejections_are_resubmitted_until_they_succeed() {
        // A hook that panics the first two times it sees a job: the
        // client should eat two `panic` rejections and then succeed.
        let flaky = Arc::new(AtomicU64::new(0));
        let hook_flaky = Arc::clone(&flaky);
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                job_hook: Some(Arc::new(move |_img| {
                    if hook_flaky.fetch_add(1, Ordering::SeqCst) < 2 {
                        panic!("chaos: transient failure");
                    }
                })),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::with_policy(
            server.local_addr(),
            RetryPolicy {
                base_delay: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
        );
        let ok = client.label(&blob(10, 10)).unwrap();
        assert_eq!(ok.components, 1);
        assert_eq!(client.retries(), 2);
        let stats = server.shutdown();
        assert_eq!(stats.panics, 2);
        assert_eq!(stats.jobs_ok, 1);
    }

    #[test]
    fn non_retryable_rejections_surface_immediately() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                max_dim: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr());
        match client.label(&blob(16, 16)) {
            Err(ClientError::Rejected { code, .. }) => {
                assert_eq!(code, WireError::TooLarge);
            }
            other => panic!("expected too-large, got {other:?}"),
        }
        assert_eq!(client.retries(), 0, "verdicts are not retried");
        server.shutdown();
    }

    #[test]
    fn exhaustion_reports_the_last_failure() {
        // Nothing is listening on this port.
        let mut client = Client::with_policy(
            "127.0.0.1:9".parse().unwrap(),
            RetryPolicy {
                max_attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                ..RetryPolicy::default()
            },
        );
        match client.label(&blob(4, 4)) {
            Err(ClientError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 2);
                assert!(last.contains("transport error"), "{last}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
