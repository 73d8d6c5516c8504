//! `offline-2048`: the `slap label` library path. Each step parses a held
//! P4 frame with `pbm::read` and labels it with a warm `fast` session, on
//! one thread.

use crate::corpus::{self, Digest, Frame, DECK_FAMILIES, LARGE};
use crate::trace::Tracer;
use crate::{Job, Measured};
use slap_cc::{Connectivity, EngineKind, LabelEngine};
use slap_image::{pbm, LabelGrid};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One deck entry: a generated 2048² frame and the connectivity it is
/// labeled at.
pub struct Entry {
    pub image: usize,
    pub conn: Connectivity,
}

pub fn conn_digit(conn: Connectivity) -> u8 {
    match conn {
        Connectivity::Four => 4,
        Connectivity::Eight => 8,
    }
}

/// The deck: every [`DECK_FAMILIES`] frame at both connectivities.
pub fn deck(seed: u64) -> (Vec<Frame>, Vec<Entry>) {
    let images: Vec<Frame> = DECK_FAMILIES
        .iter()
        .enumerate()
        .map(|(i, &family)| Frame::generate(family, LARGE, corpus::mix(seed, 0xdec0 + i as u64)))
        .collect();
    let entries = (0..images.len())
        .flat_map(|image| {
            [Connectivity::Four, Connectivity::Eight].map(|conn| Entry { image, conn })
        })
        .collect();
    (images, entries)
}

pub struct Offline {
    pub images: Vec<Frame>,
    pub entries: Vec<Entry>,
    session: Box<dyn LabelEngine>,
    grid: LabelGrid,
}

impl Offline {
    /// Generates and encodes the deck and warms the session on every entry.
    pub fn setup(seed: u64) -> Offline {
        let (images, entries) = deck(seed);
        let mut session = EngineKind::Fast.session(1);
        let mut grid = LabelGrid::new_background(1, 1);
        for e in &entries {
            let img = pbm::read(&images[e.image].pbm[..]).expect("deck frame decodes");
            session.label_into(&img, e.conn, &mut grid);
        }
        Offline {
            images,
            entries,
            session,
            grid,
        }
    }

    /// Session scratch plus the label grid and one decoded bitmap: the
    /// bytes one step touches.
    pub fn working_set_bytes(&self) -> u64 {
        let pixels = (LARGE * LARGE) as u64;
        self.session.scratch_bytes() as u64 + pixels * 4 + pixels / 8
    }

    /// Labels deck entries round-robin for `seconds`.
    pub fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Measured {
        let Offline {
            images,
            entries,
            session,
            grid,
        } = self;
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut jobs = Vec::new();
        while start.elapsed() < budget {
            let i = jobs.len();
            let e = &entries[i % entries.len()];
            let id = i as u64;
            tracer.set_kind(i % entries.len());
            let t0 = Instant::now();
            let root = tracer.open("client.roundtrip", None, id);
            let img = tracer.time("pbm.read", Some(root), id, || {
                pbm::read(black_box(&images[e.image].pbm[..]))
            });
            let components = img.as_ref().ok().map(|img| {
                tracer.time("engine.fast.label", Some(root), id, || {
                    session.label_into(img, e.conn, grid).components
                })
            });
            tracer.close(root);
            let lat = t0.elapsed();
            jobs.push(Job {
                frame: i % entries.len(),
                large: true,
                start_s: (t0 - start).as_secs_f64(),
                lat_ms: lat.as_secs_f64() * 1e3,
                digest: components.map(|c| corpus::grid_digest(c, grid.as_slice())),
            });
        }
        Measured {
            jobs,
            seconds,
            rate_over_busy: true,
        }
    }

    /// Grid references per deck entry (BFS oracle).
    pub fn references(&self) -> Vec<Digest> {
        self.entries
            .iter()
            .map(|e| corpus::reference(&self.images[e.image].img, e.conn).0)
            .collect()
    }
}
