//! Arrival feeds: a request stream produced on another thread.
//!
//! Open-loop arrivals never depend on the simulation, so they can be
//! drawn while the engine runs. A producer sends chunks of requests
//! over an unbounded channel and closes it with an end-of-stream
//! marker; the engine reads the chunks through an [`ArrivalFeed`],
//! which flattens into the `Iterator<Item = Request>` a
//! [`Session`](crate::Session) runs on ([`Server::stream_session`]).
//!
//! Sends never block, so a producer never waits on its consumers: it
//! always runs to the end of its stream, whatever order the consumers
//! read in. [`with_producer`] runs one producer beside a consumer and
//! re-raises a producer panic at the join.
//!
//! [`Server::stream_session`]: crate::Server::stream_session

use crate::request::Request;
use deeppower_telemetry::Profiler;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

/// Requests per chunk a producer sends (for a fleet: per chunk of the
/// fleet stream, which the balancer splits across the nodes).
pub const FEED_CHUNK: usize = 4096;

enum Msg {
    Chunk(Vec<Request>),
    End,
}

/// Sending half of an arrival feed.
pub struct FeedSender {
    tx: Sender<Msg>,
    prof: Profiler,
}

/// Receiving half of an arrival feed: the producer's chunks, in send
/// order. Reading past a channel that closed without its end-of-stream
/// marker panics; a producer that stopped early never ends a run short.
pub struct ArrivalFeed {
    rx: Receiver<Msg>,
    prof: Profiler,
    ended: bool,
}

/// What a session streaming from an [`ArrivalFeed`] iterates.
pub type FeedArrivals = std::iter::Flatten<ArrivalFeed>;

/// One unbounded feed. `prof` times the producer's generation
/// (`engine.ingest`) and the reads that had to wait for it
/// (`engine.feed_wait`).
pub fn arrival_feed(prof: &Profiler) -> (FeedSender, ArrivalFeed) {
    let (tx, rx) = channel();
    let sender = FeedSender {
        tx,
        prof: prof.clone(),
    };
    let feed = ArrivalFeed {
        rx,
        prof: prof.clone(),
        ended: false,
    };
    (sender, feed)
}

impl FeedSender {
    /// Send one chunk. Returns `false` once the feed's reader is gone
    /// (its session finished or unwound), so the producer can stop.
    pub fn send(&self, chunk: Vec<Request>) -> bool {
        chunk.is_empty() || self.tx.send(Msg::Chunk(chunk)).is_ok()
    }

    /// Mark the end of the stream.
    pub fn end(self) {
        // A reader that is gone needs no marker.
        let _ = self.tx.send(Msg::End);
    }

    /// Send all of `arrivals` in [`FEED_CHUNK`]-sized chunks, each drawn
    /// inside an `engine.ingest` span, then mark the end.
    pub fn pump(self, mut arrivals: impl Iterator<Item = Request>) {
        loop {
            let sp = self.prof.span("engine.ingest");
            let mut chunk = Vec::with_capacity(FEED_CHUNK);
            chunk.extend(arrivals.by_ref().take(FEED_CHUNK));
            drop(sp);
            let last = chunk.len() < FEED_CHUNK;
            if !self.send(chunk) || last {
                break;
            }
        }
        self.end();
    }
}

impl Iterator for ArrivalFeed {
    type Item = Vec<Request>;

    fn next(&mut self) -> Option<Vec<Request>> {
        if self.ended {
            return None;
        }
        let msg = match self.rx.try_recv() {
            Ok(msg) => Some(msg),
            Err(TryRecvError::Empty) => {
                let _sp = self.prof.span("engine.feed_wait");
                self.rx.recv().ok()
            }
            Err(TryRecvError::Disconnected) => None,
        };
        match msg {
            Some(Msg::Chunk(chunk)) => Some(chunk),
            Some(Msg::End) => {
                self.ended = true;
                None
            }
            None => panic!("arrival feed closed without its end-of-stream marker"),
        }
    }
}

/// Run `produce` on a scoped thread while `consume` runs on the calling
/// thread, and return both results. The producer must never wait on the
/// consumer (feeds are unbounded), so the join always returns. A
/// producer panic re-raises here, ahead of the panic it causes in a
/// consumer reading a feed that never got its end marker.
pub fn with_producer<T: Send, R>(
    produce: impl FnOnce() -> T + Send,
    consume: impl FnOnce() -> R,
) -> (T, R) {
    std::thread::scope(|scope| {
        let producer = scope.spawn(produce);
        let consumed = catch_unwind(AssertUnwindSafe(consume));
        let produced = producer.join().unwrap_or_else(|p| resume_unwind(p));
        (produced, consumed.unwrap_or_else(|p| resume_unwind(p)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request {
            id,
            client_id: id,
            attempt: 0,
            arrival: id,
            first_arrival: id,
            work_ref_ns: 1,
            freq_sensitivity: 1.0,
            sla: 1,
            features: Default::default(),
        }
    }

    #[test]
    fn pump_delivers_every_request_including_the_last_partial_chunk() {
        let n = 2 * FEED_CHUNK as u64 + 5;
        let (tx, feed) = arrival_feed(&Profiler::disabled());
        let ((), got) = with_producer(
            move || tx.pump((0..n).map(req)),
            || feed.flatten().collect::<Vec<_>>(),
        );
        assert_eq!(got, (0..n).map(req).collect::<Vec<_>>());
    }

    #[test]
    fn a_feed_closed_without_its_end_marker_panics() {
        let (tx, mut feed) = arrival_feed(&Profiler::disabled());
        assert!(tx.send(vec![req(0)]));
        drop(tx);
        assert_eq!(feed.next().map(|c| c.len()), Some(1));
        let read = catch_unwind(AssertUnwindSafe(|| feed.next()));
        assert!(read.is_err(), "a truncated feed must not read as its end");
    }

    #[test]
    fn the_producers_panic_re_raises_ahead_of_the_consumers() {
        let (tx, feed) = arrival_feed(&Profiler::disabled());
        let run = catch_unwind(AssertUnwindSafe(|| {
            with_producer(
                move || {
                    tx.send(vec![req(0)]);
                    panic!("producer failed");
                },
                || feed.flatten().count(),
            )
        }));
        let payload = run.expect_err("the run must panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"producer failed"));
    }
}
