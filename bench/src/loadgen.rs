//! The load generator: seeded Poisson schedules, closed- and open-loop
//! HTTP clients that block or sleep (never spin), the per-request
//! record they keep, and the per-slice summary of a measured window.

use crate::client::{push_row, Conn, Reply, Timing};
use crate::models::RowPool;
use crate::stats::{highest_supported_percentile, percentile, Summary};
use crate::trace::Tracer;
use rapidnn::tensor::SeededRng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A measured window is cut into equal slices of about this length and
/// a timing is its best slice (see [`Summary`]).
pub const SLICE: Duration = Duration::from_millis(200);
/// A slice with fewer correct replies than this has no median worth
/// reporting and is left out of the latency summary.
const MIN_SLICE_SAMPLES: usize = 10;
/// A rate fails the limit once a request goes out this late: the
/// backlog is growing.
pub const MAX_LAG: Duration = Duration::from_millis(250);

/// What the harness keeps per request. Times are nanoseconds since the
/// run's epoch; `due == sent` in a closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub row: u32,
    /// HTTP status; 0 for an I/O error or a request never sent.
    pub status: u16,
    pub generation: u32,
    /// Bit `v` is set when the body equals expected variant `v`.
    pub matches: u8,
}

impl Rec {
    pub fn from_reply(due: u64, sent: u64, done: u64, row: u32, reply: &Reply, matches: u8) -> Rec {
        Rec {
            due,
            sent,
            done,
            row,
            status: reply.status,
            generation: reply.generation.unwrap_or(0) as u32,
            matches,
        }
    }

    pub fn io_error(due: u64, sent: u64, done: u64, row: u32) -> Rec {
        Rec {
            due,
            sent,
            done,
            row,
            status: 0,
            generation: 0,
            matches: 0,
        }
    }

    /// A correct 200: the only outcome that is not a failure.
    pub fn ok(&self) -> bool {
        self.status == 200 && self.matches != 0
    }

    /// A 200 whose body is not the expected one.
    pub fn wrong(&self) -> bool {
        self.status == 200 && self.matches == 0
    }
}

/// Expected output bytes, per variant, for every row of the pool.
pub struct Expect {
    /// Bytes per row.
    pub width: usize,
    pub variants: Vec<Vec<u8>>,
}

impl Expect {
    /// Bitmask of the variants whose expected output for `row` is
    /// exactly `body`.
    pub fn matches(&self, row: usize, body: &[u8]) -> u8 {
        let at = (row % crate::models::ROWS) * self.width;
        self.variants
            .iter()
            .enumerate()
            .filter(|(_, v)| &v[at..at + self.width] == body)
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }
}

pub fn nanos(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Arrival offsets (ns from the phase start) of a Poisson process of
/// `rate` per second over `duration`: the same seed gives the same
/// schedule.
pub fn poisson_schedule(rng: &mut SeededRng, rate: f64, duration: Duration) -> Vec<u64> {
    let end = duration.as_nanos() as f64;
    let mut at = 0.0f64;
    let mut arrivals = Vec::with_capacity((rate * duration.as_secs_f64() * 1.1) as usize);
    loop {
        let u = f64::from(rng.uniform(0.0, 1.0));
        at += -(1.0 - u).max(1e-12).ln() / rate * 1e9;
        if at >= end {
            return arrivals;
        }
        arrivals.push(at as u64);
    }
}

/// What one client thread brings back.
pub struct ClientLog {
    pub recs: Vec<Rec>,
    pub tracer: Tracer,
    pub reconnects: u64,
}

/// One inference client: owns a connection and a reusable request
/// buffer, and records every round trip.
pub struct InferClient<'a> {
    conn: Option<Conn>,
    addr: SocketAddr,
    head: &'a [u8],
    request: Vec<u8>,
    rows: &'a RowPool,
    expect: &'a Expect,
    epoch: Instant,
    trace: bool,
    log: ClientLog,
}

impl<'a> InferClient<'a> {
    pub fn new(
        addr: SocketAddr,
        head: &'a [u8],
        rows: &'a RowPool,
        expect: &'a Expect,
        epoch: Instant,
        lane: u64,
        trace: bool,
    ) -> InferClient<'a> {
        InferClient {
            conn: None,
            addr,
            head,
            request: Vec::with_capacity(head.len() + rows.features * 4),
            rows,
            expect,
            epoch,
            trace,
            log: ClientLog {
                recs: Vec::new(),
                tracer: Tracer::new(lane),
                reconnects: 0,
            },
        }
    }

    /// Sends row `row` and records the outcome; `due` is when the
    /// request should have gone out (`None` in a closed loop).
    fn send(&mut self, row: usize, due: Option<u64>) {
        let started = Instant::now();
        self.request.clear();
        self.request.extend_from_slice(self.head);
        push_row(&mut self.request, self.rows.row(row));
        // Connecting is kept out of the request's timed span; an open
        // loop still pays for it as lag on this and later requests.
        let ready = match &mut self.conn {
            Some(conn) => conn.refresh(),
            None => Conn::open(self.addr).map(|c| self.conn = Some(c)),
        };
        let outcome = ready.and_then(|()| {
            let conn = self.conn.as_mut().expect("connection was just opened");
            let (reply, timing) = conn.round_trip(&self.request)?;
            let matches = self.expect.matches(row, conn.body(&reply));
            Ok((reply, timing, matches))
        });
        let rec = match outcome {
            Ok((reply, timing, matches)) => {
                let sent = nanos(self.epoch, timing.sent);
                let done = nanos(self.epoch, timing.done);
                if self.trace {
                    self.record_spans(started, &timing);
                }
                Rec::from_reply(due.unwrap_or(sent), sent, done, row as u32, &reply, matches)
            }
            Err(_) => {
                // Back off so a dead gateway cannot make this loop spin.
                std::thread::sleep(Duration::from_millis(5));
                let sent = nanos(self.epoch, started);
                Rec::io_error(
                    due.unwrap_or(sent),
                    sent,
                    nanos(self.epoch, Instant::now()),
                    row as u32,
                )
            }
        };
        self.log.recs.push(rec);
    }

    /// The `request` span runs from before the request is built until
    /// after its answer is checked, so its self time is what the
    /// harness adds around the three socket phases beneath it.
    fn record_spans(&mut self, started: Instant, t: &Timing) {
        let at = |i| nanos(self.epoch, i);
        let (sent, written, first, done) =
            (at(t.sent), at(t.written), at(t.first_byte), at(t.done));
        let (started, checked) = (at(started), at(Instant::now()));
        let tracer = &mut self.log.tracer;
        let request = tracer.root("request", started, checked);
        tracer.child(request, "write", sent, written);
        tracer.child(request, "wait_first_byte", written, first);
        tracer.child(request, "read_body", first, done);
    }

    /// Closed loop: the next request goes out when the previous reply
    /// is in. Rows `first_row, first_row + stride, ...` until `until`.
    pub fn closed_loop(mut self, first_row: usize, stride: usize, until: Instant) -> ClientLog {
        let mut row = first_row;
        while Instant::now() < until {
            self.send(row, None);
            row += stride;
        }
        self.finish()
    }

    /// Open loop: request `i` goes out at `arrivals[i].0` (ns since the
    /// epoch) whatever happened to the ones before, as far as one
    /// blocking connection allows; the wait a stall imposes on later
    /// requests is charged to them. With `give_up_after` set, the phase
    /// is abandoned once a request goes out later than that and the
    /// rest are recorded as never sent: the backlog is growing.
    pub fn open_loop(
        mut self,
        arrivals: &[(u64, u32)],
        give_up_after: Option<Duration>,
    ) -> ClientLog {
        let mut abandoned = false;
        for &(due, row) in arrivals {
            if abandoned {
                self.log.recs.push(Rec::io_error(due, 0, 0, row));
                continue;
            }
            let now = nanos(self.epoch, Instant::now());
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            self.send(row as usize, Some(due));
            let lag = self
                .log
                .recs
                .last()
                .expect("send records")
                .sent
                .saturating_sub(due);
            abandoned = give_up_after.is_some_and(|limit| lag > limit.as_nanos() as u64);
        }
        self.finish()
    }

    fn finish(mut self) -> ClientLog {
        self.log.reconnects = self.conn.map_or(0, |c| c.reconnects);
        self.log
    }
}

/// Which instant assigns a record to the window and its slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum By {
    /// Closed loop: when the reply was complete.
    Done,
    /// Open loop: when the request was due, so a request that was never
    /// sent or never answered still belongs to the window, as a failure.
    Due,
}

/// A measured window's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Correct replies per second. In an open loop the schedule sets
    /// how many fall in a slice, so there it is the whole window's rate.
    pub ok_per_s: Summary,
    /// Per-slice median latency.
    pub p50_us: Summary,
    /// 99th percentile over the whole window.
    pub p99_us: f64,
    /// Highest supported percentile over the whole window, in µs.
    pub tail: Option<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Failures by HTTP status (0: I/O error or never sent; 200: wrong
    /// answer), for the one line that explains a non-zero `failed`.
    pub failed_by_status: BTreeMap<u16, u64>,
}

/// Summarises the records of `[start, start + len)` (since the epoch).
/// Latency runs from `due`, over correct replies only; everything else
/// counts in `failed`.
pub fn summarize(recs: &[Rec], start: Duration, len: Duration, by: By) -> WindowStats {
    let slices = ((len.as_nanos() / SLICE.as_nanos()) as usize).max(1);
    let (start, len) = (start.as_nanos() as u64, len.as_nanos() as u64);
    let key = |r: &Rec| match by {
        By::Done => r.done,
        By::Due => r.due,
    };
    let mut by_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    let mut failed_by_status = BTreeMap::new();
    for r in recs {
        let at = key(r);
        if at < start || at >= start + len {
            continue;
        }
        attempted += 1;
        if r.ok() {
            let slice = ((at - start) as u128 * slices as u128 / len as u128) as usize;
            by_slice[slice].push(r.done.saturating_sub(r.due));
        } else {
            failed += 1;
            wrong += u64::from(r.wrong());
            *failed_by_status.entry(r.status).or_insert(0) += 1;
        }
    }
    let slice_s = len as f64 / slices as f64 / 1e9;
    let mut all = Vec::new();
    let (mut rate, mut p50) = (Vec::new(), Vec::new());
    for slice in &mut by_slice {
        slice.sort_unstable();
        rate.push(slice.len() as f64 / slice_s);
        if slice.len() >= MIN_SLICE_SAMPLES {
            p50.push(percentile(slice, 50.0) as f64 / 1e3);
        }
        all.extend_from_slice(slice);
    }
    all.sort_unstable();
    if p50.is_empty() {
        p50.push(percentile(&all, 50.0) as f64 / 1e3);
    }
    WindowStats {
        ok_per_s: match by {
            By::Done => Summary::highest(&rate),
            By::Due => Summary::point(all.len() as f64 / (len as f64 / 1e9)),
        },
        p50_us: Summary::lowest(&p50),
        p99_us: percentile(&all, 99.0) as f64 / 1e3,
        tail: highest_supported_percentile(all.len())
            .map(|p| (p, percentile(&all, p) as f64 / 1e3)),
        attempted,
        failed,
        wrong,
        failed_by_status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let make =
            |seed| poisson_schedule(&mut SeededRng::new(seed), 500.0, Duration::from_secs(4));
        let (a, b, c) = (make(1), make(1), make(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
        assert!(*a.last().unwrap() < 4_000_000_000);
        // 2000 expected arrivals; 5 sigma is ~224.
        assert!((1776..=2224).contains(&a.len()), "{} arrivals", a.len());
    }

    fn rec(due: u64, done: u64, status: u16, matches: u8) -> Rec {
        Rec {
            due,
            sent: due,
            done,
            row: 0,
            status,
            generation: 0,
            matches,
        }
    }

    #[test]
    fn summary_counts_every_non_correct_200_as_failed() {
        let ms = 1_000_000u64;
        let mut recs = Vec::new();
        // Five 200 ms slices: 20 correct replies of 10 us in each, then
        // 20 more of 30 us in the third (its rate doubles, its median
        // stays in the lower half).
        for i in 0..100u64 {
            let due = i * 10 * ms;
            recs.push(rec(due, due + 10_000, 200, 1));
        }
        for i in 0..20u64 {
            let due = 400 * ms + i * 10 * ms + ms;
            recs.push(rec(due, due + 30_000, 200, 1));
        }
        recs.push(rec(100, 200, 429, 0));
        recs.push(rec(300, 400, 200, 0));
        recs.push(rec(500, 600, 0, 0));
        recs.push(rec(2_000 * ms, 2_000 * ms + 100, 200, 1)); // outside
        let window = Duration::from_secs(1);
        let s = summarize(&recs, Duration::ZERO, window, By::Done);
        assert_eq!((s.attempted, s.failed, s.wrong), (123, 3, 1));
        assert_eq!(
            s.failed_by_status,
            BTreeMap::from([(0, 1), (200, 1), (429, 1)])
        );
        // Best slice: 40 replies in 0.2 s; the median slice has 20.
        assert_eq!((s.ok_per_s.value, s.ok_per_s.median), (200.0, 100.0));
        assert_eq!((s.p50_us.value, s.p50_us.max), (10.0, 10.0));
        assert_eq!(s.p99_us, 30.0);
        assert_eq!(s.tail, Some((90.0, 30.0)));
        // An open loop reports the whole window's rate.
        let open = summarize(&recs, Duration::ZERO, window, By::Due);
        assert_eq!(open.ok_per_s.value, 120.0);
    }

    #[test]
    fn expected_bytes_match_by_variant() {
        let width = 2;
        let mut a = vec![0u8; crate::models::ROWS * width];
        let mut b = a.clone();
        a[2..4].copy_from_slice(&[1, 2]);
        b[2..4].copy_from_slice(&[1, 2]);
        b[4..6].copy_from_slice(&[9, 9]);
        let expect = Expect {
            width,
            variants: vec![a, b],
        };
        assert_eq!(expect.matches(1, &[1, 2]), 0b11);
        assert_eq!(expect.matches(2, &[9, 9]), 0b10);
        assert_eq!(expect.matches(2, &[0, 0]), 0b01);
        assert_eq!(expect.matches(1, &[7, 7]), 0);
    }
}
