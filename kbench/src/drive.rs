//! The load: one phase's ops sent over the two connections, each driven by
//! its own thread (the calling thread drives connection 0). Closed-loop
//! connections wait for each reply; open-loop connections send on their
//! fixed schedule whatever the replies are doing, pipelining requests
//! when the daemon falls behind, and time each request from when it was
//! due.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::gen::{Arrival, Phase, CONNECTIONS};
use crate::wire::{Conn, STALL_LIMIT};

/// How long before the first due time the connections are started, so
/// spawning the second thread never makes its first request late.
pub const START_SLACK: Duration = Duration::from_millis(20);

/// One answered request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the connection's op list.
    pub op: usize,
    /// When the request was due (open loop) or sent (closed loop): the
    /// zero of its latency.
    pub start: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub reply: String,
}

impl Done {
    pub fn latency(&self) -> Duration {
        self.done - self.start
    }

    /// Send to reply, without any wait for the schedule.
    pub fn service(&self) -> Duration {
        self.done - self.sent
    }
}

/// One connection's share of a phase.
#[derive(Debug, Default)]
pub struct ConnRun {
    pub done: Vec<Done>,
    /// How late each send was against its due time (open loop only).
    pub lateness_ns: Vec<u64>,
    /// Ops that got no reply because the connection failed.
    pub lost: usize,
    pub error: Option<String>,
}

/// A whole phase over both connections.
#[derive(Debug)]
pub struct PhaseRun {
    pub conns: [ConnRun; CONNECTIONS],
    /// The first due time (open loop) or the first send (closed loop).
    pub started: Instant,
    /// The last reply.
    pub finished: Instant,
}

impl PhaseRun {
    pub fn seconds(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }

    pub fn answered(&self) -> usize {
        self.conns.iter().map(|c| c.done.len()).sum()
    }
}

/// Sends `phase` over `conns` and collects every reply.
pub fn run_phase(conns: &mut [Conn; CONNECTIONS], phase: &Phase) -> PhaseRun {
    let wires: Vec<Vec<String>> =
        phase.ops.iter().map(|ops| ops.iter().map(|op| op.render()).collect()).collect();
    let t0 = Instant::now() + START_SLACK;
    let arrival = phase.arrival;
    let [first, second] = conns;
    let runs = std::thread::scope(|scope| {
        let other = scope.spawn(|| drive(second, &wires[1], arrival, 1, t0));
        let mine = drive(first, &wires[0], arrival, 0, t0);
        [mine, other.join().expect("load thread panicked")]
    });
    let started = runs
        .iter()
        .flat_map(|run| run.done.first())
        .map(|done| if arrival == Arrival::Closed { done.sent } else { t0 })
        .min()
        .unwrap_or(t0);
    let finished = runs.iter().flat_map(|run| run.done.iter().map(|d| d.done)).max().unwrap_or(t0);
    PhaseRun { conns: runs, started, finished }
}

fn drive(
    conn: &mut Conn,
    wires: &[String],
    arrival: Arrival,
    index: usize,
    t0: Instant,
) -> ConnRun {
    let mut run = ConnRun::default();
    if let Err(error) = drive_inner(conn, wires, arrival, index, t0, &mut run) {
        run.lost = wires.len() - run.done.len();
        run.error = Some(error);
    }
    run
}

fn drive_inner(
    conn: &mut Conn,
    wires: &[String],
    arrival: Arrival,
    index: usize,
    t0: Instant,
    run: &mut ConnRun,
) -> Result<(), String> {
    // (op, start, sent) of every request still waiting for its reply.
    let mut pending: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let mut replies = Vec::new();
    let mut next = 0;
    let mut last_progress = Instant::now();
    while next < wires.len() || !pending.is_empty() {
        let due = match arrival.due_ns(index, next) {
            _ if next >= wires.len() => None,
            // Closed loop: the next request is due once nothing is pending.
            None => pending.is_empty().then(Instant::now),
            Some(offset) => Some(t0 + Duration::from_nanos(offset)),
        };
        if let Some(due) = due {
            let now = Instant::now();
            if now >= due {
                conn.send(wires[next].as_bytes()).map_err(|e| format!("send failed: {e}"))?;
                let sent = Instant::now();
                if arrival != Arrival::Closed {
                    run.lateness_ns.push(duration_ns(sent - due));
                }
                pending.push_back((next, due, sent));
                next += 1;
                continue;
            }
        }
        let stall = last_progress + STALL_LIMIT;
        let until = due.map_or(stall, |due| due.min(stall));
        conn.receive(until, &mut replies).map_err(|e| format!("receive failed: {e}"))?;
        if replies.is_empty() {
            if Instant::now() >= stall {
                return Err(format!("no reply for {}s", STALL_LIMIT.as_secs()));
            }
            continue;
        }
        last_progress = Instant::now();
        for (done, reply) in replies.drain(..) {
            let (op, start, sent) = pending.pop_front().ok_or("a reply nobody asked for")?;
            run.done.push(Done { op, start, sent, done, reply });
        }
    }
    Ok(())
}

pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
