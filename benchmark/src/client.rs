//! The open-loop load generator: one thread drives every connection.
//! Each request is due at a fixed offset from the start whether or not
//! earlier ones were answered; its latency runs from its due time to its
//! decoded reply, so a stall also charges the requests queued behind it.
//! Sockets are non-blocking and the thread sleeps in `ppoll(2)` until a
//! reply is readable or the next request falls due.

use serve::{
    decode_client_frame, encode_observe_request, encode_score_request, ClientFrame, FrameBuf,
    ObserveRequest, ScoreRequest,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use tinyjson::ToJson;

/// Wire codec of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Binary,
    Jsonl,
}

/// A request and what to do with it.
#[derive(Debug, Clone)]
pub enum Payload {
    Score(ScoreRequest),
    Observe(ObserveRequest),
}

impl Payload {
    pub fn id(&self) -> &str {
        match self {
            Payload::Score(r) => &r.id,
            Payload::Observe(r) => &r.id,
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Send {
    pub conn: usize,
    /// Offset from the schedule's start.
    pub due: Duration,
    pub payload: Payload,
}

/// A decoded reply.
#[derive(Debug, Clone)]
pub enum Reply {
    Scores(Vec<f64>),
    Observed {
        window: u64,
        swapped: Option<String>,
    },
    Error(String),
}

/// What happened to one request, in schedule order.
#[derive(Debug, Clone)]
pub struct Done {
    pub due: Instant,
    pub encode: (Instant, Instant),
    /// When the request's bytes went to the socket.
    pub sent: Instant,
    pub decode: (Instant, Instant),
    /// The encoded request, for replaying the server's decode.
    pub bytes: Vec<u8>,
    pub reply: Reply,
}

/// Encodes a request the way a client of `codec` does.
pub fn encode(codec: Codec, payload: &Payload, out: &mut Vec<u8>) -> Result<(), String> {
    match (codec, payload) {
        (Codec::Binary, Payload::Score(r)) => encode_score_request(r, out).map_err(|e| e.message),
        (Codec::Binary, Payload::Observe(r)) => {
            encode_observe_request(r, out).map_err(|e| e.message)
        }
        (Codec::Jsonl, Payload::Score(r)) => {
            out.extend_from_slice(r.to_json().render_compact().as_bytes());
            out.push(b'\n');
            Ok(())
        }
        (Codec::Jsonl, Payload::Observe(r)) => {
            out.extend_from_slice(r.to_json().render_compact().as_bytes());
            out.push(b'\n');
            Ok(())
        }
    }
}

/// Decodes the next complete reply from `buf`, if there is one, with its
/// correlation id.
pub fn decode(codec: Codec, buf: &mut FrameBuf) -> Result<Option<(String, Reply)>, String> {
    match codec {
        Codec::Binary => Ok(decode_client_frame(buf)
            .map_err(|e| e.message)?
            .map(|f| match f {
                ClientFrame::Scores { id, scores } => (id, Reply::Scores(scores)),
                ClientFrame::Observed {
                    id,
                    window,
                    swapped,
                    ..
                } => (id, Reply::Observed { window, swapped }),
                ClientFrame::Error { id, error } => (
                    id,
                    Reply::Error(format!("[{}] {}", error.code, error.message)),
                ),
            })),
        Codec::Jsonl => {
            let Some(nl) = buf.peek().iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let line = String::from_utf8_lossy(&buf.peek()[..nl]).into_owned();
            buf.consume(nl + 1);
            let v = tinyjson::parse(&line).map_err(|e| format!("reply {line:?}: {e}"))?;
            let id = v.fetch("id").as_str().unwrap_or_default().to_string();
            let reply = if let Some(scores) = v.get("scores") {
                let scores = scores.as_arr().map_err(|e| e.to_string())?;
                Reply::Scores(
                    scores
                        .iter()
                        .map(|s| s.as_f64().unwrap_or(f64::NAN))
                        .collect(),
                )
            } else if let Some(o) = v.get("observed") {
                Reply::Observed {
                    window: o.fetch("window").as_f64().unwrap_or(f64::NAN) as u64,
                    swapped: o.fetch("swapped").as_str().ok().map(str::to_string),
                }
            } else {
                Reply::Error(line)
            };
            Ok(Some((id, reply)))
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Sleeps until a socket in `fds` is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::ffi::c_long,
        tv_nsec: std::ffi::c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records whose length is passed alongside it; `ts` outlives
    // the call; a null signal mask means "leave the mask unchanged".
    // ppoll writes only to the `revents` fields of `fds`.
    let _ = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
}

struct Conn<'a> {
    stream: &'a mut TcpStream,
    out: Vec<u8>,
    written: usize,
    buf: FrameBuf,
    /// Schedule indices awaiting a reply, in send order.
    pending: VecDeque<usize>,
    /// Why the connection was given up, once it was.
    broken: Option<String>,
}

impl Conn<'_> {
    fn flush(&mut self) -> Result<(), String> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    /// Reads what is readable and decodes every complete reply in it.
    fn receive(
        &mut self,
        codec: Codec,
        chunk: &mut [u8],
    ) -> Result<Vec<(String, Reply, Instant, Instant)>, String> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.buf.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let mut replies = Vec::new();
        loop {
            let t0 = Instant::now();
            let Some((id, reply)) = decode(codec, &mut self.buf)? else {
                return Ok(replies);
            };
            replies.push((id, reply, t0, Instant::now()));
        }
    }
}

/// Sends `sends` (sorted by due time) on `streams` from `start` on and
/// collects a record of every request, in schedule order. A request
/// fails (its reply stays [`Reply::Error`]) when the server answers
/// with an error, answers out of order, or has not answered `give_up`
/// after the last due time; a connection that breaks (closed, unreadable
/// or undecodable) fails what it has pending and everything later
/// scheduled on it.
pub fn run(
    streams: &mut [TcpStream],
    codec: Codec,
    sends: &[Send],
    start: Instant,
    give_up: Duration,
) -> Result<Vec<Done>, String> {
    for s in streams.iter() {
        s.set_nonblocking(true).map_err(|e| e.to_string())?;
    }
    let mut conns: Vec<Conn> = streams
        .iter_mut()
        .map(|stream| Conn {
            stream,
            out: Vec::new(),
            written: 0,
            buf: FrameBuf::new(),
            pending: VecDeque::new(),
            broken: None,
        })
        .collect();
    let mut done: Vec<Option<Done>> = vec![None; sends.len()];
    let mut settled = 0usize;
    let mut next = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    let last_due = start + sends.last().map_or(Duration::ZERO, |s| s.due);
    let fail = |done: &mut [Option<Done>], index: usize, why: &str| {
        let d = done[index].as_mut().expect("sent requests have a record");
        d.reply = Reply::Error(why.to_string());
    };
    while settled < sends.len() {
        if Instant::now() > last_due + give_up {
            for c in &conns {
                for &index in &c.pending {
                    fail(&mut done, index, "no reply before the client gave up");
                }
            }
            break;
        }
        // Send everything that is due.
        while next < sends.len() && start + sends[next].due <= Instant::now() {
            let s = &sends[next];
            let conn = &mut conns[s.conn];
            let t0 = Instant::now();
            let mut bytes = Vec::new();
            encode(codec, &s.payload, &mut bytes)?;
            let t1 = Instant::now();
            done[next] = Some(Done {
                due: start + s.due,
                encode: (t0, t1),
                sent: t1,
                decode: (t1, t1),
                bytes,
                reply: Reply::Error("no reply".to_string()),
            });
            if let Some(why) = &conn.broken {
                fail(&mut done, next, why);
                settled += 1;
            } else {
                conn.out
                    .extend_from_slice(&done[next].as_ref().expect("just set").bytes);
                conn.pending.push_back(next);
                if let Err(e) = conn.flush() {
                    conn.broken = Some(e);
                }
            }
            next += 1;
        }
        // Sleep until a reply arrives or the next request is due.
        let timeout = if next < sends.len() {
            (start + sends[next].due).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                // A negative descriptor is one ppoll skips.
                fd: if c.broken.is_some() {
                    -1
                } else {
                    c.stream.as_raw_fd()
                },
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        wait(&mut fds, timeout);
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if conn.broken.is_none() && fd.revents & POLLOUT != 0 {
                if let Err(e) = conn.flush() {
                    conn.broken = Some(e);
                }
            }
            if conn.broken.is_none() && fd.revents & !POLLOUT != 0 {
                match conn.receive(codec, &mut chunk) {
                    Ok(replies) => {
                        for (id, reply, t0, t1) in replies {
                            let Some(index) = conn.pending.pop_front() else {
                                conn.broken = Some(format!("unrequested reply {id:?}"));
                                break;
                            };
                            settled += 1;
                            let expected = sends[index].payload.id();
                            if id != expected {
                                let why =
                                    format!("reply {id:?} out of order: expected {expected:?}");
                                fail(&mut done, index, &why);
                                continue;
                            }
                            let d = done[index].as_mut().expect("sent requests have a record");
                            d.decode = (t0, t1);
                            d.reply = reply;
                        }
                    }
                    Err(e) => conn.broken = Some(e),
                }
            }
            if let Some(why) = &conn.broken {
                for index in conn.pending.drain(..) {
                    fail(&mut done, index, why);
                    settled += 1;
                }
            }
        }
    }
    for s in streams.iter() {
        s.set_nonblocking(false).map_err(|e| e.to_string())?;
    }
    Ok(done
        .into_iter()
        .map(|d| d.expect("every request was sent"))
        .collect())
}
