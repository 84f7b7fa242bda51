//! The wire side: framing, `pdqi serve` child processes, and the open- and
//! closed-loop load generators.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::linux::net::TcpStreamExt as _;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Appends one length-prefixed frame to `buf`.
fn push_frame(buf: &mut Vec<u8>, payload: &str) {
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload.as_bytes());
}

/// Writes one length-prefixed frame in a single `write_all`.
pub fn write_frame(stream: &mut TcpStream, payload: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    push_frame(&mut buf, payload);
    stream.write_all(&buf)
}

/// Buffered frame reader that can wait with a deadline.
pub struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    pub fn new(stream: TcpStream) -> FrameReader {
        FrameReader { stream, buf: Vec::with_capacity(1 << 16), start: 0 }
    }

    /// The next frame if one is already buffered in full.
    pub fn take_buffered(&mut self) -> Option<String> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if avail.len() < 4 + len {
            return None;
        }
        let text = String::from_utf8_lossy(&avail[4..4 + len]).into_owned();
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Some(text)
    }

    /// The next frame, or `None` if none completed within `timeout`.
    pub fn read_timeout(&mut self, timeout: Duration) -> io::Result<Option<String>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.take_buffered() {
                return Ok(Some(frame));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(left.max(Duration::from_micros(50))))?;
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    // Acknowledge every response at once (the kernel leaves quick-ack
                    // mode on its own, so it is re-armed after each read). The server
                    // leaves Nagle's algorithm on: with delayed acknowledgements, a
                    // response written while the previous one was unacknowledged
                    // waited for the client's next request, or not, as the kernel's
                    // interactive-mode guess flipped between runs.
                    self.stream.set_quickack(true)?;
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A blocking request/response connection for control traffic.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_quickack(true)?;
        // A write blocked this long means both sides' buffers are full: fail the run
        // rather than hang it.
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn { reader: FrameReader::new(stream.try_clone()?), stream })
    }

    pub fn request(&mut self, payload: &str) -> io::Result<String> {
        write_frame(&mut self.stream, payload)?;
        self.reader.read_timeout(Duration::from_secs(60))?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "no response within the timeout")
        })
    }

    pub fn into_parts(self) -> (TcpStream, FrameReader) {
        (self.stream, self.reader)
    }
}

/// A running `pdqi` child process (`serve`), stopped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `pdqi serve` on an ephemeral port and waits for its readiness line.
    pub fn spawn(pdqi: &Path, script: &Path) -> io::Result<Server> {
        let mut child = Command::new(pdqi)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .arg(script)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("pdqi serve exited before it was ready"));
            }
            if let Some(rest) = line.trim().strip_prefix("serving ") {
                let addr = rest.rsplit(' ').next().unwrap_or_default().to_string();
                return Ok(Server { child, _stdout: stdout, addr });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// User plus system CPU time consumed so far, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are 14 and 15.
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
        // USER_HZ is 100 on Linux: one tick is 10 ms.
        (ticks(11) + ticks(12)) * 10.0
    }

    /// Sends `SHUTDOWN` and waits for the process to exit (killing it after 10 s).
    pub fn stop(mut self) -> io::Result<()> {
        if let Ok(mut conn) = Conn::connect(&self.addr) {
            let _ = conn.request("SHUTDOWN");
        }
        self.reap()
    }

    fn reap(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                self.child.wait()?;
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One scheduled operation: request frames sent in order, the first at `due` (offset
/// from the schedule's start) and each later one once the previous one's response
/// arrived, as a client that waits for `OK prepared` before its `EXEC` would. It
/// completes when the last response arrives.
#[derive(Debug, Clone)]
pub struct Op {
    pub due: Duration,
    pub frames: Vec<String>,
}

/// What happened to one [`Op`].
#[derive(Debug, Clone, Default)]
pub struct Done {
    pub due: Duration,
    /// When the generator actually wrote the first frame.
    pub sent: Duration,
    /// When the last response arrived (`None`: never within the drain limit).
    pub done: Option<Duration>,
    pub responses: Vec<String>,
}

/// Scheduling of one generator thread (`/proc/thread-self/schedstat`): how long it
/// was ready to run but had no CPU, over how many timeslices, and its time on a CPU.
/// A generator thread that waited long for a CPU delayed its sends or its reads,
/// which says nothing about the server.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Starved {
    pub wait: Duration,
    pub slices: u64,
    /// Time on a CPU.
    pub cpu: Duration,
}

impl Starved {
    /// The calling thread's totals so far (zero where the kernel does not report them).
    pub fn now() -> Starved {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let fields: Vec<u64> = text.split_whitespace().filter_map(|f| f.parse().ok()).collect();
        Starved {
            wait: Duration::from_nanos(fields.get(1).copied().unwrap_or(0)),
            slices: fields.get(2).copied().unwrap_or(0),
            cpu: Duration::from_nanos(fields.first().copied().unwrap_or(0)),
        }
    }

    /// The calling thread's totals since `self` was taken.
    pub fn elapsed(self) -> Starved {
        let now = Starved::now();
        Starved {
            wait: now.wait.saturating_sub(self.wait),
            slices: now.slices.saturating_sub(self.slices),
            cpu: now.cpu.saturating_sub(self.cpu),
        }
    }

    /// Mean run-queue wait per timeslice, in ms.
    pub fn per_slice_ms(&self) -> f64 {
        self.wait.as_secs_f64() * 1e3 / self.slices.max(1) as f64
    }
}

/// The write half of a driven connection, shared by the thread that sends on
/// schedule and the thread that sends follow-up frames as responses arrive.
struct Sending {
    stream: TcpStream,
    /// (op, frame) of every request written and not yet answered, in write order:
    /// the server answers in that order.
    expected: VecDeque<(usize, usize)>,
    buf: Vec<u8>,
}

impl Sending {
    fn queue(&mut self, op: usize, frame: usize, payload: &str) {
        push_frame(&mut self.buf, payload);
        self.expected.push_back((op, frame));
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// One open-loop connection's ops and its generator threads' run-queue time.
pub struct Driven {
    pub done: Vec<Done>,
    pub sender: Starved,
    pub receiver: Starved,
}

/// Runs `ops` open loop on one connection: a sender thread writes each op's first
/// frame at its due time whether or not earlier responses arrived (a pipelining
/// client), while the calling thread reads the responses and writes each op's next
/// frame as the previous one is answered. Waits at most `drain` after the last due
/// time for outstanding responses.
pub fn drive(addr: &str, ops: &[Op], start: Instant, drain: Duration) -> io::Result<Driven> {
    let (stream, mut reader) = Conn::connect(addr)?.into_parts();
    let sending = Mutex::new(Sending { stream, expected: VecDeque::new(), buf: Vec::new() });
    let mut done: Vec<Done> =
        ops.iter().map(|op| Done { due: op.due, ..Done::default() }).collect();
    let deadline = start + ops.last().map_or(Duration::ZERO, |op| op.due) + drain;
    let (sent, sender, receiver) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<(Vec<Duration>, Starved)> {
            let before = Starved::now();
            let mut sent = Vec::with_capacity(ops.len());
            while sent.len() < ops.len() {
                let now = start.elapsed();
                let due = ops[sent.len()].due;
                if due > now {
                    std::thread::sleep(due - now);
                    continue;
                }
                // Everything due by now goes out in one write.
                let first = sent.len();
                let mut out = sending.lock().expect("sending lock");
                for (i, op) in ops.iter().enumerate().skip(first) {
                    if op.due > now {
                        break;
                    }
                    out.queue(i, 0, &op.frames[0]);
                    sent.push(Duration::ZERO);
                }
                out.flush()?;
                drop(out);
                let at = start.elapsed();
                sent[first..].fill(at);
            }
            Ok((sent, before.elapsed()))
        });
        let before = Starved::now();
        let mut left = ops.len();
        while left > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            // Drain limit reached or connection lost: the rest never completed.
            let Ok(Some(frame)) = reader.read_timeout(wait) else { break };
            let mut out = sending.lock().expect("sending lock");
            let Some((i, f)) = out.expected.pop_front() else { break };
            done[i].responses.push(frame);
            if f + 1 < ops[i].frames.len() {
                out.queue(i, f + 1, &ops[i].frames[f + 1]);
                if out.flush().is_err() {
                    break;
                }
            } else {
                done[i].done = Some(start.elapsed());
                left -= 1;
            }
        }
        let receiver = before.elapsed();
        let (sent, sender) = sender.join().expect("sender thread panicked")?;
        Ok::<_, io::Error>((sent, sender, receiver))
    })?;
    for (entry, at) in done.iter_mut().zip(sent) {
        entry.sent = at;
    }
    Ok(Driven { done, sender, receiver })
}

/// One closed-loop connection: every op it issued, in issue order, and its
/// thread's CPU and run-queue time.
pub struct Saturated<T> {
    pub done: Vec<(Done, T)>,
    pub generator: Starved,
}

/// Runs one connection closed loop for `secs`: keeps `window` ops in flight,
/// issuing the next op from `next` as each completes (an op's later frames follow
/// its earlier responses, as in [`drive`]). An op's `due` is when its slot freed,
/// `sent` when its first frame was written. Stops issuing at the end and waits at
/// most `drain` for what is still in flight.
pub fn saturate<T>(
    addr: &str,
    window: usize,
    start: Instant,
    secs: Duration,
    drain: Duration,
    mut next: impl FnMut() -> (Vec<String>, T),
) -> io::Result<Saturated<T>> {
    let (stream, mut reader) = Conn::connect(addr)?.into_parts();
    let mut out = Sending { stream, expected: VecDeque::new(), buf: Vec::new() };
    let mut ops: Vec<(Vec<String>, Done, T)> = Vec::new();
    let mut unsent: Vec<usize> = Vec::new();
    let before = Starved::now();
    let mut issue = |ops: &mut Vec<(Vec<String>, Done, T)>,
                     out: &mut Sending,
                     unsent: &mut Vec<usize>,
                     now: Duration| {
        let (frames, tag) = next();
        out.queue(ops.len(), 0, &frames[0]);
        unsent.push(ops.len());
        ops.push((frames, Done { due: now, ..Done::default() }, tag));
    };
    for _ in 0..window {
        issue(&mut ops, &mut out, &mut unsent, start.elapsed());
    }
    loop {
        let frame = match reader.take_buffered() {
            Some(frame) => frame,
            None => {
                // Everything issued since the last write goes out in one write.
                if !out.buf.is_empty() {
                    out.flush()?;
                    let at = start.elapsed();
                    for i in unsent.drain(..) {
                        ops[i].1.sent = at;
                    }
                }
                if out.expected.is_empty() {
                    break;
                }
                match reader.read_timeout(drain)? {
                    Some(frame) => frame,
                    None => break,
                }
            }
        };
        let now = start.elapsed();
        let Some((i, f)) = out.expected.pop_front() else { break };
        ops[i].1.responses.push(frame);
        if f + 1 < ops[i].0.len() {
            let payload = ops[i].0[f + 1].clone();
            out.queue(i, f + 1, &payload);
        } else {
            ops[i].1.done = Some(now);
            if now < secs {
                issue(&mut ops, &mut out, &mut unsent, now);
            }
        }
    }
    let generator = before.elapsed();
    Ok(Saturated { done: ops.into_iter().map(|(_, done, tag)| (done, tag)).collect(), generator })
}

/// Records every pushed frame on an idle subscriber connection until `stop`.
pub fn listen(
    mut reader: FrameReader,
    start: Instant,
    stop: &AtomicBool,
) -> io::Result<Vec<(Duration, String)>> {
    let mut frames = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if let Some(frame) = reader.read_timeout(Duration::from_millis(20))? {
            frames.push((start.elapsed(), frame));
        }
    }
    // Drain whatever already arrived.
    while let Some(frame) = reader.read_timeout(Duration::from_millis(100))? {
        frames.push((start.elapsed(), frame));
    }
    Ok(frames)
}

/// Splits a response into its body (without `OK ` and the ` gen=N` tag) and the
/// generation it reports.
pub fn split_generation(response: &str) -> Option<(String, u64)> {
    let (head, rest) = match response.split_once('\n') {
        Some((head, rest)) => (head, Some(rest)),
        None => (response, None),
    };
    let head = head.strip_prefix("OK ")?;
    let (body, gen) = head.rsplit_once(" gen=")?;
    let gen = gen.parse().ok()?;
    let mut out = body.to_string();
    if let Some(rest) = rest {
        out.push('\n');
        out.push_str(rest);
    }
    Some((out, gen))
}
