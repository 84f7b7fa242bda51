//! The benchmark's own logic: percentiles, open-loop accounting, the closed-loop
//! rate and the subscription delta fold. Tested in `tests` below.

use std::collections::BTreeSet;
use std::time::Duration;

use crate::wire::Done;

/// Percentiles the benchmark may report, highest last.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest reportable percentile for `n` samples: the one with at least ten
/// samples beyond its nearest rank (`None` below twenty samples, where not even the
/// median has).
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().copied().rev().find(|p| {
        // Nearest rank in integer arithmetic: ceil(p / 100 * n), p in tenths.
        let tenths = (p * 10.0).round() as usize;
        let rank = (tenths * n).div_ceil(1000);
        n - rank >= 10
    })
}

/// Nearest-rank percentile of `values` (sorted or not); `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Samples per window of a reported latency: enough for a p99 with ten samples
/// beyond it.
pub const WINDOW: usize = 1100;
/// Samples per window of a p90 (ten beyond it).
pub const STEP_WINDOW: usize = 100;

/// The median over an odd number of consecutive windows of at least `window`
/// samples (in send order) of each window's `p`-th percentile: one stall of the
/// host moves one window, not the result.
pub fn windowed(values: &[f64], p: f64, window: usize) -> f64 {
    let mut windows = (values.len() / window).max(1);
    if windows.is_multiple_of(2) {
        windows -= 1;
    }
    let size = values.len() / windows;
    let per_window: Vec<f64> =
        (0..windows).map(|w| percentile(&values[w * size..(w + 1) * size], p)).collect();
    median(&per_window)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency of each completed op in ms, timed from its **intended** send time, so a
/// stall also charges the ops scheduled behind it.
pub fn latencies_ms(done: &[Done]) -> Vec<f64> {
    done.iter().filter_map(|d| d.done.map(|at| ms(at.saturating_sub(d.due)))).collect()
}

/// How late the generator wrote each op, in ms (actual minus intended send time).
pub fn lateness_ms(done: &[Done]) -> Vec<f64> {
    done.iter().map(|d| ms(d.sent.saturating_sub(d.due))).collect()
}

/// One open-loop phase at a fixed offered rate.
#[derive(Debug, Clone)]
pub struct Step {
    pub samples: usize,
    /// Windowed p90 of the latency from intended send time.
    pub p90_ms: f64,
    /// Median latency over the step's last tenth: a growing backlog shows here.
    pub tail_p50_ms: f64,
    /// Generator lateness (actual minus intended send time), median and p90.
    pub late_p50_ms: f64,
    pub late_p90_ms: f64,
    /// The worst generator thread's (sender or receiver) mean run-queue wait per
    /// timeslice: a receiver kept from the CPU reads responses late.
    pub starved_ms: f64,
    /// Ops that failed, were refused, answered wrongly or never completed.
    pub failed: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// The generator itself fell behind: the step says nothing about the server.
    Invalid,
}

impl Step {
    pub fn from_done(done: &[Done], failed: usize, starved_ms: f64) -> Step {
        let late = lateness_ms(done);
        // A request that never completed misses the limit (and keeps its place).
        let lat: Vec<f64> = done
            .iter()
            .map(|d| d.done.map_or(f64::INFINITY, |at| ms(at.saturating_sub(d.due))))
            .collect();
        Step {
            samples: done.len(),
            p90_ms: windowed(&lat, 90.0, STEP_WINDOW),
            tail_p50_ms: median(&lat[lat.len() - lat.len().div_ceil(10)..]),
            late_p50_ms: median(&late),
            late_p90_ms: percentile(&late, 90.0),
            starved_ms,
            failed,
        }
    }

    /// Invalid when the generator fell behind: its typical send was a quarter of the
    /// limit late, its p90 send half the limit, or a generator thread waited on
    /// average a quarter of the limit for a CPU each time it woke (rarer scheduling
    /// jitter is charged to the latency, as a client would see it).
    pub fn verdict(&self, limit_ms: f64) -> Verdict {
        if self.late_p50_ms > limit_ms / 4.0
            || self.late_p90_ms > limit_ms / 2.0
            || self.starved_ms > limit_ms / 4.0
        {
            Verdict::Invalid
        } else if self.failed == 0 && self.p90_ms <= limit_ms && self.tail_p50_ms <= limit_ms {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }
}

/// Completions per second over all lanes (each lane's completion times) in each
/// slice after the first, which the pipelines spend filling.
pub fn slice_rates(lanes: &[Vec<Duration>], slice: Duration, slices: usize) -> Vec<f64> {
    (1..slices)
        .map(|i| {
            let (from, to) = (slice * i as u32, slice * (i + 1) as u32);
            let count: usize = lanes
                .iter()
                .map(|lane| lane.iter().filter(|&&at| at >= from && at < to).count())
                .sum();
            count as f64 / slice.as_secs_f64()
        })
        .collect()
}

/// A subscription's answer rebuilt client side from `SUBSCRIBE` and pushed frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Folded {
    pub generation: u64,
    pub rows: BTreeSet<String>,
}

/// Rows of a `rows n` block (`rows n`, a column line, then `n` rows).
pub fn block_rows(block: &str) -> Result<BTreeSet<String>, String> {
    let mut lines = block.split('\n');
    let head = lines.next().unwrap_or_default();
    let count: usize = head
        .strip_prefix("rows ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("not a row block: `{head}`"))?;
    lines.next(); // column names
    let rows: BTreeSet<String> = lines.map(str::to_string).collect();
    if rows.len() != count {
        return Err(format!("row block announces {count} rows but carries {}", rows.len()));
    }
    Ok(rows)
}

impl Folded {
    /// The state a `SUBSCRIBE` response establishes:
    /// `OK subscribed sub=<id> gen=<g> rows <n>`, columns, rows.
    pub fn from_subscribe(response: &str) -> Result<(u64, Folded), String> {
        let (head, rest) = response.split_once('\n').unwrap_or((response, ""));
        let fields: Vec<&str> = head.split_whitespace().collect();
        let value = |key: &str| {
            fields
                .iter()
                .find_map(|f| f.strip_prefix(key))
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("`{head}` lacks {key}"))
        };
        if fields.first() != Some(&"OK") {
            return Err(format!("subscribe refused: `{head}`"));
        }
        let rows = block_rows(&format!("rows {}\n{rest}", fields.last().unwrap_or(&"0")))?;
        Ok((value("sub=")?, Folded { generation: value("gen=")?, rows }))
    }

    /// Folds one pushed frame (`DELTA` or `LAGGED`) for this subscription. Pushed
    /// generations must rise, an added row must be new, a removed row present.
    pub fn apply(&mut self, frame: &str) -> Result<(), String> {
        let (head, rest) = frame.split_once('\n').unwrap_or((frame, ""));
        let generation = head
            .split_whitespace()
            .find_map(|f| f.strip_prefix("gen="))
            .and_then(|g| g.parse::<u64>().ok())
            .ok_or_else(|| format!("pushed frame without a generation: `{head}`"))?;
        if generation <= self.generation {
            return Err(format!("generation {generation} pushed after {}", self.generation));
        }
        if head.starts_with("LAGGED") {
            let count = head.rsplit(' ').next().unwrap_or("0");
            self.rows = block_rows(&format!("rows {count}\n{rest}"))?;
        } else if head.starts_with("DELTA") {
            for line in rest.split('\n').filter(|l| !l.is_empty()) {
                if let Some(row) = line.strip_prefix("+\t") {
                    if !self.rows.insert(row.to_string()) {
                        return Err(format!("delta adds present row `{row}`"));
                    }
                } else if let Some(row) = line.strip_prefix("-\t") {
                    if !self.rows.remove(row) {
                        return Err(format!("delta removes absent row `{row}`"));
                    }
                } else {
                    return Err(format!("malformed delta row `{line}`"));
                }
            }
        } else {
            return Err(format!("unexpected pushed frame `{head}`"));
        }
        self.generation = generation;
        Ok(())
    }
}

/// Splits the body of a `BATCH` response (after its `batch n` line) into one block
/// per entry: a `rows n` block spans `n + 2` lines, every other block one line.
pub fn batch_blocks(body: &str) -> Result<Vec<String>, String> {
    let mut lines = body.split('\n').peekable();
    let mut blocks = Vec::new();
    while let Some(line) = lines.next() {
        if let Some(count) = line.strip_prefix("rows ") {
            let count: usize = count.parse().map_err(|_| format!("bad row count `{line}`"))?;
            let mut block = line.to_string();
            for _ in 0..count + 1 {
                block.push('\n');
                block.push_str(lines.next().ok_or("truncated row block")?);
            }
            blocks.push(block);
        } else {
            blocks.push(line.to_string());
        }
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(due_ms: u64, sent_ms: u64, done_ms: Option<u64>) -> Done {
        Done {
            due: Duration::from_millis(due_ms),
            sent: Duration::from_millis(sent_ms),
            done: done_ms.map(Duration::from_millis),
            responses: Vec::new(),
        }
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 500.0);
        assert_eq!(percentile(&values, 99.0), 990.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn windowed_percentiles_discount_one_bad_window() {
        // Three windows; the middle one holds a stall.
        let mut values: Vec<f64> = (0..3 * WINDOW).map(|i| (i % 100) as f64 / 100.0).collect();
        for v in &mut values[WINDOW..WINDOW + 50] {
            *v = 50.0;
        }
        assert_eq!(percentile(&values, 99.0), 50.0);
        assert_eq!(windowed(&values, 99.0, WINDOW), 0.98);
        assert_eq!(windowed(&values, 90.0, WINDOW), 0.89);
        // Windows are odd in number, so the median is one window's value: four
        // windows' worth of samples makes three.
        assert_eq!(windowed(&values[..4 * 100], 90.0, 100), percentile(&values[..133], 90.0));
        // Below two windows' worth it is the plain percentile.
        assert_eq!(
            windowed(&values[..WINDOW + 100], 99.0, WINDOW),
            percentile(&values[..WINDOW + 100], 99.0)
        );
    }

    #[test]
    fn latency_counts_from_the_intended_send_time() {
        // The second op was due at 10 ms but the generator stalled until 40 ms; the
        // server answered 1 ms later. Its latency is 31 ms, not 1 ms.
        let ops = [done(0, 0, Some(1)), done(10, 40, Some(41)), done(20, 40, Some(42))];
        assert_eq!(latencies_ms(&ops), vec![1.0, 31.0, 22.0]);
        assert_eq!(lateness_ms(&ops), vec![0.0, 30.0, 20.0]);
        // A request that never completed counts as missing the limit.
        let step = Step::from_done(&[done(0, 0, Some(1)), done(1, 1, None)], 0, 0.0);
        assert_eq!(step.p90_ms, f64::INFINITY);
        assert_eq!(step.verdict(5.0), Verdict::Fail);
    }

    #[test]
    fn a_growing_backlog_fails_the_step() {
        // Latency climbs steadily: the windowed p90 stays low for most windows, but
        // the last tenth shows the backlog.
        let ops: Vec<Done> = (0..1000).map(|i| done(i, i, Some(i + 1 + i * i / 20_000))).collect();
        let step = Step::from_done(&ops, 0, 0.0);
        assert!(step.p90_ms <= 30.0, "{}", step.p90_ms);
        assert!(step.tail_p50_ms > 40.0, "{}", step.tail_p50_ms);
        assert_eq!(step.verdict(30.0), Verdict::Fail);
    }

    #[test]
    fn late_generator_makes_a_step_invalid_not_slow() {
        // Eleven sends in a hundred 3 ms late: p90 lateness beyond half the 4 ms limit.
        let ops: Vec<Done> =
            (0..100).map(|i| done(i, i + if i < 11 { 3 } else { 0 }, Some(i + 1))).collect();
        let step = Step::from_done(&ops, 0, 0.0);
        assert_eq!(step.verdict(4.0), Verdict::Invalid);
        // Five late sends are jitter, charged to those ops' latency.
        let jitter: Vec<Done> =
            (0..100).map(|i| done(i, i + if i < 5 { 3 } else { 0 }, Some(i + 4))).collect();
        assert_eq!(Step::from_done(&jitter, 0, 0.0).verdict(4.0), Verdict::Pass);
        let on_time: Vec<Done> = (0..100).map(|i| done(i, i, Some(i + 1))).collect();
        assert_eq!(Step::from_done(&on_time, 0, 0.0).verdict(4.0), Verdict::Pass);
        assert_eq!(Step::from_done(&on_time, 1, 0.0).verdict(4.0), Verdict::Fail);
        // Sends on time, but a generator thread waited 1.5 ms for a CPU per wake-up:
        // its reads, not the server, set the latency.
        assert_eq!(Step::from_done(&on_time, 0, 1.5).verdict(4.0), Verdict::Invalid);
        assert_eq!(Step::from_done(&on_time, 0, 0.5).verdict(4.0), Verdict::Pass);
    }

    /// Completion times of a closed-loop lane against a server that completes one op
    /// every `service` for `slices` slices of 100 ms.
    fn synthetic_lane(service: Duration, slices: usize) -> Vec<Duration> {
        let end = Duration::from_millis(100) * slices as u32;
        (1..).map(|i| service * i).take_while(|&at| at < end).collect()
    }

    #[test]
    fn closed_loop_rate_is_the_median_slice() {
        let slice = Duration::from_millis(100);
        // 0.5 ms per op: 2000/s in every slice; the first slice is dropped.
        let rates = slice_rates(&[synthetic_lane(Duration::from_micros(500), 10)], slice, 10);
        assert_eq!(rates.len(), 9);
        assert!(rates.iter().all(|r| (r - 2000.0).abs() < 1e-6), "{rates:?}");
        // Two lanes add up.
        let two = [
            synthetic_lane(Duration::from_micros(500), 10),
            synthetic_lane(Duration::from_millis(1), 10),
        ];
        assert_eq!(median(&slice_rates(&two, slice, 10)), 3000.0);
        // A stall that empties two slices moves the median by nothing.
        let mut stalled = synthetic_lane(Duration::from_micros(500), 10);
        stalled.retain(|at| !(slice * 3..slice * 5).contains(at));
        let rates = slice_rates(&[stalled], slice, 10);
        assert_eq!(rates.iter().filter(|&&r| r == 0.0).count(), 2);
        assert_eq!(median(&rates), 2000.0);
    }

    #[test]
    fn delta_fold_tracks_the_answer() {
        let (sub, mut folded) =
            Folded::from_subscribe("OK subscribed sub=3 gen=5 rows 2\nx\ty\n1\t2\n3\t4").unwrap();
        assert_eq!(sub, 3);
        assert_eq!(folded.generation, 5);
        folded.apply("DELTA sub=3 gen=7 added=1 removed=1\n+\t5\t6\n-\t1\t2").unwrap();
        assert_eq!(folded.generation, 7);
        assert_eq!(folded.rows, BTreeSet::from(["3\t4".to_string(), "5\t6".to_string()]));
        folded.apply("LAGGED sub=3 gen=9 rows 1\nx\ty\n8\t8").unwrap();
        assert_eq!(folded.rows, BTreeSet::from(["8\t8".to_string()]));
        assert_eq!(block_rows("rows 1\nx\ty\n8\t8").unwrap(), folded.rows);
    }

    #[test]
    fn delta_fold_rejects_impossible_streams() {
        let (_, folded) = Folded::from_subscribe("OK subscribed sub=1 gen=2 rows 1\nx\n1").unwrap();
        let mut stale = folded.clone();
        assert!(stale.apply("DELTA sub=1 gen=2 added=1 removed=0\n+\t9").is_err());
        let mut absent = folded.clone();
        assert!(absent.apply("DELTA sub=1 gen=3 added=0 removed=1\n-\t9").is_err());
        let mut present = folded.clone();
        assert!(present.apply("DELTA sub=1 gen=3 added=1 removed=0\n+\t1").is_err());
        assert!(Folded::from_subscribe("ERR unknown prepared query `q`").is_err());
    }

    #[test]
    fn batch_bodies_split_into_entry_blocks() {
        let body = "rows 2\ny\n1\n2\noutcome true examined=1\nrows 0\ny\nerror query error: x";
        let blocks = batch_blocks(body).unwrap();
        assert_eq!(
            blocks,
            vec!["rows 2\ny\n1\n2", "outcome true examined=1", "rows 0\ny", "error query error: x"]
        );
        assert!(batch_blocks("rows 3\ny\n1").is_err());
    }
}
