//! Order statistics, ack matching and span self time: the arithmetic
//! every workload's report rests on, kept free of I/O so it can be
//! unit-tested on its own.

/// Median: the middle value, or the mean of the two middle values for
/// an even count. `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method). `None` below two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread figure
/// the benchmark's bounds are judged against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// A latency tail: the highest percentile of a fixed ladder that still
/// leaves at least [`TAIL_MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Samples in the distribution.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Nearest-rank percentile: the value at rank `ceil(p/100 · n)`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// The highest ladder percentile (50, 90, 99, 99.9, …) with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it, with that count.
/// `None` when even the median leaves fewer than that many.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = nearest_rank(n, p)?;
        (n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Most datagrams a session may lose (to the OS, in either direction)
/// before [`match_acks`] leaves its sends unpaired.
pub const MAX_UNACKED: usize = 32;

/// Pairs acks with the datagrams they answer. The gateway acks every
/// data frame it processes, one UDP thread processes one socket in
/// arrival order, and each session's frames leave one socket in send
/// order — so a session's acks answer its datagrams in order. `sends`
/// and `acks` are `(session, instant_ns)` in the order they happened.
///
/// A session with as many acks as datagrams pairs them in order. One
/// with `d` fewer acks lost `d` datagrams or acks on the way; its `d`
/// unanswered datagrams are placed where the acks' timing says: the
/// pairing with every ack after its datagram and the least total round
/// trip. A session's datagrams leave a slot (20 ms) apart, far more
/// than a round trip, so placing a loss too late would add a slot to
/// every datagram in between, and too early would put an ack before
/// its datagram. A session that lost more than [`MAX_UNACKED`] is left
/// unpaired.
///
/// Returns each send's round trip in nanoseconds, in send order;
/// `None` for a send no ack answered.
pub fn match_acks(sends: &[(u64, u64)], acks: &[(u64, u64)]) -> Vec<Option<u64>> {
    use std::collections::BTreeMap;
    let mut by_session: BTreeMap<u64, (Vec<usize>, Vec<u64>)> = BTreeMap::new();
    for (i, &(session, _)) in sends.iter().enumerate() {
        by_session.entry(session).or_default().0.push(i);
    }
    for &(session, at) in acks {
        if let Some((_, times)) = by_session.get_mut(&session) {
            times.push(at);
        }
    }
    let mut rtts = vec![None; sends.len()];
    for (idx, ack_times) in by_session.values() {
        let sent: Vec<u64> = idx.iter().map(|&i| sends[i].1).collect();
        for (k, rtt) in align(&sent, ack_times).into_iter().enumerate() {
            rtts[idx[k]] = rtt;
        }
    }
    rtts
}

/// One session's pairing for [`match_acks`].
fn align(sent: &[u64], acks: &[u64]) -> Vec<Option<u64>> {
    let (n, m) = (sent.len(), acks.len());
    if m >= n || n - m > MAX_UNACKED {
        let mut out = vec![None; n];
        if m >= n {
            for (slot, (&s, &a)) in out.iter_mut().zip(sent.iter().zip(acks)) {
                *slot = Some(a.saturating_sub(s));
            }
        }
        return out;
    }
    // cost[i][k]: least total round trip over the first `i` datagrams
    // with `k` of them unanswered (so acks `0..i - k` paired).
    let d = n - m;
    let width = d + 1;
    let mut cost = vec![u64::MAX; (n + 1) * width];
    let mut paired = vec![false; (n + 1) * width];
    cost[0] = 0;
    for i in 0..n {
        for k in 0..=d.min(i) {
            let here = cost[i * width + k];
            if here == u64::MAX {
                continue;
            }
            if k < d && here < cost[(i + 1) * width + k + 1] {
                cost[(i + 1) * width + k + 1] = here;
                paired[(i + 1) * width + k + 1] = false;
            }
            let j = i - k;
            if j < m && acks[j] >= sent[i] {
                let with = here + (acks[j] - sent[i]);
                if with < cost[(i + 1) * width + k] {
                    cost[(i + 1) * width + k] = with;
                    paired[(i + 1) * width + k] = true;
                }
            }
        }
    }
    let mut out = vec![None; n];
    if cost[n * width + d] == u64::MAX {
        return out;
    }
    let mut k = d;
    for i in (1..=n).rev() {
        if paired[i * width + k] {
            out[i - 1] = Some(acks[i - 1 - k] - sent[i - 1]);
        } else {
            k -= 1;
        }
    }
    out
}

/// One traced interval: a call the benchmark made into the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its trace.
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `archive.to_bytes`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// Self time of every span (indexed like `spans`): its duration minus
/// the part of its interval covered by its direct children. Children
/// that overlap each other are counted once; child time outside the
/// parent's interval is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            let p = &spans[parent];
            let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if lo < hi {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                run = match run {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = run {
                covered += b - a;
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(entry) => {
                entry.1 += own;
                entry.2 += 1;
            }
            None => out.push((span.name, own, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_iqr(&ten).expect("defined");
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 20 samples: p50 leaves 10 beyond, p90 leaves 2.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&twenty).expect("p50 qualifies");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (50.0, 10.0, 10, 20)
        );
        // 1000 samples: p99 leaves exactly 10 beyond; p99.9 leaves 1.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).expect("p99 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 15 samples: even the median (rank 8) leaves only 7 beyond.
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&fifteen), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 90.5), Some(91.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn acks_match_per_session_in_order() {
        // Two sessions interleaved; acks arrive interleaved differently.
        let sends = [(1, 100), (2, 110), (1, 120), (2, 130)];
        let acks = [(2, 150), (1, 160), (1, 170), (2, 200)];
        // Session 1: 160-100, 170-120; session 2: 150-110, 200-130.
        assert_eq!(
            match_acks(&sends, &acks),
            vec![Some(60), Some(40), Some(50), Some(70)]
        );
    }

    #[test]
    fn a_lost_datagram_is_placed_where_the_acks_say() {
        // One session, a datagram every 20 µs, 1 µs round trips; the
        // third datagram never reached the gateway. In-order pairing
        // would charge the last two a whole slot.
        let sends: Vec<(u64, u64)> = (0..5).map(|k| (7, k * 20_000)).collect();
        let acks = [(7, 1_000), (7, 21_000), (7, 61_000), (7, 81_000)];
        assert_eq!(
            match_acks(&sends, &acks),
            vec![Some(1_000), Some(1_000), None, Some(1_000), Some(1_000)]
        );
        // The first datagram lost instead.
        let acks = [(7, 21_500), (7, 41_000), (7, 61_000), (7, 81_000)];
        assert_eq!(
            match_acks(&sends, &acks),
            vec![None, Some(1_500), Some(1_000), Some(1_000), Some(1_000)]
        );
    }

    #[test]
    fn a_session_that_lost_too_much_stays_unpaired() {
        let sends: Vec<(u64, u64)> = (0..40).map(|k| (3, k * 20_000)).collect();
        let acks = [(3, 1_000)];
        assert!(match_acks(&sends, &acks).iter().all(Option::is_none));
    }

    #[test]
    fn ack_for_unknown_session_is_ignored() {
        assert_eq!(match_acks(&[(1, 10)], &[(9, 20), (1, 30)]), vec![Some(20)]);
    }

    fn span(id: usize, parent: Option<usize>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, None, "hop", 0, 100),
            span(1, Some(0), "snapshot", 10, 30),
            // Overlaps the previous child by 5: counted once.
            span(2, Some(0), "encode", 25, 40),
            // Runs past the parent's end: only 90..100 is covered.
            span(3, Some(0), "adopt", 90, 120),
            // A grandchild reduces its parent, not the root.
            span(4, Some(1), "reply", 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 30 - 10, 20 - 6, 15, 30, 6]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("hop", 60, 1));
    }

    #[test]
    fn self_time_sums_by_name() {
        let spans = [
            span(0, None, "send", 0, 5),
            span(1, None, "send", 10, 12),
            span(2, None, "ack", 3, 9),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![("send", 7, 2), ("ack", 6, 1)]
        );
    }
}
