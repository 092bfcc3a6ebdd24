//! Global random strings (§IV-B, Appendix VIII).
//!
//! Each epoch the system must agree (loosely) on a fresh random string to
//! sign the next epoch's puzzles — otherwise the adversary pre-computes.
//! The protocol: every good ID grinds candidate strings during Phase 1
//! and scores them with `h(s ⊕ r_{i-1})`; Phases 2–3 flood the best
//! candidates with a **record-breaking rule over bins**
//! `B_j = [2^{-j}, 2^{-j+1})`, each bin's forwards capped at `c0·ln n`,
//! which bounds total traffic at `Õ(n·ln T)` messages (Lemma 12 iii).
//! At the end each ID holds a solution set `R_w` of the `d0·ln n`
//! smallest-output strings; verification of a newly minted ID checks its
//! signing string against the verifier's `R`.
//!
//! The adversary's lever is **timing**: it can withhold a very small
//! output until late in Phase 2 so that only some good IDs adopt it as
//! their minimum `s^{i*}`. Lemma 12 (i) says Phase 3's extra `d'·ln n`
//! steps still spread any string that was anyone's end-of-Phase-2
//! minimum to everyone's solution set — which is exactly what
//! [`run_string_protocol`] measures.
//!
//! The flood runs over the **blue subgraph** of an operational group
//! graph (red groups drop traffic — worst case), with each inter-group
//! forward costing an all-to-all `|G_u|·|G_v|` messages.
//!
//! **State.** Every string that will fly is known before the first
//! step, so strings are numbered by rank (output order) and a node's
//! whole state is two bitsets over ranks — `seen` and `accepted` — and,
//! per bin, how many strings it keeps, the worst of them and how many
//! it has forwarded (`Nodes`). This is exact, not an approximation:
//! bins are contiguous rank ranges (`RankBins`), so a newly seen string
//! joins its bin's `cap` smallest iff the bin keeps fewer or the string
//! beats the worst, and after an eviction the new worst is the highest
//! `accepted` bit below the old one; `R_w` is the `d0·ln n` smallest
//! accepted strings; and the running minimum is the lowest set bit of
//! `seen`. A node takes each sender's strings in two passes: the first
//! marks them all seen, with no branch on the data, and collects the
//! first receipts; the second applies the bin rule to those, in
//! delivery order.

use rand::rngs::StdRng;
use rand::Rng;
use std::ops::{ControlFlow, Range};
use tg_core::dynamic::kernel::scheduled_steps;
use tg_core::GroupGraphView;
use tg_sim::Summary;

/// Protocol constants (Appendix VIII).
#[derive(Clone, Copy, Debug)]
pub struct StringParams {
    /// Epoch length `T` in steps.
    pub t_epoch: u64,
    /// Candidate-generation attempts per ID per step (`h` evaluations).
    pub attempts_per_step: u64,
    /// `d'` — Phases 2 and 3 each last `d'·ln n` steps.
    pub dprime: f64,
    /// Counter cap factor: each bin forwards at most `c0·ln n` records.
    pub c0: f64,
    /// Solution-set size factor: `|R_w| ≤ d0·ln n`.
    pub d0: f64,
    /// Bin count factor: `b·ln(nT)` bins.
    pub bins_factor: f64,
}

impl Default for StringParams {
    fn default() -> Self {
        StringParams {
            t_epoch: 4096,
            attempts_per_step: 16,
            dprime: 2.0,
            c0: 2.0,
            d0: 3.0,
            bins_factor: 2.0,
        }
    }
}

/// What the adversary does with its (genuinely computed) strings: the
/// spec's own type, so a scenario's `stradv=` axis is what the protocol
/// runs.
pub use tg_core::scenario::StringAdversarySpec as StringAdversary;

/// Measurements from one protocol run (the Lemma 12 quantities).
#[derive(Clone, Debug)]
pub struct StringOutcome {
    /// Lemma 12 (i): every good giant-component ID's end-of-Phase-2
    /// minimum appears in every good giant-component ID's solution set.
    pub agreement: bool,
    /// Number of `(w, u)` pairs violating (i).
    pub missing_pairs: u64,
    /// Good IDs in the giant blue component.
    pub giant_size: usize,
    /// Solution-set size distribution (Lemma 12 ii: `O(ln n)`).
    pub solution_set_sizes: Summary,
    /// Total string forwards (bounded by the bins/counters rule).
    pub forwards: u64,
    /// Total messages (forwards weighted by `|G_u|·|G_v|`).
    pub messages: u64,
    /// Flooding steps executed (`2·d'·ln n`).
    pub steps: u64,
    /// The key of the globally smallest string seen by any good
    /// giant-component ID — the natural `r_i` for the next epoch's
    /// puzzles (every good ID holds it in its solution set when
    /// `agreement` is true).
    pub global_min_key: Option<u64>,
}

/// A string as generated: `(output, key)`; the key identifies the
/// string (owner, nonce) — outputs are what the protocol compares.
type Flying = (f64, u64);

/// A string in flight. Every string that will ever fly is known before
/// the first step, so each gets a dense id: its rank in ascending
/// `(output, key)` order. Comparing ids *is* comparing strings, and a
/// node's "have I seen this" is one bit.
type StringId = u32;

/// The bins as rank ranges. [`bin_index`] is monotone (non-increasing)
/// in the output and ranks are output order, so every bin is one
/// contiguous run of ranks — the highest bin holds the smallest
/// strings — and the ranks between two strings of a bin are the bin's.
struct RankBins {
    /// Bin of each rank.
    of: Vec<u32>,
    /// `c0·ln n`: strings kept, and forwards allowed, per bin.
    cap: u16,
}

impl RankBins {
    /// `of[rank]` must be non-increasing in the rank.
    fn new(of: Vec<u32>, cap: u16) -> Self {
        debug_assert!(of.windows(2).all(|w| w[1] <= w[0]), "ranks map to non-increasing bins");
        RankBins { of, cap }
    }
}

/// One node's state in one bin: how many strings it keeps there, the
/// worst (highest-ranked) of them, and how many it has forwarded.
#[derive(Clone, Copy, Default)]
struct Kept {
    worst: StringId,
    count: u16,
    sent: u16,
}

/// Every node's flood state, as flat columns: node `j` owns `words`
/// words of each bitset over string ranks and `num_bins` [`Kept`]
/// entries. This is the whole of Appendix VIII's per-node state:
///
/// * a bin keeps the `cap` smallest strings it has seen, so a newly
///   seen `s` joins its bin's kept set iff the bin keeps fewer than
///   `cap` or `s` is below the worst kept string, which it then evicts;
/// * every kept string was accepted when it arrived, and an evicted one
///   lies above every later worst, so the `accepted` ranks of a bin
///   below its worst are exactly the rest of its kept set: after an
///   eviction the new worst is the highest `accepted` bit below the old;
/// * the solution set `R_w` is the `rmax` smallest `accepted` strings;
/// * the running minimum (and the Phase 2 snapshot `s^{i*}`) is the
///   lowest set bit of `seen`.
///
/// Whatever a node did with a string the first time (kept, later
/// evicted, rejected) a second receipt cannot change: evicted or
/// rejected, there were already `cap` smaller strings in its bin, and
/// those only ever get smaller. So only a first receipt meets the bin
/// rule, and the rule never reads `seen`.
struct Nodes {
    words: usize,
    num_bins: usize,
    seen: Vec<u64>,
    accepted: Vec<u64>,
    kept: Vec<Kept>,
}

/// Rows `first..` of every column of [`Nodes`]: the nodes one block of
/// a flood step owns.
struct Rows<'a> {
    first: usize,
    words: usize,
    num_bins: usize,
    seen: &'a mut [u64],
    accepted: &'a mut [u64],
    kept: &'a mut [Kept],
}

/// One node's rows of [`Nodes`].
struct Node<'a> {
    seen: &'a mut [u64],
    accepted: &'a mut [u64],
    kept: &'a mut [Kept],
}

impl Nodes {
    fn new(n: usize, num_bins: usize, num_strings: usize) -> Self {
        let words = num_strings.div_ceil(64);
        Nodes {
            words,
            num_bins,
            seen: vec![0; n * words],
            accepted: vec![0; n * words],
            kept: vec![Kept::default(); n * num_bins],
        }
    }

    fn rows(&mut self) -> Rows<'_> {
        let (words, num_bins) = (self.words, self.num_bins);
        let (seen, accepted, kept) = (&mut self.seen, &mut self.accepted, &mut self.kept);
        Rows { first: 0, words, num_bins, seen, accepted, kept }
    }

    fn seen(&self, j: usize) -> &[u64] {
        &self.seen[j * self.words..][..self.words]
    }

    fn accepted(&self, j: usize) -> &[u64] {
        &self.accepted[j * self.words..][..self.words]
    }
}

impl<'a> Rows<'a> {
    /// The rows before node `j` and the rows from `j` on.
    fn split_at(self, j: usize) -> (Rows<'a>, Rows<'a>) {
        let (w, b, at) = (self.words, self.num_bins, j - self.first);
        let (seen, seen_rest) = self.seen.split_at_mut(at * w);
        let (accepted, accepted_rest) = self.accepted.split_at_mut(at * w);
        let (kept, kept_rest) = self.kept.split_at_mut(at * b);
        let head = Rows { first: self.first, words: w, num_bins: b, seen, accepted, kept };
        let (seen, accepted, kept) = (seen_rest, accepted_rest, kept_rest);
        (head, Rows { first: j, words: w, num_bins: b, seen, accepted, kept })
    }

    fn node(&mut self, j: usize) -> Node<'_> {
        let (w, b, at) = (self.words, self.num_bins, j - self.first);
        Node {
            seen: &mut self.seen[at * w..][..w],
            accepted: &mut self.accepted[at * w..][..w],
            kept: &mut self.kept[at * b..][..b],
        }
    }
}

impl Node<'_> {
    /// The first pass over one sender's deliveries: mark every string
    /// of `delivered` seen, in delivery order, and write the ones seen
    /// for the first time to the front of `firsts`, which must be at
    /// least as long. Returns how many were first receipts. No branch
    /// depends on the strings.
    fn mark_seen(&mut self, delivered: &[StringId], firsts: &mut [StringId]) -> usize {
        let mut k = 0;
        for &s in delivered {
            let (word, bit) = (s as usize / 64, 1u64 << (s % 64));
            let old = self.seen[word];
            self.seen[word] = old | bit;
            firsts[k] = s;
            k += usize::from(old & bit == 0);
        }
        k
    }

    /// The bin rule for a first receipt of `s`, in the reading that
    /// Lemma 12's proof needs ("we set c0 ≥ d'' to make sure that no
    /// smallest values are omitted"): a bin keeps its `cap` **smallest**
    /// strings — membership is order-independent, so two record-scale
    /// strings sharing a bin both survive no matter which floods first —
    /// and forwards are hard-capped at `cap` per bin, which is what
    /// bounds total traffic at `Õ(n ln T)`. A string is accepted (and
    /// `true` returned) if it is among its bin's `cap` smallest when
    /// first seen; an accepted string is pushed onto `out` while its
    /// bin has forwarded fewer than `cap`.
    fn keep(&mut self, s: StringId, bins: &RankBins, out: &mut Vec<StringId>) -> bool {
        let kept = &mut self.kept[bins.of[s as usize] as usize];
        let full = kept.count == bins.cap;
        if full && s >= kept.worst {
            return false;
        }
        self.accepted[s as usize / 64] |= 1u64 << (s % 64);
        if full {
            kept.worst = highest_below(self.accepted, kept.worst).expect("`s` is below the worst");
        } else {
            kept.count += 1;
            kept.worst = kept.worst.max(s);
        }
        if kept.sent < bins.cap {
            kept.sent += 1;
            out.push(s);
        }
        true
    }

    /// Receive one string (an injection): [`Node::keep`] if `s` is new.
    fn receive(&mut self, s: StringId, bins: &RankBins, out: &mut Vec<StringId>) -> bool {
        let (word, bit) = (s as usize / 64, 1u64 << (s % 64));
        if self.seen[word] & bit != 0 {
            return false;
        }
        self.seen[word] |= bit;
        self.keep(s, bins, out)
    }
}

/// Set bits of `bits` in the rank range `[lo, hi)`.
fn count_range(bits: &[u64], lo: StringId, hi: StringId) -> usize {
    let (lo, hi) = (lo as usize, hi as usize);
    if lo >= hi {
        return 0;
    }
    let (lw, hw) = (lo / 64, hi / 64);
    let from_lo = !0u64 << (lo % 64);
    let below_hi = (1u64 << (hi % 64)) - 1;
    if lw == hw {
        return (bits[lw] & from_lo & below_hi).count_ones() as usize;
    }
    let mut count = (bits[lw] & from_lo).count_ones();
    count += bits[lw + 1..hw].iter().map(|w| w.count_ones()).sum::<u32>();
    if below_hi != 0 {
        count += (bits[hw] & below_hi).count_ones();
    }
    count as usize
}

/// Highest set bit of `bits` below rank `hi`: the worst string a bin
/// keeps once its worst at `hi` is evicted.
fn highest_below(bits: &[u64], hi: StringId) -> Option<StringId> {
    let (hw, below_hi) = (hi as usize / 64, (1u64 << (hi % 64)) - 1);
    let head = bits[hw] & below_hi;
    let (w, word) = if head != 0 {
        (hw, head)
    } else {
        bits[..hw].iter().copied().enumerate().rfind(|&(_, word)| word != 0)?
    };
    Some((w * 64) as StringId + 63 - word.leading_zeros())
}

/// Lowest set bit of `bits`: a node's smallest string seen.
fn lowest(bits: &[u64]) -> Option<StringId> {
    let (w, &word) = bits.iter().enumerate().find(|&(_, &word)| word != 0)?;
    Some((w * 64) as StringId + word.trailing_zeros())
}

/// Is `s` in the solution set read off `accepted` — accepted, and among
/// the `rmax` smallest accepted strings?
fn in_solution_set(accepted: &[u64], s: StringId, rmax: usize) -> bool {
    accepted[s as usize / 64] & (1u64 << (s % 64)) != 0 && count_range(accepted, 0, s) < rmax
}

/// `|R_w|`: the accepted strings, at most `rmax` of them.
fn solution_set_size(accepted: &[u64], rmax: usize) -> usize {
    accepted.iter().map(|w| w.count_ones() as usize).sum::<usize>().min(rmax)
}

/// Bin of an output: `B_j = [2^{-j}, 2^{-j+1})`, clamped to the last bin.
fn bin_index(t: f64, num_bins: usize) -> usize {
    debug_assert!(t > 0.0 && t < 1.0, "outputs live in (0,1)");
    let j = (-t.log2()).floor() as usize; // t ∈ [2^-(j+1), 2^-j)
    j.min(num_bins - 1)
}

/// Sample the best (smallest) of `k` uniform outputs: inverse CDF of the
/// minimum, `1 − (1−u)^{1/k}` (with `u` uniform, so is `1−u`; computed
/// stably as `−expm1(ln(u)/k)`).
fn sample_min_of_uniforms(k: f64, rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (-(u.ln() / k).exp_m1()).clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON)
}

/// The step an adversary releases at: `release_frac` of the flooding
/// timeline, clamped to its last step (step 0 when there is no timeline).
fn release_step(steps_total: u64, release_frac: f64) -> u64 {
    ((steps_total as f64 * release_frac).floor() as u64).min(steps_total.saturating_sub(1))
}

/// Run the propagation protocol over the blue subgraph of `gg`.
///
/// **What is simulated.** Links are the *directed* out-link sets `S_w`
/// of the input graph (`InputGraph::neighbor_indices`: predecessor,
/// successor, fingers), restricted to blue groups of the giant
/// component; a string accepted and forwarded by `w` in one step reaches
/// every `u ∈ S_w` at the next.
///
/// **Delivery order** (observable, because "forward while the bin's
/// counter is below `cap`" is order-dependent, and pinned by
/// `tests/golden_strings.rs`): within a step, nodes act in ascending
/// ring index; a node first receives what its in-neighbors forwarded
/// last step — in-neighbors in ascending ring index, each one's strings
/// in the order it forwarded them — and then the strings injected at it
/// this step, in injection order. What the last step forwards is still
/// received (the epoch boundary) but triggers no further forwards.
///
/// **Schedule.** On a graph of at least
/// [`FAN_OUT_MIN_IDS`](tg_core::dynamic::kernel::FAN_OUT_MIN_IDS)
/// groups, each step runs in blocks of consecutive giant nodes on worker
/// threads. The order above still holds: within a step a node reads only
/// what was forwarded the step before and writes only its own state, and
/// the blocks' forwards are joined in node order before the next step.
/// So the outcome is the serial one for any thread count. Once a step
/// forwards nothing and nothing is left to inject, no later step can
/// change a node, so the flood stops there (taking the Phase 2 snapshot
/// itself if it stops before that step); `steps` still reports the
/// whole timeline.
pub fn run_string_protocol<G: GroupGraphView>(
    gg: &G,
    params: &StringParams,
    adversary: StringAdversary,
    rng: &mut StdRng,
) -> StringOutcome {
    let n = gg.len();
    let ln_n = (n.max(3) as f64).ln();
    let num_bins =
        ((params.bins_factor * ((n as f64) * params.t_epoch as f64).ln()).ceil() as usize).max(4);
    let cap = u16::try_from((params.c0 * ln_n).ceil() as usize)
        .expect("a bin's c0·ln n kept strings and forwards fit a u16");
    let rmax = (params.d0 * ln_n).ceil() as usize;
    let phase_len = (params.dprime * ln_n).ceil() as u64;
    let steps_total = 2 * phase_len;

    // Blue out-links (directed: `adj[i]` is `S_i` minus red groups; red
    // groups drop traffic, so they have none) and the giant component.
    let red: Vec<bool> = (0..n).map(|i| gg.is_red(i)).collect();
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            if red[i] {
                return Vec::new();
            }
            let mut links = gg.topology().neighbor_indices(i);
            links.retain(|&j| !red[j]);
            links
        })
        .collect();
    let giant = giant_component(&adj);

    // Everything about a link that is constant for the call: who pulls
    // from whom (node `j`'s senders, ascending because `giant` is, are
    // one run of a single table), and per sender the number of giant
    // out-links and their all-to-all cost `Σ_j |G_i|·|G_j|` — one
    // forwarded string costs `fanout[i]` forwards and `weight[i]`
    // messages.
    let mut in_giant = vec![false; n];
    let mut size = vec![0usize; n];
    for &i in &giant {
        in_giant[i] = true;
        size[i] = gg.group_size(i);
    }
    let mut sender_start = vec![0usize; n + 1];
    let mut fanout = vec![0u64; n];
    let mut weight = vec![0u64; n];
    for &i in &giant {
        for &j in adj[i].iter().filter(|&&j| in_giant[j]) {
            sender_start[j + 1] += 1;
            fanout[i] += 1;
            weight[i] += (size[i] * size[j]) as u64;
        }
    }
    for j in 0..n {
        sender_start[j + 1] += sender_start[j];
    }
    let mut senders = vec![0u32; sender_start[n]];
    let mut next = sender_start.clone();
    for &i in &giant {
        for &j in adj[i].iter().filter(|&&j| in_giant[j]) {
            senders[next[j]] = i as u32;
            next[j] += 1;
        }
    }
    // The out-links are all in the table now: free them before the
    // nodes' state is allocated.
    drop((adj, next));

    // Phase 1 result: each *good, blue, giant* leader holds its best
    // candidate (min of its Phase-1 attempts).
    let phase1_attempts =
        (params.attempts_per_step * (params.t_epoch / 2).saturating_sub(2 * phase_len)).max(1);
    let mut injections: Vec<(u64, usize, Flying)> = Vec::new(); // (step, node, string)
    for &i in &giant {
        if gg.leaders().is_bad(i) {
            continue;
        }
        let t = sample_min_of_uniforms(phase1_attempts as f64, rng);
        injections.push((0, i, (t, i as u64)));
    }

    // Adversarial strings, released late into random giant nodes
    // (through red neighbors, which we model as direct injection — the
    // string itself is verifiable, only its timing is adversarial).
    match adversary {
        StringAdversary::None => {}
        StringAdversary::DelayedRelease { strings, release_frac, units } => {
            let total_attempts = units * params.attempts_per_step as f64 * params.t_epoch as f64;
            let release_step = release_step(steps_total, release_frac);
            // Order statistics of the adversary's attempts via exponential
            // spacings: the j-th smallest of N uniforms ≈ (E₁+…+E_j)/N.
            let mut acc = 0.0f64;
            for j in 0..strings {
                acc += -(rng.gen::<f64>().max(f64::MIN_POSITIVE)).ln();
                let t = (acc / total_attempts).clamp(f64::MIN_POSITIVE, 0.999_999);
                if giant.is_empty() {
                    break;
                }
                let victim = giant[rng.gen_range(0..giant.len())];
                injections.push((release_step, victim, (t, u64::MAX - j as u64)));
            }
        }
        StringAdversary::ForcedRecords { strings, release_frac } => {
            let release_step = release_step(steps_total, release_frac);
            // Outputs strictly below the good global minimum (below 1,
            // where every output lives, if the giant holds no good
            // string): each string halves again so they are distinct
            // records.
            let good_min = injections
                .iter()
                .map(|&(_, _, (t, _))| t)
                .fold(1.0, f64::min)
                .max(f64::MIN_POSITIVE);
            for j in 0..strings {
                if giant.is_empty() {
                    break;
                }
                let t = (good_min * 0.5f64.powi(j as i32 + 1)).max(f64::MIN_POSITIVE);
                let victim = giant[rng.gen_range(0..giant.len())];
                injections.push((release_step, victim, (t, u64::MAX - j as u64)));
            }
        }
    }
    injections.sort_by_key(|&(step, node, _)| (step, node));

    // Dense ids in ascending `(output, key)` order, with each string's
    // key and bin looked up once.
    let mut by_value: Vec<usize> = (0..injections.len()).collect();
    by_value
        .sort_by(|&a, &b| injections[a].2.partial_cmp(&injections[b].2).expect("finite outputs"));
    let mut schedule: Vec<(u64, usize, StringId)> = vec![(0, 0, 0); injections.len()];
    let mut key_of: Vec<u64> = Vec::with_capacity(injections.len());
    let mut bin_of: Vec<u32> = Vec::with_capacity(injections.len());
    for (id, &pos) in by_value.iter().enumerate() {
        let (step, node, (t, key)) = injections[pos];
        schedule[pos] = (step, node, id as StringId);
        key_of.push(key);
        bin_of.push(bin_index(t, num_bins) as u32);
    }
    let bins = RankBins::new(bin_of, cap);
    // The most strings one sender forwards over the whole flood, and so
    // in one step: each once at most, and at most `cap` per bin.
    let most_sent = key_of.len().min(usize::from(cap) * num_bins);
    // The schedule is sorted by step: nothing is injected from
    // `quiet_from` on.
    let quiet_from = schedule.last().map_or(0, |&(at, _, _)| at + 1);

    // One round beyond the timeline: the last step's sends are received
    // at the epoch boundary, and nothing is injected or forwarded there.
    // A bad leader's group still has a good member majority if blue, so
    // the group forwards correctly: leader badness does not change
    // blue-group behaviour, and every giant node takes part.
    let flood =
        &Flood { sender_start, senders, fanout, weight, bins, schedule, steps_total, phase_len };
    let mut nodes = Nodes::new(n, num_bins, flood.schedule.len());
    let mut si_star: Vec<Option<StringId>> = vec![None; giant.len()];
    let (rows, si, giant) = (nodes.rows(), si_star.as_mut_slice(), giant.as_slice());
    let last = Sent { step: 0, strings: Vec::new(), span: vec![0..0; n], forwards: 0, messages: 0 };
    let Sent { step: ran, forwards, messages, .. } = scheduled_steps(
        n,
        steps_total as usize + 1,
        move |k| cut_blocks(k, giant, rows, si, most_sent),
        last,
        |last, block| flood.step(last, block),
        |last, blocks| last.join(giant, blocks, quiet_from),
    );
    // A flood that went quiet before the end of Phase 2 never reached
    // the snapshot step; the minima it would have read are the final ones.
    if ran < phase_len {
        for (si, &j) in si_star.iter_mut().zip(giant) {
            *si = lowest(nodes.seen(j));
        }
    }

    // Solution sets: the rmax smallest accepted strings.
    let good_giant: Vec<usize> =
        giant.iter().copied().filter(|&i| !gg.leaders().is_bad(i)).collect();
    let set_sizes: Vec<f64> =
        good_giant.iter().map(|&i| solution_set_size(nodes.accepted(i), rmax) as f64).collect();

    // Lemma 12 (i): every si* is in everyone's solution set. There are
    // few distinct si* (usually one), so count each once per solution
    // set and weigh it by how many nodes hold it as their si*.
    let mut holders = vec![0u64; key_of.len()];
    let good_si_stars = giant.iter().zip(&si_star).filter(|&(&i, _)| !gg.leaders().is_bad(i));
    for s in good_si_stars.filter_map(|(_, &s)| s) {
        holders[s as usize] += 1;
    }
    let si_stars: Vec<(StringId, u64)> =
        (0..).zip(holders).filter(|&(_, held_by)| held_by > 0).collect();
    let mut missing = 0u64;
    for &u in &good_giant {
        for &(s, held_by) in &si_stars {
            if !in_solution_set(nodes.accepted(u), s, rmax) {
                missing += held_by;
            }
        }
    }

    let global_min_key =
        good_giant.iter().filter_map(|&i| lowest(nodes.seen(i))).min().map(|s| key_of[s as usize]);

    StringOutcome {
        agreement: missing == 0,
        missing_pairs: missing,
        giant_size: good_giant.len(),
        solution_set_sizes: Summary::of(&set_sizes),
        forwards,
        messages,
        steps: steps_total,
        global_min_key,
    }
}

/// Everything about a flood that is fixed before its first step: who
/// pulls from whom (node `j`'s senders, ascending, are
/// `senders[sender_start[j]..sender_start[j + 1]]`), per sender the
/// giant out-links one forwarded string costs (`fanout`) and their
/// all-to-all messages (`weight`), the bins, and the injections, sorted
/// by `(step, node)`.
struct Flood {
    sender_start: Vec<usize>,
    senders: Vec<u32>,
    fanout: Vec<u64>,
    weight: Vec<u64>,
    bins: RankBins,
    schedule: Vec<(u64, usize, StringId)>,
    steps_total: u64,
    phase_len: u64,
}

/// What a step reads: its number, what the giant forwarded the step
/// before (node `j`'s strings at `span[j]`), and the totals so far.
struct Sent {
    step: u64,
    strings: Vec<StringId>,
    span: Vec<Range<usize>>,
    forwards: u64,
    messages: u64,
}

/// A run of giant nodes, ascending, with their rows of [`Nodes`] and
/// their Phase 2 snapshots.
struct Block<'a> {
    nodes: &'a [usize],
    rows: Rows<'a>,
    si_star: &'a mut [Option<StringId>],
    /// The first pass's first receipts, one sender's deliveries at a
    /// time: as long as the most one sender forwards, allocated on the
    /// calling thread and reused by every step.
    firsts: Vec<StringId>,
    /// How many strings the block forwarded last step: the next
    /// buffer's starting capacity.
    last_len: usize,
}

/// What one block forwarded in one step: its strings in node order,
/// where each node's strings end, and what they cost.
struct Forwarded {
    strings: Vec<StringId>,
    ends: Vec<usize>,
    forwards: u64,
    messages: u64,
}

impl Flood {
    /// Node `j`'s senders, ascending.
    fn senders(&self, j: usize) -> &[u32] {
        &self.senders[self.sender_start[j]..self.sender_start[j + 1]]
    }

    /// Step every node of `block`, in ascending ring index, against
    /// what the giant forwarded last step. A node takes each sender's
    /// strings in two passes — it marks them all seen, then applies the
    /// bin rule to the first receipts, in order — and then its
    /// injections. The bin rule never reads `seen`, so this is the
    /// order of receipt string by string.
    fn step(&self, last: &Sent, block: &mut Block<'_>) -> Forwarded {
        let (step, on_timeline) = (last.step, last.step < self.steps_total);
        let mut sending = Vec::with_capacity(block.last_len);
        let mut ends = Vec::with_capacity(block.nodes.len());
        let (mut forwards, mut messages) = (0, 0);
        // This step's injections at the block's nodes: a sub-run of the
        // schedule.
        let first = block.nodes.first().map_or(0, |&j| j);
        let mut injected = self.schedule.partition_point(|&(at, j, _)| (at, j) < (step, first));
        for &j in block.nodes {
            let mut node = block.rows.node(j);
            let start = sending.len();
            for &i in self.senders(j) {
                let delivered = &last.strings[last.span[i as usize].clone()];
                let firsts = node.mark_seen(delivered, &mut block.firsts);
                for &s in &block.firsts[..firsts] {
                    node.keep(s, &self.bins, &mut sending);
                }
            }
            if on_timeline {
                while let Some(&(_, _, s)) =
                    self.schedule.get(injected).filter(|&&(at, node, _)| (at, node) == (step, j))
                {
                    node.receive(s, &self.bins, &mut sending);
                    injected += 1;
                }
            } else {
                sending.truncate(start);
            }
            let out = (sending.len() - start) as u64;
            forwards += out * self.fanout[j];
            messages += out * self.weight[j];
            ends.push(sending.len());
        }
        // End of Phase 2: snapshot minima.
        if step + 1 == self.phase_len {
            for (si, &j) in block.si_star.iter_mut().zip(block.nodes) {
                *si = lowest(block.rows.node(j).seen);
            }
        }
        block.last_len = sending.len();
        Forwarded { strings: sending, ends, forwards, messages }
    }
}

impl Sent {
    /// Take in what the blocks of `giant` forwarded this step, in block
    /// order (which is node order): the next step reads it. Breaks once
    /// nothing was forwarded and no injection is scheduled from the
    /// next step on (`quiet_from`), after which no step changes a node.
    fn join(
        &mut self,
        giant: &[usize],
        blocks: Vec<Forwarded>,
        quiet_from: u64,
    ) -> ControlFlow<()> {
        self.strings.clear();
        let mut nodes = giant.iter();
        for block in blocks {
            let offset = self.strings.len();
            let mut start = offset;
            // `ends` leads the zip, so it stops without taking the next
            // block's first node.
            for (end, &j) in block.ends.into_iter().zip(nodes.by_ref()) {
                self.span[j] = start..offset + end;
                start = offset + end;
            }
            self.strings.extend(block.strings);
            self.forwards += block.forwards;
            self.messages += block.messages;
        }
        self.step += 1;
        if self.strings.is_empty() && self.step >= quiet_from {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Cut `giant` into `k` runs of nodes (fewer if it is smaller), each
/// with its rows, its snapshot slots and a first-receipt buffer for
/// `most_sent` strings, the most one sender forwards.
fn cut_blocks<'a>(
    k: usize,
    giant: &'a [usize],
    mut rows: Rows<'a>,
    mut si_star: &'a mut [Option<StringId>],
    most_sent: usize,
) -> Vec<Block<'a>> {
    let k = k.clamp(1, giant.len().max(1));
    let mut blocks = Vec::with_capacity(k);
    let block = |nodes, rows, si_star| Block {
        nodes,
        rows,
        si_star,
        firsts: vec![0; most_sent],
        last_len: 0,
    };
    let mut taken = 0;
    for b in 1..k {
        let end = b * giant.len() / k;
        let (head, tail) = rows.split_at(giant[end]);
        let (si, si_rest) = std::mem::take(&mut si_star).split_at_mut(end - taken);
        blocks.push(block(&giant[taken..end], head, si));
        (rows, si_star, taken) = (tail, si_rest, end);
    }
    blocks.push(block(&giant[taken..], rows, si_star));
    blocks
}

/// Largest connected component of the (blue) adjacency.
fn giant_component(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut seen = vec![false; n];
    let mut best: Vec<usize> = Vec::new();
    for start in 0..n {
        if seen[start] || adj[start].is_empty() {
            continue;
        }
        // Breadth-first: `comp` doubles as the queue.
        let mut comp = vec![start];
        let mut head = 0;
        seen[start] = true;
        while head < comp.len() {
            let v = comp[head];
            head += 1;
            for &u in &adj[v] {
                if !seen[u] && !adj[u].is_empty() {
                    seen[u] = true;
                    comp.push(u);
                }
            }
        }
        if comp.len() > best.len() {
            best = comp;
        }
    }
    best.sort_unstable();
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tg_core::{build_initial_graph, GroupGraph, Params, Population};
    use tg_crypto::OracleFamily;
    use tg_overlay::GraphKind;

    fn graph(n_good: usize, n_bad: usize, seed: u64) -> GroupGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        build_initial_graph(
            pop,
            GraphKind::Chord,
            OracleFamily::new(seed).h1,
            &Params::paper_defaults(),
        )
    }

    #[test]
    fn no_adversary_full_agreement() {
        let gg = graph(512, 0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let out =
            run_string_protocol(&gg, &StringParams::default(), StringAdversary::None, &mut rng);
        assert!(out.agreement, "missing pairs: {}", out.missing_pairs);
        assert_eq!(out.giant_size, 512, "clean system: everyone is in the giant component");
        assert!(out.solution_set_sizes.max >= 1.0);
    }

    #[test]
    fn delayed_release_at_phase2_boundary_still_agrees() {
        // The paper's hardest instant: release at the last Phase-2 step
        // (frac 0.5); Phase 3 must still spread the strings.
        let gg = graph(512, 25, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let adv = StringAdversary::DelayedRelease { strings: 5, release_frac: 0.49, units: 25.0 };
        let out = run_string_protocol(&gg, &StringParams::default(), adv, &mut rng);
        assert!(out.agreement, "missing pairs: {}", out.missing_pairs);
    }

    #[test]
    fn forced_records_at_phase2_boundary_still_agree() {
        // The genuinely hard case: adversary strings that *beat* the good
        // global minimum, released at the last Phase-2 step — they become
        // some nodes' si* and Phase 3 alone must spread them to every
        // solution set.
        let gg = graph(512, 25, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let adv = StringAdversary::ForcedRecords { strings: 5, release_frac: 0.49 };
        let out = run_string_protocol(&gg, &StringParams::default(), adv, &mut rng);
        assert!(out.agreement, "missing pairs: {}", out.missing_pairs);
    }

    #[test]
    fn forced_records_released_in_phase3_are_harmless() {
        // Released after the si* snapshot: they reach only some nodes but
        // are nobody's si*, so (i) holds vacuously for them.
        let gg = graph(512, 25, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let adv = StringAdversary::ForcedRecords { strings: 5, release_frac: 0.95 };
        let out = run_string_protocol(&gg, &StringParams::default(), adv, &mut rng);
        assert!(out.agreement, "missing pairs: {}", out.missing_pairs);
    }

    #[test]
    fn weak_compute_adversary_strings_are_not_records() {
        // The E7 finding: at β = 5% the adversary's best outputs are
        // usually worse than the good minimum, so DelayedRelease barely
        // changes the flood volume relative to no adversary.
        let gg = graph(512, 25, 25);
        let params = StringParams::default();
        let mut rng = StdRng::seed_from_u64(26);
        let none = run_string_protocol(&gg, &params, StringAdversary::None, &mut rng);
        let mut rng = StdRng::seed_from_u64(26);
        let adv = StringAdversary::DelayedRelease { strings: 8, release_frac: 0.49, units: 25.0 };
        let weak = run_string_protocol(&gg, &params, adv, &mut rng);
        let delta = weak.forwards.abs_diff(none.forwards) as f64;
        assert!(
            delta < 0.1 * none.forwards as f64,
            "weak adversary moved forwards by {delta} of {}",
            none.forwards
        );
    }

    #[test]
    fn release_after_phase2_cannot_break_agreement() {
        // Strings released in Phase 3 are never anyone's si*, so (i)
        // holds trivially even though the strings reach only some nodes.
        let gg = graph(512, 25, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let adv = StringAdversary::DelayedRelease { strings: 5, release_frac: 0.9, units: 25.0 };
        let out = run_string_protocol(&gg, &StringParams::default(), adv, &mut rng);
        assert!(out.agreement);
    }

    #[test]
    fn solution_sets_are_logarithmic() {
        let gg = graph(1024, 50, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let params = StringParams::default();
        let out = run_string_protocol(&gg, &params, StringAdversary::None, &mut rng);
        let bound = (params.d0 * (gg.len() as f64).ln()).ceil();
        assert!(
            out.solution_set_sizes.max <= bound,
            "max |R| = {} vs ⌈d0·ln n⌉ = {bound:.0}",
            out.solution_set_sizes.max
        );
    }

    #[test]
    fn message_complexity_is_near_linear() {
        // Õ(n ln T): per-node sends are bounded by bins × cap × degree —
        // all polylog factors. One size cannot separate polylog from
        // linear, so check the *scaling*: quadrupling n must grow
        // per-node sends by a polylog factor (≈ (ln 4n/ln n)³ ≲ 1.8),
        // not by 4×.
        let params = StringParams::default();
        let per_node = |n: usize, seed: u64| -> f64 {
            let gg = graph(n, 0, seed);
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let out = run_string_protocol(&gg, &params, StringAdversary::None, &mut rng);
            out.forwards as f64 / gg.len() as f64
        };
        let small = per_node(512, 9);
        let large = per_node(2048, 11);
        let ratio = large / small;
        assert!(ratio < 2.5, "per-node sends scaled ×{ratio:.2} for 4× n (linear would be ≈4)");
        // And the absolute bound from the protocol parameters holds.
        let n = 2048f64;
        let bins = (params.bins_factor * (n * params.t_epoch as f64).ln()).ceil();
        let cap = (params.c0 * n.ln()).ceil();
        let degree = 2.5 * n.ln();
        assert!(large < bins * cap * degree, "per-node sends {large:.0}");
    }

    #[test]
    fn bin_indexing() {
        assert_eq!(bin_index(0.75, 32), 0); // [1/2, 1)
        assert_eq!(bin_index(0.3, 32), 1); // [1/4, 1/2)
        assert_eq!(bin_index(0.2, 32), 2); // [1/8, 1/4)
        assert_eq!(bin_index(1e-30, 32), 31, "clamps to the last bin");
    }

    #[test]
    fn min_of_uniforms_sampler_scales() {
        let mut rng = StdRng::seed_from_u64(11);
        let small: f64 =
            (0..2000).map(|_| sample_min_of_uniforms(10.0, &mut rng)).sum::<f64>() / 2000.0;
        let large: f64 =
            (0..2000).map(|_| sample_min_of_uniforms(1000.0, &mut rng)).sum::<f64>() / 2000.0;
        // E[min of k uniforms] = 1/(k+1).
        assert!((small - 1.0 / 11.0).abs() < 0.01, "mean {small:.4} vs 1/11");
        assert!((large - 1.0 / 1001.0).abs() < 2e-4, "mean {large:.5} vs 1/1001");
    }

    /// A real graph with the group colors overridden — the way to put
    /// the flood on a giant component of a chosen shape.
    struct Recolored<'a> {
        inner: &'a GroupGraph,
        blue: &'a [usize],
    }

    impl GroupGraphView for Recolored<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn is_red(&self, i: usize) -> bool {
            !self.blue.contains(&i)
        }
        fn group_size(&self, i: usize) -> usize {
            self.inner.group_size(i)
        }
        fn group_bad_count(&self, i: usize) -> usize {
            self.inner.group_bad_count(i)
        }
        fn is_confused(&self, i: usize) -> bool {
            self.inner.is_confused(i)
        }
        fn group_members(&self, i: usize) -> &[u32] {
            self.inner.group_members(i)
        }
        fn captured_slots(&self, i: usize) -> u32 {
            self.inner.captured_slots(i)
        }
        fn leaders(&self) -> &Population {
            self.inner.leaders()
        }
        fn pool(&self) -> &Population {
            self.inner.pool()
        }
        fn topology(&self) -> &dyn tg_overlay::InputGraph {
            self.inner.topology()
        }
        fn recolored_size(&self, i: usize) -> usize {
            self.inner.recolored_size(i)
        }
    }

    /// Out-links of every group of `gg`, as ring indices.
    fn out_links(gg: &GroupGraph) -> Vec<Vec<usize>> {
        (0..gg.len()).map(|i| gg.topology().neighbor_indices(i)).collect()
    }

    const ADVERSARIES: [StringAdversary; 3] = [
        StringAdversary::None,
        StringAdversary::DelayedRelease { strings: 3, release_frac: 0.49, units: 4.0 },
        StringAdversary::ForcedRecords { strings: 3, release_frac: 0.49 },
    ];

    /// `run` on the test thread and inside a [`tg_sim::parallel_map`]
    /// worker, where the flood steps serially, must print the same
    /// outcome. With one CPU both run on the calling thread.
    fn assert_schedules_agree(run: impl Fn() -> String + Sync, what: &str) {
        let fanned = run();
        let mut serial = tg_sim::parallel_map(vec![true, false], |go| go.then(&run));
        assert_eq!(fanned, serial.swap_remove(0).expect("the first item runs"), "{what}");
    }

    /// A graph of at least [`FAN_OUT_MIN_IDS`] groups floods in blocks
    /// over worker threads on the test thread, and as one block inside
    /// a sweep worker: the outcomes must be byte-identical, for static
    /// graphs at the fan-out size and above it, every adversary, the
    /// default and the starved constants (which leave `missing_pairs`
    /// non-zero), and a graph an epoch built.
    ///
    /// [`FAN_OUT_MIN_IDS`]: tg_core::dynamic::kernel::FAN_OUT_MIN_IDS
    #[test]
    fn fanned_out_floods_match_serial_ones() {
        use tg_core::dynamic::kernel::FAN_OUT_MIN_IDS;
        use tg_core::dynamic::{BuildMode, DynamicSystem, UniformProvider};

        let defaults = StringParams::default();
        let starved = StringParams { dprime: 0.4, c0: 0.3, d0: 0.4, ..defaults };
        for n in [FAN_OUT_MIN_IDS, 1200] {
            let gg = graph(n - n / 20, n / 20, n as u64);
            for params in [defaults, starved] {
                for adv in ADVERSARIES {
                    let run = || {
                        let mut rng = StdRng::seed_from_u64(43);
                        format!("{:?}", run_string_protocol(&gg, &params, adv, &mut rng))
                    };
                    assert_schedules_agree(run, &format!("n = {n}, {params:?}, {adv:?}"));
                }
            }
        }

        let mut provider = UniformProvider { n_good: FAN_OUT_MIN_IDS, n_bad: 40 };
        let mut sys = DynamicSystem::new(
            Params::paper_defaults(),
            GraphKind::Chord,
            BuildMode::DualGraph,
            &mut provider,
            44,
        );
        sys.advance_epoch(&mut provider);
        let side0 = sys.graphs().side(0);
        assert!(side0.len() >= FAN_OUT_MIN_IDS, "the epoch's graph fans out");
        for adv in ADVERSARIES {
            let run = || {
                let mut rng = StdRng::seed_from_u64(45);
                format!("{:?}", run_string_protocol(&side0, &starved, adv, &mut rng))
            };
            assert_schedules_agree(run, &format!("arena graph, {adv:?}"));
        }
    }

    #[test]
    fn all_red_graph_has_an_empty_giant() {
        let gg = graph(64, 0, 31);
        let all_red = Recolored { inner: &gg, blue: &[] };
        for adv in ADVERSARIES {
            let mut rng = StdRng::seed_from_u64(32);
            let out = run_string_protocol(&all_red, &StringParams::default(), adv, &mut rng);
            assert_eq!(out.giant_size, 0);
            assert_eq!(out.global_min_key, None);
            assert!(out.agreement, "vacuous: nobody is left to disagree");
            assert_eq!((out.forwards, out.messages, out.missing_pairs), (0, 0, 0));
            assert_eq!(out.solution_set_sizes.n, 0);
        }
    }

    /// A one-way link `a → b` of `gg`: with only those two blue, `b`
    /// has no blue out-link and drops out, leaving a giant of `a` alone
    /// — no in-links, no out-links inside the giant.
    fn one_way_link(gg: &GroupGraph) -> [usize; 2] {
        let links = out_links(gg);
        let (a, b) = (0..gg.len())
            .flat_map(|a| links[a].iter().map(move |&b| (a, b)))
            .find(|&(a, b)| !links[b].contains(&a))
            .expect("chord fingers are one-way");
        [a, b]
    }

    #[test]
    fn giant_of_one_blue_group_keeps_its_own_string() {
        let gg = graph(64, 0, 33);
        let blue = one_way_link(&gg);
        let lonely = Recolored { inner: &gg, blue: &blue };
        let mut rng = StdRng::seed_from_u64(34);
        let out =
            run_string_protocol(&lonely, &StringParams::default(), StringAdversary::None, &mut rng);
        assert_eq!(out.giant_size, 1);
        assert_eq!(out.global_min_key, Some(blue[0] as u64));
        assert!(out.agreement);
        assert_eq!((out.forwards, out.messages), (0, 0));
        assert_eq!(out.solution_set_sizes.max, 1.0);
    }

    #[test]
    fn a_flood_that_goes_quiet_before_phase_3_still_snapshots_si_star() {
        // The one-group giant has nothing in flight after step 1 and
        // nothing more to inject, so its flood stops at step 2 of 18,
        // long before the snapshot at the end of Phase 2 (step 8). With
        // `d0 = 0` the node's solution set is empty, so its si* (its own
        // string) is missing from it: the one pair Lemma 12 (i) then
        // counts is there only if the snapshot was taken.
        let gg = graph(64, 0, 33);
        let blue = one_way_link(&gg);
        let lonely = Recolored { inner: &gg, blue: &blue };
        let params = StringParams { d0: 0.0, ..StringParams::default() };
        let mut rng = StdRng::seed_from_u64(34);
        let out = run_string_protocol(&lonely, &params, StringAdversary::None, &mut rng);
        assert_eq!(out.giant_size, 1);
        assert_eq!(out.solution_set_sizes.max, 0.0);
        assert_eq!((out.missing_pairs, out.agreement), (1, false), "no si* was taken");
        let phase_len = (params.dprime * (gg.len() as f64).ln()).ceil() as u64;
        assert_eq!((phase_len, out.steps), (9, 18), "steps report the whole timeline");
    }

    #[test]
    fn forced_records_after_an_idle_stretch_still_flood() {
        // At 537 groups the honest flood forwards nothing after step 7
        // of 26, and on its own it stops after step 8. Records released
        // at 0.95 of the timeline (step 24) must still be injected and
        // flood: the smallest becomes the global minimum, and the
        // forwards grow past the honest flood's.
        let gg = graph(512, 25, 23);
        let params = StringParams::default();
        let mut rng = StdRng::seed_from_u64(24);
        let honest = run_string_protocol(&gg, &params, StringAdversary::None, &mut rng);
        let adv = StringAdversary::ForcedRecords { strings: 5, release_frac: 0.95 };
        let mut rng = StdRng::seed_from_u64(24);
        let late = run_string_protocol(&gg, &params, adv, &mut rng);
        assert_eq!(late.global_min_key, Some(u64::MAX - 4), "the smallest record arrived");
        assert!(late.forwards > honest.forwards, "{} vs {}", late.forwards, honest.forwards);
        assert_eq!(late.steps, honest.steps);
    }

    #[test]
    fn same_step_same_victim_injections_follow_the_pull() {
        // A two-node giant `a ⇄ b`, one bin that matters (every output
        // is far below 1/8 and there are 4 bins) and `cap = 1`, so a
        // node accepts a string only if it is the smallest it has been
        // offered so far. Three records released at step 1: two share a
        // victim. At step 1 a victim first pulls the other node's own
        // string, then takes its records in injection order — each
        // smaller than the last, so all are accepted. Over both nodes
        // the solution sets then hold 2 own strings, the smaller own
        // string once more at the other node, and the 3 records: 6.
        // Injections before the pull, or records in the other order,
        // lose at least one whenever the victim holds the larger own
        // string.
        let gg = graph(16, 0, 35);
        let links = out_links(&gg);
        assert!(links[0].contains(&1) && links[1].contains(&0), "successor and predecessor");
        let pair = Recolored { inner: &gg, blue: &[0, 1] };
        let params = StringParams { c0: 0.01, bins_factor: 0.0, ..StringParams::default() };
        let steps = 2.0 * (params.dprime * 16f64.ln()).ceil();
        let adv = StringAdversary::ForcedRecords { strings: 3, release_frac: 1.5 / steps };
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = run_string_protocol(&pair, &params, adv, &mut rng);
            assert_eq!(out.giant_size, 2);
            let held = out.solution_set_sizes.mean * 2.0;
            assert_eq!(held, 6.0, "seed {seed}: an accepted string went missing");
            assert_eq!(out.forwards, 2, "seed {seed}: cap = 1 is one forward per node");
            assert_eq!(out.global_min_key, Some(u64::MAX - 2));
        }
    }

    #[test]
    fn zero_length_timeline_with_an_adversary_does_not_underflow() {
        // `dprime = 0`: no flooding steps, so the release step has no
        // "last step" to clamp to.
        let gg = graph(64, 3, 37);
        let params = StringParams { dprime: 0.0, ..StringParams::default() };
        for adv in ADVERSARIES {
            let mut rng = StdRng::seed_from_u64(38);
            let out = run_string_protocol(&gg, &params, adv, &mut rng);
            assert_eq!((out.steps, out.forwards, out.messages), (0, 0, 0));
            assert_eq!(out.global_min_key, None, "nothing was ever delivered");
            assert_eq!(out.solution_set_sizes.max, 0.0);
        }
    }

    #[test]
    fn forced_records_need_no_good_string_in_the_giant() {
        // A giant of two bad-leader groups holds no good string to beat:
        // the records must still land in (0, 1), and they still flood.
        let gg = graph(32, 32, 41);
        let links = out_links(&gg);
        let ring = gg.len();
        let a = (0..ring)
            .find(|&a| gg.leaders().is_bad(a) && gg.leaders().is_bad((a + 1) % ring))
            .expect("two adjacent bad leaders");
        let b = (a + 1) % ring;
        assert!(links[a].contains(&b) && links[b].contains(&a), "successor and predecessor");
        let bad_pair = Recolored { inner: &gg, blue: &[a, b] };
        let adv = StringAdversary::ForcedRecords { strings: 3, release_frac: 0.49 };
        let mut rng = StdRng::seed_from_u64(42);
        let out = run_string_protocol(&bad_pair, &StringParams::default(), adv, &mut rng);
        assert_eq!(out.giant_size, 0, "no good leader in the giant");
        assert_eq!(out.global_min_key, None);
        assert!(out.forwards > 0, "the records still flood");
    }

    /// The node rule as first written — a sorted `Vec` of the `cap`
    /// smallest strings per bin and one of the `rmax` smallest accepted
    /// strings — which a node's two passes over a step's deliveries
    /// ([`Node::mark_seen`], then [`Node::keep`] per first receipt) and
    /// [`Node::receive`] must reproduce decision for decision. It has
    /// no `seen` filter: a repeated offer is a no-op here by the rule
    /// itself.
    struct Model {
        bins: Vec<(Vec<StringId>, usize)>,
        stored: Vec<StringId>,
        min_seen: Option<StringId>,
    }

    impl Model {
        fn offer(
            &mut self,
            s: StringId,
            bin: usize,
            cap: usize,
            rmax: usize,
            out: &mut Vec<StringId>,
        ) -> bool {
            if self.min_seen.is_none_or(|m| s < m) {
                self.min_seen = Some(s);
            }
            let (smallest, forwards) = &mut self.bins[bin];
            let pos = match smallest.binary_search(&s) {
                Ok(_) => return false,
                Err(pos) => pos,
            };
            if pos >= cap {
                return false;
            }
            smallest.insert(pos, s);
            smallest.truncate(cap);
            let spos = self.stored.partition_point(|&kept| kept < s);
            if spos < rmax {
                self.stored.insert(spos, s);
                self.stored.truncate(rmax);
            }
            if *forwards < cap {
                *forwards += 1;
                out.push(s);
            }
            true
        }
    }

    #[test]
    fn bitset_node_matches_the_sorted_vec_model() {
        let mut rng = StdRng::seed_from_u64(39);
        // One sender's deliveries that repeated a string, first receipts
        // that evicted a bin's worst, and one sender's deliveries whose
        // first receipts spanned several bins.
        let (mut repeats, mut evictions, mut spread) = (0, 0, 0);
        for case in 0..600usize {
            // Ranks to bins, non-increasing: one-rank bins when the bin
            // changes at almost every rank, bins over several words when
            // it almost never does; some bins stay empty.
            let change = [0.9, 0.3, 0.05, 0.004][case % 4];
            let (cap, rmax) = ([0, 1, 3, 14][case / 4 % 4], [1, 4, 42][case / 16 % 3]);
            let num_bins = rng.gen_range(1..8usize);
            let num_strings = rng.gen_range(1..400usize);
            let mut bin = num_bins - 1;
            let of: Vec<u32> = (0..num_strings)
                .map(|_| {
                    if rng.gen_bool(change) {
                        bin = bin.saturating_sub(rng.gen_range(1..3));
                    }
                    bin as u32
                })
                .collect();
            let bins = RankBins::new(of.clone(), cap as u16);
            let mut nodes = Nodes::new(1, num_bins, num_strings);
            let mut model =
                Model { bins: vec![(Vec::new(), 0); num_bins], stored: Vec::new(), min_seen: None };
            let (mut out, mut model_out) = (Vec::new(), Vec::new());
            let (mut firsts, mut offered) = (Vec::new(), vec![false; num_strings]);
            for _ in 0..rng.gen_range(1..num_strings + 1) {
                // One injection, or one step's deliveries: a few
                // senders' strings, short enough to repeat a string now
                // and then.
                let inject = rng.gen_bool(0.2);
                let delivered: Vec<Vec<StringId>> = if inject {
                    vec![vec![rng.gen_range(0..num_strings as StringId)]]
                } else {
                    let lens: Vec<usize> =
                        (0..rng.gen_range(1..4)).map(|_| rng.gen_range(0..12)).collect();
                    let mut string = || rng.gen_range(0..num_strings as StringId);
                    lens.into_iter().map(|len| (0..len).map(|_| string()).collect()).collect()
                };
                let all = delivered.concat();
                let new: Vec<StringId> = (all.iter().copied())
                    .filter(|&s| !std::mem::replace(&mut offered[s as usize], true))
                    .collect();
                let mut expected = Vec::new();
                for &s in &all {
                    let bin = of[s as usize] as usize;
                    let full = model.bins[bin].0.len() == cap;
                    if model.offer(s, bin, cap, rmax, &mut model_out) {
                        expected.push(s);
                        evictions += usize::from(full && !inject);
                    }
                }
                let mut rows = nodes.rows();
                let mut node = rows.node(0);
                let accepted: Vec<StringId> = if inject {
                    all.into_iter().filter(|&s| node.receive(s, &bins, &mut out)).collect()
                } else {
                    let (mut received, mut kept) = (Vec::new(), Vec::new());
                    for strings in &delivered {
                        firsts.resize(strings.len(), 0);
                        let k = node.mark_seen(strings, &mut firsts);
                        let fresh = &firsts[..k];
                        let repeat = (1..strings.len()).any(|i| strings[..i].contains(&strings[i]));
                        repeats += usize::from(repeat);
                        let bin = |s: &StringId| of[*s as usize];
                        spread += usize::from(fresh.iter().any(|s| bin(s) != bin(&fresh[0])));
                        received.extend_from_slice(fresh);
                        kept.extend(
                            fresh.iter().copied().filter(|&s| node.keep(s, &bins, &mut out)),
                        );
                    }
                    assert_eq!(received, new, "case {case}: first receipts");
                    kept
                };
                assert_eq!(accepted, expected, "case {case}: accepted");
                assert_eq!(out, model_out, "case {case}: forwarded");
                assert_eq!(lowest(nodes.seen(0)), model.min_seen, "case {case}");
            }
            let accepted = nodes.accepted(0);
            let solution_set: Vec<StringId> = (0..num_strings as StringId)
                .filter(|&s| in_solution_set(accepted, s, rmax))
                .collect();
            assert_eq!(solution_set, model.stored, "case {case}: R_w");
            assert_eq!(solution_set_size(accepted, rmax), model.stored.len(), "case {case}");
        }
        assert!(repeats > 0 && evictions > 0 && spread > 0, "{repeats}, {evictions}, {spread}");
    }

    #[test]
    fn rank_ranges_count_across_words() {
        let bits = [u64::MAX, 0b1010, u64::MAX];
        assert_eq!(count_range(&bits, 0, 0), 0);
        assert_eq!(count_range(&bits, 5, 5), 0);
        assert_eq!(count_range(&bits, 3, 64), 61);
        assert_eq!(count_range(&bits, 63, 68), 3);
        assert_eq!(count_range(&bits, 64, 128), 2);
        assert_eq!(count_range(&bits, 0, 191), 64 + 2 + 63);
        assert_eq!(lowest(&bits[1..]), Some(1));
        assert_eq!(lowest(&[0, 0]), None);
    }

    #[test]
    fn highest_bit_below_crosses_words() {
        // Bits 3 and 62 in word 0, none in word 1, 130 and 150 in word 2.
        let bits = [1 << 3 | 1 << 62, 0, 1 << 2 | 1 << 22, 0];
        assert_eq!(highest_below(&bits, 0), None);
        assert_eq!(highest_below(&bits, 3), None);
        assert_eq!(highest_below(&bits, 4), Some(3));
        assert_eq!(highest_below(&bits, 62), Some(3));
        assert_eq!(highest_below(&bits, 63), Some(62));
        assert_eq!(highest_below(&bits, 64), Some(62));
        assert_eq!(highest_below(&bits, 130), Some(62), "back over an empty word");
        assert_eq!(highest_below(&bits, 131), Some(130));
        assert_eq!(highest_below(&bits, 255), Some(150));

        // A bin that starts mid-word, at rank 66, keeps 70 and 100 with
        // `cap = 2`; the bin before it holds 64 and 65. Each first
        // receipt below the worst is accepted and evicts the worst,
        // which stays accepted above every later worst, and the new
        // worst is found above the bin before's bits.
        let mut bits = [0, 1 << 0 | 1 << 1 | 1 << 6 | 1 << 36];
        for (s, worst, new_worst) in [(68, 100, 70), (67, 70, 68), (66, 68, 67)] {
            bits[1] |= 1 << (s - 64);
            assert_eq!(highest_below(&bits, worst), Some(new_worst), "{s} evicts {worst}");
        }
    }
}
