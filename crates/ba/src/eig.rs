//! Exponential Information Gathering (EIG) agreement: `t < n/3`.
//!
//! The classic unauthenticated synchronous BA of Lamport–Shostak–Pease /
//! Bar-Noy et al.: `t+1` relay rounds build a tree of "who said that who
//! said …" values over labels of distinct members; decisions resolve the
//! tree bottom-up by recursive majority. Message *size* is exponential in
//! `t` — which is exactly why it is only practical for small groups, and
//! why the paper's exponential group-size reduction (`log n → log log n`)
//! matters: at `|G| = Θ(log log n)` even EIG's optimal `t < n/3`
//! resilience is affordable.

use crate::model::{check_group, AdversaryMode, BaOutcome};
use std::collections::HashMap;

/// Default value used when a relay is missing or no majority exists.
const DEFAULT: u64 = 0;

/// Run EIG agreement over a group.
///
/// Guarantees for `#bad < n/3`: agreement among good members, and
/// validity (unanimous good inputs are decided).
///
/// # Panics
/// Panics if `inputs` and `bad` disagree in length, or if the group has
/// more than 256 members (labels hold member indices as `u8`).
pub fn eig_agreement(inputs: &[u64], bad: &[bool], mode: AdversaryMode) -> BaOutcome {
    let n = inputs.len();
    let t = check_group(n, bad);
    assert!(n <= 256, "EIG labels hold at most 256 members, got {n}");
    let rounds = t + 1;
    let mut msgs = 0u64;

    // trees[i]: label (sequence of distinct member indices) → value that
    // member i recorded for that label. Label `[j, k]` reads "k said that
    // j said its input was …" (we append relayers at the end).
    let mut trees: Vec<HashMap<Vec<u8>, u64>> = vec![HashMap::new(); n];

    // Round 1: everyone broadcasts its input.
    for i in 0..n {
        for j in 0..n {
            let honest = Some(inputs[j]);
            let val = if bad[j] { mode.send(j, i, 1, honest) } else { honest };
            if let Some(v) = val {
                msgs += 1;
                if !bad[i] {
                    trees[i].insert(vec![j as u8], v);
                }
            }
        }
    }

    // Rounds 2..=t+1: relay the previous level.
    for r in 2..=rounds {
        // Snapshot the level each member will relay. A bad relayer lies
        // per-recipient via the adversary mode; to keep the lie stream
        // deterministic we key it on a label hash folded into the round.
        let level: Vec<Vec<(Vec<u8>, u64)>> = (0..n)
            .map(|j| {
                trees[j]
                    .iter()
                    .filter(|(label, _)| label.len() == r - 1 && !label.contains(&(j as u8)))
                    .map(|(label, &v)| (label.clone(), v))
                    .collect()
            })
            .collect();
        // Bad members relay every label of the right length, lying about
        // the value; they may also have received nothing (Silent senders
        // earlier), so reconstruct the label set from any good tree.
        let all_labels: Vec<Vec<u8>> = {
            let mut ls: Vec<Vec<u8>> = trees
                .iter()
                .enumerate()
                .filter(|(i, _)| !bad[*i])
                .flat_map(|(_, t)| t.keys().filter(|l| l.len() == r - 1).cloned())
                .collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        };
        for i in 0..n {
            for j in 0..n {
                if bad[j] {
                    for label in &all_labels {
                        if label.contains(&(j as u8)) {
                            continue;
                        }
                        let lie_round = r as u64 * 1_000_003
                            + label
                                .iter()
                                .fold(0u64, |a, &b| a.wrapping_mul(257).wrapping_add(b as u64));
                        if let Some(v) = mode.send(j, i, lie_round, Some(DEFAULT)) {
                            msgs += 1;
                            if !bad[i] {
                                let mut new_label = label.clone();
                                new_label.push(j as u8);
                                trees[i].insert(new_label, v);
                            }
                        }
                    }
                } else {
                    for (label, v) in &level[j] {
                        msgs += 1;
                        if !bad[i] {
                            let mut new_label = label.clone();
                            new_label.push(j as u8);
                            trees[i].insert(new_label, *v);
                        }
                    }
                }
            }
        }
    }

    // Resolve bottom-up with recursive majority.
    let decisions: Vec<Option<u64>> = (0..n)
        .map(|i| {
            if bad[i] {
                None
            } else {
                let roots: Vec<u64> =
                    (0..n).map(|j| resolve(&trees[i], &[j as u8], n, rounds)).collect();
                Some(strict_majority(&roots).unwrap_or(DEFAULT))
            }
        })
        .collect();

    BaOutcome { decisions, msgs, rounds: rounds as u64 }
}

/// Resolve a label: leaves take their recorded value; internal labels take
/// the strict majority of their resolved children.
fn resolve(tree: &HashMap<Vec<u8>, u64>, label: &[u8], n: usize, rounds: usize) -> u64 {
    if label.len() == rounds {
        return tree.get(label).copied().unwrap_or(DEFAULT);
    }
    let mut children = Vec::with_capacity(n);
    for j in (0..n).map(|j| j as u8) {
        if label.contains(&j) {
            continue;
        }
        let mut child = label.to_vec();
        child.push(j);
        children.push(resolve(tree, &child, n, rounds));
    }
    strict_majority(&children).unwrap_or(DEFAULT)
}

/// Strict majority of a slice, if one exists.
fn strict_majority(values: &[u64]) -> Option<u64> {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for &v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts.into_iter().find(|&(_, c)| 2 * c > values.len()).map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_good_unanimous() {
        let out = eig_agreement(&[9; 4], &[false; 4], AdversaryMode::Honest);
        assert_eq!(out.agreed_value(), Some(9));
        assert_eq!(out.rounds, 1, "t = 0 needs a single round");
    }

    #[test]
    fn validity_with_one_traitor() {
        // n = 4, t = 1: the minimal interesting Byzantine generals case.
        let bad = [true, false, false, false];
        for mode in [
            AdversaryMode::Silent,
            AdversaryMode::Equivocate { seed: 5 },
            AdversaryMode::Collude { value: 123 },
        ] {
            let out = eig_agreement(&[7; 4], &bad, mode);
            assert_eq!(out.agreed_value(), Some(7), "mode {mode:?}");
        }
    }

    #[test]
    fn agreement_with_two_traitors_in_seven() {
        let n = 7;
        let bad: Vec<bool> = (0..n).map(|i| i == 1 || i == 4).collect();
        let inputs: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
        for mode in [
            AdversaryMode::Silent,
            AdversaryMode::Equivocate { seed: 17 },
            AdversaryMode::Collude { value: 55 },
        ] {
            let out = eig_agreement(&inputs, &bad, mode);
            assert!(out.agreed_value().is_some(), "mode {mode:?}: {:?}", out.decisions);
        }
    }

    #[test]
    fn three_generals_with_traitor_is_the_classic_impossibility_regime() {
        // n = 3, t = 1 violates t < n/3; we only check termination — the
        // classic result says no protocol can guarantee agreement here.
        let out =
            eig_agreement(&[1, 2, 3], &[true, false, false], AdversaryMode::Equivocate { seed: 9 });
        assert!(out.decisions[1].is_some() && out.decisions[2].is_some());
    }

    #[test]
    fn message_count_grows_with_t() {
        let small = eig_agreement(&[1; 4], &[false; 4], AdversaryMode::Honest).msgs;
        let bad = [true, false, false, false];
        let larger = eig_agreement(&[1; 4], &bad, AdversaryMode::Honest).msgs;
        assert!(larger > small, "t = 1 adds a relay round: {larger} vs {small}");
    }

    #[test]
    #[should_panic(expected = "EIG labels hold at most 256 members, got 300")]
    fn groups_past_u8_labels_are_refused() {
        // Member 256 would share member 0's labels: 160 inputs of 7 and
        // 140 of 9 used to decide 9.
        let inputs: Vec<u64> = (0..300).map(|i| if i < 160 { 7 } else { 9 }).collect();
        eig_agreement(&inputs, &[false; 300], AdversaryMode::Honest);
    }

    #[test]
    fn agreement_across_seeds() {
        let n = 7;
        let inputs = [3, 3, 4, 4, 3, 4, 3];
        for seed in 0..10 {
            let bad: Vec<bool> = (0..n).map(|i| i == (seed % n) || i == ((seed + 3) % n)).collect();
            let out = eig_agreement(&inputs, &bad, AdversaryMode::Equivocate { seed: seed as u64 });
            assert!(out.agreed_value().is_some(), "seed {seed}");
        }
    }
}
