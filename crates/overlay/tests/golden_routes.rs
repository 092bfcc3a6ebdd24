//! Golden snapshot of the routes every topology takes: for each
//! [`GraphKind`] over u.a.r. rings of 1, 2, 3, 300 and 5000 IDs and over
//! 300 IDs clustered inside one `2^-32` arc, 500 seeded `(from, key)`
//! searches, reduced to the total hop count and a splitmix fold of the
//! hops' leader-ring indices; and every node's link set, reduced to the
//! total out-degree and a fold of the neighbours' ring indices, node by
//! node in ring order. Any change to how a topology routes or links — or
//! to how the ring answers its lookups — shows up here.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p tg-overlay --test golden_routes
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tg_idspace::{Id, SortedRing};
use tg_overlay::GraphKind;

const SEARCHES: usize = 500;

/// Splitmix64 finalizer, the fold step.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The named rings of the snapshot, each from its own seed.
fn rings() -> Vec<(String, SortedRing)> {
    let mut out = Vec::new();
    for n in [1usize, 2, 3, 300, 5000] {
        let mut rng = StdRng::seed_from_u64(42 ^ n as u64);
        out.push((
            format!("uniform-{n}"),
            SortedRing::new((0..n).map(|_| Id(rng.gen())).collect()),
        ));
    }
    let mut rng = StdRng::seed_from_u64(42 ^ 0xc1u64);
    let base: u64 = rng.gen();
    let clustered = (0..300).map(|_| Id(base.wrapping_add(rng.gen::<u64>() >> 32))).collect();
    out.push(("clustered-300".to_string(), SortedRing::new(clustered)));
    out
}

fn snapshot() -> String {
    let mut out = String::new();
    for (name, ring) in rings() {
        for kind in GraphKind::ALL {
            let g = kind.build(ring.clone());
            let mut rng = StdRng::seed_from_u64(42);
            let (mut hops, mut fold) = (0usize, 0u64);
            for _ in 0..SEARCHES {
                let from = rng.gen_range(0..ring.len());
                let key = Id(rng.gen());
                for h in g.route(from, key).hops {
                    hops += 1;
                    fold = mix64(fold ^ h as u64);
                }
            }
            out.push_str(&format!(
                "{name} n={} {} hops {hops} fold {fold:016x}\n",
                ring.len(),
                kind.name()
            ));
            let (mut links, mut fold) = (0usize, 0u64);
            for i in 0..ring.len() {
                for u in g.neighbor_indices(i) {
                    links += 1;
                    fold = mix64(fold ^ u as u64);
                }
                fold = mix64(fold ^ u64::MAX);
            }
            out.push_str(&format!(
                "{name} n={} {} links {links} fold {fold:016x}\n",
                ring.len(),
                kind.name()
            ));
        }
    }
    out
}

#[test]
fn routes_match_golden() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/routes_seed42.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, snapshot()).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert_eq!(
        snapshot(),
        expected,
        "routes drifted from their golden snapshot; if the change is intentional, \
         regenerate with GOLDEN_REGEN=1 and commit the diff"
    );
}
