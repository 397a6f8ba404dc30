//! Seeded input generators. Every generator writes the database text
//! format that `Database::parse` reads, so parsing is part of set-up and
//! the program only ever sees generated text.
//!
//! Sizes are fixed per workload: the seed changes *which* students are
//! TAs, how many registrations each one has and where they go, but not
//! the number of endogenous facts, so work per request is comparable
//! across seeds.

use std::fmt::Write as _;

/// SplitMix64: a small, fast, seedable generator whose stream is fixed
/// by this file alone (no dependency whose stream could change).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// A derived seed for stream `tag` of workload seed `seed`, so the
/// database, the op stream and the sampler seeds are independent.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Most registrations one student holds.
pub const MAX_REGS: usize = 7;
/// Faculties of the courses; `CS` is the one `q2` negates.
const FACULTIES: [&str; 3] = ["CS", "EE", "ME"];

/// The university instance of Figure 1, scaled: exogenous relations
/// `Stud`, `Course`, `Adv` (declared with `exorel`), endogenous `TA` and
/// `Reg`. Exactly half of the students (rounded down) are TAs, and
/// registration counts cycle through `1..=7` before a seeded shuffle,
/// so `q1`'s root groups fall into 14 isomorphism classes. Faculties
/// cycle over the courses before a shuffle, so the number of `CS`
/// courses is fixed too. With `students` a multiple of 14 there are
/// exactly `4.5 · students` endogenous facts.
pub fn university(students: usize, courses: usize, seed: u64) -> String {
    let mut rng = Rng::new(derive(seed, 1));
    let mut text = String::from("exorel Stud\nexorel Course\nexorel Adv\n");
    let mut faculty: Vec<&str> = (0..courses)
        .map(|c| FACULTIES[c % FACULTIES.len()])
        .collect();
    rng.shuffle(&mut faculty);
    for (c, faculty) in faculty.iter().enumerate() {
        let _ = writeln!(text, "exo Course(c{c}, {faculty})");
    }
    let mut is_ta: Vec<bool> = (0..students).map(|s| s < students / 2).collect();
    rng.shuffle(&mut is_ta);
    let mut regs: Vec<usize> = (0..students).map(|s| 1 + s % MAX_REGS).collect();
    rng.shuffle(&mut regs);
    let mut pool: Vec<usize> = (0..courses).collect();
    for s in 0..students {
        let _ = writeln!(text, "exo Stud(s{s})");
        let _ = writeln!(text, "exo Adv(adv{}, s{s})", rng.below(students / 8 + 1));
        if is_ta[s] {
            let _ = writeln!(text, "endo TA(s{s})");
        }
        // A partial Fisher–Yates draw of distinct courses.
        let take = regs[s].min(courses);
        for i in 0..take {
            let j = i + rng.below(courses - i);
            pool.swap(i, j);
            let _ = writeln!(text, "endo Reg(s{s}, c{})", pool[i]);
        }
    }
    text
}

/// A star/hub instance for `q() :- R(x), S(x, y), T(y)`: `hubs`
/// endogenous `T(h)` facts, `spokes` endogenous `R(x)` facts, and one
/// endogenous `S(x, h)` edge for even spokes, two for odd ones. Edges
/// are dealt so that hub loads differ by at most one; the seed decides
/// which spokes share a hub. The fact order and the degrees do not
/// depend on the seed: the engine's nested-loop satisfaction check
/// scans facts in insertion order, so they set the cost of a sampler
/// draw. The query
/// is non-hierarchical and nothing is exogenous, so every exact tier
/// rejects it. There are exactly `hubs + spokes + 3 · spokes / 2`
/// endogenous facts for even `spokes` and `hubs ≥ 2`.
pub fn hub(hubs: usize, spokes: usize, seed: u64) -> String {
    let mut rng = Rng::new(derive(seed, 2));
    let mut text = String::new();
    for h in 0..hubs {
        let _ = writeln!(text, "endo T(h{h})");
    }
    let degree: Vec<usize> = (0..spokes).map(|x| 1 + x % 2).collect();
    // Each spoke takes the hubs with the most remaining room, ties in
    // seeded order: loads stay within one of each other throughout, so
    // a two-edge spoke always finds two distinct hubs.
    let edges: usize = degree.iter().sum();
    let mut room: Vec<usize> = (0..hubs)
        .map(|h| edges / hubs + usize::from(h < edges % hubs))
        .collect();
    for (x, &d) in degree.iter().enumerate() {
        let _ = writeln!(text, "endo R(a{x})");
        let mut order: Vec<usize> = (0..hubs).collect();
        rng.shuffle(&mut order);
        order.sort_by_key(|&h| std::cmp::Reverse(room[h]));
        for &h in order.iter().take(d) {
            room[h] -= 1;
            let _ = writeln!(text, "endo S(a{x}, h{h})");
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_db::Database;

    #[test]
    fn university_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(university(28, 20, 7), university(28, 20, 7));
        assert_ne!(university(28, 20, 7), university(28, 20, 8));
    }

    #[test]
    fn hub_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(hub(4, 20, 3), hub(4, 20, 3));
        assert_ne!(hub(4, 20, 3), hub(4, 20, 4));
    }

    #[test]
    fn university_has_the_stated_size_for_every_seed() {
        for seed in 0..5 {
            let db = Database::parse(&university(28, 20, seed)).expect("generated text parses");
            assert_eq!(db.endo_count(), 28 / 2 + 4 * 28);
            let stud = db.schema().id("Stud").expect("Stud declared");
            assert!(db.is_exogenous_relation(stud));
        }
    }

    #[test]
    fn hub_has_the_stated_size_and_balanced_hubs_for_every_seed() {
        for seed in 0..20 {
            let db = Database::parse(&hub(4, 24, seed)).expect("generated text parses");
            assert_eq!(db.endo_count(), 4 + 24 + 36, "seed {seed}");
            let s = db.schema().id("S").expect("S present");
            let mut load = [0usize; 4];
            for &f in db.relation_facts(s) {
                let h = db.render_fact(f);
                let h = h
                    .trim_end_matches(')')
                    .rsplit('h')
                    .next()
                    .expect("hub name");
                load[h.parse::<usize>().expect("hub index")] += 1;
            }
            assert_eq!(load, [9; 4], "seed {seed}");
        }
    }
}
