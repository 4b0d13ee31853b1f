//! The pinned regression corpus: every seed in `seeds.txt` replayed as its
//! own named test, so a regression points at a seed by name and can be
//! re-run in isolation (`cargo test -p duoquest-dst --test regression seed_42`).

use duoquest_dst::{check_seed, generate};

/// The corpus, mirrored from `seeds.txt` (a test below keeps them in sync).
const CORPUS: &[u64] = &[0, 1, 7, 13, 42, 99, 1337, 65537, 123456789, 987654321];

macro_rules! corpus_seed {
    ($($name:ident = $seed:expr;)*) => {
        $(
            #[test]
            fn $name() {
                if let Err(failure) = check_seed($seed) {
                    panic!("{failure}");
                }
            }
        )*

        /// The named tests above must cover exactly the seeds in the macro
        /// invocation (compile-time halves of the sync check).
        const NAMED: &[u64] = &[$($seed),*];
    };
}

corpus_seed! {
    seed_0 = 0;
    seed_1 = 1;
    seed_7 = 7;
    seed_13 = 13;
    seed_42 = 42;
    seed_99 = 99;
    seed_1337 = 1337;
    seed_65537 = 65537;
    seed_123456789 = 123456789;
    seed_987654321 = 987654321;
}

/// `seeds.txt` (the on-disk corpus the docs point contributors at), the
/// `CORPUS` constant, and the named tests must all agree — adding a seed in
/// one place only fails here, with instructions.
#[test]
fn corpus_file_and_named_tests_agree() {
    let file: Vec<u64> = include_str!("../seeds.txt")
        .lines()
        .map(|line| line.trim())
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.parse().expect("seeds.txt lines are seeds or # comments"))
        .collect();
    assert_eq!(
        file, CORPUS,
        "seeds.txt and the CORPUS constant diverged — add the seed to both, \
         plus a corpus_seed! entry"
    );
    assert_eq!(
        CORPUS, NAMED,
        "CORPUS and the corpus_seed! invocation diverged — add a named test for the seed"
    );
}

/// FNV-1a of the `Debug` text of each corpus seed's scenario, as `generate`
/// produced it when `Scenario` still carried the alternate run's emission
/// policy (that field left out of the text). A seed is a replay token only
/// while seed → scenario holds still: a `generate` that consumes one draw
/// more or fewer sends every pinned seed to a scenario it was not pinned
/// for, and the corpus above goes on passing without testing what it names.
const SCENARIOS: &[(u64, u64)] = &[
    (0, 0xea14_f463_f104_f887),
    (1, 0x29d5_92c7_71ca_0a1b),
    (7, 0x51fa_c2b2_f555_8224),
    (13, 0x1a64_909d_36c8_9e2c),
    (42, 0xa7f9_36a0_2a67_7b40),
    (99, 0x49b8_000b_9227_8416),
    (1337, 0x726b_3498_305a_9f78),
    (65537, 0x4990_c4d6_059f_5f21),
    (123456789, 0x75bb_637a_d7a5_1da9),
    (987654321, 0x249a_805b_8478_bb6e),
];

#[test]
fn corpus_seeds_generate_the_scenarios_they_were_pinned_for() {
    let fnv1a = |text: &str| {
        text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    };
    let generated: Vec<(u64, u64)> =
        CORPUS.iter().map(|&seed| (seed, fnv1a(&format!("{:?}", generate(seed))))).collect();
    assert_eq!(generated, SCENARIOS, "seed → scenario moved");
}
