//! Runs every experiment check and prints the consolidated
//! paper-vs-measured summary.

use std::time::Instant;

use kastio_bench::report::Table;
use kastio_bench::{
    analyze, matches_reference, prepare, score_against, ReferencePartition, PAPER_SEED,
};
use kastio_core::token::{TokenLiteral, WeightedToken};
use kastio_core::{
    ByteMode, CutRule, KastKernel, KastOptions, Normalization, StringKernel, TokenInterner,
    WeightedString,
};
use kastio_kernels::{BlendedSpectrumKernel, KSpectrumKernel, WeightingMode};
use kastio_workloads::Dataset;

fn main() {
    let start = Instant::now();
    let ds = Dataset::paper(PAPER_SEED);
    let with_bytes = prepare(&ds, ByteMode::Preserve);
    let no_bytes = prepare(&ds, ByteMode::Ignore);

    let mut table = Table::new(vec![
        "exp".into(),
        "artefact".into(),
        "paper expectation".into(),
        "measured".into(),
        "status".into(),
    ]);

    // E1/E2 — Kast, bytes, cw=2 → {A},{B},{C∪D} exactly.
    let kast2 = KastKernel::new(KastOptions::with_cut_weight(2));
    let a = analyze(&kast2, &with_bytes);
    let s = score_against(&a, &with_bytes.labels, ReferencePartition::MergedCd);
    let ok = matches_reference(&a, &with_bytes.labels, ReferencePartition::MergedCd);
    table.row(vec![
        "E1/E2".into(),
        "Fig 6+7: kast, bytes, cw=2".into(),
        "3 groups {A},{B},{C∪D}, none misplaced".into(),
        format!("ARI={:+.3} purity={:.3}", s.ari, s.purity),
        status(ok),
    ]);

    // E3/E4 — blended, bytes, k=2 → only {A} separates.
    let blended = BlendedSpectrumKernel::new(2).with_mode(WeightingMode::Counts);
    let a = analyze(&blended, &with_bytes);
    let bcd = score_against(&a, &with_bytes.labels, ReferencePartition::MergedBcd);
    let cd = score_against(&a, &with_bytes.labels, ReferencePartition::MergedCd);
    let ok = (bcd.ari - 1.0).abs() < 1e-12 && cd.ari < 1.0;
    table.row(vec![
        "E3/E4".into(),
        "Fig 8+9: blended, bytes, k=2".into(),
        "only {A} separates; {B∪C∪D} one group".into(),
        format!("2grp ARI={:+.3}, 3grp ARI={:+.3}", bcd.ari, cd.ari),
        status(ok),
    ]);

    // E5 — kast, no bytes: 2 groups at cw=2; 3 groups at some larger cut.
    let a = analyze(&kast2, &no_bytes);
    let acd = score_against(&a, &no_bytes.labels, ReferencePartition::MergedAcd);
    let small_cd = score_against(&a, &no_bytes.labels, ReferencePartition::MergedCd);
    let ok_small = (acd.ari - 1.0).abs() < 1e-12 && small_cd.ari < 1.0;
    table.row(vec![
        "E5a".into(),
        "§4.2: kast, no bytes, cw=2".into(),
        "2 groups {B},{A∪C∪D} only".into(),
        format!("2grp ARI={:+.3}, 3grp ARI={:+.3}", acd.ari, small_cd.ari),
        status(ok_small),
    ]);
    let mut recovered = None;
    for pow in 2..=10u32 {
        let cut = 2u64.pow(pow);
        let kernel = KastKernel::new(KastOptions::with_cut_weight(cut));
        let a = analyze(&kernel, &no_bytes);
        if matches_reference(&a, &no_bytes.labels, ReferencePartition::MergedCd) {
            recovered = Some(cut);
            break;
        }
    }
    table.row(vec![
        "E5b".into(),
        "§4.2: kast, no bytes, larger cw".into(),
        "3 groups recovered by raising the cut".into(),
        match recovered {
            Some(cut) => format!("3 groups at cw={cut}"),
            None => "never recovered".into(),
        },
        status(recovered.is_some()),
    ]);

    // E6 — k-spectrum fails where blended partially succeeds.
    let mut worst_spec: f64 = 1.0;
    for k in [2usize, 3, 5] {
        let spec = KSpectrumKernel::new(k).with_mode(WeightingMode::Counts);
        let a = analyze(&spec, &with_bytes);
        let cd = score_against(&a, &with_bytes.labels, ReferencePartition::MergedCd);
        worst_spec = worst_spec.min(cd.ari);
    }
    let ok = worst_spec < 1.0;
    table.row(vec![
        "E6".into(),
        "§4.3: k-spectrum, bytes, k∈{2,3,5}".into(),
        "no acceptable 3-group clustering".into(),
        format!("worst 3grp ARI={worst_spec:+.3}"),
        status(ok),
    ]);

    // E7 — cost falls as the cut weight grows.
    let mut t_small = 0u128;
    let mut t_large = 0u128;
    for (cut, slot) in [(2u64, &mut t_small), (256u64, &mut t_large)] {
        let kernel = KastKernel::new(KastOptions::with_cut_weight(cut));
        let t0 = Instant::now();
        let _ = analyze(&kernel, &with_bytes);
        *slot = t0.elapsed().as_micros();
    }
    let ok = t_small >= t_large;
    table.row(vec![
        "E7".into(),
        "§4.2: cost vs cut weight".into(),
        "smaller cut ⇒ costlier computation".into(),
        format!("cw=2: {}µs ≥ cw=256: {}µs", t_small, t_large),
        status(ok),
    ]);

    // E8 — worked example arithmetic.
    let (wa, wb) = worked_example_strings();
    let kernel = KastKernel::new(KastOptions {
        cut_weight: 4,
        cut_rule: CutRule::AllOccurrences,
        normalization: Normalization::WeightProduct,
    });
    let raw = kernel.raw(&wa, &wb);
    let norm = kernel.normalized(&wa, &wb);
    let ok = raw == 1018.0 && (norm - 1018.0 / 3328.0).abs() < 1e-12;
    table.row(vec![
        "E8".into(),
        "§3.2 worked example".into(),
        "k=1018, k̄=0.3059".into(),
        format!("k={raw}, k̄={norm:.4}"),
        status(ok),
    ]);

    println!("kastio — consolidated reproduction summary (seed {PAPER_SEED})\n");
    println!("{}", table.render());
    println!("total wall time: {:.1}s", start.elapsed().as_secs_f64());
    println!("\nper-artefact binaries: fig6_kpca_kast fig7_hac_kast fig8_kpca_blended");
    println!("fig9_hac_blended table_cut_sweep table_no_bytes table_kspectrum");
    println!("worked_example ablation_cut_rule ablation_mutations ablation_linkage");
}

fn status(ok: bool) -> String {
    if ok {
        "OK".into()
    } else {
        "DEVIATION".into()
    }
}

fn worked_example_strings() -> (kastio_core::IdString, kastio_core::IdString) {
    fn sym(name: &str, w: u64) -> WeightedToken {
        WeightedToken::new(TokenLiteral::Sym(name.to_string()), w)
    }
    let mut interner = TokenInterner::new();
    let a: WeightedString = vec![
        sym("x", 6),
        sym("y", 6),
        sym("z", 7),
        sym("fa1", 1),
        sym("u", 3),
        sym("v", 4),
        sym("fa2", 1),
        sym("u", 2),
        sym("v", 4),
        sym("fa3", 1),
        sym("w1", 2),
        sym("w2", 4),
        sym("fa4", 1),
        sym("w1", 4),
        sym("w2", 5),
        sym("fa5", 12),
        sym("fa6", 12),
    ]
    .into_iter()
    .collect();
    let b: WeightedString = vec![
        sym("x", 5),
        sym("y", 6),
        sym("z", 6),
        sym("gb1", 1),
        sym("x", 6),
        sym("y", 6),
        sym("z", 6),
        sym("gb2", 1),
        sym("u", 2),
        sym("v", 4),
        sym("gb3", 1),
        sym("u", 1),
        sym("v", 4),
        sym("gb4", 1),
        sym("w1", 3),
        sym("w2", 5),
        sym("gb5", 1),
        sym("w1", 2),
        sym("w2", 4),
    ]
    .into_iter()
    .collect();
    (interner.intern_string(&a), interner.intern_string(&b))
}
