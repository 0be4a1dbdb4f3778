//! Workload inputs, made from the seed and handed to the program as loop
//! text only.
//!
//! The generated draws are stratified: a draw follows a fixed pattern of
//! size bands (by `ops x MinII`, which is what sets the model size) in the
//! generator's own proportions, so the heavy tail of large, budget-bound
//! loops is in every draw, in the same amount. Each workload has one
//! fixed draw; the run seed sets the order in which its loops are solved.

use std::fmt::Write as _;

use optimod::DepStyle;
use optimod_ddg::{generate_loop, kernels, DepKind, GeneratorConfig, Loop};
use optimod_machine::{cydra_like, example_3fu, Machine};

/// One unit of work: a loop in the text format plus how to schedule it.
#[derive(Clone, Debug)]
pub struct Unit {
    pub name: String,
    pub text: String,
    pub style: DepStyle,
    /// Operation count, for the per-unit rows.
    pub ops: usize,
    /// The certified II the golden fixture pins, when there is one.
    pub golden_ii: Option<u32>,
}

/// SplitMix64: the seed expander behind every draw.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Renders `l` in the loop-text grammar that `textfmt::parse` reads.
/// Register flow is kept as `flow` lines, so the parsed loop has the same
/// virtual registers (MinReg depends on them) and the same edge order.
/// Operations are named by position: kernel names need not be unique.
pub fn render(l: &Loop, machine: &Machine) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "machine {}", machine.name());
    for (i, op) in l.ops().iter().enumerate() {
        let _ = writeln!(s, "op o{i} {}", op.class.mnemonic());
    }
    let name = |i: usize| format!("o{i}");
    for e in l.edges().iter().filter(|e| e.kind != DepKind::Flow) {
        let kind = match e.kind {
            DepKind::Anti => "anti",
            DepKind::Control => "control",
            _ => "memory",
        };
        let _ = writeln!(
            s,
            "dep {} {} {} {} {kind}",
            name(e.from.index()),
            name(e.to.index()),
            e.latency,
            e.distance
        );
    }
    for e in l.edges().iter().filter(|e| e.kind == DepKind::Flow) {
        let _ = writeln!(
            s,
            "flow {} {} {}",
            name(e.from.index()),
            name(e.to.index()),
            e.distance
        );
    }
    s
}

const GOLDEN_TSV: &str = include_str!("../../tests/golden/corpus.tsv");

/// The certified II of `kernel` under `style` in the golden fixture.
fn golden_ii(kernel: &str, style: DepStyle) -> Option<u32> {
    let style = style_name(style);
    GOLDEN_TSV
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|f| f.len() > 2 && f[0] == kernel && f[1] == style)
        .and_then(|f| f[2].parse().ok())
}

pub fn style_name(style: DepStyle) -> &'static str {
    match style {
        DepStyle::Traditional => "traditional",
        DepStyle::Structured => "structured",
    }
}

/// The 11 golden kernels under both formulations on `example_3fu`.
pub fn golden_units() -> Vec<Unit> {
    let m = example_3fu();
    let loops = [
        kernels::figure1(&m),
        kernels::saxpy(&m),
        kernels::dot_product(&m),
        kernels::lfk5_tridiag(&m),
        kernels::lfk6_recurrence(&m),
        kernels::lfk11_first_sum(&m),
        kernels::lfk12_first_diff(&m),
        kernels::fir4(&m),
        kernels::horner(&m),
        kernels::divide_recurrence(&m),
        kernels::stream_copy(&m),
    ];
    let mut units = Vec::new();
    for style in [DepStyle::Structured, DepStyle::Traditional] {
        for l in &loops {
            let ii = golden_ii(l.name(), style)
                .unwrap_or_else(|| panic!("{} has no golden II", l.name()));
            units.push(Unit {
                name: format!("{}/{}", l.name(), &style_name(style)[..4]),
                text: render(l, &m),
                style,
                ops: l.num_ops(),
                golden_ii: Some(ii),
            });
        }
    }
    units
}

/// Size band of a generated loop, by `ops x MinII`.
fn band(l: &Loop, m: &Machine) -> usize {
    let size = l.num_ops() as u64 * u64::from(optimod_verify::min_ii(l, m));
    match size {
        0..=29 => 0,
        30..=59 => 1,
        60..=99 => 2,
        100..=299 => 3,
        _ => 4,
    }
}

/// Slots per band in one pattern of 30, close to the generator's own mix
/// (measured over 300 cydra-like loops: 42%, 27%, 14%, 13%, 4%).
pub const BAND_PATTERN: [usize; 5] = [13, 8, 4, 4, 1];

/// The band of each slot of one pattern, interleaved so that every prefix
/// of a draw holds the bands in near-fixed proportions.
fn band_sequence(counts: &[usize]) -> Vec<usize> {
    let mut slots: Vec<(f64, usize)> = Vec::new();
    for (b, &c) in counts.iter().enumerate() {
        for k in 0..c {
            slots.push(((k as f64 + 0.5) / c as f64, b));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|s| s.1).collect()
}

/// A stratified draw of `patterns x sum(counts)` distinct cydra-like loops
/// from `generate_loop`, seeded by `stream`, restricted to the bands whose
/// pattern count is non-zero in `counts`.
pub fn synth_units(stream: u64, patterns: usize, counts: &[usize]) -> Vec<Unit> {
    let m = cydra_like();
    let cfg = GeneratorConfig::default();
    let seq = band_sequence(counts);
    let mut pools: Vec<Vec<Loop>> = vec![Vec::new(); counts.len()];
    let mut state = mix(mix(stream));
    let mut gen_seed = |pools: &mut Vec<Vec<Loop>>| {
        state = mix(state);
        let l = generate_loop(&cfg, &m, state >> 16);
        let b = band(&l, &m);
        if b < pools.len() {
            pools[b].push(l);
        }
    };
    for (b, &c) in counts.iter().enumerate() {
        while pools[b].len() < c * patterns {
            gen_seed(&mut pools);
        }
    }
    let mut next = vec![0usize; counts.len()];
    let mut units = Vec::new();
    for _ in 0..patterns {
        for &b in &seq {
            let l = &pools[b][next[b]];
            next[b] += 1;
            units.push(Unit {
                name: l.name().to_string(),
                text: render(l, &m),
                style: DepStyle::Structured,
                ops: l.num_ops(),
                golden_ii: None,
            });
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimod_ddg::textfmt;

    #[test]
    fn render_round_trips_through_the_parser() {
        let m = example_3fu();
        for l in [kernels::fir4(&m), kernels::lfk5_tridiag(&m)] {
            let text = render(&l, &m);
            let parsed = textfmt::parse(&text).expect("rendered text parses");
            assert_eq!(parsed.l.edges(), l.edges());
            assert_eq!(parsed.l.vregs(), l.vregs());
            assert_eq!(render(&parsed.l, &parsed.machine), text);
        }
    }

    #[test]
    fn draws_are_seeded_and_stratified() {
        let a = synth_units(7, 1, &BAND_PATTERN);
        let b = synth_units(7, 1, &BAND_PATTERN);
        let c = synth_units(8, 1, &BAND_PATTERN);
        assert_eq!(a.len(), 30);
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert!(a.iter().zip(&c).any(|(x, y)| x.text != y.text));
        let m = cydra_like();
        let bands = |u: &[Unit]| -> Vec<usize> {
            u.iter()
                .map(|u| band(&textfmt::parse(&u.text).unwrap().l, &m))
                .collect()
        };
        assert_eq!(bands(&a), bands(&c));
    }
}
