//! Prints the benchmark's seed pool as JSON.
//!
//! ```text
//! seedpool <pair-tolerance> <volume-tolerance> <scan>   e.g. seedpool 0.05 0.03 3000
//! ```
//!
//! A campaign's cost is set mostly by how many candidate AP pairs each
//! radio simulates and how many rate observations they produce, and both
//! swing by more than 1.5× between seeds of one scale (the PHY and
//! placement draws move the large networks around). The benchmark keeps
//! the ensemble size fixed while still varying the inputs: for each scale
//! it runs only seeds in `0..scan` whose b/g and 802.11n pair counts are
//! within `pair-tolerance` of the default seed's, and whose probe-set and
//! rate-observation counts are within `volume-tolerance` of it.
//!
//! Pair discovery does not depend on the probe horizon, so the first filter
//! runs a one-second simulation per seed; only its survivors are simulated
//! in full for the second, and their counts are listed on stderr.

use mesh11_bench::Scale;
use mesh11_phy::{shared_success_table, PerModel, Phy};

const DEFAULT_SEED: u64 = 42;

/// Candidate pairs simulated per radio: `[b/g, 802.11n]`.
fn pairs(scale: Scale, seed: u64) -> [usize; 2] {
    let table = shared_success_table(PerModel::default());
    [Phy::Bg, Phy::Ht].map(|phy| {
        let mut campaign = scale.campaign_spec(seed).generate();
        campaign.networks.retain(|n| n.radios.contains(&phy));
        for n in &mut campaign.networks {
            n.radios = vec![phy];
        }
        let mut cfg = scale.config();
        cfg.probe_horizon_s = 1.0;
        cfg.client_horizon_s = 1.0;
        cfg.run_campaign_counted_with_table(&campaign, table)
            .1
            .pairs_simulated
    })
}

/// Probe sets and rate observations of the full, fault-free simulation.
fn volume(scale: Scale, seed: u64) -> [usize; 2] {
    let table = shared_success_table(PerModel::default());
    let campaign = scale.campaign_spec(seed).generate();
    let (ds, _) = scale
        .config()
        .run_campaign_counted_with_table(&campaign, table);
    [ds.probes.len(), ds.probes.iter().map(|p| p.obs.len()).sum()]
}

fn within(v: &[usize], reference: &[usize], tol: f64) -> bool {
    v.iter()
        .zip(reference)
        .all(|(&a, &b)| (a as f64 / b as f64 - 1.0).abs() <= tol)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(pair_tol), Some(vol_tol), Some(scan)) = (
        args.first().and_then(|a| a.parse::<f64>().ok()),
        args.get(1).and_then(|a| a.parse::<f64>().ok()),
        args.get(2).and_then(|a| a.parse::<u64>().ok()),
    ) else {
        eprintln!("usage: seedpool <pair-tolerance> <volume-tolerance> <scan>");
        std::process::exit(2);
    };
    let mut entries = Vec::new();
    for scale in [Scale::Standard, Scale::Metro { factor: 2 }] {
        let ref_pairs = pairs(scale, DEFAULT_SEED);
        let ref_volume = volume(scale, DEFAULT_SEED);
        let seeds: Vec<String> = (0..scan)
            .filter(|&seed| within(&pairs(scale, seed), &ref_pairs, pair_tol))
            .filter(|&seed| {
                let v = volume(scale, seed);
                eprintln!(
                    "{} seed {seed}: probe sets, observations {v:?}",
                    scale.label()
                );
                within(&v, &ref_volume, vol_tol)
            })
            .map(|s| s.to_string())
            .collect();
        entries.push(format!(
            "  \"{}\": {{\"pairs_bg_ht\": {ref_pairs:?}, \"probe_sets_obs\": {ref_volume:?}, \"seeds\": [{}]}}",
            scale.label(),
            seeds.join(", ")
        ));
    }
    println!(
        "{{\n  \"pair_tolerance\": {pair_tol},\n  \"volume_tolerance\": {vol_tol},\n  \"scan\": {scan},\n{}\n}}",
        entries.join(",\n")
    );
}
