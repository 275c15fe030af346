//! Answer checks. Each compares an answer against a computation made
//! apart from the code that produced it, or against a property the
//! method must have; none compares against saved output.

use adapt::dd::{insert_dd, mask_to_wires};
use adapt::decoy::{make_decoy, Decoy};
use adapt::search::SearchContext;
use adapt::{Adapt, AdaptConfig, DdConfig, DdMask, DecoyKind};
use adapt_service::{MaskCacheStats, MaskKey, Provenance, Recommendation, SearchBudget};
use device::Device;
use machine::{structural_hash, ExecutionConfig, Machine, NoiseToggles};
use qcirc::{Circuit, Counts};
use std::collections::BTreeMap;
use transpiler::{transpile, TranspileOptions, TranspiledCircuit};

/// Shots of every noise-free reproduction check.
pub const NOISE_FREE_SHOTS: u64 = 8192;

/// Largest difference allowed between two exact distributions.
pub const IDEAL_TOLERANCE: f64 = 1e-9;

/// Budget of the program run that scores a recommended mask
/// (`adapt_fidelity`): fixed seed, so the figure is a pure function of
/// the mask.
pub const FIDELITY_EXEC: ExecutionConfig = ExecutionConfig {
    shots: 1024,
    trajectories: 4,
    seed: 0xF1DE,
    threads: 1,
};

/// Bound on the total variation distance between `shots` samples of a
/// distribution with `support` outcomes and the distribution itself.
/// The mean TVD is at most `½·√(support/shots)` (Cauchy–Schwarz over the
/// per-outcome standard deviations), and one shot moves the TVD by at
/// most `1/shots`, so by McDiarmid's inequality exceeding the mean by
/// `3/√shots` has probability below `e^-18`.
pub fn shot_noise_bound(support: usize, shots: u64) -> f64 {
    let s = shots as f64;
    0.5 * (support as f64 / s).sqrt() + 3.0 / s.sqrt()
}

/// A search answer must be a fresh search with a mask of the program's
/// width.
pub fn check_fresh(rec: &Recommendation, width: usize) -> Result<(), String> {
    if rec.provenance != Provenance::FreshSearch {
        return Err(format!("provenance {} is not fresh-search", rec.provenance));
    }
    if rec.mask.num_qubits() != width {
        return Err(format!(
            "mask has width {}, program has {width} qubits",
            rec.mask.num_qubits()
        ));
    }
    Ok(())
}

/// The referee step of §4.3: under one execution config the returned
/// mask scores at least as well on the decoy as no-DD and all-DD, and
/// re-scoring it reproduces the reported fidelity bit for bit.
pub fn check_referee(reported: f64, best: f64, all_dd: f64, no_dd: f64) -> Result<(), String> {
    if best.to_bits() != reported.to_bits() {
        return Err(format!(
            "re-scored mask fidelity {best:?} differs from the reported {reported:?}"
        ));
    }
    if best < all_dd || best < no_dd {
        return Err(format!(
            "mask fidelity {best} loses to all-DD {all_dd} or no-DD {no_dd}"
        ));
    }
    Ok(())
}

/// Two exact distributions agree outcome by outcome within `tol`.
pub fn check_ideal_match(
    a: &BTreeMap<u64, f64>,
    b: &BTreeMap<u64, f64>,
    tol: f64,
) -> Result<(), String> {
    for k in a.keys().chain(b.keys()) {
        let (x, y) = (
            a.get(k).copied().unwrap_or(0.0),
            b.get(k).copied().unwrap_or(0.0),
        );
        if (x - y).abs() > tol {
            return Err(format!("outcome {k}: {x} vs {y} (tolerance {tol})"));
        }
    }
    Ok(())
}

/// Noise-free samples reproduce the exact distribution within the shot
/// noise bound.
pub fn check_noise_free(ideal: &BTreeMap<u64, f64>, counts: &Counts) -> Result<(), String> {
    let support = ideal.values().filter(|&&p| p > 0.0).count();
    let bound = shot_noise_bound(support, counts.total());
    let d = adapt::metrics::tvd(ideal, counts);
    if d > bound {
        return Err(format!(
            "noise-free TVD {d:.4} exceeds the shot-noise bound {bound:.4} \
             ({support} outcomes, {} shots)",
            counts.total()
        ));
    }
    Ok(())
}

/// Two answers for one key are bit-identical (timing aside).
pub fn check_same_answer(got: &Recommendation, want: &Recommendation) -> Result<(), String> {
    let same = got.key == want.key
        && got.mask == want.mask
        && got.decoy_fidelity.to_bits() == want.decoy_fidelity.to_bits()
        && got.decoy_runs == want.decoy_runs
        && got.degraded == want.degraded;
    if same {
        Ok(())
    } else {
        Err(format!(
            "answer differs: mask {:#x} fidelity {:?} runs {} vs mask {:#x} fidelity {:?} runs {}",
            got.mask.bits(),
            got.decoy_fidelity,
            got.decoy_runs,
            want.mask.bits(),
            want.decoy_fidelity,
            want.decoy_runs
        ))
    }
}

/// Every cache lookup resolves as exactly one hit, miss or stale serve.
pub fn check_cache_accounting(s: &MaskCacheStats) -> Result<(), String> {
    if s.hits + s.misses + s.stale_served == s.lookups {
        Ok(())
    } else {
        Err(format!(
            "cache accounting: hits {} + misses {} + stale {} != lookups {}",
            s.hits, s.misses, s.stale_served, s.lookups
        ))
    }
}

/// Everything needed to re-derive one key's search apart from the
/// service: the device at the key's epoch, the compiled program, its
/// decoy and the search configuration the service derives from the key.
pub struct KeyContext {
    /// The logical program.
    pub program: Circuit,
    /// The device at the key's calibration epoch.
    pub device: Device,
    /// The compiled program.
    pub compiled: TranspiledCircuit,
    /// The decoy the search scores masks on.
    pub decoy: Decoy,
    /// The search configuration (seeded from the key's fingerprint).
    pub cfg: AdaptConfig,
}

/// The configuration the service derives for a key: one trajectory
/// thread, execution seed `service_seed ^ fingerprint`.
pub fn search_config(
    service_seed: u64,
    key: &MaskKey,
    decoy: DecoyKind,
    budget: SearchBudget,
) -> AdaptConfig {
    let exec = ExecutionConfig {
        shots: budget.shots,
        trajectories: budget.trajectories,
        threads: 1,
        seed: service_seed ^ key.fingerprint(),
    };
    AdaptConfig {
        dd: DdConfig::for_protocol(key.protocol),
        decoy_kind: decoy,
        neighborhood: budget.neighborhood.max(1),
        search_exec: exec,
        final_exec: exec,
        ..AdaptConfig::default()
    }
}

impl KeyContext {
    /// Compiles `program` for `device` and builds the decoy for `key`.
    pub fn new(
        program: &Circuit,
        device: Device,
        key: &MaskKey,
        service_seed: u64,
        budget: SearchBudget,
    ) -> Result<Self, String> {
        let compiled = transpile(program, &device, &TranspileOptions::default());
        let decoy = make_decoy(&compiled.timed, key.decoy).map_err(|e| e.to_string())?;
        Ok(KeyContext {
            program: program.clone(),
            device,
            compiled,
            decoy,
            cfg: search_config(service_seed, key, key.decoy, budget),
        })
    }

    /// Checks a search answer for this key: fresh search of the right
    /// width, the key's circuit hash, the referee property with the
    /// reported fidelity reproduced, the Clifford decoy's ideal against a
    /// dense state-vector computation, and noise-free reproduction of
    /// the decoy's ideal output under the returned mask.
    pub fn verify_search_answer(&self, rec: &Recommendation) -> Result<(), String> {
        let n = self.program.num_qubits();
        check_fresh(rec, n)?;
        let hash = structural_hash(&self.compiled.timed);
        if hash != rec.key.circuit_hash {
            return Err(format!(
                "key hash {:#x} is not the compiled program's {hash:#x}",
                rec.key.circuit_hash
            ));
        }
        let machine = Machine::new(self.device.clone());
        let ctx = SearchContext::new(
            &machine,
            self.device.clone(),
            &self.decoy,
            &self.compiled.initial_layout,
            self.cfg.dd,
            self.cfg.search_exec,
            n,
        );
        let scores: Vec<f64> = ctx
            .score_batch(&[rec.mask, DdMask::all(n), DdMask::none(n)])
            .into_iter()
            .map(|r| r.map(|s| s.fidelity).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        check_referee(rec.decoy_fidelity, scores[0], scores[1], scores[2])?;
        if self.decoy.is_clifford() {
            let (compact, _) = self.decoy.timed.to_circuit().compacted();
            let dense = statevec::ideal_distribution(&compact).map_err(|e| e.to_string())?;
            check_ideal_match(&self.decoy.ideal, &dense, IDEAL_TOLERANCE)?;
        }
        let quiet = Machine::with_toggles(self.device.clone(), NoiseToggles::none());
        let wires = mask_to_wires(rec.mask, &self.compiled.initial_layout);
        let inserted = insert_dd(&self.decoy.timed, &self.device, &wires, &self.cfg.dd);
        let counts = quiet
            .execute_timed(&inserted.timed, &noise_free_exec())
            .map_err(|e| e.to_string())?;
        check_noise_free(&self.decoy.ideal, &counts)
            .map_err(|e| format!("decoy under the returned mask: {e}"))
    }

    /// Runs the program with `mask` at [`FIDELITY_EXEC`] and returns its
    /// fidelity against the program's noise-free output, after checking
    /// that with noise off the masked program reproduces that output.
    pub fn program_fidelity(&self, mask: DdMask) -> Result<f64, String> {
        let cfg = AdaptConfig {
            final_exec: FIDELITY_EXEC,
            ..self.cfg
        };
        let noisy = Adapt::new(Machine::new(self.device.clone()));
        let ideal = noisy
            .ideal_output(&self.program)
            .map_err(|e| e.to_string())?;
        let (_, fidelity, _) = noisy
            .run_with_mask(&self.compiled, &ideal, mask, &cfg)
            .map_err(|e| e.to_string())?;
        let quiet = Adapt::new(Machine::with_toggles(
            self.device.clone(),
            NoiseToggles::none(),
        ));
        let quiet_cfg = AdaptConfig {
            final_exec: noise_free_exec(),
            ..self.cfg
        };
        let (counts, _, _) = quiet
            .run_with_mask(&self.compiled, &ideal, mask, &quiet_cfg)
            .map_err(|e| e.to_string())?;
        check_noise_free(&ideal, &counts).map_err(|e| format!("program under its mask: {e}"))?;
        Ok(fidelity)
    }
}

/// One trajectory suffices without noise: every trajectory would sample
/// the same distribution.
fn noise_free_exec() -> ExecutionConfig {
    ExecutionConfig {
        shots: NOISE_FREE_SHOTS,
        trajectories: 1,
        seed: 0x0DD5,
        threads: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt::DdProtocol;
    use adapt_service::{DeviceId, MaskService, Request, Response, ServiceConfig};

    fn bell() -> BTreeMap<u64, f64> {
        [(0b00, 0.5), (0b11, 0.5)].into()
    }

    #[test]
    fn noise_free_check_rejects_a_perturbed_distribution() {
        let mut good = Counts::new(2);
        good.record_many(0b00, 4100);
        good.record_many(0b11, 4092);
        assert!(check_noise_free(&bell(), &good).is_ok());
        let mut bad = Counts::new(2);
        bad.record_many(0b00, 3600);
        bad.record_many(0b11, 3600);
        bad.record_many(0b01, 992);
        assert!(check_noise_free(&bell(), &bad).is_err());
    }

    #[test]
    fn ideal_match_rejects_a_perturbed_probability() {
        let a = bell();
        assert!(check_ideal_match(&a, &a.clone(), IDEAL_TOLERANCE).is_ok());
        let mut b = a.clone();
        *b.get_mut(&0b00).unwrap() += 1e-6;
        *b.get_mut(&0b11).unwrap() -= 1e-6;
        assert!(check_ideal_match(&a, &b, IDEAL_TOLERANCE).is_err());
        let mut c = a.clone();
        c.insert(0b01, 1e-6);
        assert!(check_ideal_match(&a, &c, IDEAL_TOLERANCE).is_err());
    }

    #[test]
    fn referee_rejects_a_losing_or_unreproduced_mask() {
        assert!(check_referee(0.9, 0.9, 0.8, 0.85).is_ok());
        assert!(check_referee(0.9, 0.9, 0.95, 0.85).is_err());
        assert!(check_referee(0.9, 0.9, 0.8, 0.91).is_err());
        assert!(check_referee(0.9, 0.9 + 1e-15, 0.8, 0.85).is_err());
    }

    #[test]
    fn cache_accounting_rejects_a_lost_lookup() {
        let ok = MaskCacheStats {
            lookups: 10,
            hits: 7,
            misses: 2,
            stale_served: 1,
            ..MaskCacheStats::default()
        };
        assert!(check_cache_accounting(&ok).is_ok());
        assert!(check_cache_accounting(&MaskCacheStats { hits: 6, ..ok }).is_err());
    }

    #[test]
    fn tvd_bound_shrinks_with_shots() {
        assert!(shot_noise_bound(2, 8192) < shot_noise_bound(2, 1024));
        assert!(shot_noise_bound(64, 8192) > shot_noise_bound(2, 8192));
    }

    /// A real answer from the service passes every check; the same
    /// answer with one mask bit flipped, or with its fidelity nudged by
    /// one ulp, or relabelled, is rejected.
    #[test]
    fn search_answer_checks_reject_corrupted_answers() {
        let seed = 7;
        let devices = [DeviceId::Guadalupe];
        let svc = MaskService::start(ServiceConfig {
            devices: devices.to_vec(),
            workers: 1,
            seed,
            decoy: DecoyKind::Clifford,
            ..ServiceConfig::default()
        });
        let program = benchmarks::qpe(5, 5);
        let budget = SearchBudget {
            shots: 128,
            trajectories: 4,
            ..SearchBudget::default()
        };
        let Response::Mask(rec) = svc
            .call(Request::RecommendMask {
                circuit: program.clone(),
                device: DeviceId::Guadalupe,
                protocol: DdProtocol::Xy4,
                budget,
                deadline_ms: None,
                tenancy: Default::default(),
            })
            .expect("search")
        else {
            panic!("recommendation expected");
        };
        let registry = adapt_service::DeviceRegistry::new(&devices, seed);
        let (_, machine) = registry.snapshot(DeviceId::Guadalupe).unwrap();
        let kc = KeyContext::new(&program, machine.device().clone(), &rec.key, seed, budget)
            .expect("key context");
        kc.verify_search_answer(&rec).expect("real answer passes");
        assert!(kc.program_fidelity(rec.mask).unwrap() > 0.0);

        // Flip a bit whose qubit has idle windows, so the flip changes
        // the circuit the decoy runs.
        let pulses = |mask: DdMask| {
            let wires = mask_to_wires(mask, &kc.compiled.initial_layout);
            insert_dd(&kc.decoy.timed, &kc.device, &wires, &kc.cfg.dd).pulse_count
        };
        let bit = (0..5)
            .find(|&i| pulses(rec.mask.with(i, !rec.mask.is_set(i))) != pulses(rec.mask))
            .expect("some qubit idles long enough for DD");
        let flipped = Recommendation {
            mask: rec.mask.with(bit, !rec.mask.is_set(bit)),
            ..rec
        };
        assert!(kc.verify_search_answer(&flipped).is_err());
        assert!(check_same_answer(&flipped, &rec).is_err());
        let nudged = Recommendation {
            decoy_fidelity: f64::from_bits(rec.decoy_fidelity.to_bits() + 1),
            ..rec
        };
        assert!(kc.verify_search_answer(&nudged).is_err());
        assert!(check_same_answer(&nudged, &rec).is_err());
        let relabelled = Recommendation {
            provenance: Provenance::CacheHit,
            ..rec
        };
        assert!(kc.verify_search_answer(&relabelled).is_err());
        let narrow = Recommendation {
            mask: DdMask::none(4),
            ..rec
        };
        assert!(kc.verify_search_answer(&narrow).is_err());
    }
}
