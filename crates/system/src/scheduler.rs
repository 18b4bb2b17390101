//! Noise-aware task scheduling over time (paper §VII-A, operationalized).
//!
//! The paper proposes "a task mapping policy with the objective of
//! minimizing the worst-case noise", so that the voltage margin can be
//! squeezed proactively. This module characterizes the noise of core
//! occupancies, wraps the result in placement policies, and replays job
//! traces through a small discrete-event scheduler to compare the
//! time-weighted margin requirement of a naive scheduler against the
//! noise-aware one.
//!
//! Occupancies are represented by [`Occupancy`], a site-indexed bitset
//! sized to the scenario (the historical `u8` mask silently capped the
//! scheduler at eight cores — a latent overflow this type retires).
//! Policies consult a [`NoiseModel`]: either a fully enumerated
//! [`NoiseTable`] (chip scale, 2^6 entries, characterized through the
//! engine so the solves are cached, deduplicated and crash-resumable)
//! or a lazy [`EngineNoiseModel`] that solves occupancies on demand
//! (rack scale, where enumerating 2^sites is infeasible).

use crate::engine::{Engine, JobBatch, SimJob};
use crate::noise::{CoreLoad, NoiseRunConfig};
use crate::rack::RackScenario;
use crate::site::SiteVec;
use crate::testbed::Testbed;
use crate::workload::{Placement, WorkloadKind};
use serde::{Deserialize, Error as SerdeError, MapKey, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;

/// A set of occupied sites, sized to a concrete scenario. The
/// site-count-aware replacement for the old `u8` occupancy mask, which
/// silently dropped any site past bit 7.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Occupancy {
    /// Bit `i % 64` of word `i / 64` is site `i`.
    bits: Vec<u64>,
    sites: usize,
}

impl Occupancy {
    /// The empty occupancy of a `sites`-site scenario.
    pub fn empty(sites: usize) -> Occupancy {
        Occupancy {
            bits: vec![0; sites.div_ceil(64).max(1)],
            sites,
        }
    }

    /// Builds an occupancy from a flat bitmask (bit `i` = site `i`).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::DimensionMismatch`] when the mask sets a bit
    /// at or beyond `sites` — the failure mode the old `u8` mask hid by
    /// silent truncation.
    pub(crate) fn from_mask(mask: u64, sites: usize) -> Result<Occupancy, PdnError> {
        let width = 64 - mask.leading_zeros() as usize;
        if width > sites {
            return Err(PdnError::DimensionMismatch {
                expected: sites,
                actual: width,
            });
        }
        let mut occ = Occupancy::empty(sites);
        occ.bits[0] = mask;
        Ok(occ)
    }

    /// Number of sites this occupancy is sized for.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Whether `site` is occupied.
    ///
    /// # Panics
    ///
    /// Panics when `site >= sites()`.
    pub(crate) fn is_set(&self, site: usize) -> bool {
        assert!(site < self.sites, "site {site} >= {} sites", self.sites);
        self.bits[site / 64] & (1u64 << (site % 64)) != 0
    }

    /// Marks `site` occupied.
    ///
    /// # Panics
    ///
    /// Panics when `site >= sites()`.
    pub fn set(&mut self, site: usize) {
        assert!(site < self.sites, "site {site} >= {} sites", self.sites);
        self.bits[site / 64] |= 1u64 << (site % 64);
    }

    /// Marks `site` free.
    ///
    /// # Panics
    ///
    /// Panics when `site >= sites()`.
    pub fn clear(&mut self, site: usize) {
        assert!(site < self.sites, "site {site} >= {} sites", self.sites);
        self.bits[site / 64] &= !(1u64 << (site % 64));
    }

    /// A copy with `site` additionally occupied.
    ///
    /// # Panics
    ///
    /// Panics when `site >= sites()`.
    pub fn with(&self, site: usize) -> Occupancy {
        let mut next = self.clone();
        next.set(site);
        next
    }

    /// Number of occupied sites.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the free sites in ascending order.
    pub(crate) fn free_sites(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.sites).filter(move |&i| !self.is_set(i))
    }
}

impl MapKey for Occupancy {
    fn to_key(&self) -> String {
        let mut key = format!("{}:", self.sites);
        for w in self.bits.iter().rev() {
            key.push_str(&format!("{w:016x}"));
        }
        key
    }

    fn from_key(s: &str) -> Result<Self, SerdeError> {
        let (sites_s, hex) = s
            .split_once(':')
            .ok_or_else(|| SerdeError::msg("occupancy key missing ':'"))?;
        let sites: usize = sites_s
            .parse()
            .map_err(|_| SerdeError::msg("invalid occupancy site count"))?;
        let words = sites.div_ceil(64).max(1);
        if hex.len() != words * 16 {
            return Err(SerdeError::msg("occupancy key has wrong bit width"));
        }
        let mut bits = Vec::with_capacity(words);
        for k in 0..words {
            let chunk = &hex[(words - 1 - k) * 16..(words - k) * 16];
            bits.push(
                u64::from_str_radix(chunk, 16)
                    .map_err(|_| SerdeError::msg("invalid occupancy hex"))?,
            );
        }
        let occ = Occupancy { bits, sites };
        if (0..occ.bits.len() * 64).any(|i| i >= sites && occ.bits[i / 64] & (1 << (i % 64)) != 0) {
            return Err(SerdeError::msg("occupancy key sets a bit beyond its sites"));
        }
        Ok(occ)
    }
}

/// The workload placement of an occupancy: occupied sites run the
/// maximum-dI/dt stressmark, free sites idle.
pub(crate) fn placement_of_occupancy(occ: &Occupancy) -> Placement {
    Placement::from_fn(occ.sites(), |i| {
        if occ.is_set(i) {
            WorkloadKind::MaxDidt
        } else {
            WorkloadKind::Idle
        }
    })
}

/// Anything that can report the worst-case noise of an occupancy: a
/// fully enumerated [`NoiseTable`] or a lazy, engine-backed
/// [`EngineNoiseModel`]. Takes `&mut self` so lazy models can memoize.
pub trait NoiseModel {
    /// Number of sites the model covers.
    fn sites(&self) -> usize;

    /// Worst-case noise (%p2p over all sites) of several occupancies at
    /// once, in input order. Lookups only ever come in batches: the
    /// noise-aware policy scans every free site of an arrival, and
    /// [`replay`] evaluates all of its constant-occupancy segments after
    /// the event loop, so an engine-backed model solves each batch's
    /// uncached occupancies `VOLTNOISE_THREADS`-wide.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when an occupancy cannot be evaluated (an
    /// uncharacterized table entry, or a failed on-demand solve).
    fn noise_pct_of_batch(&mut self, occs: &[Occupancy]) -> Result<Vec<f64>, PdnError>;
}

/// Measured worst-case noise for every subset of simultaneously active
/// sites (2^6 = 64 entries at chip scale), in %p2p.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseTable {
    sites: usize,
    entries: HashMap<Occupancy, f64>,
}

impl NoiseTable {
    /// Characterizes all 64 chip occupancies on the testbed through
    /// `engine`: the solves batch in parallel, dedupe against anything
    /// already cached, and — when a persistent store is attached —
    /// survive a crash mid-characterization.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] if a PDN solve fails.
    pub fn characterize(
        engine: &Engine,
        tb: &Testbed,
        stim_freq_hz: f64,
        run_cfg: &NoiseRunConfig,
    ) -> Result<Self, PdnError> {
        let batch = SimJob::batch(tb.chip());
        let mut occs = Vec::with_capacity(1 << NUM_CORES);
        for mask in 0u64..(1 << NUM_CORES) {
            occs.push(Occupancy::from_mask(mask, NUM_CORES)?);
        }
        let jobs: Vec<SimJob> = occs
            .iter()
            .map(|occ| {
                batch.job(
                    tb.loads_of_mapping(
                        &placement_of_occupancy(occ),
                        stim_freq_hz,
                        Some(SyncSpec::paper_default()),
                    ),
                    run_cfg.clone(),
                )
            })
            .collect();
        let outcomes = engine.run_jobs(&jobs)?;
        let mut entries = HashMap::with_capacity(occs.len());
        for (occ, out) in occs.into_iter().zip(&outcomes) {
            entries.insert(occ, out.max_pct_p2p());
        }
        Ok(NoiseTable {
            sites: NUM_CORES,
            entries,
        })
    }

    /// Number of sites the table covers.
    pub fn sites(&self) -> usize {
        self.sites
    }
}

impl NoiseModel for NoiseTable {
    fn sites(&self) -> usize {
        self.sites
    }

    fn noise_pct_of_batch(&mut self, occs: &[Occupancy]) -> Result<Vec<f64>, PdnError> {
        occs.iter()
            .map(|occ| {
                self.entries
                    .get(occ)
                    .copied()
                    .ok_or_else(|| PdnError::DimensionMismatch {
                        expected: self.sites,
                        actual: occ.sites(),
                    })
            })
            .collect()
    }
}

/// A lazy noise model that solves occupancies on demand through an
/// [`Engine`] and memoizes the answers. The rack-scale replacement for
/// the exhaustive [`NoiseTable`]: a trace replay only ever visits a tiny
/// fraction of the `2^sites` occupancies, and every visit is a
/// content-keyed [`SimJob`] — cached across policies, and persisted
/// when a store is attached.
pub struct EngineNoiseModel<'a> {
    engine: &'a Engine,
    batch: JobBatch,
    sites: usize,
    active: CoreLoad,
    run_cfg: NoiseRunConfig,
    memo: HashMap<Occupancy, f64>,
}

impl<'a> EngineNoiseModel<'a> {
    /// A model over a rack scenario: occupied sites run `active`, free
    /// sites idle.
    pub fn rack(
        engine: &'a Engine,
        rack: Arc<RackScenario>,
        active: CoreLoad,
        run_cfg: NoiseRunConfig,
    ) -> EngineNoiseModel<'a> {
        let sites = rack.num_sites();
        EngineNoiseModel {
            engine,
            batch: SimJob::rack_batch(rack),
            sites,
            active,
            run_cfg,
            memo: HashMap::new(),
        }
    }

    /// A model over a single chip (the 1×1×[`NUM_CORES`] case).
    pub fn chip(
        engine: &'a Engine,
        chip: &crate::chip::Chip,
        active: CoreLoad,
        run_cfg: NoiseRunConfig,
    ) -> EngineNoiseModel<'a> {
        EngineNoiseModel {
            engine,
            batch: SimJob::batch(chip),
            sites: NUM_CORES,
            active,
            run_cfg,
            memo: HashMap::new(),
        }
    }

    /// Distinct occupancies evaluated so far.
    pub fn evaluated(&self) -> usize {
        self.memo.len()
    }
}

impl EngineNoiseModel<'_> {
    fn job_of(&self, occ: &Occupancy) -> SimJob {
        let loads = SiteVec::from_fn(self.sites, |i| {
            if occ.is_set(i) {
                self.active.clone()
            } else {
                CoreLoad::Idle
            }
        });
        self.batch.job(loads, self.run_cfg.clone())
    }
}

impl NoiseModel for EngineNoiseModel<'_> {
    fn sites(&self) -> usize {
        self.sites
    }

    fn noise_pct_of_batch(&mut self, occs: &[Occupancy]) -> Result<Vec<f64>, PdnError> {
        let fresh: Vec<&Occupancy> = {
            let mut seen = std::collections::HashSet::new();
            occs.iter()
                .filter(|occ| !self.memo.contains_key(*occ) && seen.insert(*occ))
                .collect()
        };
        if !fresh.is_empty() {
            let jobs: Vec<SimJob> = fresh.iter().map(|occ| self.job_of(occ)).collect();
            let outcomes = self.engine.run_jobs(&jobs)?;
            for (occ, out) in fresh.into_iter().zip(&outcomes) {
                self.memo.insert(occ.clone(), out.max_pct_p2p());
            }
        }
        Ok(occs.iter().map(|occ| self.memo[occ]).collect())
    }
}

/// A placement policy: choose a free site for an arriving job, given
/// the current occupancy and a noise model to consult.
pub trait PlacementPolicy {
    /// Chooses one of the free sites. Returns `Ok(None)` when the
    /// scenario is full.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when the noise model fails to evaluate a
    /// candidate occupancy.
    fn place(
        &self,
        occupied: &Occupancy,
        model: &mut dyn NoiseModel,
    ) -> Result<Option<usize>, PdnError>;

    /// Display name.
    fn name(&self) -> &'static str;
}

/// The noise-oblivious policy: lowest-numbered free site.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaivePolicy;

impl PlacementPolicy for NaivePolicy {
    fn place(
        &self,
        occupied: &Occupancy,
        _model: &mut dyn NoiseModel,
    ) -> Result<Option<usize>, PdnError> {
        Ok(occupied.free_sites().next())
    }
    fn name(&self) -> &'static str {
        "naive"
    }
}

/// The noise-aware policy: the free site whose addition minimizes the
/// modeled worst-case noise of the resulting occupancy.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseAwarePolicy;

impl NoiseAwarePolicy {
    /// Creates the policy (it consults whatever model the replay holds).
    pub fn new() -> NoiseAwarePolicy {
        NoiseAwarePolicy
    }
}

impl PlacementPolicy for NoiseAwarePolicy {
    fn place(
        &self,
        occupied: &Occupancy,
        model: &mut dyn NoiseModel,
    ) -> Result<Option<usize>, PdnError> {
        let sites: Vec<usize> = occupied.free_sites().collect();
        let candidates: Vec<Occupancy> = sites.iter().map(|&s| occupied.with(s)).collect();
        let noises = model.noise_pct_of_batch(&candidates)?;
        let mut best: Option<(usize, f64)> = None;
        for (&site, &n) in sites.iter().zip(&noises) {
            let better = match best {
                // First minimum wins on ties, matching the historical
                // `min_by(total_cmp)` over ascending site order.
                Some((_, bn)) => n.total_cmp(&bn) == std::cmp::Ordering::Less,
                None => true,
            };
            if better {
                best = Some((site, n));
            }
        }
        Ok(best.map(|(site, _)| site))
    }
    fn name(&self) -> &'static str {
        "noise-aware"
    }
}

/// One job of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Arrival time in abstract ticks.
    pub arrival: u64,
    /// Duration in ticks.
    pub duration: u64,
}

/// Generates a deterministic job trace with roughly `mean_parallelism`
/// jobs in flight.
pub fn synthetic_trace(jobs: usize, mean_parallelism: f64) -> Vec<Job> {
    let duration = 100u64;
    let inter_arrival = (duration as f64 / mean_parallelism.max(0.1)).max(1.0) as u64;
    (0..jobs)
        .map(|k| {
            // Deterministic jitter so occupancy actually fluctuates.
            let wobble = ((k * 7919) % 23) as u64;
            Job {
                arrival: k as u64 * inter_arrival + wobble,
                duration: duration + ((k * 104729) % 41) as u64,
            }
        })
        .collect()
}

/// Outcome of replaying one trace under one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// Policy name.
    pub policy: String,
    /// Time-weighted mean of the required noise margin (%p2p).
    pub mean_required_pct: f64,
    /// Peak required margin over the run.
    pub peak_required_pct: f64,
    /// Jobs that found no free site on arrival (queued until one freed).
    pub queued_jobs: usize,
}

/// Replays a job trace through a policy, charging at every instant the
/// modeled worst-case noise of the current occupancy.
///
/// No placement decision depends on the noise charged for a segment,
/// so the event loop only records each constant-occupancy segment; one
/// batch lookup then evaluates them all, and the charges fold in
/// segment order (the sums are those of evaluating each segment as it
/// closes, bit for bit).
///
/// # Errors
///
/// Returns [`PdnError`] when the noise model fails to evaluate an
/// occupancy the replay visits.
pub fn replay(
    model: &mut dyn NoiseModel,
    policy: &dyn PlacementPolicy,
    jobs: &[Job],
) -> Result<ScheduleOutcome, PdnError> {
    #[derive(Clone, Copy)]
    struct Running {
        site: usize,
        ends: u64,
    }
    // Constant-occupancy segments and their lengths, in time order.
    let mut segments: Vec<Occupancy> = Vec::new();
    let mut lengths: Vec<u64> = Vec::new();
    let mut advance = |occ: &Occupancy, from: u64, to: u64| {
        if to > from {
            segments.push(occ.clone());
            lengths.push(to - from);
        }
    };

    let mut jobs: Vec<Job> = jobs.to_vec();
    jobs.sort_by_key(|j| j.arrival);
    let mut running: Vec<Running> = Vec::new();
    let mut queue: Vec<u64> = Vec::new(); // remaining durations of queued jobs
    let mut occ = Occupancy::empty(model.sites());
    let mut t: u64 = 0;
    let mut queued_jobs = 0usize;
    let mut idx = 0usize;

    let horizon = jobs.last().map(|j| j.arrival).unwrap_or(0) + 10_000;
    while idx < jobs.len() || !running.is_empty() || !queue.is_empty() {
        // Next event: arrival or completion.
        let next_arrival = jobs.get(idx).map(|j| j.arrival).unwrap_or(u64::MAX);
        let next_done = running.iter().map(|r| r.ends).min().unwrap_or(u64::MAX);
        let next = next_arrival.min(next_done);
        if next == u64::MAX || next > horizon {
            break;
        }
        advance(&occ, t, next);
        t = next;

        // Completions first (frees sites for same-tick arrivals).
        running.retain(|r| {
            if r.ends <= t {
                occ.clear(r.site);
                false
            } else {
                true
            }
        });
        // Drain the queue into freed sites.
        while let Some(&dur) = queue.first() {
            match policy.place(&occ, model)? {
                Some(site) => {
                    queue.remove(0);
                    occ.set(site);
                    running.push(Running {
                        site,
                        ends: t + dur,
                    });
                }
                None => break,
            }
        }
        // Arrivals at time t.
        while idx < jobs.len() && jobs[idx].arrival <= t {
            let job = jobs[idx];
            idx += 1;
            match policy.place(&occ, model)? {
                Some(site) => {
                    occ.set(site);
                    running.push(Running {
                        site,
                        ends: t + job.duration,
                    });
                }
                None => {
                    queued_jobs += 1;
                    queue.push(job.duration);
                }
            }
        }
    }
    advance(&occ, t, t + 1);

    let noise = model.noise_pct_of_batch(&segments)?;
    let mut weighted = 0.0f64;
    let mut peak = 0.0f64;
    for (&n, &len) in noise.iter().zip(&lengths) {
        weighted += n * len as f64;
        peak = peak.max(n);
    }
    Ok(ScheduleOutcome {
        policy: policy.name().to_string(),
        mean_required_pct: weighted / (t + 1) as f64,
        peak_required_pct: peak,
        queued_jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(mask: u64) -> Occupancy {
        Occupancy::from_mask(mask, NUM_CORES).unwrap()
    }

    /// A synthetic table where same-row packing is penalized, mimicking
    /// the measured chip.
    fn synthetic_table() -> NoiseTable {
        let mut entries = HashMap::new();
        for mask in 0u64..64 {
            let count = mask.count_ones() as f64;
            let even: u32 = (0..3)
                .map(|k| (mask >> (2 * k)) & 1)
                .map(|b| b as u32)
                .sum();
            let odd = mask.count_ones() - even;
            // Base grows with count; same-row concentration adds penalty.
            let imbalance = (even as f64 - odd as f64).abs();
            entries.insert(occ(mask), 5.0 + 8.0 * count + 3.0 * imbalance);
        }
        NoiseTable {
            sites: NUM_CORES,
            entries,
        }
    }

    #[test]
    fn masks_beyond_the_site_count_are_typed_errors() {
        // The old u8 mask silently wrapped `1 << 8`; now it's an error.
        let err = Occupancy::from_mask(1 << 8, NUM_CORES).unwrap_err();
        assert!(matches!(
            err,
            PdnError::DimensionMismatch {
                expected: 6,
                actual: 9
            }
        ));
        assert!(Occupancy::from_mask(0b111111, NUM_CORES).is_ok());
    }

    #[test]
    fn occupancy_scales_past_eight_and_past_sixty_four_sites() {
        // Sites 8+ were unrepresentable in the u8 mask; sites 64+ need
        // the second word. Both must round-trip exactly.
        let mut big = Occupancy::empty(130);
        for site in [0, 8, 9, 63, 64, 127, 129] {
            big.set(site);
        }
        assert_eq!(big.count(), 7);
        assert!(big.is_set(64) && big.is_set(129) && !big.is_set(128));
        big.clear(64);
        assert!(!big.is_set(64));
        assert_eq!(big.free_sites().count(), 130 - 6);
        let key = big.to_key();
        let back = Occupancy::from_key(&key).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn table_serialization_round_trips() {
        let table = synthetic_table();
        let json = serde_json::to_string(&table).unwrap();
        let back: NoiseTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn naive_policy_fills_in_order() {
        let mut table = synthetic_table();
        let p = NaivePolicy;
        assert_eq!(p.place(&occ(0b000000), &mut table).unwrap(), Some(0));
        assert_eq!(p.place(&occ(0b000101), &mut table).unwrap(), Some(1));
        assert_eq!(p.place(&occ(0b111111), &mut table).unwrap(), None);
    }

    #[test]
    fn noise_aware_policy_balances_rows() {
        let mut table = synthetic_table();
        let p = NoiseAwarePolicy;
        // Core 0 (even row) occupied: the aware policy picks an odd-row
        // core next to minimize imbalance.
        let next = p.place(&occ(0b000001), &mut table).unwrap().unwrap();
        assert!(next % 2 == 1, "picked core {next}");
    }

    #[test]
    fn replay_charges_lower_margin_for_aware_policy() {
        let mut table = synthetic_table();
        let trace = synthetic_trace(60, 2.5);
        let naive = replay(&mut table, &NaivePolicy, &trace).unwrap();
        let aware = replay(&mut table, &NoiseAwarePolicy, &trace).unwrap();
        assert!(
            aware.mean_required_pct <= naive.mean_required_pct,
            "aware {} vs naive {}",
            aware.mean_required_pct,
            naive.mean_required_pct
        );
        assert!(aware.peak_required_pct <= naive.peak_required_pct + 1e-9);
    }

    #[test]
    fn full_chip_queues_jobs() {
        let mut table = synthetic_table();
        // 12 simultaneous arrivals on 6 cores: 6 must queue.
        let trace: Vec<Job> = (0..12)
            .map(|_| Job {
                arrival: 0,
                duration: 50,
            })
            .collect();
        let out = replay(&mut table, &NaivePolicy, &trace).unwrap();
        assert_eq!(out.queued_jobs, 6);
    }

    #[test]
    fn measured_table_smoke() {
        let tb = Testbed::fast();
        // Characterize only via the public API with a tiny window; the
        // `extensions` study characterizes at its full window.
        let run_cfg = NoiseRunConfig {
            window_s: Some(20e-6),
            ..NoiseRunConfig::default()
        };
        let mut table = NoiseTable::characterize(&Engine::new(), tb, 2.5e6, &run_cfg).unwrap();
        assert!(table.entries[&occ(0b111111)] > table.entries[&occ(0b000001)]);
        assert!(table.entries[&occ(0)] < 10.0);
        // The aware policy on the real table avoids pairing row-mates
        // early: starting from {0}, it avoids cores 2 and 4.
        let p = NoiseAwarePolicy;
        let next = p.place(&occ(0b000001), &mut table).unwrap().unwrap();
        assert!(next != 2 && next != 4, "picked same-row core {next}");
    }

    #[test]
    fn characterization_memoizes_through_the_engine() {
        let tb = Testbed::fast();
        let engine = Engine::new();
        let run_cfg = NoiseRunConfig {
            window_s: Some(8e-6),
            ..NoiseRunConfig::default()
        };
        let first = NoiseTable::characterize(&engine, tb, 2.5e6, &run_cfg).unwrap();
        let solves_after_first = engine.stats().solves;
        assert_eq!(solves_after_first, 64);
        // Re-characterizing (e.g. another policy rebuilding its table)
        // answers every occupancy from the cache.
        let second = NoiseTable::characterize(&engine, tb, 2.5e6, &run_cfg).unwrap();
        assert_eq!(engine.stats().solves, solves_after_first);
        assert_eq!(first, second);
    }
}
