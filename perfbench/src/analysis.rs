//! The analysis layers: `Ssresf::analyze` untraced, the same pipeline
//! composed from each crate's public functions with a span around every
//! layer, and held-out accuracy.

use crate::report::{rate, span};
use ssresf::{
    campaign_jobs, cluster_cells, evaluate_ser, label_cells, run_injection_jobs_with_golden,
    sample_clusters, scaled_chip_xsect, train_sensitivity, Analysis, CampaignOutcome, Clustering,
    Dut, Instrument, SerEvaluation, Ssresf, SsresfConfig,
};
use ssresf_netlist::{CellId, FeatureExtractor, FlatNetlist, ModuleClass};
use std::collections::BTreeMap;
use std::time::Instant;

/// One prediction per cell, in cell order.
pub type Predictions = Vec<(CellId, bool)>;

/// What the accuracy check keeps of an analysis.
pub struct Verdict {
    /// Predicted sensitivity of every cell.
    pub predictions: Predictions,
    /// Cells the pipeline injected (held-out cells are drawn outside it).
    pub sampled: Vec<CellId>,
    /// Cluster assignment (the labeling rule reads cluster SER).
    pub clustering: Clustering,
    /// Per-cluster and chip SER of the pipeline's campaign.
    pub ser: SerEvaluation,
}

impl From<Analysis> for Verdict {
    fn from(analysis: Analysis) -> Self {
        Verdict {
            sampled: analysis.sample.all_cells(),
            predictions: analysis.predictions,
            clustering: analysis.clustering,
            ser: analysis.ser,
        }
    }
}

/// Runs `Ssresf::analyze` and times it.
///
/// # Errors
///
/// Describes an analysis failure.
pub fn analyze(flat: &FlatNetlist, config: &SsresfConfig) -> Result<(Analysis, f64), String> {
    let started = Instant::now();
    let analysis = Ssresf::new(*config)
        .analyze(flat)
        .map_err(|e| format!("analyze: {e}"))?;
    Ok((analysis, started.elapsed().as_secs_f64()))
}

/// Fails unless `predictions` holds exactly one entry per cell, in order.
pub fn check_every_cell(flat: &FlatNetlist, predictions: &Predictions) -> Result<(), String> {
    if predictions.len() != flat.cells().len() {
        return Err(format!(
            "{} predictions for {} cells",
            predictions.len(),
            flat.cells().len()
        ));
    }
    match predictions
        .iter()
        .enumerate()
        .find(|(i, (cell, _))| cell.index() != *i)
    {
        Some((i, _)) => Err(format!("prediction {i} is not for cell {i}")),
        None => Ok(()),
    }
}

/// Per-layer spans and deterministic counts of one traced analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisTrace {
    /// Wall seconds of the whole traced composition.
    pub total_s: f64,
    /// `cluster_cells`.
    pub cluster_s: f64,
    /// `sample_clusters`.
    pub sample_s: f64,
    /// `Dut::run_golden_with_checkpoints`.
    pub golden_s: f64,
    /// Engine work units of the golden run.
    pub golden_work: u64,
    /// `campaign_jobs` + `run_injection_jobs_with_golden`.
    pub injections_s: f64,
    /// Injection records produced.
    pub injection_records: usize,
    /// Engine work units of the injections (golden excluded).
    pub injection_work: u64,
    /// `evaluate_ser`.
    pub ser_s: f64,
    /// `FeatureExtractor::new` + `extract_cell` over every cell.
    pub features_s: f64,
    /// Cells whose features were extracted.
    pub feature_cells: usize,
    /// `train_sensitivity`.
    pub svm_train_s: f64,
    /// SMO iterations of the final fit.
    pub smo_iterations: u64,
    /// Kernel-cache hits of the final fit.
    pub kernel_cache_hits: u64,
    /// Kernel-cache misses of the final fit.
    pub kernel_cache_misses: u64,
    /// `classify_all_with`.
    pub predict_s: f64,
}

impl AnalysisTrace {
    /// Traced time outside every child span.
    pub fn unattributed_s(&self) -> f64 {
        self.total_s
            - (self.cluster_s
                + self.sample_s
                + self.golden_s
                + self.injections_s
                + self.ser_s
                + self.features_s
                + self.svm_train_s
                + self.predict_s)
    }

    /// Kernel-cache hits over lookups (0 without lookups).
    pub fn kernel_cache_hit_rate(&self) -> f64 {
        let lookups = self.kernel_cache_hits + self.kernel_cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.kernel_cache_hits as f64 / lookups as f64
        }
    }

    /// The deterministic counts, for repeat checks.
    pub fn counts(&self) -> [u64; 5] {
        [
            self.golden_work,
            self.injection_records as u64,
            self.injection_work,
            self.feature_cells as u64,
            self.smo_iterations,
        ]
    }

    /// Injection records per second of the injection span.
    pub fn injections_per_s(&self) -> f64 {
        rate(self.injection_records, self.injections_s)
    }

    /// Cells per second of the feature span.
    pub fn features_cells_per_s(&self) -> f64 {
        rate(self.feature_cells, self.features_s)
    }

    /// Cells per second of the prediction span.
    pub fn predict_cells_per_s(&self) -> f64 {
        rate(self.feature_cells, self.predict_s)
    }
}

/// The `Ssresf::analyze` pipeline composed from public functions, with a
/// span around each layer. Does the same work in the same order —
/// including the module-class counts and chip cross-sections the facade
/// computes — so its predictions must equal `analyze`'s bit for bit and
/// its total minus the untraced time is the tracing overhead.
///
/// # Errors
///
/// Describes the failing layer.
pub fn analyze_traced(
    flat: &FlatNetlist,
    config: &SsresfConfig,
) -> Result<(Predictions, AnalysisTrace), String> {
    let mut t = AnalysisTrace::default();
    let started = Instant::now();
    let dut = Dut::from_conventions(flat).map_err(|e| format!("dut: {e}"))?;

    let clustering = span(&mut t.cluster_s, || cluster_cells(flat, &config.clustering))
        .map_err(|e| format!("cluster_cells: {e}"))?;
    let sample = span(&mut t.sample_s, || {
        sample_clusters(&clustering, &config.sampling)
    })
    .map_err(|e| format!("sample_clusters: {e}"))?;
    let cells = sample.all_cells();

    let campaign_config = &config.campaign;
    let golden = span(&mut t.golden_s, || {
        dut.run_golden_with_checkpoints(
            campaign_config.engine,
            &campaign_config.workload,
            campaign_config.checkpoint_interval,
        )
    })
    .map_err(|e| format!("golden run: {e}"))?;
    t.golden_work = golden.outcome.work;
    let campaign: CampaignOutcome = span(&mut t.injections_s, || {
        let jobs = campaign_jobs(&dut, &cells, campaign_config)?;
        run_injection_jobs_with_golden(&dut, jobs, campaign_config, &golden, &Instrument::default())
    })
    .map_err(|e| format!("injections: {e}"))?;
    t.injection_records = campaign.records.len();
    t.injection_work = campaign.total_work;

    let ser = span(&mut t.ser_s, || {
        evaluate_ser(flat, &clustering, &sample, &campaign)
    })
    .map_err(|e| format!("evaluate_ser: {e}"))?;

    let features = span(&mut t.features_s, || {
        let extractor = FeatureExtractor::new(flat)?;
        let ids: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        Ok::<_, ssresf_netlist::NetlistError>(ssresf_mlcore::parallel_map(
            &ids,
            config.sensitivity.threads,
            |_, &id| extractor.extract_cell(id, Some(&campaign.golden_activity)),
        ))
    })
    .map_err(|e| format!("features: {e}"))?;
    t.feature_cells = features.len();
    let labels = label_cells(&cells, &campaign, &clustering, &ser, config.labeling);

    let (classifier, report) = span(&mut t.svm_train_s, || {
        train_sensitivity(&features, &labels, &config.sensitivity)
    })
    .map_err(|e| format!("train_sensitivity: {e}"))?;
    t.smo_iterations = report.solver.iterations;
    t.kernel_cache_hits = report.solver.kernel_cache_hits;
    t.kernel_cache_misses = report.solver.kernel_cache_misses;

    let predictions = span(&mut t.predict_s, || {
        classifier.classify_all_with(&features, config.sensitivity.threads)
    });

    let mut class_counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for &(cell, high) in &predictions {
        let path = flat.paths().resolve(flat.cell(cell).path);
        let entry = class_counts
            .entry(ModuleClass::infer(path.segments()).name().to_owned())
            .or_default();
        entry.1 += 1;
        entry.0 += usize::from(high);
    }
    let xsect = scaled_chip_xsect(
        flat,
        config.campaign.environment.let_value,
        config.memory_scale,
    );
    std::hint::black_box((&class_counts, xsect));
    t.total_s = started.elapsed().as_secs_f64();
    Ok((predictions, t))
}

/// Agreement of `verdict`'s predictions with simulated labels of the
/// held-out cells, labeled from `heldout` (a campaign over exactly those
/// cells with the pipeline's campaign config) by the pipeline's rule.
///
/// # Errors
///
/// Fails when the held-out set is empty or a held-out cell was sampled.
pub fn heldout_accuracy(
    verdict: &Verdict,
    heldout_cells: &[CellId],
    heldout: &CampaignOutcome,
    config: &SsresfConfig,
) -> Result<f64, String> {
    if heldout_cells.is_empty() {
        return Err("empty held-out set".into());
    }
    if let Some(cell) = heldout_cells.iter().find(|c| verdict.sampled.contains(c)) {
        return Err(format!("held-out cell {} was in the sample", cell.0));
    }
    let labels = label_cells(
        heldout_cells,
        heldout,
        &verdict.clustering,
        &verdict.ser,
        config.labeling,
    );
    let agree = labels
        .iter()
        .filter(|&&(cell, sensitive)| verdict.predictions[cell.index()].1 == sensitive)
        .count();
    Ok(agree as f64 / labels.len() as f64)
}
