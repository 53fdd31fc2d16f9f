//! Serializable, human-readable analysis summaries.
//!
//! [`Analysis`] holds every raw artifact (traces, records, the trained
//! model); [`AnalysisSummary`] is the flat, serializable digest a report or
//! dashboard wants — the numbers SSRESF's tables are made of.

use crate::framework::Analysis;
use serde::{Deserialize, Serialize};
use ssresf_json as json;
use std::collections::BTreeMap;
use std::fmt;

/// A flat digest of one [`Analysis`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisSummary {
    /// Cells in the analyzed netlist.
    pub cells: usize,
    /// Clusters produced by Algorithm 1.
    pub clusters: usize,
    /// Cluster sizes.
    pub cluster_sizes: Vec<usize>,
    /// Sampled cells.
    pub sampled: usize,
    /// Total injections.
    pub injections: usize,
    /// Injections that produced a soft error.
    pub soft_errors: usize,
    /// Chip SER (paper Eq. 2).
    pub chip_ser: f64,
    /// SER per module class.
    pub ser_per_class: BTreeMap<String, f64>,
    /// Held-out true-negative rate.
    pub tnr: f64,
    /// Held-out true-positive rate.
    pub tpr: f64,
    /// Held-out precision.
    pub precision: f64,
    /// Held-out accuracy.
    pub accuracy: f64,
    /// Held-out F1 score.
    pub f1: f64,
    /// ROC area under curve.
    pub auc: f64,
    /// `(high, total)` predicted sensitivity counts per module class.
    pub predicted_per_class: BTreeMap<String, (usize, usize)>,
    /// Chip SEU cross-section, cm².
    pub seu_xsect_cm2: f64,
    /// Chip SET cross-section, cm².
    pub set_xsect_cm2: f64,
    /// Simulation wall time, seconds.
    pub simulation_s: f64,
    /// Training wall time, seconds.
    pub training_s: f64,
    /// Prediction wall time, seconds.
    pub prediction_s: f64,
    /// Simulation-over-prediction speed-up.
    pub speedup: f64,
}

impl From<&Analysis> for AnalysisSummary {
    fn from(analysis: &Analysis) -> Self {
        let m = &analysis.sensitivity_report.metrics;
        AnalysisSummary {
            cells: analysis.predictions.len(),
            clusters: analysis.clustering.clusters,
            cluster_sizes: analysis.clustering.sizes(),
            sampled: analysis.sample.len(),
            injections: analysis.campaign.records.len(),
            soft_errors: analysis.campaign.soft_errors(),
            chip_ser: analysis.ser.chip_ser,
            ser_per_class: analysis.ser.per_module_class.clone(),
            tnr: m.tnr(),
            tpr: m.tpr(),
            precision: m.precision(),
            accuracy: m.accuracy(),
            f1: m.f1(),
            auc: analysis.sensitivity_report.roc.auc,
            predicted_per_class: analysis.class_counts.clone(),
            seu_xsect_cm2: analysis.chip_xsect.0,
            set_xsect_cm2: analysis.chip_xsect.1,
            simulation_s: analysis.timing.simulation().as_secs_f64(),
            training_s: analysis.timing.training().as_secs_f64(),
            prediction_s: analysis.timing.prediction().as_secs_f64(),
            speedup: analysis.timing.speedup(),
        }
    }
}

impl AnalysisSummary {
    /// Serializes as pretty JSON.
    pub fn to_json(&self) -> String {
        let ser_per_class = json::Value::Object(
            self.ser_per_class
                .iter()
                .map(|(class, &ser)| (class.clone(), json::Value::from(ser)))
                .collect(),
        );
        let predicted_per_class = json::Value::Object(
            self.predicted_per_class
                .iter()
                .map(|(class, &(high, total))| {
                    (class.clone(), json::Value::from(vec![high, total]))
                })
                .collect(),
        );
        json::object([
            ("cells", json::Value::from(self.cells)),
            ("clusters", json::Value::from(self.clusters)),
            (
                "cluster_sizes",
                json::Value::from(self.cluster_sizes.clone()),
            ),
            ("sampled", json::Value::from(self.sampled)),
            ("injections", json::Value::from(self.injections)),
            ("soft_errors", json::Value::from(self.soft_errors)),
            ("chip_ser", json::Value::from(self.chip_ser)),
            ("ser_per_class", ser_per_class),
            ("tnr", json::Value::from(self.tnr)),
            ("tpr", json::Value::from(self.tpr)),
            ("precision", json::Value::from(self.precision)),
            ("accuracy", json::Value::from(self.accuracy)),
            ("f1", json::Value::from(self.f1)),
            ("auc", json::Value::from(self.auc)),
            ("predicted_per_class", predicted_per_class),
            ("seu_xsect_cm2", json::Value::from(self.seu_xsect_cm2)),
            ("set_xsect_cm2", json::Value::from(self.set_xsect_cm2)),
            ("simulation_s", json::Value::from(self.simulation_s)),
            ("training_s", json::Value::from(self.training_s)),
            ("prediction_s", json::Value::from(self.prediction_s)),
            ("speedup", json::Value::from(self.speedup)),
        ])
        .to_string_pretty()
    }

    /// Parses a summary from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying decode error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let mut ser_per_class = BTreeMap::new();
        for (class, v) in doc.object_field("ser_per_class")? {
            let ser = v
                .as_f64()
                .ok_or_else(|| format!("bad SER for class \"{class}\""))?;
            ser_per_class.insert(class.clone(), ser);
        }
        let mut predicted_per_class = BTreeMap::new();
        for (class, v) in doc.object_field("predicted_per_class")? {
            let Some(&[high, total]) = v.as_ints::<usize>().as_deref() else {
                return Err(format!("bad predicted counts for class \"{class}\""));
            };
            predicted_per_class.insert(class.clone(), (high, total));
        }
        Ok(AnalysisSummary {
            cells: doc.int_field("cells")?,
            clusters: doc.int_field("clusters")?,
            cluster_sizes: doc.ints_field("cluster_sizes")?,
            sampled: doc.int_field("sampled")?,
            injections: doc.int_field("injections")?,
            soft_errors: doc.int_field("soft_errors")?,
            chip_ser: doc.f64_field("chip_ser")?,
            ser_per_class,
            tnr: doc.f64_field("tnr")?,
            tpr: doc.f64_field("tpr")?,
            precision: doc.f64_field("precision")?,
            accuracy: doc.f64_field("accuracy")?,
            f1: doc.f64_field("f1")?,
            auc: doc.f64_field("auc")?,
            predicted_per_class,
            seu_xsect_cm2: doc.f64_field("seu_xsect_cm2")?,
            set_xsect_cm2: doc.f64_field("set_xsect_cm2")?,
            simulation_s: doc.f64_field("simulation_s")?,
            training_s: doc.f64_field("training_s")?,
            prediction_s: doc.f64_field("prediction_s")?,
            speedup: doc.f64_field("speedup")?,
        })
    }
}

impl fmt::Display for AnalysisSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist: {} cells in {} clusters {:?}",
            self.cells, self.clusters, self.cluster_sizes
        )?;
        writeln!(
            f,
            "campaign: {} injections over {} sampled cells, {} soft errors",
            self.injections, self.sampled, self.soft_errors
        )?;
        writeln!(f, "chip SER (Eq. 2): {:.2}%", self.chip_ser * 100.0)?;
        for (class, ser) in &self.ser_per_class {
            writeln!(f, "  {class:<8} SER {:.2}%", ser * 100.0)?;
        }
        writeln!(
            f,
            "svm: TNR {:.1}%  TPR {:.1}%  precision {:.1}%  accuracy {:.1}%  F1 {:.2}  AUC {:.3}",
            self.tnr * 100.0,
            self.tpr * 100.0,
            self.precision * 100.0,
            self.accuracy * 100.0,
            self.f1,
            self.auc
        )?;
        for (class, (high, total)) in &self.predicted_per_class {
            writeln!(f, "  {class:<8} {high}/{total} predicted highly sensitive")?;
        }
        writeln!(
            f,
            "xsect: SEU {:.3e} cm², SET {:.3e} cm²",
            self.seu_xsect_cm2, self.set_xsect_cm2
        )?;
        write!(
            f,
            "timing: sim {:.2}s, train {:.2}s, predict {:.4}s (speed-up {:.0}x)",
            self.simulation_s, self.training_s, self.prediction_s, self.speedup
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ssresf, SsresfConfig, Workload};
    use ssresf_socgen::{build_soc, SocConfig};

    fn summary() -> AnalysisSummary {
        let soc = build_soc(&SocConfig::table1()[0]).unwrap();
        let netlist = soc.design.flatten().unwrap();
        let mut config = SsresfConfig::default();
        config.sampling.fraction = 0.08;
        config.campaign.workload = Workload {
            reset_cycles: 3,
            run_cycles: 50,
        };
        let analysis = Ssresf::new(config).analyze(&netlist).unwrap();
        AnalysisSummary::from(&analysis)
    }

    #[test]
    fn summary_digests_the_analysis() {
        let s = summary();
        assert!(s.cells > 500);
        assert!(s.injections >= s.sampled);
        assert!(s.soft_errors <= s.injections);
        assert!(s.chip_ser >= 0.0 && s.chip_ser <= 1.0);
        assert!(s.speedup > 1.0);
        assert!(s.ser_per_class.contains_key("bus"));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = summary();
        let restored = AnalysisSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(s.cells, restored.cells);
        assert_eq!(s.predicted_per_class, restored.predicted_per_class);
        // Floats may lose the last ULP through the JSON text form.
        for (class, ser) in &s.ser_per_class {
            let back = restored.ser_per_class[class];
            assert!((ser - back).abs() <= ser.abs() * 1e-12);
        }
    }

    #[test]
    fn display_covers_the_headline_numbers() {
        let s = summary();
        let text = s.to_string();
        for needle in ["chip SER", "svm:", "xsect:", "timing:", "speed-up"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(AnalysisSummary::from_json("nope").is_err());
    }
}
