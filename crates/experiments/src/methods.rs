//! The methods compared in the paper's tables, behind one dispatch enum so
//! the runner can train and evaluate them uniformly.

use crate::runner::ExperimentConfig;
use ham_baselines::{
    BaselineTrainConfig, Caser, CaserConfig, Gru4Rec, Gru4RecConfig, Hgn, HgnConfig, PopRec, SasRec, SasRecConfig,
};
use ham_core::{train as train_ham, HamConfig, HamVariant, Scorer, TrainConfig};
use ham_data::dataset::ItemId;

/// A method column of Tables 3–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Convolutional baseline.
    Caser,
    /// Self-attention baseline.
    SasRec,
    /// Gating baseline (state of the art in the paper).
    Hgn,
    /// Recurrent baseline (covered in the paper's literature review; HGN was
    /// shown to outperform it, so it is optional in the tables).
    Gru4Rec,
    /// Popularity sanity baseline (not in the paper's tables).
    PopRec,
    /// A HAM variant (the paper's contribution).
    Ham(HamVariant),
}

impl Method {
    /// The method name used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Caser => "Caser",
            Method::SasRec => "SASRec",
            Method::Hgn => "HGN",
            Method::Gru4Rec => "GRU4Rec",
            Method::PopRec => "PopRec",
            Method::Ham(variant) => variant.name(),
        }
    }

    /// The seven methods of Tables 3–8, in column order.
    pub fn paper_methods() -> Vec<Method> {
        vec![
            Method::Caser,
            Method::SasRec,
            Method::Hgn,
            Method::Ham(HamVariant::HamX),
            Method::Ham(HamVariant::HamM),
            Method::Ham(HamVariant::HamSX),
            Method::Ham(HamVariant::HamSM),
        ]
    }

    /// The three baselines plus the headline model, used by the cheaper
    /// experiments (run-time study, improvement summary).
    pub fn headline_methods() -> Vec<Method> {
        vec![Method::Caser, Method::SasRec, Method::Hgn, Method::Ham(HamVariant::HamSM)]
    }

    /// Trains the method on per-user training sequences; every method comes
    /// back behind the one scoring trait.
    ///
    /// `windows` is the `(n_h, n_l, n_p, p)` tuple from the paper's best
    /// parameters for the dataset (baselines use `n_h` as their window length
    /// and `n_p` as their target count, matching how the paper tunes `L`/`T`).
    pub fn fit(
        &self,
        train_sequences: &[Vec<ItemId>],
        num_items: usize,
        windows: (usize, usize, usize, usize),
        config: &ExperimentConfig,
    ) -> Box<dyn Scorer + Send + Sync> {
        let (n_h, n_l, n_p, p) = windows;
        let baseline_cfg = BaselineTrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            weight_decay: config.weight_decay,
        };
        match self {
            Method::PopRec => Box::new(PopRec::fit(train_sequences, num_items)),
            Method::Caser => {
                let cfg =
                    CaserConfig { d: config.d, seq_len: n_h, targets: n_p, vertical_filters: 2, horizontal_filters: 4 };
                Box::new(Caser::fit(train_sequences, num_items, &cfg, &baseline_cfg, config.seed))
            }
            Method::SasRec => {
                let cfg = SasRecConfig { d: config.d, seq_len: n_h.max(2), targets: n_p };
                Box::new(SasRec::fit(train_sequences, num_items, &cfg, &baseline_cfg, config.seed))
            }
            Method::Hgn => {
                let cfg = HgnConfig { d: config.d, seq_len: n_h, targets: n_p };
                Box::new(Hgn::fit(train_sequences, num_items, &cfg, &baseline_cfg, config.seed))
            }
            Method::Gru4Rec => {
                let cfg = Gru4RecConfig { d: config.d, seq_len: n_h, targets: n_p };
                Box::new(Gru4Rec::fit(train_sequences, num_items, &cfg, &baseline_cfg, config.seed))
            }
            Method::Ham(variant) => {
                let mut ham_cfg = HamConfig::for_variant(*variant);
                let order = if ham_cfg.uses_synergies() { p.max(2).min(n_h) } else { 1 };
                ham_cfg = ham_cfg.with_dimensions(config.d, n_h, n_l.min(n_h), n_p, order);
                if matches!(variant, HamVariant::HamSMNoLowOrder) {
                    ham_cfg.n_l = 0;
                }
                let train_cfg = TrainConfig {
                    epochs: config.epochs,
                    batch_size: config.batch_size,
                    learning_rate: config.learning_rate,
                    weight_decay: config.weight_decay,
                    ..TrainConfig::default()
                };
                Box::new(train_ham(train_sequences, num_items, &ham_cfg, &train_cfg, config.seed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_data::synthetic::DatasetProfile;

    #[test]
    fn paper_method_list_matches_table_columns() {
        let names: Vec<&str> = Method::paper_methods().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["Caser", "SASRec", "HGN", "HAMx", "HAMm", "HAMs_x", "HAMs_m"]);
        assert_eq!(Method::headline_methods().len(), 4);
    }

    #[test]
    fn every_method_trains_and_scores_on_a_tiny_dataset() {
        let data = DatasetProfile::tiny("methods-test").generate(3);
        let cfg = ExperimentConfig { epochs: 1, d: 8, batch_size: 64, ..ExperimentConfig::default() };
        for method in [Method::PopRec, Method::Hgn, Method::Ham(HamVariant::HamSM)] {
            let trained = method.fit(&data.sequences, data.num_items, (4, 2, 2, 2), &cfg);
            let scores = trained.score_all(0, &data.sequences[0]);
            assert_eq!(scores.len(), data.num_items, "{} returned the wrong score count", method.name());
            assert!(scores.iter().all(|s| s.is_finite()), "{} produced non-finite scores", method.name());
        }
    }

    #[test]
    fn deep_baselines_train_and_score_on_a_tiny_dataset() {
        let data = DatasetProfile::tiny("methods-deep").generate(5);
        let cfg = ExperimentConfig { epochs: 1, d: 8, batch_size: 64, ..ExperimentConfig::default() };
        for method in [Method::Caser, Method::SasRec, Method::Gru4Rec] {
            let trained = method.fit(&data.sequences, data.num_items, (4, 2, 2, 2), &cfg);
            let scores = trained.score_all(1, &data.sequences[1]);
            assert_eq!(scores.len(), data.num_items, "{}", method.name());
        }
        assert_eq!(Method::Gru4Rec.name(), "GRU4Rec");
    }
}
