//! Model and training configuration.

use ham_tensor::Pooling;
use serde::{Deserialize, Serialize};

/// The named HAM variants evaluated in the paper, plus the two ablations of
/// Section 6.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HamVariant {
    /// Max pooling, no synergies.
    HamX,
    /// Mean pooling, no synergies.
    HamM,
    /// Max pooling with item synergies.
    HamSX,
    /// Mean pooling with item synergies (the paper's best model).
    HamSM,
    /// `HAMs_m-o`: the low-order association term is ablated.
    HamSMNoLowOrder,
    /// `HAMs_m-u`: the user general-preference term is ablated.
    HamSMNoUser,
}

impl HamVariant {
    /// The name used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            HamVariant::HamX => "HAMx",
            HamVariant::HamM => "HAMm",
            HamVariant::HamSX => "HAMs_x",
            HamVariant::HamSM => "HAMs_m",
            HamVariant::HamSMNoLowOrder => "HAMs_m-o",
            HamVariant::HamSMNoUser => "HAMs_m-u",
        }
    }

    /// The four main variants compared in Tables 3–8.
    pub fn main_variants() -> [HamVariant; 4] {
        [HamVariant::HamX, HamVariant::HamM, HamVariant::HamSX, HamVariant::HamSM]
    }
}

/// Hyper-parameters of a HAM model (Table 1 / Appendix B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HamConfig {
    /// Embedding dimension `d`.
    pub d: usize,
    /// Number of items in the high-order association window (`n_h`).
    pub n_h: usize,
    /// Number of items in the low-order association window (`n_l`, with
    /// `n_l <= n_h`; `0` ablates the low-order term).
    pub n_l: usize,
    /// Number of target items per training window (`n_p`).
    pub n_p: usize,
    /// Order of the item synergies (`p`); `1` disables synergies.
    pub synergy_order: usize,
    /// Pooling mechanism for the association windows.
    pub pooling: Pooling,
    /// Whether the user general-preference term `u_i·w_j` is used.
    pub use_user_term: bool,
}

impl Default for HamConfig {
    fn default() -> Self {
        // Defaults follow the most common best setting of Table A2.
        Self { d: 64, n_h: 5, n_l: 2, n_p: 3, synergy_order: 2, pooling: Pooling::Mean, use_user_term: true }
    }
}

impl HamConfig {
    /// Builds the configuration for a named variant, keeping the default
    /// window sizes and dimension.
    pub fn for_variant(variant: HamVariant) -> Self {
        let mut cfg = Self::default();
        match variant {
            HamVariant::HamX => {
                cfg.pooling = Pooling::Max;
                cfg.synergy_order = 1;
            }
            HamVariant::HamM => {
                cfg.pooling = Pooling::Mean;
                cfg.synergy_order = 1;
            }
            HamVariant::HamSX => {
                cfg.pooling = Pooling::Max;
                cfg.synergy_order = 2;
            }
            HamVariant::HamSM => {
                cfg.pooling = Pooling::Mean;
                cfg.synergy_order = 2;
            }
            HamVariant::HamSMNoLowOrder => {
                cfg.pooling = Pooling::Mean;
                cfg.synergy_order = 2;
                cfg.n_l = 0;
            }
            HamVariant::HamSMNoUser => {
                cfg.pooling = Pooling::Mean;
                cfg.synergy_order = 2;
                cfg.use_user_term = false;
            }
        }
        cfg
    }

    /// Overrides dimension and window sizes in one call
    /// (`d`, `n_h`, `n_l`, `n_p`, `p`).
    pub fn with_dimensions(mut self, d: usize, n_h: usize, n_l: usize, n_p: usize, p: usize) -> Self {
        self.d = d;
        self.n_h = n_h;
        self.n_l = n_l;
        self.n_p = n_p;
        self.synergy_order = p;
        self
    }

    /// Whether this configuration uses the synergy / latent-cross term.
    pub fn uses_synergies(&self) -> bool {
        self.synergy_order >= 2
    }

    /// Whether this configuration uses the low-order association term.
    pub fn uses_low_order(&self) -> bool {
        self.n_l > 0
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics with a descriptive message when the configuration is invalid
    /// (`d == 0`, `n_h == 0`, `n_l > n_h`, `n_p == 0` or
    /// `synergy_order` outside `1..=n_h`).
    pub fn validate(&self) {
        assert!(self.d > 0, "HamConfig: embedding dimension d must be positive");
        assert!(self.n_h > 0, "HamConfig: n_h must be positive");
        assert!(self.n_l <= self.n_h, "HamConfig: n_l ({}) must not exceed n_h ({})", self.n_l, self.n_h);
        assert!(self.n_p > 0, "HamConfig: n_p must be positive");
        assert!(
            self.synergy_order >= 1 && self.synergy_order <= self.n_h,
            "HamConfig: synergy order p ({}) must be in 1..=n_h ({})",
            self.synergy_order,
            self.n_h
        );
    }
}

/// Training hyper-parameters (Section 4.4 / Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over all sliding windows.
    pub epochs: usize,
    /// Number of training windows per parameter update (one sparse-row Adam
    /// step per batch). `1` reproduces instance-at-a-time training bit for
    /// bit; larger batches run the analytic forward/backward in fixed
    /// blocks whose duplicate candidate and window rows coalesce before the
    /// optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 regularization factor `λ`.
    pub weight_decay: f32,
    /// Upper bound on concurrent gradient tasks per batch: gradient blocks
    /// are grouped into this many contiguous spans and chunked onto the
    /// shared work-stealing pool. `1` (the default) computes every block
    /// inline. Blocks are fixed-size (256 instances) and merge in batch
    /// order, so any thread count is bit-identical — and threading only
    /// takes effect when `batch_size` exceeds the block size (one-block
    /// batches always run inline).
    pub num_threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 10, batch_size: 256, learning_rate: 1e-3, weight_decay: 1e-3, num_threads: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(HamVariant::HamSM.name(), "HAMs_m");
        assert_eq!(HamVariant::HamX.name(), "HAMx");
        assert_eq!(HamVariant::HamSMNoLowOrder.name(), "HAMs_m-o");
        assert_eq!(HamVariant::main_variants().len(), 4);
    }

    #[test]
    fn variant_configs_toggle_the_right_features() {
        let sm = HamConfig::for_variant(HamVariant::HamSM);
        assert!(sm.uses_synergies() && sm.use_user_term && sm.uses_low_order());
        assert_eq!(sm.pooling, Pooling::Mean);

        let x = HamConfig::for_variant(HamVariant::HamX);
        assert!(!x.uses_synergies());
        assert_eq!(x.pooling, Pooling::Max);

        let no_o = HamConfig::for_variant(HamVariant::HamSMNoLowOrder);
        assert!(!no_o.uses_low_order());

        let no_u = HamConfig::for_variant(HamVariant::HamSMNoUser);
        assert!(!no_u.use_user_term);
    }

    #[test]
    fn with_dimensions_overrides_fields() {
        let cfg = HamConfig::default().with_dimensions(32, 7, 1, 5, 3);
        assert_eq!((cfg.d, cfg.n_h, cfg.n_l, cfg.n_p, cfg.synergy_order), (32, 7, 1, 5, 3));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "n_l")]
    fn invalid_low_order_window_panics() {
        HamConfig::default().with_dimensions(8, 2, 5, 1, 1).validate();
    }

    #[test]
    #[should_panic(expected = "synergy order")]
    fn synergy_order_above_window_panics() {
        HamConfig::default().with_dimensions(8, 3, 1, 1, 4).validate();
    }

    #[test]
    fn default_train_config_matches_paper_appendix() {
        let cfg = TrainConfig::default();
        assert_eq!(cfg.learning_rate, 1e-3);
        assert_eq!(cfg.weight_decay, 1e-3);
    }
}
