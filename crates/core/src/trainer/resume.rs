//! A resumable handle over the mini-batched training pipeline.
//!
//! [`train`](super::train) builds its
//! [`ParamStore`](ham_autograd::ParamStore) and [`Adam`] state, runs its
//! epochs, writes the embeddings back into a [`HamModel`] and drops
//! everything else. An *online* trainer cannot afford that: the next
//! incremental round must continue from the previous round's optimizer
//! moments (warm start), and the embedding tables must be able to grow when
//! the interaction stream mentions unseen users or items.
//! [`TrainerState`] keeps exactly that state alive between rounds while
//! routing every batch through the same blocked gradient pipeline
//! (`compute_batch_gradients`) the offline trainer uses — analytic gradients
//! for every variant, optionally fanned out on the shared worker pool.
//!
//! Two properties the online loop leans on, both pinned by tests:
//!
//! * **Resume transparency** — exporting ([`TrainerState::snapshot`] +
//!   [`TrainerState::adam_state`]) and rebuilding via
//!   [`TrainerState::from_model`] is bit-invisible: the resumed state trains
//!   on to exactly the parameters the uninterrupted state reaches.
//! * **Growth determinism** — a grown row's initial value depends only on
//!   the seed, the table and the row index, never on *when* the table grew,
//!   so replaying the same append/round schedule reproduces the same model.

use super::{train_epochs, EpochStats, GradientWorkspace, HamParams};
use crate::config::{HamConfig, TrainConfig};
use crate::model::HamModel;
use ham_autograd::{Adam, AdamConfig, AdamState, ParamId};
use ham_data::batch::BatchSampler;
use ham_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table tags mixed into the growth seed so U/V/W rows draw from distinct
/// streams (arbitrary odd constants).
const GROW_TAG_U: u64 = 0xA5A5_1F3D_9E4B_0001;
const GROW_TAG_V: u64 = 0xC3C3_7B21_55ED_0003;
const GROW_TAG_W: u64 = 0xE1E1_4D59_A7F1_0005;

/// Training state that survives across rounds: the parameter store, the Adam
/// moments (with per-row step counts), the configuration and the gradient
/// buffers, which a round grows once and later rounds reuse. See the module
/// docs for the invariants.
pub struct TrainerState {
    params: HamParams,
    adam: Adam,
    config: HamConfig,
    train_config: TrainConfig,
    seed: u64,
    workspace: GradientWorkspace,
}

impl TrainerState {
    /// Fresh state with Xavier-initialised embeddings (identical to the
    /// initial model [`train`](super::train) would build from this seed) and
    /// **per-row Adam bias correction** enabled — the correct scheme when
    /// rows can be first touched at arbitrary global steps, which is the
    /// norm for an incremental stream.
    pub fn new(num_users: usize, num_items: usize, config: &HamConfig, train_config: &TrainConfig, seed: u64) -> Self {
        let adam = AdamConfig {
            learning_rate: train_config.learning_rate,
            weight_decay: train_config.weight_decay,
            per_row_bias_correction: true,
            ..AdamConfig::default()
        };
        Self::with_adam(num_users, num_items, config, train_config, adam, seed)
    }

    /// [`Self::new`] with an explicit optimizer configuration (tests compare
    /// the global and per-row correction schemes through this).
    fn with_adam(
        num_users: usize,
        num_items: usize,
        config: &HamConfig,
        train_config: &TrainConfig,
        adam: AdamConfig,
        seed: u64,
    ) -> Self {
        let model = HamModel::new(num_users, num_items, *config, seed);
        Self::from_model_impl(&model, train_config, Adam::new(adam), seed)
    }

    /// Warm-starts from an existing model and an exported optimizer state —
    /// the checkpoint/restore path. Training the restored state is
    /// bit-identical to training the state that exported it.
    ///
    /// `seed` must be the seed the original state was built with for grown
    /// rows to replay identically.
    pub fn from_model(
        model: &HamModel,
        train_config: &TrainConfig,
        adam: AdamConfig,
        state: AdamState,
        seed: u64,
    ) -> Self {
        Self::from_model_impl(model, train_config, Adam::resume(adam, state), seed)
    }

    fn from_model_impl(model: &HamModel, train_config: &TrainConfig, adam: Adam, seed: u64) -> Self {
        model.config().validate();
        Self {
            params: HamParams::from_model(model),
            adam,
            config: *model.config(),
            train_config: *train_config,
            seed,
            workspace: GradientWorkspace::default(),
        }
    }

    /// Number of user rows currently held.
    pub fn num_users(&self) -> usize {
        self.params.store.value(self.params.u).rows()
    }

    /// Number of item rows currently held.
    pub fn num_items(&self) -> usize {
        self.params.store.value(self.params.v).rows()
    }

    /// The model hyper-parameters.
    pub fn config(&self) -> &HamConfig {
        &self.config
    }

    /// The training hyper-parameters.
    pub fn train_config(&self) -> &TrainConfig {
        &self.train_config
    }

    /// Global Adam steps taken so far (one per trained batch).
    pub fn optimizer_steps(&self) -> u64 {
        self.adam.steps()
    }

    /// Exports the optimizer state for [`Self::from_model`].
    pub fn adam_state(&self) -> AdamState {
        self.adam.export_state()
    }

    /// The optimizer configuration in use.
    pub fn adam_config(&self) -> AdamConfig {
        *self.adam.config()
    }

    /// Grows the embedding tables (and, lazily, the optimizer moments) to
    /// cover `num_users` users and `num_items` items. New rows are
    /// Xavier-initialised from a stream keyed on `(seed, table, row index)`
    /// only — growing `10 → 15` rows in one round or over five rounds yields
    /// bit-identical tables. Shrinking is not supported (extra rows are
    /// simply never requested again).
    pub fn grow_to(&mut self, num_users: usize, num_items: usize) {
        let d = self.config.d;
        let seed = self.seed;
        let mut grow = |id: ParamId, tag: u64, rows: usize| {
            let current = self.params.store.value(id).rows();
            for row in current..rows {
                self.params.store.append_rows(id, &grown_row(seed, tag, row, d));
            }
        };
        grow(self.params.u, GROW_TAG_U, num_users);
        grow(self.params.v, GROW_TAG_V, num_items);
        grow(self.params.w, GROW_TAG_W, num_items);
    }

    /// Runs `epochs` passes of `sampler`'s batches through the chunked
    /// gradient pipeline, one coalesced sparse Adam step per batch —
    /// exactly the per-epoch loop of [`train`](super::train), continuing
    /// from this state's parameters and moments. The gradient buffers are
    /// the state's own, so a round after the first allocates only the
    /// returned history (and whatever a larger batch or a grown table
    /// needs).
    ///
    /// The sampler's instances must only reference user/item rows the state
    /// already covers (call [`Self::grow_to`] first after appends).
    pub fn train_round(&mut self, sampler: &mut BatchSampler, epochs: usize) -> Vec<EpochStats> {
        train_epochs(
            &mut self.params,
            &mut self.adam,
            sampler,
            epochs,
            &self.config,
            &self.train_config,
            false,
            &mut self.workspace,
        )
    }

    /// Freezes the current parameters into a [`HamModel`] snapshot (the
    /// state itself keeps training; the snapshot is what gets published).
    pub fn snapshot(&self) -> HamModel {
        HamModel::from_embeddings(
            self.config,
            self.params.store.value(self.params.u).clone(),
            self.params.store.value(self.params.v).clone(),
            self.params.store.value(self.params.w).clone(),
        )
    }
}

impl std::fmt::Debug for TrainerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainerState")
            .field("num_users", &self.num_users())
            .field("num_items", &self.num_items())
            .field("optimizer_steps", &self.optimizer_steps())
            .finish()
    }
}

/// The deterministic initial value of grown row `row` of a table: depends on
/// the seed, the table tag and the row index only. Fixed fan `(1 + d)`, so
/// the scale is that of a one-row Xavier draw regardless of table size.
fn grown_row(seed: u64, tag: u64, row: usize, d: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ tag ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Matrix::xavier_uniform(1, d, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HamVariant;
    use crate::trainer::train_with_history;
    use ham_data::synthetic::DatasetProfile;

    fn setup() -> (Vec<Vec<usize>>, usize) {
        let data = DatasetProfile::tiny("resume-test").generate(5);
        (data.sequences.clone(), data.num_items)
    }

    fn bit_identical(a: &HamModel, b: &HamModel) -> bool {
        [
            (a.user_embeddings(), b.user_embeddings()),
            (a.input_item_embeddings(), b.input_item_embeddings()),
            (a.candidate_item_embeddings(), b.candidate_item_embeddings()),
        ]
        .iter()
        .all(|(x, y)| x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits()))
    }

    /// With the optimizer pinned to the offline scheme, one round through
    /// `TrainerState` IS the offline pipeline: bit-identical to `train`.
    #[test]
    fn pinned_state_reproduces_the_offline_trainer_bit_for_bit() {
        let (seqs, num_items) = setup();
        for (variant, order) in [(HamVariant::HamM, 1), (HamVariant::HamSM, 2)] {
            let config = HamConfig::for_variant(variant).with_dimensions(8, 4, 2, 2, order);
            let tc = TrainConfig { epochs: 2, batch_size: 32, ..TrainConfig::default() };
            let (offline, _) = train_with_history(&seqs, num_items, &config, &tc, 13);

            let adam =
                AdamConfig { learning_rate: tc.learning_rate, weight_decay: tc.weight_decay, ..AdamConfig::default() };
            let mut state = TrainerState::with_adam(seqs.len(), num_items, &config, &tc, adam, 13);
            // the same sampler-seed mixing `train_impl` applies
            let mut sampler = BatchSampler::new(
                &seqs,
                num_items,
                config.n_h,
                config.n_p,
                config.n_l,
                tc.batch_size,
                13 ^ 0x7A21_55ED,
            );
            state.train_round(&mut sampler, tc.epochs);
            assert!(
                bit_identical(&offline, &state.snapshot()),
                "{variant:?}: TrainerState must reuse the offline pipeline exactly"
            );
        }
    }

    /// Checkpoint/restore is invisible: exporting after round 1 and resuming
    /// via `from_model` reaches the same parameters as never pausing.
    #[test]
    fn resumed_state_matches_uninterrupted_training_bit_for_bit() {
        let (seqs, num_items) = setup();
        let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 2, 2, 1);
        let tc = TrainConfig { epochs: 1, batch_size: 16, ..TrainConfig::default() };

        let run_round = |state: &mut TrainerState, round: u64| {
            let mut sampler =
                BatchSampler::new(&seqs, num_items, config.n_h, config.n_p, config.n_l, tc.batch_size, 90 + round);
            state.train_round(&mut sampler, 1);
        };

        let mut continuous = TrainerState::new(seqs.len(), num_items, &config, &tc, 21);
        run_round(&mut continuous, 0);
        let checkpoint_model = continuous.snapshot();
        let checkpoint_adam = continuous.adam_state();
        run_round(&mut continuous, 1);

        let mut restored =
            TrainerState::from_model(&checkpoint_model, &tc, continuous.adam_config(), checkpoint_adam, 21);
        run_round(&mut restored, 1);

        assert_eq!(continuous.optimizer_steps(), restored.optimizer_steps());
        assert!(bit_identical(&continuous.snapshot(), &restored.snapshot()));
    }

    /// Growth determinism: the same final size is reached bit-identically
    /// whether the tables grow in one jump or in several rounds.
    #[test]
    fn grown_rows_depend_only_on_seed_table_and_row() {
        let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 2, 2, 1);
        let tc = TrainConfig::default();
        let mut one_jump = TrainerState::new(4, 10, &config, &tc, 77);
        one_jump.grow_to(9, 25);
        let mut stepwise = TrainerState::new(4, 10, &config, &tc, 77);
        stepwise.grow_to(5, 12);
        stepwise.grow_to(9, 20);
        stepwise.grow_to(9, 25);
        assert_eq!((stepwise.num_users(), stepwise.num_items()), (9, 25));
        assert!(bit_identical(&one_jump.snapshot(), &stepwise.snapshot()));
        // grown rows are real values, not zeros (cold rows must score)
        let grown = one_jump.snapshot();
        assert!(grown.candidate_item_embeddings().row(24).iter().any(|&x| x != 0.0));
        assert!(grown.is_finite());
    }

    /// Cold rows appended mid-stream train with correctly damped first
    /// updates and end up finite and usable.
    #[test]
    fn grown_tables_train_through_the_delta_sampler() {
        let (mut seqs, num_items) = setup();
        let config = HamConfig::for_variant(HamVariant::HamM).with_dimensions(8, 4, 2, 2, 1);
        let tc = TrainConfig { epochs: 1, batch_size: 8, ..TrainConfig::default() };
        let mut state = TrainerState::new(seqs.len(), num_items, &config, &tc, 3);
        let mut data = ham_data::append::AppendableDataset::from_sequences(seqs.clone(), num_items);
        let mut sampler = BatchSampler::over_delta(&data.delta_view(4, 2), num_items, 4, 2, 2, 8, 50);
        state.train_round(&mut sampler, 1);
        data.mark_trained();
        // a brand-new user interacts with brand-new items
        let new_user = seqs.len();
        for t in 0..6 {
            data.append(new_user, num_items + t % 3);
        }
        seqs.push((0..6).map(|t| num_items + t % 3).collect());
        state.grow_to(data.num_users(), data.num_items());
        let delta = data.delta_view(4, 2);
        let mut sampler = BatchSampler::over_delta(&delta, data.num_items(), 4, 2, 2, 8, 51);
        let stats = state.train_round(&mut sampler, 1);
        assert!(stats[0].num_instances > 0, "the new user's windows must be trained");
        let snapshot = state.snapshot();
        assert!(snapshot.is_finite());
        assert_eq!(snapshot.num_users(), seqs.len());
        assert_eq!(snapshot.num_items(), num_items + 3);
        // the new user's new-item scores are real numbers influenced by training
        let scores = snapshot.score_all(new_user, &seqs[new_user]);
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
