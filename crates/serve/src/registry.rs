//! Versioned model registry with atomic hot-swap.
//!
//! A serving process must be able to publish a retrained model without
//! pausing traffic. The registry holds the live [`ServingModel`] behind an
//! `Arc`: readers clone the `Arc` (a reference-count bump under a lock held
//! for nanoseconds — `std` has no lock-free `Arc` swap, so a `Mutex` guards
//! the pointer slot), publishers swap a new `Arc` in. Requests already
//! in flight keep the snapshot they started with and drop it when done; no
//! request ever observes a half-updated model.

use crate::model::ServingModel;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// How many recent publications the registry archives for
/// [`ModelRegistry::rollback_to`]. Snapshots share their `ServingModel`
/// behind an `Arc`, so the archive costs one pointer per publish — the
/// model memory is only retained while a snapshot is still in the window.
const HISTORY_CAPACITY: usize = 8;

/// A [`ServingModel`] together with its publication version.
#[derive(Debug)]
pub struct PublishedModel {
    /// The model snapshot. Behind an `Arc` so the rollback archive and the
    /// live slot can share one model without cloning catalogue matrices.
    pub model: Arc<ServingModel>,
    /// Monotonically increasing publication number (first publish = 1).
    pub version: u64,
    /// `Some(v)` when this publication is a rollback that restored the
    /// snapshot originally published as version `v`.
    pub rollback_of: Option<u64>,
}

/// [`ModelRegistry::rollback_to`] failure: the requested version is not in
/// the archive window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackError {
    /// The version that was asked for.
    pub version: u64,
    /// The versions currently available to roll back to (oldest first).
    pub available: Vec<u64>,
}

impl std::fmt::Display for RollbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rollback target version {} not in the archive (available: {:?})", self.version, self.available)
    }
}

impl std::error::Error for RollbackError {}

/// The registry: one live model slot with atomic hot-swap semantics, plus a
/// bounded archive of recent publications for rollback.
#[derive(Debug)]
pub struct ModelRegistry {
    slot: Mutex<Arc<PublishedModel>>,
    versions: AtomicU64,
    /// The last [`HISTORY_CAPACITY`] publications, oldest first. Guarded by
    /// taking `slot`'s lock first everywhere both are held.
    history: Mutex<VecDeque<Arc<PublishedModel>>>,
}

impl ModelRegistry {
    /// Creates a registry with an initial model (version 1).
    pub fn new(initial: ServingModel) -> Self {
        let first = Arc::new(PublishedModel { model: Arc::new(initial), version: 1, rollback_of: None });
        Self {
            slot: Mutex::new(Arc::clone(&first)),
            versions: AtomicU64::new(1),
            history: Mutex::new(VecDeque::from([first])),
        }
    }

    /// The currently published model. The returned `Arc` stays valid (and
    /// the snapshot immutable) for as long as the caller holds it, no matter
    /// how many publishes happen meanwhile.
    pub fn current(&self) -> Arc<PublishedModel> {
        // Both registry locks guard plain containers (an `Arc` slot and a
        // `VecDeque` archive) that stay structurally sound if a holder
        // panicked mid-publish — the slot then still holds the last
        // *completed* publish, which is exactly what readers should see.
        // Recover from poisoning everywhere rather than take serving down.
        Arc::clone(&self.slot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replaces the live model; returns the new version number.
    /// In-flight requests keep serving from the snapshot they loaded.
    ///
    /// The version is assigned while holding the slot lock, so concurrent
    /// publishers serialise: the model left in the slot is always the one
    /// with the highest version, and [`Self::version`] never reports a
    /// version newer than the slot's occupant.
    pub fn publish(&self, model: ServingModel) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: SeqCst, though the slot lock already orders every
        // increment (each one runs under it) and the model reaches readers
        // through that lock, never through this counter; the strongest
        // ordering keeps `version()` obviously monotonic at a cost paid once
        // per publish.
        let version = self.versions.fetch_add(1, Ordering::SeqCst) + 1;
        let published = Arc::new(PublishedModel { model: Arc::new(model), version, rollback_of: None });
        self.archive(&published);
        *slot = published;
        version
    }

    /// Rolls the live slot back to the snapshot originally published as
    /// `version`, **re-publishing it under a new (higher) version number** —
    /// versions stay monotonic, so serving-staleness accounting and
    /// "which publish am I on" logic never see time move backwards. The new
    /// publication's [`PublishedModel::rollback_of`] names the restored
    /// version. Returns the new version number.
    ///
    /// Only the last `HISTORY_CAPACITY` (8) publications are available;
    /// rolling back to the live version itself is allowed (an explicit
    /// re-pin). The model is shared by `Arc` — no catalogue copy.
    pub fn rollback_to(&self, version: u64) -> Result<u64, RollbackError> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let target = {
            let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
            match history.iter().rev().find(|p| p.version == version) {
                Some(target) => Arc::clone(&target.model),
                None => return Err(RollbackError { version, available: history.iter().map(|p| p.version).collect() }),
            }
        };
        // ordering: SeqCst, as in `publish`: the increment runs under the
        // slot lock, which orders it against every other publish.
        let new_version = self.versions.fetch_add(1, Ordering::SeqCst) + 1;
        let published = Arc::new(PublishedModel { model: target, version: new_version, rollback_of: Some(version) });
        self.archive(&published);
        *slot = published;
        Ok(new_version)
    }

    /// The versions currently in the rollback archive, oldest first (the
    /// live version is always the last entry).
    pub fn history_versions(&self) -> Vec<u64> {
        self.history.lock().unwrap_or_else(PoisonError::into_inner).iter().map(|p| p.version).collect()
    }

    /// Version of the latest publish.
    pub fn version(&self) -> u64 {
        // ordering: SeqCst pairs with the increments in `publish` and
        // `rollback_to`; a reader sees the latest completed increment and
        // never a version the slot has not reached (increment and swap
        // happen under one lock hold). It guards no other data, so a weaker
        // load would do; this is one load per call, off the request path.
        self.versions.load(Ordering::SeqCst)
    }

    fn archive(&self, published: &Arc<PublishedModel>) {
        let mut history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        if history.len() == HISTORY_CAPACITY {
            history.pop_front();
        }
        history.push_back(Arc::clone(published));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_tensor::Matrix;

    fn toy_model(tag: f32) -> ServingModel {
        let w = Matrix::from_rows(&[&[tag], &[tag * 2.0]]);
        ServingModel::from_parts("toy", &w, 1, |_, _| vec![1.0])
    }

    #[test]
    fn publish_bumps_version_and_swaps_the_model() {
        let registry = ModelRegistry::new(toy_model(1.0));
        assert_eq!(registry.version(), 1);
        let before = registry.current();
        let v2 = registry.publish(toy_model(5.0));
        assert_eq!(v2, 2);
        let after = registry.current();
        assert_eq!(before.version, 1);
        assert_eq!(after.version, 2);
        // The old snapshot is still fully usable by its holders.
        let req =
            crate::request::RecommendRequest { user: 0, history: vec![], k: 1, exclude_seen: false, deadline: None };
        assert_eq!(before.model.recommend(&req)[0].score, 2.0);
        assert_eq!(after.model.recommend(&req)[0].score, 10.0);
    }

    #[test]
    fn rollback_republishes_an_archived_snapshot_under_a_new_version() {
        let registry = ModelRegistry::new(toy_model(1.0));
        registry.publish(toy_model(2.0));
        registry.publish(toy_model(3.0));
        assert_eq!(registry.history_versions(), vec![1, 2, 3]);
        let rolled = registry.rollback_to(2).expect("version 2 archived");
        assert_eq!(rolled, 4, "rollback publishes forward, never rewinds the version counter");
        let live = registry.current();
        assert_eq!(live.version, 4);
        assert_eq!(live.rollback_of, Some(2));
        // The restored snapshot really is version 2's model.
        let req =
            crate::request::RecommendRequest { user: 0, history: vec![], k: 1, exclude_seen: false, deadline: None };
        assert_eq!(live.model.recommend(&req)[0].score, 4.0, "row 1 of toy_model(2.0) scores 4.0");
        assert_eq!(registry.history_versions(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn rollback_to_unknown_version_reports_whats_available() {
        let registry = ModelRegistry::new(toy_model(1.0));
        registry.publish(toy_model(2.0));
        let err = registry.rollback_to(9).unwrap_err();
        assert_eq!(err.version, 9);
        assert_eq!(err.available, vec![1, 2]);
        assert_eq!(registry.version(), 2, "a failed rollback publishes nothing");
    }

    #[test]
    fn archive_window_is_bounded_and_drops_the_oldest() {
        let registry = ModelRegistry::new(toy_model(1.0));
        for i in 0..10 {
            registry.publish(toy_model(i as f32 + 2.0));
        }
        let versions = registry.history_versions();
        assert_eq!(versions.len(), super::HISTORY_CAPACITY);
        assert_eq!(versions.last(), Some(&11));
        assert!(registry.rollback_to(1).is_err(), "version 1 aged out of the archive");
        assert!(registry.rollback_to(*versions.first().unwrap()).is_ok());
    }

    #[test]
    fn concurrent_readers_and_publishers_never_tear() {
        let registry = Arc::new(ModelRegistry::new(toy_model(1.0)));
        let publisher = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                for i in 0..50 {
                    registry.publish(toy_model(i as f32 + 2.0));
                }
            })
        };
        let req =
            crate::request::RecommendRequest { user: 0, history: vec![], k: 2, exclude_seen: false, deadline: None };
        for _ in 0..200 {
            let snapshot = registry.current();
            let top = snapshot.model.recommend(&req);
            // Internally consistent: row 1 scores exactly twice row 0.
            assert_eq!(top[0].score, top[1].score * 2.0);
        }
        publisher.join().unwrap();
        assert_eq!(registry.version(), 51);
    }

    /// Two publishers racing: the slot must end up holding the model with
    /// the highest version (version assignment happens under the slot lock,
    /// so a slower publisher cannot overwrite a newer one with an older
    /// model).
    #[test]
    fn racing_publishers_leave_the_newest_model_in_the_slot() {
        let registry = Arc::new(ModelRegistry::new(toy_model(1.0)));
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        registry.publish(toy_model(i as f32 + 2.0));
                    }
                })
            })
            .collect();
        for publisher in publishers {
            publisher.join().unwrap();
        }
        assert_eq!(registry.version(), 51);
        assert_eq!(registry.current().version, registry.version(), "slot must hold the newest publish");
    }
}
