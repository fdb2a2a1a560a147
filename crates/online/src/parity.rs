//! The per-probe shadow gate the counting gate replaced, kept as the
//! reference it is checked against. Compiled only with the `gate-parity`
//! feature, which this crate's own tests turn on (a dev-dependency on
//! itself): every round those tests run then also gates the per-probe way,
//! and a round whose two gates decide differently panics.

use crate::{Probe, PublishGate, ShadowEval};
use ham_serve::{RecommendRequest, ServeScratch, ServingModel};

/// Each probe served alone through `recommend_with` on both models, a hit
/// when the target is among the `k` items served — the body the gate had
/// before it counted ranks.
pub(crate) fn per_probe_shadow_evaluate(
    live: &ServingModel,
    candidate: &ServingModel,
    probes: &[Probe<'_>],
    k: usize,
) -> ShadowEval {
    let mut candidate_hits = 0usize;
    let mut live_hits = 0usize;
    let (mut live_scratch, mut candidate_scratch) = (ServeScratch::new(), ServeScratch::new());
    for &(user, history, target) in probes {
        let mut request = RecommendRequest::new(user, history.to_vec(), k.max(1));
        request.exclude_seen = false;
        if live.recommend_with(&request, &mut live_scratch).iter().any(|scored| scored.item == target) {
            live_hits += 1;
        }
        if candidate.recommend_with(&request, &mut candidate_scratch).iter().any(|scored| scored.item == target) {
            candidate_hits += 1;
        }
    }
    ShadowEval { probes: probes.len(), candidate_hits, live_hits }
}

/// Gates the round's candidate the per-probe way too, prints both gates'
/// hit counts and their differences, and panics if the two gates would
/// decide differently.
pub(crate) fn check_decision(
    round: u64,
    live: &ServingModel,
    candidate: &ServingModel,
    probes: &[Probe<'_>],
    gate: &PublishGate,
    counted: &ShadowEval,
) {
    let reference = per_probe_shadow_evaluate(live, candidate, probes, gate.probe_k);
    let delta = |counted: usize, reference: usize| counted as i64 - reference as i64;
    eprintln!(
        "gate-parity: round {round}, {} probes at k = {}: live hits {} (per-probe {}, diff {}), candidate hits {} \
         (per-probe {}, diff {})",
        counted.probes,
        gate.probe_k,
        counted.live_hits,
        reference.live_hits,
        delta(counted.live_hits, reference.live_hits),
        counted.candidate_hits,
        reference.candidate_hits,
        delta(counted.candidate_hits, reference.candidate_hits),
    );
    assert_eq!(
        counted.rejects(gate),
        reference.rejects(gate),
        "round {round}: the counting gate and the per-probe gate decide differently ({counted:?} vs {reference:?})"
    );
}
