//! Batch-formation and admission mechanics shared by the full-offload baselines
//! (FastDecode+, the strawmen, PIPO). Each policy distributes the collected decodes
//! over the sub-batches differently, but the eviction/admission bookkeeping is one
//! rule: all KV belongs on the host.

use neo_core::policy::IterationPlan;
use neo_core::scheduler::ScheduleContext;
use neo_kvcache::Device;

/// The pools the full-offload baselines keep KV in: the host cache alone, so it alone
/// bounds the context a request can hold.
pub(crate) const HOST_KV: &[Device] = &[Device::Cpu];

/// Evicts GPU strays to the host cache (full-offload policies keep no KV on the GPU)
/// and schedules every CPU-resident decode, up to `max_seqs` in total. Returns the
/// decodes for the caller to place — each baseline spreads them over the sub-batches
/// differently (batch-1 for FastDecode+, batch-0 for SimpleOffload/PIPO, an even split
/// for SymmetricPipeline).
pub(crate) fn collect_full_offload_decodes(
    ctx: &ScheduleContext<'_>,
    plan: &mut IterationPlan,
    max_seqs: usize,
) -> Vec<(u64, usize)> {
    let mut decodes = Vec::new();
    for &id in ctx.gpu_run {
        let c = ctx.context_len(id);
        if plan.cpu_free >= (c + 1) as i64 {
            plan.swap_out.push(id);
            plan.cpu_free -= (c + 1) as i64;
            decodes.push((id, c));
        }
    }
    for &id in ctx.cpu_run {
        if decodes.len() >= max_seqs || plan.cpu_free <= 0 {
            break;
        }
        decodes.push((id, ctx.context_len(id)));
        plan.cpu_free -= 1;
    }
    decodes
}

/// Shared admission phase of the full-offload baselines: prefills compute on the GPU
/// (prefill is compute-bound and stays there), but the generated KV always lands in the
/// CPU cache.
pub(crate) fn admit_prefills_to_cpu(ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
    plan.admit_prefills(ctx, ctx.config.prefill_chunk, |plan, _id, chunk| {
        (plan.cpu_free >= chunk as i64).then_some(Device::Cpu)
    });
}
