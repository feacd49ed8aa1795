// A001 fixture: allocations reachable from a hot-path root through
// MULTIPLE call hops must be flagged; a properly classified + reasoned
// site must stay silent. Linted as crate "tensor", file "aggregation.rs"
// (a kernel file, so `pub fn weighted_sum_into` is a hot-path root).

/// Hot-path root: pub `*_into` in a kernel file.
pub fn weighted_sum_into(out: &mut [f32], parts: &[&[f32]]) {
    accumulate(out, parts);
}

/// One hop from the root: the `.to_vec()` here is flagged.
fn accumulate(out: &mut [f32], parts: &[&[f32]]) {
    let staged = parts[0].to_vec();
    finalize(out, &staged);
}

/// Two hops from the root: still flagged (transitive reachability).
fn finalize(out: &mut [f32], staged: &[f32]) {
    let mut scratch = Vec::with_capacity(out.len());
    // alloc: bounded — per-call residual list capped at the lane count
    let residuals: Vec<f32> = staged.iter().map(|x| x * 0.5).collect();
    scratch.extend_from_slice(&residuals);
    out.copy_from_slice(&scratch[..out.len()]);
}

/// Allocating wrapper over the kernel (D006 allows a `fn weighted_sum` only
/// as a caller of `weighted_sum_into`). Not a root and not reachable from
/// one, so its allocation is NOT an A001 finding.
pub fn weighted_sum(parts: &[&[f32]]) -> Vec<f32> {
    let mut out = vec![0.0f32; parts[0].len()];
    weighted_sum_into(&mut out, parts);
    out
}
