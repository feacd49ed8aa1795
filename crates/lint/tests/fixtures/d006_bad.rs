// Fixture: D006 — a `fn X` beside a `pub fn X_into` kernel must call it.
// Linted as crate "tensor"; expected findings: exactly one D006, at `axpy`.

pub fn axpy_into(dst: &mut [f32], a: f32, xs: &[f32]) {
    for (d, x) in dst.iter_mut().zip(xs) {
        *d += a * x;
    }
}

// BAD: a second body for the same kernel, free to drift from `axpy_into`.
pub fn axpy(ys: &[f32], a: f32, xs: &[f32]) -> Vec<f32> {
    ys.iter().zip(xs).map(|(y, x)| y + a * x).collect()
}

pub fn scale_into(dst: &mut [f32], k: f32) {
    for d in dst.iter_mut() {
        *d *= k;
    }
}

// GOOD: a wrapper that calls its kernel.
pub fn scale(xs: &[f32], k: f32) -> Vec<f32> {
    let mut out = xs.to_vec();
    scale_into(&mut out, k);
    out
}

// GOOD: an orphan kernel needs no twin.
pub fn negate_into(dst: &mut [f32]) {
    for d in dst.iter_mut() {
        *d = -*d;
    }
}

// GOOD: a private `*_into` helper does not bind the same-named `accumulate`.
fn accumulate_into(dst: &mut [f32], xs: &[f32]) {
    for (d, x) in dst.iter_mut().zip(xs) {
        *d += x;
    }
}

fn accumulate(xs: &[f32]) -> f32 {
    xs.iter().sum()
}
