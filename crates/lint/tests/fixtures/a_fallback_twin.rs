// A001 fixture: a pooled form that falls back to its allocating twin. The
// call graph follows the `forward_into -> forward` edge like any other, so
// the twin's allocation is reachable from the hot-path root and must be
// reported with that chain. Linted as crate "nn", file "layer.rs";
// expected findings: exactly one A001, in `forward`.

pub struct Dense {
    weights: [f32; 4],
}

impl Dense {
    /// Hot-path root (`forward_into` anywhere). Its own body is
    /// allocation-free; the allocation hides behind the twin call.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        let y = self.forward(x);
        out.copy_from_slice(&y);
    }

    /// Allocating twin: one hop from the root, so its `vec!` is flagged.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; x.len()];
        for (o, (i, w)) in y.iter_mut().zip(x.iter().zip(self.weights.iter())) {
            *o = i * w;
        }
        y
    }
}
