//! U-Net baseline (Ronneberger et al., MICCAI 2015).
//!
//! A two-level encoder/decoder with skip connections, sized for the G-cell
//! grids of this reproduction (grid dims must be divisible by 4). The
//! paper uses the popular `milesial/Pytorch-UNet` implementation on
//! 256×256 crops; this is the same family scaled to our maps. Trained with
//! the same γ-weighted BCE as LHNN, predicting the congestion mask.

use std::sync::Arc;

use neurograd::{Adam, Matrix, Optimizer, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::conv_layer::Conv2dLayer;
use crate::image::{BaselineTrainConfig, ImageModel, ImageSample};

/// A double 3×3 convolution block (conv-relu ×2).
#[derive(Debug, Clone)]
pub(crate) struct DoubleConv {
    c1: Conv2dLayer,
    c2: Conv2dLayer,
}

impl DoubleConv {
    pub(crate) fn new(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            c1: Conv2dLayer::new(store, &format!("{name}.c1"), in_ch, out_ch, 3, 1, 1, rng),
            c2: Conv2dLayer::new(store, &format!("{name}.c2"), out_ch, out_ch, 3, 1, 1, rng),
        }
    }

    pub(crate) fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        h: usize,
        w: usize,
    ) -> Var {
        let (y, _, _) = self.c1.forward(tape, store, x, h, w);
        let y = tape.relu(y);
        let (y, _, _) = self.c2.forward(tape, store, y, h, w);
        tape.relu(y)
    }
}

/// The U-Net generator network (shared with Pix2Pix).
#[derive(Debug, Clone)]
pub(crate) struct UNetNet {
    enc1: DoubleConv,
    enc2: DoubleConv,
    bottleneck: DoubleConv,
    dec2: DoubleConv,
    dec1: DoubleConv,
    out: Conv2dLayer,
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
}

impl UNetNet {
    pub(crate) fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        features: usize,
        rng: &mut StdRng,
    ) -> Self {
        let f = features;
        Self {
            enc1: DoubleConv::new(store, &format!("{name}.enc1"), in_dim, f, rng),
            enc2: DoubleConv::new(store, &format!("{name}.enc2"), f, 2 * f, rng),
            bottleneck: DoubleConv::new(store, &format!("{name}.bott"), 2 * f, 4 * f, rng),
            dec2: DoubleConv::new(store, &format!("{name}.dec2"), 4 * f + 2 * f, 2 * f, rng),
            dec1: DoubleConv::new(store, &format!("{name}.dec1"), 2 * f + f, f, rng),
            out: Conv2dLayer::new(store, &format!("{name}.out"), f, out_dim, 1, 1, 0, rng),
            in_dim,
            out_dim,
        }
    }

    /// Forward pass; returns logits `(out_dim, h·w)`.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is not divisible by 4.
    pub(crate) fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        h: usize,
        w: usize,
    ) -> Var {
        assert!(h % 4 == 0 && w % 4 == 0, "u-net needs dims divisible by 4, got {h}x{w}");
        assert_eq!(
            tape.shape(x),
            (self.in_dim, h * w),
            "u-net input must be ({}, {}x{})",
            self.in_dim,
            h,
            w
        );
        let e1 = self.enc1.forward(tape, store, x, h, w); // (f, h*w)
        let p1 = tape.max_pool2d(e1, h, w); // h/2
        let (h2, w2) = (h / 2, w / 2);
        let e2 = self.enc2.forward(tape, store, p1, h2, w2); // (2f, ...)
        let p2 = tape.max_pool2d(e2, h2, w2);
        let (h4, w4) = (h2 / 2, w2 / 2);
        let b = self.bottleneck.forward(tape, store, p2, h4, w4); // (4f, ...)
        let u2 = tape.upsample_nearest2(b, h4, w4); // back to h/2
                                                    // channel concat = row concat in (C, HW) layout
        let cat2 = tape.concat_rows(u2, e2);
        let d2 = self.dec2.forward(tape, store, cat2, h2, w2);
        let u1 = tape.upsample_nearest2(d2, h2, w2);
        let cat1 = tape.concat_rows(u1, e1);
        let d1 = self.dec1.forward(tape, store, cat1, h, w);
        let (logits, _, _) = self.out.forward(tape, store, d1, h, w);
        debug_assert_eq!(tape.shape(logits), (self.out_dim, h * w));
        logits
    }
}

/// U-Net congestion classifier.
#[derive(Debug)]
pub struct UNetModel {
    store: ParamStore,
    net: UNetNet,
}

impl UNetModel {
    /// Creates a U-Net with the given base feature width (paper-scale
    /// models use 64; 8–16 suits our map sizes).
    pub fn new(in_dim: usize, out_dim: usize, features: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let net = UNetNet::new(&mut store, "unet", in_dim, out_dim, features, &mut rng);
        Self { store, net }
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }
}

impl ImageModel for UNetModel {
    fn name(&self) -> &'static str {
        "unet"
    }

    fn fit(&mut self, samples: &[ImageSample], cfg: &BaselineTrainConfig) {
        let mut opt = Adam::new(cfg.lr);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let s = &samples[i];
                let mut tape = Tape::new();
                let x = tape.leaf(s.input.clone());
                let logits = self.net.forward(&mut tape, &self.store, x, s.ny, s.nx);
                let targets = s.target_cls.clone();
                let weights = targets.map(|y| y + (1.0 - y) * cfg.gamma);
                let loss = tape.bce_with_logits(logits, Arc::new(targets), Arc::new(weights));
                tape.backward(loss);
                self.store.absorb_grads(&mut tape);
                if cfg.grad_clip > 0.0 {
                    self.store.clip_grad_norm(cfg.grad_clip);
                }
                opt.step(&mut self.store);
                self.store.zero_grad();
            }
        }
    }

    fn predict(&self, sample: &ImageSample) -> Matrix {
        let mut tape = Tape::new();
        let x = tape.leaf(sample.input.clone());
        let logits = self.net.forward(&mut tape, &self.store, x, sample.ny, sample.nx);
        let prob = tape.sigmoid(logits);
        tape.value(prob).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_samples(n: usize) -> Vec<ImageSample> {
        // target: a 4x4 blob in an 8x8 image marked where channel 0 is hot
        (0..n)
            .map(|k| {
                let cells = 64;
                let mut feats = Matrix::zeros(cells, 2);
                let mut cong = Matrix::zeros(cells, 1);
                let ox = (k % 3) + 1;
                for y in 0..8usize {
                    for x in 0..8usize {
                        let idx = y * 8 + x;
                        let hot = x >= ox && x < ox + 4 && (2..6).contains(&y);
                        feats[(idx, 0)] = if hot { 1.0 } else { 0.0 };
                        feats[(idx, 1)] = 0.5;
                        cong[(idx, 0)] = if hot { 1.0 } else { 0.0 };
                    }
                }
                ImageSample::from_node_major(format!("blob{k}"), 8, 8, &feats, &cong)
            })
            .collect()
    }

    #[test]
    fn unet_learns_blob_task() {
        let samples = blob_samples(3);
        let mut model = UNetModel::new(2, 1, 4, 0);
        let cfg = BaselineTrainConfig { epochs: 30, lr: 5e-3, ..Default::default() };
        model.fit(&samples, &cfg);
        let pred = model.predict(&samples[0]);
        let target = &samples[0].target_cls;
        let correct = pred
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .filter(|(&p, &y)| (p >= 0.5) == (y >= 0.5))
            .count();
        assert!(correct >= 56, "only {correct}/64 correct");
    }

    #[test]
    fn prediction_shape() {
        let samples = blob_samples(1);
        let model = UNetModel::new(2, 1, 4, 0);
        let p = model.predict(&samples[0]);
        assert_eq!(p.shape(), (1, 64));
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn rejects_odd_grid() {
        let feats = Matrix::zeros(36, 2);
        let cong = Matrix::zeros(36, 1);
        let s = ImageSample::from_node_major("odd", 6, 6, &feats, &cong);
        let model = UNetModel::new(2, 1, 4, 0);
        model.predict(&s);
    }

    #[test]
    fn parameter_count_grows_with_features() {
        let small = UNetModel::new(4, 1, 4, 0).num_parameters();
        let large = UNetModel::new(4, 1, 8, 0).num_parameters();
        assert!(large > small * 3);
    }
}
