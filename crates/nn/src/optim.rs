//! Gradient-descent optimizers.
//!
//! Optimizers are keyed by parameter index (the position of the parameter
//! in the network's visit order), which is stable because architectures are
//! static once built.

use std::collections::HashMap;

/// A first-order optimizer updating one parameter tensor at a time.
pub trait Optimizer {
    /// Called once at the start of each [`Network::step`](crate::Network),
    /// e.g. to advance Adam's time step.
    fn begin_step(&mut self) {}

    /// Applies one update to `param` given its accumulated `grad`.
    /// `key` identifies the parameter across steps for stateful optimizers.
    fn update(&mut self, key: usize, param: &mut [f32], grad: &[f32]);
}

/// Plain stochastic gradient descent: `w ← w − lr·g`.
///
/// # Example
///
/// ```
/// use scnn_nn::optim::{Optimizer, Sgd};
///
/// let mut opt = Sgd::new(0.1);
/// let mut w = [1.0f32];
/// opt.update(0, &mut w, &[2.0]);
/// assert!((w[0] - 0.8).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics unless `lr` is positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "invalid learning rate {lr}");
        Self { lr }
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _key: usize, param: &mut [f32], grad: &[f32]) {
        for (p, &g) in param.iter_mut().zip(grad) {
            *p -= self.lr * g;
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with bias correction.
///
/// # Example
///
/// ```
/// use scnn_nn::optim::{Adam, Optimizer};
///
/// let mut opt = Adam::new(1e-3);
/// opt.begin_step();
/// let mut w = [1.0f32];
/// opt.update(0, &mut w, &[0.5]);
/// assert!(w[0] < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: i32,
    m: HashMap<usize, Vec<f32>>,
    v: HashMap<usize, Vec<f32>>,
}

impl Adam {
    const BETA1: f32 = 0.9;
    const BETA2: f32 = 0.999;
    const EPS: f32 = 1e-8;

    /// Creates Adam with the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    ///
    /// # Panics
    ///
    /// Panics unless `lr` is positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "invalid learning rate {lr}");
        Self { lr, t: 0, m: HashMap::new(), v: HashMap::new() }
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn update(&mut self, key: usize, param: &mut [f32], grad: &[f32]) {
        let t = self.t.max(1);
        let m = self.m.entry(key).or_insert_with(|| vec![0.0; param.len()]);
        let v = self.v.entry(key).or_insert_with(|| vec![0.0; param.len()]);
        let bc1 = 1.0 - Self::BETA1.powi(t);
        let bc2 = 1.0 - Self::BETA2.powi(t);
        for (((p, &g), mi), vi) in param.iter_mut().zip(grad).zip(m.iter_mut()).zip(v.iter_mut()) {
            *mi = Self::BETA1 * *mi + (1.0 - Self::BETA1) * g;
            *vi = Self::BETA2 * *vi + (1.0 - Self::BETA2) * g * g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + Self::EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        // Minimize f(w) = (w - 3)^2 from w = 0.
        let mut w = [0.0f32];
        for _ in 0..steps {
            opt.begin_step();
            let g = [2.0 * (w[0] - 3.0)];
            opt.update(0, &mut w, &g);
        }
        w[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = minimize(&mut Sgd::new(0.1), 100);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = minimize(&mut Adam::new(0.3), 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn optimizer_state_is_per_key() {
        let mut opt = Adam::new(0.1);
        opt.begin_step();
        let mut a = [0.0f32];
        let mut b = [0.0f32];
        opt.update(0, &mut a, &[1.0]);
        opt.update(1, &mut b, &[-1.0]);
        // Independent moments: opposite directions, equal first steps.
        assert!(a[0] < 0.0 && b[0] > 0.0);
        assert_eq!(a[0], -b[0]);
    }

    #[test]
    #[should_panic(expected = "invalid learning rate")]
    fn lr_validated() {
        let _ = Sgd::new(0.0);
    }
}
