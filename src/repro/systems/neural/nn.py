"""Minimal neural-network components in numpy.

The paper-scale replacements for the PyTorch stacks of §4.2: a one-hidden-
layer MLP classifier and a binary scorer, both trained with Adam and
mini-batches.  Sizes here are tiny (inputs ≤ a few hundred dims, hidden
≤ 64), which keeps every experiment's training time in seconds while
preserving the *learning dynamics* the survey's claims are about
(training-data dependence, generalization to unseen phrasings).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


class AdamState:
    """Adam moments for one parameter tensor."""

    def __init__(self, shape: Tuple[int, ...]):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, grad: np.ndarray, lr: float, beta1=0.9, beta2=0.999, eps=1e-8) -> np.ndarray:
        """One Adam update; returns the delta to subtract."""
        self.t += 1
        self.m = beta1 * self.m + (1 - beta1) * grad
        self.v = beta2 * self.v + (1 - beta2) * grad * grad
        m_hat = self.m / (1 - beta1 ** self.t)
        v_hat = self.v / (1 - beta2 ** self.t)
        return lr * m_hat / (np.sqrt(v_hat) + eps)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


class MLPClassifier:
    """One-hidden-layer tanh MLP with softmax output and Adam training."""

    def __init__(self, input_dim: int, n_classes: int, hidden: int = 32, seed: int = 0, lr: float = 5e-3):
        rng = np.random.default_rng(seed)
        scale1 = 1.0 / np.sqrt(input_dim)
        scale2 = 1.0 / np.sqrt(hidden)
        self.w1 = rng.normal(0, scale1, (input_dim, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0, scale2, (hidden, n_classes))
        self.b2 = np.zeros(n_classes)
        self.lr = lr
        self._opt = {
            name: AdamState(param.shape)
            for name, param in (("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2))
        }

    def _forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(x @ self.w1 + self.b1)
        logits = hidden @ self.w2 + self.b2
        return hidden, logits

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch (or single row)."""
        x = np.atleast_2d(x)
        _, logits = self._forward(x)
        return softmax(logits, axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class per row."""
        return self.predict_proba(x).argmax(axis=1)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw logits (used for scoring candidate lists jointly)."""
        x = np.atleast_2d(x)
        _, logits = self._forward(x)
        return logits

    def train_batch(self, x: np.ndarray, y: np.ndarray, sample_weight: Optional[np.ndarray] = None) -> float:
        """One gradient step on a batch; returns mean cross-entropy."""
        x = np.atleast_2d(x)
        y = np.asarray(y, dtype=int)
        n = x.shape[0]
        hidden, logits = self._forward(x)
        probs = softmax(logits, axis=1)
        loss = -np.log(np.clip(probs[np.arange(n), y], 1e-12, 1.0))
        if sample_weight is None:
            weight = np.ones(n)
        else:
            weight = np.asarray(sample_weight, dtype=float)
        mean_loss = float((loss * weight).sum() / max(weight.sum(), 1e-9))
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits *= (weight / max(weight.sum(), 1e-9))[:, None]
        grad_w2 = hidden.T @ dlogits
        grad_b2 = dlogits.sum(axis=0)
        dhidden = (dlogits @ self.w2.T) * (1 - hidden * hidden)
        grad_w1 = x.T @ dhidden
        grad_b1 = dhidden.sum(axis=0)
        self.w2 -= self._opt["w2"].step(grad_w2, self.lr)
        self.b2 -= self._opt["b2"].step(grad_b2, self.lr)
        self.w1 -= self._opt["w1"].step(grad_w1, self.lr)
        self.b1 -= self._opt["b1"].step(grad_b1, self.lr)
        return mean_loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 30,
        batch_size: int = 32,
        seed: int = 0,
    ) -> List[float]:
        """Full training loop; returns per-epoch mean losses."""
        x = np.atleast_2d(x)
        y = np.asarray(y, dtype=int)
        rng = np.random.default_rng(seed)
        history = []
        n = x.shape[0]
        if n == 0:
            return history
        for _ in range(epochs):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                losses.append(self.train_batch(x[idx], y[idx]))
            history.append(float(np.mean(losses)))
        return history


class BinaryScorer(MLPClassifier):
    """Two-class MLP with a convenience probability-of-positive API."""

    def __init__(self, input_dim: int, hidden: int = 32, seed: int = 0, lr: float = 5e-3):
        super().__init__(input_dim, 2, hidden=hidden, seed=seed, lr=lr)

    def score(self, x: np.ndarray) -> np.ndarray:
        """P(positive) per row."""
        return self.predict_proba(x)[:, 1]
