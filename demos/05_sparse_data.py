"""Streaming over sparse libsvm-format data.

Writes a small sparse binary classification set in libsvm text form, reads
it back, and fits it with the averaged implicit update and with the
diagonal-adaptive update.  On a sparse stream, sgd/isgd/asgd/aisgd keep the
iterate as a scalar times a vector and the running average as a vector plus
a scalar times that vector, so the L2 shrink, the average and the divergence
test are scalar updates and a step costs O(nnz), not O(p).  The estimate is
built in O(p) only when evaluated.  AdaGrad's accumulator and its L2 term
touch every coordinate, so it stays O(p) per step.
"""

import tempfile
from pathlib import Path

import numpy as np

from aisgd import (
    Dataset,
    Sample,
    SparseVector,
    XuRate,
    classification_error,
    loss_from_name,
    read_libsvm,
    run_stream,
    write_libsvm,
)

rng = np.random.default_rng(3)
P, N = 50, 4000
theta_true = np.zeros(P)
theta_true[:10] = (6.0, -5.0, 5.0, -4.0, 4.0, -3.0, 3.0, -2.0, 2.0, -1.0)

samples = []
for _ in range(N):
    k = int(rng.integers(5, 16))
    idx = np.sort(rng.choice(P, size=k, replace=False))
    val = rng.standard_normal(k)
    u = float(val @ theta_true[idx])
    y = 1.0 if rng.uniform() < 1.0 / (1.0 + np.exp(-u)) else -1.0
    samples.append(Sample(SparseVector(idx, val, P), y))
data = Dataset(samples, dim=P, storage="sparse")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.svm"
    write_libsvm(data, path)
    print(f"wrote {N} sparse samples, first line:\n  {path.read_text().splitlines()[0]}")
    back = read_libsvm(path)
    print(f"read back: {len(back)} samples, dimension {back.dim}\n")

train = Dataset(data.samples[:3000], dim=P, storage="sparse")
test = Dataset(data.samples[3000:], dim=P, storage="sparse")
loss = loss_from_name("logistic", lam=1e-4)

for algo in ("aisgd", "adagrad"):
    result = run_stream(
        algo,
        loss,
        XuRate(1.0),
        train,
        eval_every=1000,
        evaluator=lambda th: classification_error(th, test),
        run_id=algo,
    )
    trail = " -> ".join(f"{pt.metric:.3f}" for pt in result.trace)
    print(f"{algo:>8} test error: {trail}")
