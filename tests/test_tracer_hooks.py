"""The names the benchmark's span tracer (bench/tracer.py) wraps stay live.

The tracer replaces module attributes such as `spae.adam_step` and
`classifier.adam_step` from outside, and counts optimizer steps and graph
nodes per stage through them. A training loop that stopped calling those
attributes would leave its counters at 0, and one that dropped a name would
make `--trace 1` fail at install; this test catches both.
"""

import sys
from pathlib import Path

import numpy as np

from meshact import classifier, optim, spae
from meshact.attention import TransformerConfig
from meshact.hierarchy import build_hierarchy
from meshact.topology import icosphere

_BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, _BENCH)
try:
    import tracer
finally:
    sys.path.remove(_BENCH)


def test_tracer_counts_steps_and_nodes_of_both_stages():
    topo, coords = icosphere(1)
    h = build_hierarchy(topo, coords, (2.0, 2.0, 2.0, 2.0), (6, 5, 5, 4, 4))
    rng = np.random.default_rng(0)
    frames = (coords + 0.02 * rng.standard_normal((8,) + coords.shape)
              ).astype(np.float32)
    sequences = [(rng.standard_normal((4, 4)).astype(np.float32), i % 2)
                 for i in range(6)]
    cfg = TransformerConfig(in_dim=4, n_classes=2, d_model=8, heads=(1,),
                            pe_mode="none")
    schedule = dict(epochs=1, learning_rate=1e-3, decay_rate=1.0,
                    weight_decay=0.0, seed=0)

    t = tracer.Tracer()
    t.install()
    try:
        spae.train_spae(frames, h, latent_dim=4, batch_size=4, **schedule)
        classifier.train_head("transformer", cfg, sequences[:4],
                              sequences[4:], batch_size=2, **schedule)
    finally:
        t.uninstall()

    assert t.calls["optim.adam_step"] == 2 + 2       # one per mini-batch
    assert len(t.nodes_per_step["spae"]) == 2
    assert len(t.nodes_per_step["head"]) == 2
    assert min(t.nodes_per_step["spae"] + t.nodes_per_step["head"]) > 0
    assert t.calls["spae.train_spae"] == 1
    assert t.calls["classifier.train_head"] == 1
    assert t.calls["classifier.evaluate"] == 1
    assert spae.adam_step is classifier.adam_step is optim.adam_step
