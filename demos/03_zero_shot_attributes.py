"""Zero-shot transfer through a shared attribute table.

On the attribute-split stream every class is described by a binary
attribute vector.  The joint-embedding head scores classes by inner
products between the trunk output and attribute-derived class
embeddings, so knowledge stored in the table transfers to classes the
learner has never trained on.  Watch the accuracy *before the first
mini-batch of each task* climb as the stream progresses.
"""

import numpy as np

from llb import nn
from llb.learners import make_learner
from llb.metrics import zero_shot_series
from llb.protocol import HyperParams, arch_for_stream, run_single_pass, split_cv_ev
from llb.streams import make_synthetic_split_stream

SEED = 0
stream = make_synthetic_split_stream(
    num_classes=80, classes_per_task=5, T=13, A=32, seed=SEED, cv_split=3,
    input_dim=64, train_per_class=100, test_per_class=40,
)
_, ev_tasks = split_cv_ev(stream)
arch = arch_for_stream(stream, (64, 64), joint_embedding=True)
hp = HyperParams(lr=0.1, memory_per_task=100, ref_batch_size=128, batch_size=10, beta=10)

learner = make_learner("agem", nn.init_model(arch, SEED), hp, SEED)
_, run = run_single_pass(learner, ev_tasks, hp, SEED)
series = zero_shot_series(run.tensor)

print("task   zero-shot accuracy (chance = 0.20)")
for task, acc in series:
    bar = "#" * int(40 * acc)
    print(f"{task:>4}   {acc:.3f} {bar}")
last5 = np.mean([acc for _, acc in series[-5:]])
print(f"\nmean over the last five unseen tasks: {last5:.3f}")
