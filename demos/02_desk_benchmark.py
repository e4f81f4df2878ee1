"""Catastrophic forgetting on a small permuted-pixel stream.

Trains three learners through the same single-pass protocol and prints
the average-accuracy / forgetting / efficiency table.  Takes about a
minute on one core.
"""

import numpy as np

from llb import nn
from llb.learners import make_learner, multitask_train
from llb.metrics import avg_accuracy, forgetting
from llb.protocol import (
    HyperParams,
    arch_for_stream,
    build_stream,
    eval_all,
    run_single_pass,
    split_cv_ev,
)

SEED = 0
stream = build_stream(
    {"kind": "permuted-mnist", "tasks": 6, "cv_split": 2,
     "train_per_task": 600, "test_per_task": 300},
    seed=SEED,
)
cv_tasks, ev_tasks = split_cv_ev(stream)
arch = arch_for_stream(stream, (256, 256), joint_embedding=False)
hp = HyperParams(lr=0.03, memory_per_task=250, ref_batch_size=256, batch_size=10, beta=10)
print(f"{len(ev_tasks)} evaluation tasks, {arch.param_count:,} parameters\n")

print(f"{'learner':<10}{'A_T':>8}{'F_T':>8}{'violations':>12}{'ms/step':>10}")
for name in ("vanilla", "agem", "gem"):
    learner = make_learner(name, nn.init_model(arch, SEED), hp, SEED)
    state, run = run_single_pass(learner, ev_tasks, hp, SEED)
    last = ev_tasks[-1].task_id
    ms = 1000 * state.step_seconds / state.step_count
    print(f"{name:<10}{avg_accuracy(run.tensor, last):>8.3f}"
          f"{forgetting(run.tensor, last)[0]:>8.3f}"
          f"{state.violation_count:>12}{ms:>10.1f}")

model, _ = multitask_train(nn.init_model(arch, SEED), ev_tasks, hp, SEED)
print(f"{'multitask':<10}{np.mean(eval_all(model, ev_tasks)):>8.3f}"
      f"{'-':>8}{'-':>12}{'-':>10}   (upper bound)")
